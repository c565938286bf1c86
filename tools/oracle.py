"""Byte-identity oracle: do this tree and a git revision write the same files?

    python3 tools/oracle.py --against <rev>

Exports ``<rev>`` with ``git archive`` into a temporary directory, then runs
the same fixed set of cells in both trees, one process per tree, side by
side: the six schemes at the default config with ``train_episodes = 20``,
seed 3, a ``class_flip`` sweep over tampered fractions 0, 0.2 and 0.4, and
``vecafl test`` redeploying the ``ddafl`` cell's checkpoint at seed 4 with
the config that cell saved, so loading a checkpoint is compared too.  Each
run first checks that it imports the package from its own tree's ``src``
(not from an installed copy) and prints where from.  Each cell also
writes its world digests (``test_digests.txt`` for a scheme or the
redeploy, the training digests for the sweep), so a change in what the
environment draws shows even where no output file carries it, and
``rows.txt``, the ``repr`` of every metrics row, whose floats keep all 17
digits where ``metrics.csv`` prints nine: a sum taken in another order
shows there.  Every file is compared by sha256.  Exits 0 when all are
byte-identical and 1 naming every file that differs or exists on one side
only; 2 when a run fails or the revision cannot be exported.  Killed by
SIGTERM or interrupted, it stops both runs and removes its temporary
directory before it exits.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs inside each tree, with that tree's src first on the path, so it uses
# only names both sides define.
DRIVER = """
import os, sys
from dataclasses import replace
import vecafl
from vecafl import cli, harness
from vecafl.config import SimConfig
from vecafl.harness import attack_sweep, run_experiment

def dump(cell, name, lines):
    with open(os.path.join(cell, name), "w") as fh:
        fh.write("".join(line + "\\n" for line in lines))

out, src = sys.argv[1], os.path.realpath(sys.argv[2])
package = os.path.realpath(vecafl.__file__)
if os.path.dirname(os.path.dirname(package)) != src:
    sys.exit(f"imports {package}, not the package in {src}")
print("imports", package, flush=True)
cfg = replace(SimConfig(), train_episodes=20)
for scheme in ("ddafl", "ddafl_no_defense", "ddafl_no_lt", "ddafl_no_ct",
               "plain_afl", "sync_fl"):
    cell = os.path.join(out, scheme)
    res = run_experiment(scheme, cfg, 3, cell)
    dump(cell, "test_digests.txt", res.test_digests)
    dump(cell, "rows.txt", map(repr, res.rows))
cell = os.path.join(out, "sweep-class_flip")
_, rows, train_res = attack_sweep(cfg, 3, (0.0, 0.2, 0.4), "class_flip",
                                  cell)
dump(cell, "train_digests.txt", train_res.digests)
dump(cell, "rows.txt", map(repr, rows))

# the CLI keeps no result; record the one it builds for rows and digests
deployed, deploy = [], harness.run_experiment

def recorded(*args, **kwargs):
    deployed.append(deploy(*args, **kwargs))
    return deployed[-1]

harness.run_experiment = recorded
trained = os.path.join(out, "ddafl")
cell = os.path.join(out, "redeploy-ddafl")
code = cli.main(["test", "--checkpoint", os.path.join(trained, "checkpoint"),
                 "--config", os.path.join(trained, "config.txt"),
                 "--seed", "4", "--out", cell])
if code != 0:
    sys.exit(f"vecafl test exited with {code}")
dump(cell, "test_digests.txt", deployed[0].test_digests)
dump(cell, "rows.txt", map(repr, deployed[0].rows))
"""


def file_digests(top: Path) -> dict:
    """Relative path -> sha256 of every file under ``top``."""
    out = {}
    for path in sorted(top.rglob("*")):
        if path.is_file():
            out[path.relative_to(top).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def differing_files(a: Path, b: Path) -> list:
    """Relative paths whose bytes differ between the two trees, or that
    exist in only one of them, sorted."""
    da, db = file_digests(a), file_digests(b)
    return sorted(p for p in set(da) | set(db) if da.get(p) != db.get(p))


def export_revision(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; return its full hash."""
    full = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           rev + "^{commit}"], check=True,
                          capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", full],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return full


def start_driver(tree: Path, out: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    out.mkdir(parents=True)
    return subprocess.Popen([sys.executable, "-c", DRIVER, str(out),
                             str(tree / "src")],
                            cwd=str(out), env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through main's finally, which a bare SIGTERM skips
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True,
                        help="git revision to compare this tree with")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    scratch = Path(tempfile.mkdtemp(prefix="vecafl-oracle-"))
    procs = {}
    try:
        try:
            full = export_revision(args.against, scratch / "tree")
        except subprocess.CalledProcessError as err:
            print(f"cannot export {args.against!r}: {err.stderr or err}",
                  file=sys.stderr)
            return 2
        runs = {"this tree": (ROOT, scratch / "out-here"),
                full[:12]: (scratch / "tree", scratch / "out-there")}
        for name, (tree, out) in runs.items():
            procs[name] = start_driver(tree, out)
        failed = False
        for name, proc in procs.items():
            log, _ = proc.communicate()
            if proc.returncode != 0:
                failed = True
                print(f"run in {name} failed:\n{log}", file=sys.stderr)
            else:
                print(f"{name}: {log.splitlines()[0]}")
        if failed:
            return 2
        here, there = (out for _, out in runs.values())
        count = len(set(file_digests(here)) | set(file_digests(there)))
        differ = differing_files(here, there)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    wall = time.perf_counter() - start
    for path in differ:
        print(f"DIFFERS  {path}")
    print(f"{count - len(differ)} of {count} files byte-identical against "
          f"{full[:12]} ({wall:.0f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
