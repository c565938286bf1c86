"""Byte-identity oracle: do this tree and a git revision write the same files?

    python3 tools/oracle.py --against <rev> [--floats 1e-12]

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
``rows.txt``, every metrics row as one line of JSON, whose floats keep all
17 digits where ``metrics.csv`` prints nine: a sum taken in another order
shows there.  Every file is compared by sha256.  With ``--floats REL``
each ``rows.txt`` is compared value by value instead: a float within a
relative ``REL`` of its counterpart (a nan of a nan) matches, any other
value must be equal and of the same type, and the file is named with its
first differing row; the other files keep their sha256 check, so a sum
reordered in training still shows in the checkpoint.  Exits 0 when all
files match and 1 naming every file that differs or exists on one side
only; 2 when a run fails or the revision cannot be exported.  Killed by SIGTERM or
interrupted, it stops both runs and removes its temporary directory before
it exits.
"""

import argparse
import hashlib
import json
import math
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
import json, os, signal, sys
signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})  # oracle blocked it
from dataclasses import asdict, replace
import vecafl
from vecafl import cli, harness
from vecafl.config import SimConfig
from vecafl.harness import attack_sweep, run_experiment

def dump(cell, name, lines):
    with open(os.path.join(cell, name), "w") as fh:
        fh.write("".join(line + "\\n" for line in lines))

def as_json(row):
    return json.dumps(asdict(row))

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
    dump(cell, "rows.txt", map(as_json, res.rows))
cell = os.path.join(out, "sweep-class_flip")
_, rows, train_res = attack_sweep(cfg, 3, (0.0, 0.2, 0.4), "class_flip",
                                  cell)
dump(cell, "train_digests.txt", train_res.digests)
dump(cell, "rows.txt", map(as_json, rows))

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
dump(cell, "rows.txt", map(as_json, deployed[0].rows))
"""


def file_digests(top: Path) -> dict:
    """Relative path -> sha256 of every file under ``top``."""
    out = {}
    for path in sorted(top.rglob("*")):
        if path.is_file():
            out[path.relative_to(top).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _values_match(x, y, rel: float) -> bool:
    """Two decoded values: floats within ``rel`` of each other (a nan of a
    nan), anything else equal and of the same type."""
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        return (math.isclose(x, y, rel_tol=rel)
                or math.isnan(x) and math.isnan(y))
    return x == y


def first_differing_row(a: Path, b: Path, rel: float):
    """1-based number of the first line of two ``rows.txt`` files whose
    values differ beyond ``rel`` (see ``_values_match``), or None."""
    rows_a = [json.loads(line) for line in a.read_text().splitlines()]
    rows_b = [json.loads(line) for line in b.read_text().splitlines()]
    for number, (x, y) in enumerate(zip(rows_a, rows_b), 1):
        # the same field names in the same order, then value by value
        if list(x) != list(y) or not all(
                _values_match(x[key], y[key], rel) for key in x):
            return number
    if len(rows_a) != len(rows_b):
        return min(len(rows_a), len(rows_b)) + 1
    return None


def differing_files(a: Path, b: Path, floats=None) -> list:
    """Relative paths whose bytes differ between the two trees, or that
    exist in only one of them, sorted.  With ``floats`` a ``rows.txt`` on
    both sides differs only past that relative tolerance, and is named
    with its first differing row."""
    da, db = file_digests(a), file_digests(b)
    out = []
    for path in sorted(set(da) | set(db)):
        if da.get(path) == db.get(path):
            continue
        if floats is not None and path.endswith("rows.txt") \
                and path in da and path in db:
            row = first_differing_row(a / path, b / path, floats)
            if row is not None:
                out.append(f"{path} (row {row})")
        else:
            out.append(path)
    return out


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
    parser.add_argument("--floats", type=float, metavar="REL",
                        help="compare rows.txt floats within this relative "
                             "tolerance instead of byte for byte")
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
        # a SIGTERM while a driver starts would exit before the driver is
        # in procs, for the finally below to stop; it waits until both are
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            for name, (tree, out) in runs.items():
                procs[name] = start_driver(tree, out)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
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
        differ = differing_files(here, there, args.floats)
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)

    wall = time.perf_counter() - start
    for path in differ:
        print(f"DIFFERS  {path}")
    match = ("byte-identical" if args.floats is None
             else f"matching (rows.txt floats within {args.floats:g})")
    print(f"{count - len(differ)} of {count} files {match} against "
          f"{full[:12]} ({wall:.0f} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
