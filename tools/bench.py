"""Benchmark record: this tree's end-to-end timings, in one JSON file.

    python3 tools/bench.py --out BENCH_1.json

Run from anywhere; it works on the checkout it lives in.  It runs:

* ``perfbench/run.py``, untraced, once per workload at each of seeds 1, 2
  and 3, for ``BENCHMARK.json``'s ``run_seconds``.  Each run's last line
  must be its JSON result with ``correct`` true, or the bench stops;
* in fresh child processes, three times each, timed after the package
  import: a 20-episode ``ddpg.train`` at the default config and seed 7,
  its dataset built before the timer, and 3-episode deployments at seed 7
  of ``ddafl`` (the initial actor of agent seed 3, the policy perfbench
  deploys), ``plain_afl`` and ``sync_fl``, dataset build included.  Each
  job records its wall time and, over the same stretch, the CPU time of
  its main process (``RUSAGE_SELF``) and of the processes it forked and
  joined (``RUSAGE_CHILDREN``): training's learner and a deployment's
  cohort helper, which perfbench's ``cpu_ms_per_slot`` leaves out;
* the Tier-1 suite once, for its wall time and the five slowest steps that
  ``pytest --durations=5`` lists.

Repeats rotate through the workloads, so a slow spell of the host falls
on all of them.  The file holds every run, the medians, and what the
timings depend on: the commit, python, numpy, scipy, the BLAS and its
version, ``vecafl.BLAS_THREADS``, ``vecafl.BLAS_CORE`` (the kernel family
OpenBLAS runs, null where it is unknown), ``nproc`` and the load average
at start and end.  Two files whose kernel families differ are not
comparable: the family alone moves local SGD by 1.3 to 2.2 times.  Exits
1 when the Tier-1 suite fails, after writing the file.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SEEDS = (1, 2, 3)
REPEATS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "--durations=5"]

# Runs in a fresh interpreter: argv is the src directory and a job name;
# prints the job's wall, own CPU and children's CPU seconds as JSON, the
# import left out.
CHILD = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from dataclasses import replace
import numpy as np
from vecafl import ddpg, harness
from vecafl.config import SimConfig
from vecafl.world import build_dataset

def clocks():
    cpu = [resource.getrusage(who) for who in (resource.RUSAGE_SELF,
                                               resource.RUSAGE_CHILDREN)]
    return [time.perf_counter()] + [u.ru_utime + u.ru_stime for u in cpu]

job, cfg = sys.argv[2], SimConfig()
if job == "train":
    cfg = replace(cfg, train_episodes=20)
    dataset = build_dataset(cfg, 7)
    start = clocks()
    ddpg.train(cfg, dataset, 7)
else:
    policy = ddpg.TrainResult(ddpg.init_agent(cfg, 3), np.zeros(0), [], [],
                              "") if job == "ddafl" else None
    start = clocks()
    harness.run_experiment(job, cfg, 7, pretrained=policy)
print(json.dumps(dict(zip(("wall_s", "cpu_self_s", "cpu_children_s"),
                          (b - a for a, b in zip(start, clocks()))))))
"""
JOBS = {"ddpg.train_20_episodes": "train", "deploy_ddafl": "ddafl",
        "deploy_plain_afl": "plain_afl", "deploy_sync_fl": "sync_fl"}


class BenchError(RuntimeError):
    """A run failed, or did not report a correct result."""


def perfbench_result(stdout: str) -> dict:
    """The JSON result that ends a ``perfbench/run.py`` run's output;
    refused unless it parses and its ``correct`` is true."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        raise BenchError("the last line of the run is not a JSON object")
    if result.get("correct") is not True:
        raise BenchError(f"the run reports correct = "
                         f"{result.get('correct')!r}")
    return result


def slowest(stdout: str) -> list:
    """The ``--durations`` lines of a pytest run, as (seconds, step,
    test id) records in the order pytest prints them."""
    found = re.findall(r"^([\d.]+)s (setup|call|teardown) +(.+)$", stdout,
                       flags=re.MULTILINE)
    return [{"seconds": float(s), "step": step, "test": test}
            for s, step, test in found]


def run_perfbench(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    try:
        result = perfbench_result(done.stdout)
    except BenchError as exc:
        raise BenchError(f"perfbench {workload} seed {seed} (exit "
                         f"{done.returncode}): {exc}\n{done.stderr[-2000:]}")
    return {"seed": seed, "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def time_job(job: str) -> dict:
    """The job's ``wall_s``, ``cpu_self_s`` and ``cpu_children_s``."""
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), job],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"timing {job} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:]),
            "wall_s": wall, "exit_code": done.returncode,
            "summary": lines[-1] if lines else "",
            "durations": slowest(done.stdout)}


def machine() -> dict:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import vecafl
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = lambda *args: subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True).stdout
    return {"commit": git("rev-parse", "HEAD").strip(),
            "tracked_changes": bool(git("status", "--porcelain",
                                        "--untracked-files=no").strip()),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": vecafl.BLAS_THREADS,
            "openblas_core": vecafl.BLAS_CORE,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def medians(runs: list) -> dict:
    """Per key of the runs' dicts, the median over the runs."""
    return {name: statistics.median(r[name] for r in runs)
            for name in runs[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    began = time.perf_counter()
    load_start = os.getloadavg()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    perf = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            perf[w].append(run_perfbench(w, seed, seconds))
            print(f"perfbench {w} seed {seed}: slots_per_s "
                  f"{perf[w][-1]['metrics']['slots_per_s']:.2f}", flush=True)
    timings = {job: [] for job in JOBS}
    for _ in range(REPEATS):
        for name, job in JOBS.items():
            timings[name].append(time_job(job))
            print(f"{name}: " + ", ".join(
                f"{k} {v:.2f}" for k, v in timings[name][-1].items()),
                flush=True)
    tier1 = run_tier1()
    print(f"tier-1: {tier1['wall_s']:.0f} s, {tier1['summary']}", flush=True)

    record = {
        "command": "python3 tools/bench.py --out " + os.path.basename(
            args.out),
        "machine": {**machine(), "load_start": load_start,
                    "load_end": os.getloadavg()},
        "perfbench": {"run_seconds": seconds, "seeds": list(SEEDS),
                      "medians": {w: medians([r["metrics"] for r in runs])
                                  for w, runs in perf.items()},
                      "runs": perf},
        "timings_s": {"repeats": REPEATS,
                      "medians": {job: medians(runs)
                                  for job, runs in timings.items()},
                      "runs": timings},
        "tier1": tier1,
        "wall_s": time.perf_counter() - began,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out} in {record['wall_s']:.0f} s")
    return 0 if tier1["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
