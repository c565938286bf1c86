"""vecafl benchmark: host time per simulated slot, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

One run is one process and one workload.  It runs whole cells, each one
``harness.run_experiment`` call, within ``--seconds`` of its start: first
the reference seed, whose per-slot outputs must match ``reference.json``,
then seeds drawn from ``--seed`` (at least one), and last the reference
seed again, which must write the same bytes as its first run.  Every slot
must have finite outputs and every accepted upload a loss within the
filter's limit.  A slot that fails a check, or belongs to a cell that
raised, counts as failed.  Human-readable lines come first; the last line
is the JSON result.

``--trace 0`` reports the end-to-end metrics over all cells, untraced.
The host they were built on is shared and changes speed by up to 1.6
times, so slot and cell times are scaled to a fixed host speed: after each
slot a short pure-Python calibration probe runs, outside the timings, and
a slot's time is multiplied by ``REF_PROBE_S`` over the median probe time
of the slots next to it, and a cell's wall time by the cell's median
probe.  ``setup_s``, not scaled because import time does not follow the
probe, is the median package import of this process and three fresh
interpreters plus a cell's median time until its first slot loop starts;
``run_s`` is that import plus a cell's median scaled wall time.  A slot
runs from one evaluation of the global model to the next, the first slot
of an episode from the start of its World build.

``--trace 1`` traces every cell but the first, without probes, and reports
per-layer metrics from the traced cells, not scaled: times are seconds per
slot over the slot loops, counts are those of the reference seed's traced
run, and its untraced first run gives the tracing overhead.  The spans go
to ``perfbench/out/``.

Workloads (the number of learners per slot differs, so that batching local
SGD over learners can be judged):

* ``train``: ``vecafl train`` at 5 training episodes and 1 deployment
  episode.  The only workload where the agent learns; about 2.8 learners
  per slot while training, no trusted model.
* ``deploy_defended``: 3 ``ddafl`` deployment episodes with the filter on
  and ``class_flip`` on the 2 admitted vehicles.  The policy is the initial
  actor of agent seed 3, a fixed part of the workload like a shipped
  checkpoint: it admits 4 vehicles per slot, next to the 600-sample trusted
  learner, and the filter rejects about 45% of uploads.
* ``deploy_sync``: 3 ``sync_fl`` episodes; all 5 vehicles train each slot on
  unequal shards and are folded by a mean.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

if not (SRC / "vecafl" / "__init__.py").is_file():
    sys.exit(f"perfbench: no vecafl sources under {SRC}")
sys.path.insert(0, str(SRC))
_t0 = time.perf_counter()
from vecafl import channel, data, ddpg, engine, harness, model, world  # noqa: E402
from vecafl.config import SimConfig  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

from spans import (Patcher, SlotClock, SpanRecorder,  # noqa: E402
                   calibration_s, summarize)

MODULES = {"channel": channel, "data": data, "world": world, "model": model,
           "engine": engine, "ddpg": ddpg, "harness": harness}
REF_SEED = 7
POLICY_SEED = 3        # agent seed of the deployed initial actor
MIN_SEEDS = 2          # the reference seed and at least one from --seed
IMPORT_CHILDREN = 3    # fresh interpreters that time the package import
COVERAGE_FLOOR = 0.95
# The calibration probe's time on the 2-vCPU Xeon host this was built on, in
# its faster state; timed metrics are scaled to a host where it takes this.
REF_PROBE_S = 0.7e-3
PROBE_WINDOW = 2       # slots on each side whose probes set a slot's speed
REL_TOL = 1e-9


def _train(seed, out_dir):
    cfg = replace(SimConfig(), train_episodes=5, test_episodes=1)
    return harness.run_experiment("ddafl", cfg, seed, out_dir=out_dir)


def _deploy_defended(seed, out_dir):
    cfg = replace(SimConfig(), attack="class_flip")
    policy = ddpg.TrainResult(ddpg.init_agent(cfg, POLICY_SEED),
                              np.zeros(0), [], [], "")
    return harness.run_experiment("ddafl", cfg, seed, out_dir=out_dir,
                                  pretrained=policy)


def _deploy_sync(seed, out_dir):
    return harness.run_experiment("sync_fl", SimConfig(), seed,
                                  out_dir=out_dir)


# workload -> (cell, slots per cell)
WORKLOADS = {"train": (_train, 120),
             "deploy_defended": (_deploy_defended, 60),
             "deploy_sync": (_deploy_sync, 60)}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("slots_per_s", "1/s"),
              ("slot_ms_p50", "ms"), ("slot_ms_p90", "ms"),
              ("cpu_ms_per_slot", "ms"), ("peak_rss_mb", "MB"))

# Counts that only a call's arguments or result show.
NOTES = {
    "model.local_train": lambda args, out: len(args[1]) * args[2],
    "engine.run_afl_slot": lambda args, out: (
        len(out.accepted_ids), len(out.reported), len(out.skipped_ids)),
    "engine.sync_round": lambda args, out: (
        len(out.accepted_ids), len(out.reported), len(out.skipped_ids)),
}


@dataclass
class Cell:
    sim_seed: int
    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    clock: SlotClock = None
    summary: dict = None
    spans: list = None
    outputs: dict = field(default_factory=dict)
    failed: int = 0


def per_slot_values(result) -> list:
    """(avg_loss, accuracy, accepted_count, reward) of every slot, in order."""
    return [(r.avg_loss, r.accuracy, r.accepted_count, r.reward)
            for r in result.rows if r.slot > 0]


def failed_slots(result, planned: int, reference=None) -> int:
    """Slots that are missing, non-finite, unsound or off the reference."""
    values = per_slot_values(result)
    bad = set(range(len(values), planned))
    for i, row in enumerate(values[:planned]):
        if not all(math.isfinite(v) for v in row):
            bad.add(i)
    # the deployment phase is the last stretch of slots
    offset = len(values) - len(result.test_slot_results)
    for i, res in enumerate(result.test_slot_results):
        if any(not loss <= limit for _, loss, limit in res.accept_audit):
            bad.add(offset + i)
    if reference is not None:
        for i, (got, want) in enumerate(zip(values, reference)):
            if got[2] != want[2] or not all(
                    math.isclose(g, w, rel_tol=REL_TOL, abs_tol=0.0)
                    for g, w in zip((got[0], got[1], got[3]),
                                    (want[0], want[1], want[3]))):
                bad.add(i)
        bad.update(range(len(reference), len(values)))
    return len(bad)


def read_outputs(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def run_cell(workload: str, sim_seed: int, traced: bool, tag: str,
             reference=None) -> Cell:
    """One run_experiment call with the slot clock, and spans if traced."""
    cell_fn, planned = WORKLOADS[workload]
    cell = Cell(sim_seed, traced, clock=SlotClock(calibrate=not traced))
    recorder = SpanRecorder(NOTES) if traced else None
    out_dir = OUT / f"cell-{os.getpid()}-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    patcher = Patcher()
    try:
        if recorder is not None:
            recorder.install(patcher, MODULES)
        cell.clock.install(patcher, MODULES)
        start = time.perf_counter()
        result = cell_fn(sim_seed, str(out_dir))
        cell.wall_s = (time.perf_counter() - start
                       - cell.clock.probe_total_s)
        cell.setup_s = cell.clock.first_loop_at - start
        cell.failed = failed_slots(result, planned, reference)
        cell.outputs = read_outputs(out_dir)
    except Exception:  # a crashing cell fails all its slots, the run goes on
        import traceback
        traceback.print_exc()
        cell.failed = planned
    finally:
        patcher.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
    if recorder is not None:
        cell.spans = recorder.spans
        cell.summary = summarize(recorder.spans)
    return cell


def child_import_s() -> float:
    """Package import time in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); "
            "import vecafl.harness, vecafl.ddpg; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip())


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read through its own API."""
    import ctypes
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_info() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def slot_scale(clock) -> np.ndarray:
    """Per slot, REF_PROBE_S over the median probe of the slots around it."""
    probes = np.asarray(clock.calibration_s)
    return REF_PROBE_S / np.array(
        [np.median(probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
         for i in range(len(probes))])


def cell_scale(clock) -> float:
    return REF_PROBE_S / float(np.median(clock.calibration_s))


def end_to_end(cells, import_s) -> dict:
    """Timed metrics of untraced cells, scaled to the speed of REF_PROBE_S.

    The 2-vCPU host this was built on runs the same code at one speed or
    up to about 1.6 times slower, in spells of a second to more than a
    minute, whatever this process does.  The calibration probe after every
    slot slows down with it, so each slot's time is scaled by the probes
    next to it, and a cell's wall time by its median probe.  Set-up is not
    scaled: import time, most of it, does not follow the probe.
    """
    scales = [slot_scale(c.clock) for c in cells]
    setup_s = import_s + statistics.median(c.setup_s for c in cells)
    wall = np.concatenate([np.multiply(c.clock.slot_s, k)
                           for c, k in zip(cells, scales)])
    cpu = np.concatenate([np.multiply(c.clock.slot_cpu_s, k)
                          for c, k in zip(cells, scales)])
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "run_s": import_s + statistics.median(
            c.wall_s * cell_scale(c.clock) for c in cells),
        "slots_per_s": len(wall) / wall.sum(),
        "slot_ms_p50": float(np.percentile(wall, 50)) * 1e3,
        "slot_ms_p90": float(np.percentile(wall, 90)) * 1e3,
        "cpu_ms_per_slot": float(cpu.mean()) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(untraced, traced, import_s) -> dict:
    """Layer metrics from the traced cells.

    The first traced cell gives the counts, and its untraced twin
    ``untraced`` the tracing overhead.  Times are not scaled.
    """
    first = traced[0].summary
    slots = sum(len(c.clock.slot_s) for c in traced)
    first_slots = len(traced[0].clock.slot_s)

    def total(key, name):
        return sum(c.summary[key].get(name, 0.0) for c in traced)

    def per_slot(name):
        return total("loop_total", name) / slots

    def count(name):
        return first["loop_count"].get(name, 0)

    def mean_ms(name):
        n = sum(c.summary["loop_count"].get(name, 0) for c in traced)
        return total("loop_total", name) * 1e3 / n if n else 0.0

    def median_outside(name):
        return statistics.median(c.summary["outside_total"].get(name, 0.0)
                                 for c in traced)

    passes = [sum(c.summary["loop_notes"].get("model.local_train", []))
              for c in traced]
    train_s = total("loop_total", "model.local_train")
    rounds = [n for name in ("engine.run_afl_slot", "engine.sync_round")
              for n in first["loop_notes"].get(name, [])]
    arrived = sum(n[1] for n in rounds)
    untraced_rate = len(untraced.clock.slot_s) / untraced.clock.loop_s
    traced_rate = first_slots / traced[0].clock.loop_s
    layer_self = {f"{layer}.self_s": (total("layer_self", layer) / slots, "s/slot")
                  for layer in ("data", "world", "model", "engine", "ddpg")}
    return {
        "model.local_train_s": (per_slot("model.local_train"), "s/slot"),
        "model.local_train_calls": (count("model.local_train"), "count"),
        "model.sample_passes": (passes[0], "count"),
        "model.sample_passes_per_s": (sum(passes) / train_s if train_s
                                      else 0.0, "1/s"),
        "model.learners_per_slot": (count("model.local_train") / first_slots,
                                    "count"),
        "model.evaluate_s": (per_slot("model.evaluate"), "s/slot"),
        "ddpg.state_vector_calls": (count("ddpg.state_vector"), "count"),
        "ddpg.state_vector_s": (per_slot("ddpg.state_vector"), "s/slot"),
        "ddpg.replay_sample_s": (per_slot("ddpg.ReplayBuffer.sample"),
                                 "s/slot"),
        "ddpg.critic_targets_s": (per_slot("ddpg.critic_targets"), "s/slot"),
        "ddpg.critic_update_s": (per_slot("ddpg.critic_update"), "s/slot"),
        "ddpg.actor_update_s": (per_slot("ddpg.actor_update"), "s/slot"),
        "ddpg.soft_update_s": (per_slot("ddpg.soft_update"), "s/slot"),
        "ddpg.actor_forward_s": (per_slot("ddpg.actor_forward"), "s/slot"),
        "ddpg.updates": (count("ddpg.critic_update"), "count"),
        "engine.slot_self_s": ((total("loop_self", "engine.run_afl_slot")
                                + total("loop_self", "engine.sync_round"))
                               / slots, "s/slot"),
        "engine.fold_calls": (count("engine.global_update")
                              + count("model.params_mean"), "count"),
        "engine.filter_calls": (count("engine.threshold_accept"), "count"),
        "engine.accept_ratio": (sum(n[0] for n in rounds) / arrived
                                if arrived else 0.0, "ratio"),
        "engine.skipped": (sum(n[2] for n in rounds), "count"),
        "world.build_ms": (mean_ms("world.World.__init__"), "ms"),
        "world.advance_ms": (mean_ms("world.World.advance"), "ms"),
        "channel.calls": (sum(n for name, n in first["loop_count"].items()
                              if name.startswith("channel.")), "count"),
        "channel.busy_s": (total("layer_self", "channel") / slots, "s/slot"),
        "data.degrade_s": (per_slot("data.degrade_bad_node"), "s/slot"),
        "data.attack_view_s": (per_slot("data.DataShard.training_view"),
                               "s/slot"),
        "setup.import_s": (import_s, "s"),
        "data.build_dataset_s": (median_outside("world.build_dataset"), "s"),
        "harness.emit_metrics_s": (median_outside("harness.emit_metrics"),
                                   "s"),
        "ddpg.save_checkpoint_s": (median_outside("ddpg.save_checkpoint"),
                                   "s"),
        **layer_self,
        "trace.coverage": (min(c.summary["coverage"] for c in traced),
                           "ratio"),
        "trace.overhead": (untraced_rate / traced_rate - 1.0, "ratio"),
        "trace.slots_per_s_untraced": (untraced_rate, "1/s"),
        "trace.slots_per_s_traced": (traced_rate, "1/s"),
    }


def write_spans(path: Path, header: dict, cells) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, c in enumerate(cells):
            for name, start, end, parent, _ in c.spans:
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    load_start = os.getloadavg()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    OUT.mkdir(exist_ok=True)
    planned = WORKLOADS[args.workload][1]
    ref = reference["workloads"][args.workload]
    # The reference seed, then seeds drawn from --seed while the reference
    # seed's second run should still end within --seconds of the process
    # start.  Both runs of the reference seed must write the same bytes.  A
    # fresh interpreter times the package import after each of the first
    # cells.  With --trace 1 every cell but the first is traced.
    rng = np.random.default_rng(args.seed)
    deadline = _t0 + args.seconds
    imports = [IMPORT_S]
    cells, cell_s = [], []
    while len(cells) < MIN_SEEDS or (
            time.perf_counter() + statistics.median(cell_s[1:]) + cell_s[0]
            < deadline):
        seed = int(rng.integers(0, 2**31)) if cells else REF_SEED
        began = time.perf_counter()
        cells.append(run_cell(args.workload, seed, bool(args.trace and cells),
                              f"{len(cells)}", None if cells else ref))
        cell_s.append(time.perf_counter() - began)
        if len(imports) <= IMPORT_CHILDREN:
            imports.append(child_import_s())
    cells.append(run_cell(args.workload, REF_SEED, bool(args.trace),
                          f"{len(cells)}", ref))
    if cells[-1].outputs != cells[0].outputs:
        print("the two runs of the reference seed wrote different bytes",
              file=sys.stderr)
        cells[-1].failed = planned
    import_s = statistics.median(imports)

    attempted = planned * len(cells)
    failed = sum(c.failed for c in cells)
    done = [c for c in cells if not c.failed]
    # the reference seed's traced run first: it gives the exact counts
    traced = [c for c in done[::-1] if c.traced]
    if not done or (args.trace and not (
            traced and traced[0].sim_seed == REF_SEED and not cells[0].failed)):
        print("a cell failed, so there is nothing to report", file=sys.stderr)
        return 1
    info = machine_info()
    info.update(load_start=load_start, load_end=os.getloadavg(),
                workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                cells=len(done), slot_samples=sum(len(c.clock.slot_s)
                                                  for c in done),
                import_s_runs=imports, probe_ms_cells=[
                    float(np.median(c.clock.calibration_s)) * 1e3
                    for c in done if c.clock.calibration_s])
    if args.trace:
        metrics = per_layer(cells[0], traced, import_s)
        metrics["failed_frac"] = (failed / attempted, "ratio")
        coverage = metrics["trace.coverage"][0]
        if coverage < COVERAGE_FLOOR:
            print(f"layer spans cover {coverage:.3f} of slot-loop time, "
                  f"below {COVERAGE_FLOOR}", file=sys.stderr)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    info, traced)
    else:
        units = dict(END_TO_END)
        metrics = {k: (v, units[k])
                   for k, v in end_to_end(done, import_s).items()}
        coverage = 1.0
    correct = failed == 0 and coverage >= COVERAGE_FLOOR

    print("machine " + json.dumps(info))
    print(f"workload {args.workload}: {info['cells']} cells, "
          f"{info['slot_samples']} slots; "
          f"{failed} of {attempted} "
          f"slots failed (failed_frac {failed / attempted:.6g})")
    for i, c in enumerate(cells):
        rate = len(c.clock.slot_s) / c.clock.loop_s if c.clock.loop_s else 0.0
        kind = "traced" if c.traced else "timed"
        probe = (f"probe {np.median(c.clock.calibration_s) * 1e3:5.3f} ms "
                 if c.clock.calibration_s else "")
        print(f"  cell {i:2d} {kind:6s} seed {c.sim_seed:10d} wall "
              f"{c.wall_s:7.3f} s set-up {c.setup_s:6.3f} s "
              f"{rate:7.3f} slots/s {probe}failed {c.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"machine": info, **result}, indent=1) + "\n",
                  encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
