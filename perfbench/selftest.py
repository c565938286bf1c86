"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs the train cell twice traced and once untraced at one seed.  The exact
counts of the two traced cells must be identical, all three cells must
write the same bytes, and the layer spans must cover the slot loops.
Exits 0 on success.
"""

import sys

import run

SEED = 11
EXACT = ("model.local_train_calls", "model.sample_passes",
         "ddpg.state_vector_calls", "ddpg.updates", "engine.fold_calls",
         "engine.filter_calls", "engine.skipped", "channel.calls",
         "model.learners_per_slot", "engine.accept_ratio")


def main() -> int:
    plain = run.run_cell("train", SEED, False, "self-u")
    first = run.run_cell("train", SEED, True, "self-t1")
    second = run.run_cell("train", SEED, True, "self-t2")
    problems = []
    if any(c.failed for c in (plain, first, second)):
        problems.append("a cell failed its output checks")
    if not (plain.outputs and plain.outputs == first.outputs
            == second.outputs):
        problems.append("traced and untraced outputs differ")
    a = run.per_layer(plain, [first], 0.0)
    b = run.per_layer(plain, [second], 0.0)
    for name in EXACT:
        print(f"{name:28s} {a[name][0]!r:>12} {b[name][0]!r:>12}")
        if a[name] != b[name]:
            problems.append(f"{name} differs between runs")
    for m in (a, b):
        if m["trace.coverage"][0] < run.COVERAGE_FLOOR:
            problems.append(f"coverage {m['trace.coverage'][0]:.3f}")
    for p in problems:
        print("FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
