"""Write reference.json: every workload's per-slot outputs at the reference seed.

    python3 perfbench/make_reference.py

Run it only on a tree whose outputs are known to be right; the benchmark
fails every slot that drifts from this file by more than 1e-9 relative.
"""

import json
import re
import sys

import run


def main() -> int:
    ref = {"seed": run.REF_SEED,
           "fields": ["avg_loss", "accuracy", "accepted_count", "reward"],
           "workloads": {}}
    for name, (cell_fn, planned) in run.WORKLOADS.items():
        values = run.per_slot_values(cell_fn(run.REF_SEED, None))
        if len(values) != planned:
            sys.exit(f"{name}: {len(values)} slots, expected {planned}")
        ref["workloads"][name] = values
    # one slot per line, floats at full precision
    text = json.dumps(ref, indent=1)
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
