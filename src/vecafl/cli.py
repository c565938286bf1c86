"""Command-line entry points.

    vecafl train    --config run.cfg --seed 3 --out runs/a
    vecafl test     --checkpoint runs/a/checkpoint --config run.cfg --out t
    vecafl baseline --scheme sync_fl --seed 3 --out runs/sync
    vecafl ablation --scheme ddafl_no_lt --seed 3 --out runs/nolt
    vecafl sweep    --attack class_flip --fractions 0,0.2,0.4 --out runs/sw

The seed defaults to the SIM_SEED environment variable, then to 0; an
explicit --seed always wins.  Exit status is 0 on success and 2 on any
configuration or usage problem.
"""

import argparse
import os
import sys

import numpy as np

from . import ddpg, harness
from .config import ConfigError, SimConfig, load_config, validate_config
from .data import ATTACKS

LEARNED = tuple(n for n, s in harness.SCHEMES.items() if s.learned)
# command -> (schemes it runs, default scheme, help)
RUNS = {
    "train": (LEARNED, "ddafl", "learn a policy and deploy it"),
    "baseline": (tuple(n for n, s in harness.SCHEMES.items()
                       if not s.learned), "", "plain_afl or sync_fl run"),
    "ablation": (("ddafl_no_lt", "ddafl_no_ct", "ddafl_no_defense"), "",
                 "single-component knockouts"),
}


def _default_seed() -> int:
    env = os.environ.get("SIM_SEED", "")
    try:
        return int(env) if env else 0
    except ValueError as exc:
        raise ConfigError(f"SIM_SEED must be an integer, got {env!r}") \
            from exc


def _load(args) -> SimConfig:
    if args.config:
        return load_config(args.config)
    return validate_config(SimConfig())


def _finish(result: harness.ExperimentResult) -> int:
    test_rows = [r for r in result.rows if r.run_id.endswith("-test")
                 and r.slot > 0]
    last = test_rows[-1]
    print(f"{result.scheme} seed={result.seed} cfg={result.cfg_hash}")
    print(f"  final avg_loss={last.avg_loss:.4f} "
          f"accuracy={last.accuracy:.4f} error={last.error_rate:.4f}")
    if result.out_dir:
        print(f"  metrics: {os.path.join(result.out_dir, 'metrics.csv')}")
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    schemes, default, _ = RUNS[args.command]
    scheme = args.scheme or default
    if scheme not in schemes:
        raise ConfigError(f"{args.command} scheme must be one of {schemes}")
    out = args.out or f"runs/{scheme}-s{args.seed}"
    return _finish(harness.run_experiment(scheme, cfg, args.seed, out))


def cmd_test(args) -> int:
    cfg = _load(args)
    nets, manifest = ddpg.load_checkpoint(args.checkpoint, cfg)
    # checkpoints written before the manifest kept its scheme were ddafl's
    scheme = args.scheme or manifest.get("scheme") or "ddafl"
    if scheme not in LEARNED:
        raise ConfigError(f"test deploys a trained policy; scheme must be "
                          f"one of {LEARNED}")
    policy = ddpg.TrainResult(nets, np.zeros(0), [], [],
                              manifest["rng_digest"])
    out = args.out or f"runs/test-{scheme}-s{args.seed}"
    result = harness.run_experiment(scheme, cfg, args.seed, out,
                                    pretrained=policy)
    print(f"{scheme} deployment of {args.checkpoint}")
    return _finish(result)


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f != ""]
    except ValueError as exc:
        raise ConfigError(f"bad fractions list {args.fractions!r}") from exc
    if not fractions:
        raise ConfigError(f"bad fractions list {args.fractions!r}")
    out = args.out or f"runs/sweep-{args.attack}-s{args.seed}"
    cells, _, _ = harness.attack_sweep(cfg, args.seed, fractions,
                                       args.attack, out)
    print(f"attack sweep ({args.attack}) seed={args.seed}")
    for cell in cells:
        print(f"  fraction={cell.fraction:g} {cell.scheme}: "
              f"error={cell.final_error_rate:.4f}")
    print(f"  summary: {os.path.join(out, 'sweep_summary.csv')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecafl",
        description="vehicular asynchronous federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme: bool = True):
        p.add_argument("--config", default="", help="key = value file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="", help="output directory")
        if scheme:
            p.add_argument("--scheme", default="", help="scheme name")

    for command, (_, _, text) in RUNS.items():
        p_run = sub.add_parser(command, help=text)
        common(p_run)
        p_run.set_defaults(func=cmd_run)

    p_test = sub.add_parser("test", help="deploy an existing checkpoint")
    common(p_test)
    p_test.add_argument("--checkpoint", required=True)
    p_test.set_defaults(func=cmd_test)

    p_sweep = sub.add_parser("sweep", help="attacked-fraction sweep")
    common(p_sweep, scheme=False)
    p_sweep.add_argument("--attack", required=True,
                         choices=tuple(ATTACKS))
    p_sweep.add_argument("--fractions", default="0,0.2,0.4")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        try:
            args.seed = _default_seed()
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
