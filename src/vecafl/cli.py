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

ABLATIONS = ("ddafl_no_lt", "ddafl_no_ct", "ddafl_no_defense")


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


def cmd_train(args) -> int:
    cfg = _load(args)
    scheme = args.scheme or "ddafl"
    if not scheme.startswith("ddafl"):
        raise ConfigError("train runs a learned scheme; use baseline for "
                          f"{scheme}")
    out = args.out or f"runs/{scheme}-s{args.seed}"
    return _finish(harness.run_experiment(scheme, cfg, args.seed, out))


def cmd_test(args) -> int:
    cfg = _load(args)
    nets, manifest = ddpg.load_checkpoint(args.checkpoint, cfg)
    # checkpoints written before the manifest kept its scheme were ddafl's
    scheme = args.scheme or manifest.get("scheme") or "ddafl"
    if not scheme.startswith("ddafl"):
        raise ConfigError("test deploys a trained policy; pick a ddafl "
                          "scheme")
    policy = ddpg.TrainResult(nets, np.zeros(0), [], [],
                              manifest["rng_digest"])
    out = args.out or f"runs/test-{scheme}-s{args.seed}"
    result = harness.run_experiment(scheme, cfg, args.seed, out,
                                    pretrained=policy)
    print(f"{scheme} deployment of {args.checkpoint}")
    return _finish(result)


def cmd_baseline(args) -> int:
    cfg = _load(args)
    if args.scheme not in harness.BASELINES:
        raise ConfigError(f"baseline scheme must be one of "
                          f"{harness.BASELINES}")
    out = args.out or f"runs/{args.scheme}-s{args.seed}"
    return _finish(harness.run_experiment(args.scheme, cfg, args.seed, out))


def cmd_ablation(args) -> int:
    cfg = _load(args)
    if args.scheme not in ABLATIONS:
        raise ConfigError(f"ablation scheme must be one of {ABLATIONS}")
    out = args.out or f"runs/{args.scheme}-s{args.seed}"
    return _finish(harness.run_experiment(args.scheme, cfg, args.seed, out))


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f != ""]
    except ValueError as exc:
        raise ConfigError(f"bad fractions list {args.fractions!r}") from exc
    if not fractions or any(not 0.0 <= f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in [0, 1]")
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

    def common(p):
        p.add_argument("--config", default="", help="key = value file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="", help="output directory")
        p.add_argument("--scheme", default="", help="scheme name")

    p_train = sub.add_parser("train", help="learn a policy and deploy it")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_test = sub.add_parser("test", help="deploy an existing checkpoint")
    common(p_test)
    p_test.add_argument("--checkpoint", required=True)
    p_test.set_defaults(func=cmd_test)

    p_base = sub.add_parser("baseline", help="plain_afl or sync_fl run")
    common(p_base)
    p_base.set_defaults(func=cmd_baseline)

    p_abl = sub.add_parser("ablation", help="single-component knockouts")
    common(p_abl)
    p_abl.set_defaults(func=cmd_ablation)

    p_sweep = sub.add_parser("sweep", help="attacked-fraction sweep")
    common(p_sweep)
    p_sweep.add_argument("--attack", required=True,
                         choices=("class_flip", "data_flip"))
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
