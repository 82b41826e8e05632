"""Command-line interface: run, validate and sweep scenarios.

Exit codes: 0 avoided or no-trigger, 1 collided, 2 aborted, 3 config error.
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ConfigError
from .scenario import load_scenario, parse_scenario, read_raw
from .simloop import run_scenario
from .trace import emit_plot_data

logger = logging.getLogger("aessim")

CONFIG_ERROR_EXIT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aessim",
        description="Closed-loop evasive-steering scenario simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("scenario", type=Path)
    run_p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: out/<scenario name>)")
    run_p.add_argument("--plot", action="store_true",
                       help="also write plot-data files")

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario", type=Path)

    sweep_p = sub.add_parser("sweep", help="run a one-parameter sweep")
    sweep_p.add_argument("scenario", type=Path)
    sweep_p.add_argument("--param", required=True,
                         help="scenario key as section.key, "
                         "e.g. trigger.tte_reduction")
    sweep_p.add_argument("--values", required=True, nargs="+", type=float)
    sweep_p.add_argument("--out", type=Path, default=None)
    return parser


def _out_dir(path: Path) -> Path:
    """path, made a directory before any run; ConfigError if it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {path}: {exc}") from exc
    return path


def _write(trace, out_dir: Path, plot: bool = False) -> dict[str, Path]:
    """The run's artefacts (and plot files) in out_dir; ConfigError if they
    cannot be written."""
    try:
        files = trace.write(out_dir)
        if plot:
            files.update(emit_plot_data(trace, out_dir))
    except OSError as exc:
        raise ConfigError(f"cannot write to {out_dir}: {exc}") from exc
    return files


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    out_dir = _out_dir(args.out or Path("out") / cfg.name)
    result = run_scenario(cfg)
    files = _write(result.trace, out_dir, args.plot)
    print(f"{cfg.name}: outcome={result.outcome} reason='{result.reason}'")
    if "engage_ttc" in result.summary:
        print(f"  engaged at t={result.summary['engage_time']:.2f}s "
              f"ttc={result.summary['engage_ttc']:.3f}s "
              f"tte={result.summary['engage_tte']:.3f}s "
              f"path={result.summary['engage_path_id']}")
    print(f"  max|y_e|={result.summary['max_abs_ye']:.4f} m, "
          f"max|a_y|={result.summary['max_abs_ay']:.2f} m/s^2")
    for name, path in sorted(files.items()):
        print(f"  {name}: {path}")
    return result.exit_code


def _cmd_validate(args) -> int:
    cfg = load_scenario(args.scenario)
    print(f"{args.scenario}: valid (scenario '{cfg.name}', "
          f"{len(cfg.targets)} target(s), {cfg.sim.duration:.1f} s)")
    return 0


def _cmd_sweep(args) -> int:
    raw = read_raw(args.scenario)
    base = parse_scenario(raw, default_name=args.scenario.stem)
    section, _, key = args.param.partition(".")
    values = raw.get(section) or {}
    if not key or not isinstance(values, dict):
        raise ConfigError(f"cannot sweep '{args.param}': not a section.key")
    # each run writes to <out>/<label>, so no two values may share one
    labels = [f"{value:g}" for value in args.values]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"sweep values {' '.join(labels)} repeat an output "
                          "label")
    # every swept scenario is validated like a file before any of them runs
    cfgs = [parse_scenario({**raw, section: {**values, key: value},
                            "name": f"{base.name}_{args.param}_{label}"})
            for value, label in zip(args.values, labels)]
    out_root = args.out or Path("out") / f"sweep_{args.param.replace('.', '_')}"
    out_dirs = [_out_dir(out_root / label) for label in labels]
    worst = 0
    print(f"sweep {args.param}: {len(args.values)} values")
    for label, cfg, out_dir in zip(labels, cfgs, out_dirs):
        result = run_scenario(cfg)
        _write(result.trace, out_dir)
        engage = result.summary.get("engage_ttc")
        print(f"  {args.param}={label}: outcome={result.outcome}"
              + (f" engage_ttc={engage:.3f}" if engage is not None else ""))
        worst = max(worst, result.exit_code)
    return worst


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "validate": _cmd_validate,
                "sweep": _cmd_sweep}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
