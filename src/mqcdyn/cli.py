"""Command line interface.

    mqcdyn run [CONFIG] [--preset NAME] [--method M] [--set key=value ...]
               [--out DIR] [--workers K]
    mqcdyn compare DIR [DIR ...]
    mqcdyn presets

Exit codes: 0 success, 1 configuration error, 2 solver error.
"""

from __future__ import annotations

import argparse
import sys

from .config import (ConfigError, PRESET_PROVENANCE, PRESETS, RunConfig,
                     load_config)
from .dynamics import EnergyDriftError, NonFiniteDerivativeError
from .regularization import GridCoverageError
from .runner import IncompatibleRunsError, compare, run


def add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments that select a run configuration: an optional config
    file, ``--preset``, ``--method`` and repeated ``--set``; read them with
    `config_from_args`."""
    parser.add_argument("config", nargs="?", default=None,
                        help="INI config file (optional when --preset is given)")
    parser.add_argument("--preset", default=None,
                        help="built-in benchmark preset to start from")
    parser.add_argument("--method", default=None,
                        help="koopmon | ehrenfest | bohmion | soft")
    parser.add_argument("--set", dest="assignments", action="append",
                        metavar="KEY=VALUE",
                        help="override a config key (section.key=value; "
                             "bare keys mean the [run] section)")


def config_from_args(args: argparse.Namespace, **overrides) -> RunConfig:
    """The validated configuration that the `add_config_arguments` of
    ``args`` select.  ``overrides`` set further keys of the [run] section,
    by their bare names, over all others.  Raises `ConfigError`."""
    if args.config is None and args.preset is None:
        raise ConfigError("provide a config file or --preset")
    values = {}
    for item in args.assignments or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        values[key if "." in key else "run." + key] = value.strip()
    if args.method is not None:
        values["run.method"] = args.method
    values.update((f"run.{key}", value) for key, value in overrides.items())
    return load_config(args.config, preset=args.preset, overrides=values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqcdyn",
        description="Mixed quantum-classical particle dynamics benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation run")
    add_config_arguments(p_run)
    p_run.add_argument("--out", default="run_output",
                       help="output directory (default: run_output)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="worker-count hint recorded in the manifest; "
                            "results are independent of it")

    p_cmp = sub.add_parser("compare", help="compare completed run directories")
    p_cmp.add_argument("dirs", nargs="+", help="two or more run directories")

    sub.add_parser("presets", help="list built-in presets")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "presets":
        for name in sorted(PRESETS):
            print(f"{name}: {PRESET_PROVENANCE[name]}")
            keys = PRESETS[name]
            print(f"    N={keys['run.n_particles']} alpha={keys['run.alpha']} "
                  f"dt={keys['run.dt']} t_final={keys['run.t_final']} "
                  f"snapshots={list(keys['run.snapshot_times'])}")
        return 0

    if args.command == "compare":
        try:
            report = compare(args.dirs)
        except (IncompatibleRunsError, ValueError, OSError) as err:
            print(f"compare error: {err}", file=sys.stderr)
            return 1
        print(report.format_text())
        return 0

    # run
    try:
        workers = {} if args.workers is None else {"workers": args.workers}
        cfg = config_from_args(args, **workers)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1

    try:
        result = run(cfg, args.out)
    except (EnergyDriftError, NonFiniteDerivativeError, GridCoverageError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2
    print(f"run completed: {result.out_dir}")
    for key in ("final_p1", "final_purity", "max_energy_drift_rel"):
        print(f"  {key} = {result.summary[key]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
