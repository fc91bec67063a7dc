"""The resident-set high-water mark around each phase of one run.

    python3 tools/peak_memory.py [CONFIG] [--preset NAME] [--method M] \
        [--set KEY=VALUE ...] [--out DIR]

Run from anywhere inside a checkout.  The config is given as ``mqcdyn run``
takes it: an INI file, a preset, or both, with ``--method`` and ``--set``
overrides on top.  The run executes in this script's own process, so each
invocation starts fresh.  Artifacts go to ``--out``, or to a temporary
directory that is removed afterwards.

The phases are the calls `runner.run` makes through its module globals:
``propagate`` (or ``propagate_soft``), each density build (``smoothed_cloud``,
``wigner``, ``waterfall``) and each artifact write (``write_snapshot``,
``write_density``, ``_write_table`` for the time series and wavefunction
tables, ``_write_json`` for the summary and manifest).  Printed to standard
output as one JSON document: ``start_mb``, the ``ru_maxrss`` after the
imports and the config load; ``phases``, one entry per call in call order
with its ``name``, ``before_mb`` and ``after_mb``; and ``peak_mb``, the
``ru_maxrss`` when the run has returned.  A phase whose ``after_mb`` exceeds
its ``before_mb`` raised the high-water mark.  Sizes are MiB, ``ru_maxrss``
/ 1024 as Linux reports it in KiB.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mqcdyn import runner  # noqa: E402
from mqcdyn.cli import add_config_arguments, config_from_args  # noqa: E402
from mqcdyn.config import ConfigError  # noqa: E402

#: The functions of `runner` whose calls are phases.
PHASES = ("propagate", "propagate_soft", "smoothed_cloud", "wigner",
          "waterfall", "write_snapshot", "write_density", "_write_table",
          "_write_json")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def watch(phases: list) -> None:
    """Wrap every function in `PHASES` in `runner`'s namespace so that each
    call appends its entry to ``phases``.  A call made inside another phase
    (`write_density` writes through `_write_table`) is part of that phase."""
    active = []

    for name in PHASES:
        original = getattr(runner, name)

        @functools.wraps(original)
        def wrapper(*args, _name=name, _original=original, **kwargs):
            if active:
                return _original(*args, **kwargs)
            entry = {"name": _name, "before_mb": maxrss_mb()}
            phases.append(entry)
            active.append(entry)
            try:
                return _original(*args, **kwargs)
            finally:
                active.pop()
                entry["after_mb"] = maxrss_mb()

        setattr(runner, name, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    add_config_arguments(parser)
    parser.add_argument("--out", default=None,
                        help="artifact directory (default: a temporary one)")
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ConfigError as err:
        parser.error(str(err))

    phases: list = []
    watch(phases)
    start = maxrss_mb()
    if args.out is None:
        with tempfile.TemporaryDirectory() as tmp:
            runner.run(cfg, tmp)
    else:
        runner.run(cfg, args.out)
    json.dump({"start_mb": start, "phases": phases, "peak_mb": maxrss_mb()},
              sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
