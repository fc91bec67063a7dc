"""Short runs of every preset and method, parent revision against the
working tree, and the list of artifacts that differ.

    python3 tools/same_artifacts.py --parent REV

Run from anywhere inside a checkout.  REV is unpacked with ``git archive``
into a temporary directory, as ``tools/ab_bench.py`` does.  Each tree makes
the same runs, one process per tree with one BLAS thread: every preset with
the koopmon, Ehrenfest and bohmion methods at N=100, and the split-operator
reference of every preset, each to t=200 (Tully) or t=2 (Rabi) with
snapshots at 0, half way and the end.  Every artifact is then compared byte
for byte, except ``manifest.json``, whose keys are compared with
``wall_time_s`` left out.  Prints each differing or missing artifact and a
count; exits 0 when nothing differs and 1 otherwise.  Where both sides of a
differing artifact are numeric CSV tables of one shape (``#`` lines and a
header line aside), its line also gives the largest |difference| relative to
the largest |value| of either side; so does the line of a differing JSON
document (``summary.json``) whose two sides hold numbers at the same places.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_bench import ROOT, log, unpack  # noqa: E402

PRESETS = {"tully1": 200.0, "tully2": 200.0, "tully3": 200.0,
           "rabi_us": 2.0, "rabi_ds": 2.0}
METHODS = ("koopmon", "ehrenfest", "bohmion", "soft")
N_PARTICLES = 100

#: Executed in each tree: argv[1] is the JSON list of runs, argv[2] the
#: directory that receives one subdirectory of artifacts per run.
RUN_SCRIPT = """
import json, sys
from pathlib import Path
from mqcdyn.config import load_config
from mqcdyn.runner import run
for label, preset, overrides in json.loads(sys.argv[1]):
    run(load_config(None, preset=preset, overrides=overrides),
        Path(sys.argv[2]) / label)
"""

#: Thread counts pinned to one: the BLAS reductions of some artifacts round
#: differently with more threads.
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def runs() -> list:
    out = []
    for preset, t_final in PRESETS.items():
        for method in METHODS:
            overrides = {"run.method": method, "run.t_final": t_final,
                         "run.snapshot_times": [0.0, t_final / 2, t_final]}
            if method != "soft":
                overrides["run.n_particles"] = N_PARTICLES
            out.append((f"{method}-{preset}", preset, overrides))
    return out


def make_runs(tree: Path, out: Path) -> None:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, "-c", RUN_SCRIPT, json.dumps(runs()),
                    str(out)], cwd=tree, env=env, check=True,
                   stdin=subprocess.DEVNULL)


def same(a: Path, b: Path) -> bool:
    if a.name != "manifest.json":
        return a.read_bytes() == b.read_bytes()
    manifests = [json.loads(p.read_text()) for p in (a, b)]
    for m in manifests:
        m.pop("wall_time_s", None)
    return manifests[0] == manifests[1]


def csv_table(path: Path) -> np.ndarray | None:
    """The numbers of a CSV file as a 2-D array, skipping ``#`` lines and the
    lines before the first row of numbers; None unless it is such a table."""
    if path.suffix != ".csv":
        return None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            if rows:
                return None
    try:
        return np.array(rows, dtype=float) if rows else None
    except ValueError:  # rows of different lengths
        return None


def json_numbers(path: Path) -> dict | None:
    """The numbers of a JSON document by their place in it (a tuple of keys
    and list indices; booleans are no numbers); None unless it is JSON."""
    if path.suffix != ".json":
        return None
    try:
        doc = json.loads(path.read_text())
    except ValueError:
        return None
    out = {}

    def walk(node, place):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, place + (key,))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, place + (i,))
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[place] = float(node)

    walk(doc, ())
    return out


def relative_change(a: Path, b: Path) -> float | None:
    """Largest |b - a| over the largest |value| of either side, for two
    numeric CSV tables of one shape or two JSON documents with numbers at
    the same places (NaN on both sides counts as equal); None for other
    files."""
    x, y = csv_table(a), csv_table(b)
    if x is None or y is None:
        u, v = json_numbers(a), json_numbers(b)
        if not u or not v or u.keys() != v.keys():
            return None
        x, y = np.array(list(u.values())), np.array([v[k] for k in u])
    if x.shape != y.shape:
        return None
    diff = np.abs(x - y)
    diff[np.isnan(x) & np.isnan(y)] = 0.0
    scale = np.nanmax(np.abs(np.concatenate([x, y])))
    return float(np.max(diff) / scale) if scale > 0 else 0.0


def differences(parent: Path, change: Path) -> tuple[int, list]:
    """Number of artifacts compared, and one line per artifact that differs
    or exists on one side only."""
    files = {p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
    files |= {p.relative_to(change) for p in change.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        a, b = parent / rel, change / rel
        if not b.exists():
            out.append(f"only in parent: {rel}")
        elif not a.exists():
            out.append(f"only in change: {rel}")
        elif not same(a, b):
            change_rel = relative_change(a, b)
            size = ("" if change_rel is None else
                    f" (max |diff| / max |value| = {change_rel:.3g})")
            out.append(f"differs: {rel}{size}")
    return len(files), out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="same_artifacts-") as tmp:
        tmp = Path(tmp)
        parent_tree = tmp / "tree"
        parent_tree.mkdir()
        sha = unpack(args.parent, parent_tree)
        outs = tmp / "out"
        for side, tree in (("parent", parent_tree), ("change", ROOT)):
            log(f"{side}: {len(runs())} runs in {tree}")
            make_runs(tree, outs / side)
        n, diff = differences(outs / "parent", outs / "change")

    for line in diff:
        print(line)
    print(f"{n} artifacts compared against {sha}, {len(diff)} differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
