"""Alternating before/after runs of the benchmark, parent revision against
the working tree.

    python3 tools/ab_bench.py --parent REV --workload W [--workload W2 ...] \
        --seed S --pairs K --out BENCH_<n>.json

Run from anywhere inside a checkout.  REV is unpacked with ``git archive``
into ``parent/``, and the working tree's files, tracked or untracked but not
ignored, are copied into ``change/``, both under one temporary directory, so
that the two trees differ in nothing but their files.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 35 --trace 0

once in each tree, one after the other; the side
that goes first alternates from pair to pair, so a slow phase of the host
does not always fall on the same side.  With several workloads, pair k of
every workload runs before pair k + 1 of any.  The output file holds, per
workload, for every pair both sides' end-to-end metrics, ``correct``,
``attempted`` and ``failed``, and per metric the medians and quartiles of
each side, the number of pairs the working tree wins, and three verdicts:
``regressed``, the working tree's median is worse than the parent's by more
than the metric's bound; ``claim_holds``, the working tree wins at least
9 in 10 of the pairs and its median is better than the parent's by more
than the parent's interquartile range; and ``unresolved``, the parent's own
interquartile range is wider than the bound times its median, so a move of
the median by the bound is within the noise, unless every working-tree run
beats every parent run.  An ``unresolved`` metric's ``regressed`` says
nothing either way.  Metric names, their better direction and their bounds
come from ``BENCHMARK.json``.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 35
#: share of the pairs the working tree must win for a claimed gain
CLAIM_WINS = 0.9


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def unpack(rev: str, into: Path) -> str:
    """Write the files of ``rev`` into ``into``; return its commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return sha


def copy_worktree(root: Path, into: Path) -> None:
    """Copy the files of the working tree at ``root`` that git tracks or
    would track (untracked but not ignored) into ``into``; a tracked file
    deleted from the working tree is left out."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], cwd=root, check=True,
                           capture_output=True).stdout.decode().split("\0")
    for name in filter(None, names):
        if (root / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, into / name)


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark invocation in ``tree``: its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit {done.returncode}: "
                + done.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def summarize(pairs: list, metrics: list) -> dict:
    """Medians, quartiles, change wins and the three verdicts over the pairs
    where both sides produced the metric; with fewer than two such pairs
    the metric is ``unresolved``.

    ``metrics`` are `BENCHMARK.json` ``end_to_end`` entries: ``name``,
    ``unit``, ``better`` ("lower" or "higher") and ``bound``, the largest
    relative worsening of the median that is not a regression.
    """
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        both = [(p["parent"]["metrics"][name]["value"],
                 p["change"]["metrics"][name]["value"]) for p in pairs
                if "metrics" in p["parent"] and "metrics" in p["change"]]
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "pairs": len(both)}
        for side, k in (("parent", 0), ("change", 1)):
            values = [b[k] for b in both]
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry[side] = {"median": statistics.median(values),
                               "q1": q1, "q3": q3}
        entry["change_wins"] = sum(sign * (c - p) < 0.0 for p, c in both)
        entry["regressed"] = entry["claim_holds"] = False
        entry["unresolved"] = True
        if "parent" in entry:
            parent, change = entry["parent"], entry["change"]
            entry["median_change_rel"] = change["median"] / parent["median"] - 1.0
            # gain > 0 when the change is better, in the metric's units
            gain = sign * (parent["median"] - change["median"])
            entry["regressed"] = -gain > spec["bound"] * abs(parent["median"])
            entry["claim_holds"] = (
                entry["change_wins"] >= CLAIM_WINS * len(both)
                and gain > parent["q3"] - parent["q1"])
            separated = (max(sign * c for _, c in both)
                         < min(sign * p for p, _ in both))
            entry["unresolved"] = not separated and (
                parent["q3"] - parent["q1"]
                > spec["bound"] * abs(parent["median"]))
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    ap.add_argument("--workload", required=True, action="append",
                    help="repeat to compare several workloads")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=ROOT).returncode:
        head += " with uncommitted changes"

    pairs = {workload: [] for workload in args.workload}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        parent = unpack(args.parent, trees["parent"])
        copy_worktree(ROOT, trees["change"])
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for workload, done in pairs.items():
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, args.seed)
                    found = pair[side].get("metrics", {})
                    log(f"{workload} pair {k} {side}: correct "
                        f"{pair[side].get('correct')}, failed "
                        f"{pair[side].get('failed')}, " + ", ".join(
                            f"{n} {v['value']:.4g}" for n, v in found.items()))
                done.append(pair)

    sides = ("parent", "change")
    result = {
        "seed": args.seed,
        "seconds": SECONDS,
        "parent": parent,
        "change": f"working tree on {head}",
        "all_correct": all(p[s].get("correct") for done in pairs.values()
                           for p in done for s in sides),
        "failed": sum(p[s].get("failed", 0) for done in pairs.values()
                      for p in done for s in sides),
        "workloads": {workload: {"summary": summarize(done, metrics),
                                 "pairs": done}
                      for workload, done in pairs.items()},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, entry in result["workloads"].items():
        for name, metric in entry["summary"].items():
            if "parent" in metric:
                log(f"{workload} {name}: {metric['parent']['median']:.4g} -> "
                    f"{metric['change']['median']:.4g} "
                    f"({100 * metric['median_change_rel']:+.1f}%), change wins "
                    f"{metric['change_wins']}/{metric['pairs']}"
                    + (", regressed" if metric["regressed"] else "")
                    + (", unresolved" if metric["unresolved"] else "")
                    + (", claim holds" if metric["claim_holds"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
