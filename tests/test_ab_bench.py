import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from ab_bench import copy_worktree, summarize  # noqa: E402
from same_artifacts import relative_change  # noqa: E402

METRICS = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "steps_per_s", "unit": "1/s", "better": "higher",
            "bound": 0.25}]


def pairs_of(parent_values, change_values, name):
    return [{"parent": {"metrics": {name: {"value": p}}},
             "change": {"metrics": {name: {"value": c}}}}
            for p, c in zip(parent_values, change_values)]


def summary(parent_values, change_values, name="run_s"):
    spec = [m for m in METRICS if m["name"] == name]
    return summarize(pairs_of(parent_values, change_values, name), spec)[name]


PARENT = [10.0, 10.2, 9.8, 10.4, 9.6, 10.1, 9.9, 10.3, 9.7, 10.0]


def test_a_clear_gain_holds_and_does_not_regress():
    s = summary(PARENT, [v - 2.0 for v in PARENT])
    assert s["pairs"] == 10 and s["change_wins"] == 10
    assert s["claim_holds"] and not s["regressed"]
    assert s["parent"]["median"] == pytest.approx(10.0)
    assert s["median_change_rel"] == pytest.approx(-0.2)


def test_nine_wins_in_ten_suffice_eight_do_not():
    change = [v - 2.0 for v in PARENT]
    change[0] = PARENT[0] + 0.1
    assert summary(PARENT, change)["change_wins"] == 9
    assert summary(PARENT, change)["claim_holds"]
    change[1] = PARENT[1] + 0.1
    assert summary(PARENT, change)["change_wins"] == 8
    assert not summary(PARENT, change)["claim_holds"]


def test_a_gain_within_the_parent_quartiles_does_not_hold():
    # every pair won, but the medians are closer than the parent's IQR
    s = summary(PARENT, [v - 0.05 for v in PARENT])
    assert s["change_wins"] == 10
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    assert 0.05 < iqr
    assert not s["claim_holds"] and not s["regressed"]


def test_a_regression_is_judged_by_the_bound_in_the_better_direction():
    # run_s: lower is better; 20% worse is inside the 25% bound, 30% is not
    assert not summary(PARENT, [1.2 * v for v in PARENT])["regressed"]
    assert summary(PARENT, [1.3 * v for v in PARENT])["regressed"]
    # steps_per_s: higher is better
    rates = [100.0 * v for v in PARENT]
    s = summary(rates, [0.7 * v for v in rates], "steps_per_s")
    assert s["regressed"] and not s["claim_holds"] and s["change_wins"] == 0
    s = summary(rates, [1.3 * v for v in rates], "steps_per_s")
    assert s["claim_holds"] and not s["regressed"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # setup_s-like noise: parent quartiles 25% of the median apart against a
    # 10% bound; the change's median 15% worse reads `regressed`, but that
    # move is inside the parent's own spread
    spec = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]
    parent = [0.16, 0.24, 0.19, 0.21, 0.17, 0.23, 0.20, 0.18, 0.22, 0.20]
    s = summarize(pairs_of(parent, [1.15 * v for v in parent], "setup_s"),
                  spec)["setup_s"]
    assert s["parent"]["q3"] - s["parent"]["q1"] > 0.1 * s["parent"]["median"]
    assert s["regressed"] and s["unresolved"]


def test_a_parent_spread_within_the_bound_is_resolved():
    # PARENT's quartiles are 0.4 apart, inside 25% of its median
    for factor in (0.95, 1.0, 1.3):
        s = summary(PARENT, [factor * v for v in PARENT])
        assert not s["unresolved"]
    assert summary(PARENT, [1.3 * v for v in PARENT])["regressed"]


def test_a_fully_separated_spread_is_resolved_however_wide():
    # the parent's quartiles span more than the bound, but every change run
    # beats every parent run, in either better direction
    wide = [6.0, 14.0, 8.0, 12.0, 7.0, 13.0, 9.0, 11.0, 10.0, 10.0]
    s = summary(wide, [v - 9.0 for v in wide])
    assert s["parent"]["q3"] - s["parent"]["q1"] > 0.25 * s["parent"]["median"]
    assert not s["unresolved"] and s["claim_holds"]
    # one change run that loses to the best parent run leaves it unresolved
    change = [v - 9.0 for v in wide]
    change[2] = 6.5
    assert summary(wide, change)["unresolved"]
    rates = [100.0 * v for v in wide]
    assert not summary(rates, [v + 900.0 for v in rates],
                       "steps_per_s")["unresolved"]
    assert summary(rates, [v + 100.0 for v in rates],
                   "steps_per_s")["unresolved"]


def test_pairs_with_a_failed_side_are_left_out():
    pairs = pairs_of(PARENT, [v - 2.0 for v in PARENT], "run_s")
    pairs[3]["change"] = {"correct": False, "error": "exit 1"}
    s = summarize(pairs, METRICS[:1])["run_s"]
    assert s["pairs"] == 9 and s["change_wins"] == 9 and s["claim_holds"]
    lone = summarize(pairs[:1], METRICS[:1])["run_s"]
    assert lone["pairs"] == 1 and "parent" not in lone
    assert not lone["claim_holds"] and not lone["regressed"]
    assert lone["unresolved"]


def test_the_working_tree_copy_holds_the_files_git_would_commit(tmp_path):
    root, into = tmp_path / "root", tmp_path / "into"
    (root / "src").mkdir(parents=True)
    files = {".gitignore": "out/\n", "src/kept.py": "old\n",
             "src/deleted.py": "x\n", "out/ignored.txt": "x\n"}
    for name, text in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=root, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "files")
    (root / "src/kept.py").write_text("new\n")
    (root / "src/deleted.py").unlink()
    (root / "src/untracked.py").write_text("u\n")
    copy_worktree(root, into)
    got = {p.relative_to(into).as_posix(): p.read_text()
           for p in into.rglob("*") if p.is_file()}
    assert got == {".gitignore": "out/\n", "src/kept.py": "new\n",
                   "src/untracked.py": "u\n"}


def test_same_artifacts_gives_the_relative_change_of_json_numbers(tmp_path):
    def doc(name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    a = doc("a.json", '{"p1": 0.5, "n": 3, "t": [0.0, 2.0], "m": "koopmon"}')
    b = doc("b.json", '{"p1": 0.5000001, "n": 3, "t": [0.0, 2.0], '
                      '"m": "bohmion"}')
    # as for CSV tables: relative to the largest |value| of either side
    assert relative_change(a, b) == pytest.approx(1e-7 / 3.0, rel=1e-9)
    assert relative_change(a, a) == 0.0
    # numbers at other places, or no JSON, give no figure
    assert relative_change(a, doc("c.json", '{"p1": 0.5, "t": [0.0]}')) is None
    assert relative_change(a, doc("d.json", "not json")) is None
    nan = doc("e.json", '{"x": NaN, "y": 1.0}')
    assert relative_change(nan, nan) == 0.0
