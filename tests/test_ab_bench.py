import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from ab_bench import summarize  # noqa: E402
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


def test_pairs_with_a_failed_side_are_left_out():
    pairs = pairs_of(PARENT, [v - 2.0 for v in PARENT], "run_s")
    pairs[3]["change"] = {"correct": False, "error": "exit 1"}
    s = summarize(pairs, METRICS[:1])["run_s"]
    assert s["pairs"] == 9 and s["change_wins"] == 9 and s["claim_holds"]
    lone = summarize(pairs[:1], METRICS[:1])["run_s"]
    assert lone["pairs"] == 1 and "parent" not in lone
    assert not lone["claim_holds"] and not lone["regressed"]


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
