import csv
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from complab.abtest import (
    AbObservation,
    aggregate,
    assign_group,
    compare,
    regularized_incomplete_beta,
    t_sf_two_sided,
    welch_t_test,
    write_report_csv,
    write_report_json,
)
from oracles import welch_p_by_integration


def _obs(values, group="g", dev_prefix="d"):
    return [
        AbObservation(
            developer_id=f"{dev_prefix}{i}", day="2020-01-01", accept_count=v, group=group
        )
        for i, v in enumerate(values)
    ]


# ---------------------------------------------------------------- assignment


def test_assign_group_deterministic():
    groups = ["control", "exp-a", "exp-b"]
    assert assign_group("exp1", "dev42", groups) == assign_group(
        "exp1", "dev42", groups
    )


def test_assign_group_single_group():
    assert assign_group("e", "d", ["only"]) == "only"


def test_assign_group_uniform_shares():
    groups = ["a", "b", "c"]
    counts = {g: 0 for g in groups}
    for i in range(30_000):
        counts[assign_group("exp1", f"dev{i}", groups)] += 1
    for g in groups:
        assert counts[g] / 30_000 == pytest.approx(1 / 3, abs=0.01)


def test_assign_group_reshuffles_across_experiments():
    groups = ["a", "b", "c"]
    moved = sum(
        1
        for i in range(10_000)
        if assign_group("exp1", f"dev{i}", groups)
        != assign_group("exp2", f"dev{i}", groups)
    )
    assert moved >= 5_000  # 2/3 expected


# ---------------------------------------------------------------- aggregate


def test_aggregate_counts_per_dev_day():
    day1 = 86400.0 * 18000
    records = [
        {"developer_id": "A", "timestamp": day1 + 100, "group": "g"},
        {"developer_id": "A", "timestamp": day1 + 200, "group": "g"},
        {"developer_id": "A", "timestamp": day1 + 300, "group": "g"},
        {"developer_id": "A", "timestamp": day1 + 86400.0, "group": "g"},
    ]
    observations, skipped = aggregate(records)
    assert skipped == 0
    assert [(o.developer_id, o.accept_count) for o in observations] == [
        ("A", 3),
        ("A", 1),
    ]


def test_aggregate_day_boundary_utc():
    day = 86400.0 * 19000
    records = [
        {"developer_id": "A", "timestamp": day - 60, "group": "g"},  # 23:59
        {"developer_id": "A", "timestamp": day + 60, "group": "g"},  # 00:01
    ]
    observations, _ = aggregate(records)
    assert len(observations) == 2


def test_aggregate_skips_malformed():
    records = [
        {"developer_id": "A", "timestamp": 0.0, "group": "g"},
        {"developer_id": "A"},
        {"timestamp": 1.0, "group": "g"},
    ]
    observations, skipped = aggregate(records)
    assert len(observations) == 1 and skipped == 2
    assert aggregate([]) == ([], 0)


@pytest.mark.parametrize("bad_ts", ["x", [1], 1e20, float("inf"), float("nan")])
def test_aggregate_skips_bad_timestamp(bad_ts):
    day = 86400.0 * 18000
    valid = [
        {"developer_id": dev, "timestamp": day + i, "group": group}
        for i, (dev, group) in enumerate(
            [("A", "c"), ("A", "c"), ("B", "c"), ("C", "e"), ("D", "e"), ("D", "e")]
        )
    ]
    bad = {"developer_id": "A", "timestamp": bad_ts, "group": "c"}
    observations, skipped = aggregate(valid[:3] + [bad] + valid[3:])
    assert skipped == 1
    assert observations == aggregate(valid)[0]
    by_group = {g: [o for o in observations if o.group == g] for g in ("c", "e")}
    expected = {g: [o for o in aggregate(valid)[0] if o.group == g] for g in ("c", "e")}
    assert compare(by_group["c"], by_group["e"]) == compare(expected["c"], expected["e"])


# ---------------------------------------------------------------- statistics


def test_identical_groups_p_one():
    values = [3, 7, 7, 2, 9, 4]
    report = compare(_obs(values, "c"), _obs(values, "e"))
    assert report.improvement == 0.0
    assert report.p_value == 1.0


def test_published_improvements_reproduced():
    # Relative lifts recomputed from the reported group means.
    assert (18.272 - 17.281) / 17.281 == pytest.approx(0.057, abs=1e-3)
    assert (19.227 - 18.096) / 18.096 == pytest.approx(0.062, abs=1e-3)


def test_report_fields():
    control = _obs([10, 12, 11, 13], "control", dev_prefix="c")
    experiment = _obs([12, 14, 13, 15], "exp", dev_prefix="e")
    report = compare(control, experiment)
    assert report.control.observations == 4
    assert report.control.unique_developers == 4
    assert report.experiment.mean == pytest.approx(13.5)
    expected_std = math.sqrt(sum((v - 13.5) ** 2 for v in [12, 14, 13, 15]) / 3)
    assert report.experiment.std_dev == pytest.approx(expected_std)
    assert report.improvement == pytest.approx((13.5 - 11.5) / 11.5)
    assert 0.0 <= report.p_value <= 1.0


def test_zero_control_mean_error():
    with pytest.raises(ValueError):
        compare(_obs([0, 0, 0], "c"), _obs([1, 2, 3], "e"))


def test_tiny_group_warns_p_one(caplog):
    with caplog.at_level("WARNING"):
        report = compare(_obs([5], "c"), _obs([6, 7], "e"))
    assert report.p_value == 1.0


def test_swap_symmetry():
    a = _obs([10, 12, 14, 16, 11], "a")
    b = _obs([13, 15, 17, 12, 18], "b")
    ab = compare(a, b)
    ba = compare(b, a)
    assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)


def test_welch_matches_integration_oracle():
    rng = random.Random(2024)
    for trial in range(20):
        na = rng.randint(5, 60)
        nb = rng.randint(5, 60)
        sample_a = [rng.gauss(10, 2) for _ in range(na)]
        sample_b = [rng.gauss(10.8, 2.5) for _ in range(nb)]
        _, _, p = welch_t_test(sample_a, sample_b)
        oracle_p = welch_p_by_integration(sample_a, sample_b)
        assert p == pytest.approx(oracle_p, abs=1e-6), f"trial {trial}"


def test_p_value_monotone_in_mean_gap():
    rng = random.Random(7)
    base = [rng.gauss(10, 2) for _ in range(200)]
    shifted = sorted(
        t_sf_two_sided(*_welch_t_df(base, [x + delta for x in base]))
        for delta in (0.1, 0.3, 0.6, 1.0)
    )
    computed = [
        t_sf_two_sided(*_welch_t_df(base, [x + delta for x in base]))
        for delta in (0.1, 0.3, 0.6, 1.0)
    ]
    assert computed == sorted(computed, reverse=True)
    assert shifted[0] == computed[-1]


def _welch_t_df(a, b):
    t, df, _ = welch_t_test(a, b)
    return t, df


def test_incomplete_beta_reference_points():
    # I_x(1, 1) = x; I_x(2, 1) = x^2; symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert regularized_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-12)
        assert regularized_incomplete_beta(2, 1, x) == pytest.approx(
            x * x, abs=1e-12
        )
    for a, b, x in [(3.5, 2.0, 0.3), (10, 0.5, 0.8), (0.5, 0.5, 0.2)]:
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            1 - regularized_incomplete_beta(b, a, 1 - x), abs=1e-12
        )


def test_t_two_sided_reference_values():
    # Cauchy (df=1): P(|T| >= 1) = 0.5 exactly.
    assert t_sf_two_sided(1.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert t_sf_two_sided(0.0, 5.0) == 1.0
    assert t_sf_two_sided(math.inf, 5.0) == 0.0


@settings(max_examples=50)
@given(
    st.lists(st.integers(min_value=0, max_value=60), min_size=2, max_size=40),
    st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=40),
)
def test_p_value_in_unit_interval(a, b):
    if sum(a) == 0:
        a = [x + 1 for x in a]
    report = compare(_obs(a, "c"), _obs(b, "e"))
    assert 0.0 <= report.p_value <= 1.0


def test_report_writers(tmp_path):
    control = _obs([10, 12, 11, 13], "control", dev_prefix="c")
    experiment = _obs([12, 14, 13, 15], "exp", dev_prefix="e")
    report = compare(control, experiment)
    write_report_json({"exp": report}, tmp_path / "report.json")
    write_report_csv({"exp": report}, tmp_path / "report.csv")
    assert (tmp_path / "report.json").read_text().startswith("{")
    c, e = report.control, report.experiment
    assert json.loads((tmp_path / "report.json").read_text()) == {
        "exp": {
            "control": {
                "observations": 4,
                "mean": c.mean,
                "std_dev": c.std_dev,
                "unique_developers": 4,
            },
            "experiment": {
                "observations": 4,
                "mean": e.mean,
                "std_dev": e.std_dev,
                "unique_developers": 4,
            },
            "improvement": report.improvement,
            "p_value": report.p_value,
        },
    }
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0].startswith("group,observations,mean")
    assert len(lines) == 3
    rows = list(csv.reader(lines))
    assert rows[1] == ["control", "4", "11.500000", f"{c.std_dev:.6f}", "4", "", ""]
    assert rows[2] == [
        "exp",
        "4",
        "13.500000",
        f"{e.std_dev:.6f}",
        "4",
        f"{report.improvement:.6f}",
        f"{report.p_value:.6f}",
    ]
