"""``tools/record_bench.py``: the acceptance rule of ``compare`` and a failed run's error."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
spec = importlib.util.spec_from_file_location("record_bench", TOOL)
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)

LOWER = {"better": "lower", "bound": 0.25}
HIGHER = {"better": "higher", "bound": 0.01}


def sides(parent_runs, change_runs, name="m"):
    """Parent and change entries holding one end-to-end metric's runs."""
    return tuple({"end_to_end": {name: record_bench.summary(runs)}}
                 for runs in (parent_runs, change_runs))


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]  # q3 - q1 = 0.02


def rule(parent_runs, change_runs, metric=LOWER):
    return record_bench.compare(*sides(parent_runs, change_runs), {"m": metric})["m"]


def test_the_parent_iqr_is_its_q3_minus_q1():
    got = rule(PARENT, PARENT)
    summary = record_bench.summary(PARENT)
    assert got["parent_iqr"] == pytest.approx(summary["q3"] - summary["q1"])
    assert got["pairs"] == 10 and got["pairs_won"] == 0  # ties count for neither side


def test_a_gain_on_every_pair_beyond_the_spread_is_shown():
    got = rule(PARENT, [0.85 * v for v in PARENT])
    assert got["pairs_won"] == 10 and got["gain_shown"] and got["within_bound"]
    assert got["change_over_parent"] == pytest.approx(0.85)


def test_nine_of_ten_pairs_are_enough_and_eight_are_not():
    nine = [0.85 * v for v in PARENT[:9]] + [1.2]
    eight = [0.85 * v for v in PARENT[:8]] + [1.2, 1.2]
    assert rule(PARENT, nine)["pairs_won"] == 9 and rule(PARENT, nine)["gain_shown"]
    assert rule(PARENT, eight)["pairs_won"] == 8 and not rule(PARENT, eight)["gain_shown"]


def test_a_gain_inside_the_parents_spread_is_not_shown():
    # every pair won, but the medians are only 0.01 apart against a spread of 0.02
    got = rule(PARENT, [v - 0.01 for v in PARENT])
    assert got["pairs_won"] == 10 and not got["gain_shown"]


def test_a_loss_is_within_its_bound_up_to_the_bound_only():
    assert rule(PARENT, [1.2 * v for v in PARENT])["within_bound"]
    got = rule(PARENT, [1.3 * v for v in PARENT])
    assert not got["within_bound"] and not got["gain_shown"]


def test_a_higher_is_better_metric_gains_upwards_and_is_bound_downwards():
    assert rule(PARENT, [1.1 * v for v in PARENT], HIGHER)["gain_shown"]
    assert not rule(PARENT, [0.9 * v for v in PARENT], HIGHER)["gain_shown"]
    assert rule(PARENT, [0.995 * v for v in PARENT], HIGHER)["within_bound"]
    assert not rule(PARENT, [0.98 * v for v in PARENT], HIGHER)["within_bound"]


def test_a_failed_run_names_its_side_workload_seed_exit_code_and_stderr(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "print('\\n'.join(f'line {i}' for i in range(100)), file=sys.stderr)\n"
        "print('the last line', file=sys.stderr)\n"
        "sys.exit(3)\n", encoding="utf-8")
    with pytest.raises(RuntimeError) as caught:
        record_bench.bench("parent", tmp_path, "canonical", 2801, 15, 0)
    message = str(caught.value)
    for part in ("parent", "canonical", "seed 2801", "exited with 3", "the last line"):
        assert part in message
    assert "line 80" not in message  # only the tail of the stderr
