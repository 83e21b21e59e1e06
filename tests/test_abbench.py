"""tools/abbench.py: run order, summary and verdicts on synthetic runs (no subprocess)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "abbench.py"
_SPEC = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abbench)

E2E = [{"name": "repair_mibps", "better": "higher", "bound": 0.25},
       {"name": "peak_rss_mib", "better": "lower", "bound": 0.1}]


def _runs(parent, change, workload="w", seed=1):
    """Runs whose pair i reports parent[i] / change[i] as repair_mibps and
    peak_rss_mib 100 on both sides."""
    runs = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value in zip(abbench.SIDES, values):
            metrics = {"repair_mibps": {"value": value}, "peak_rss_mib": {"value": 100.0}}
            runs.append({"seed": seed, "pair": pair, "workload": workload, "side": side,
                         "result": {"correct": True, "failed": 0, "metrics": metrics}})
    return runs


def _repair(parent, change):
    return abbench.summarize(_runs(parent, change), E2E)["w"]["metrics"]["repair_mibps"]


def test_schedule_alternates_which_side_runs_first():
    order = list(abbench.schedule([1, 7], 2, ["a", "b"]))
    assert order[:4] == [(1, 0, "a", "parent"), (1, 0, "a", "change"),
                         (1, 0, "b", "parent"), (1, 0, "b", "change")]
    assert order[4:8] == [(1, 1, "a", "change"), (1, 1, "a", "parent"),
                          (1, 1, "b", "change"), (1, 1, "b", "parent")]
    assert [s for s, *_ in order] == [1] * 8 + [7] * 8


def test_summary_medians_quartiles_and_pairs():
    parent = [5.0, 5.2, 5.1, 5.3, 4.9, 5.0, 5.1, 5.2, 5.0, 5.1]
    change = [8.0 + 0.1 * i for i in range(10)]
    st = _repair(parent, change)
    assert st["pairs"] == 10 and st["pairs_change_better"] == 10
    assert st["parent_median"] == 5.1 and st["change_median"] == 8.45
    assert st["parent_iqr"] == 0.175 and st["parent_range"] == [4.9, 5.3]  # Q1 5.0, Q3 5.175
    assert st["change_over_parent"] == round(8.45 / 5.1, 4)
    assert st["verdict"] == "gain"
    rss = abbench.summarize(_runs(parent, change), E2E)["w"]["metrics"]["peak_rss_mib"]
    assert rss["pairs_change_better"] == 0 and rss["verdict"] == "no change"


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = [5.0] * 10
    assert _repair(parent, [6.0] * 9 + [4.9])["verdict"] == "gain"
    assert _repair(parent, [6.0] * 8 + [4.9, 4.9])["verdict"] == "no change"
    assert _repair(parent, [6.0] * 8 + [5.0, 5.0])["verdict"] == "no change"  # ties count for neither


def test_gain_needs_a_gap_wider_than_the_parents_iqr():
    parent = [4.0, 6.0] * 5             # IQR 2.0
    assert _repair(parent, [p + 0.5 for p in parent])["verdict"] == "no change"
    assert _repair(parent, [p + 3.0 for p in parent])["verdict"] == "gain"


def test_regression_beyond_the_bound_and_loss_within_it():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert _repair(parent, [p * 0.7 for p in parent])["verdict"] == "regression"
    assert _repair(parent, [p * 0.9 for p in parent])["verdict"] == "loss"
    # a lower-is-better metric that grows past its bound
    st = abbench.metric_stats([(100.0, 111.0)] * 10, "lower", 0.1)
    assert st["verdict"] == "regression" and st["pairs_change_worse"] == 10


def test_a_pair_with_a_missing_side_is_left_out():
    runs = _runs([5.0] * 10, [8.0] * 10)
    runs[-1]["result"] = None           # the last pair's change run failed
    entry = abbench.summarize(runs, E2E)["w"]
    assert entry["metrics"]["repair_mibps"]["pairs"] == 9
    assert entry["change"] == {"runs": 10, "failed_ops": 0, "all_correct": False}
    assert abbench.metric_stats([], "higher", 0.25)["verdict"] == "no data"
