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
    parent = [4.0, 6.0] * 5             # IQR 2.0, wider than the bound (1.25)
    assert _repair(parent, [p + 0.5 for p in parent])["verdict"] == "unresolved"
    assert _repair(parent, [p + 3.0 for p in parent])["verdict"] == "gain"
    parent = [4.5, 5.5] * 5             # IQR 1.0, within the bound
    assert _repair(parent, [p + 0.5 for p in parent])["verdict"] == "no change"


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


def test_a_gain_counts_the_pairs_a_side_is_missing_from():
    runs = _runs([5.0] * 10, [8.0] * 10)
    for r in runs[-4:]:                 # both runs of the last two pairs reported no metrics
        r["result"] = {"correct": True, "failed": 0, "metrics": {}}
    st = abbench.summarize(runs, E2E)["w"]["metrics"]["repair_mibps"]
    assert st["pairs"] == 8 and st["pairs_run"] == 10 and st["pairs_change_better"] == 8
    assert st["verdict"] == "no change"  # 8/10, where 8/8 of the complete pairs was a gain
    assert abbench.metric_stats([(5.0, 8.0)] * 8, "higher", 0.25)["verdict"] == "gain"


def test_no_gain_when_the_change_side_fails_more():
    runs = _runs([5.0] * 10, [8.0] * 10)
    assert abbench.summarize(runs, E2E)["w"]["metrics"]["repair_mibps"]["verdict"] == "gain"
    runs[-1]["result"]["failed"] = 1    # a change run with a failed op
    entry = abbench.summarize(runs, E2E)["w"]
    assert entry["gain_blocked"] and entry["metrics"]["repair_mibps"]["verdict"] == "unresolved"

    runs = _runs([5.0] * 10 + [5.0], [8.0] * 10 + [8.0])
    runs[-1]["result"] = None           # the eleventh pair's change run crashed
    entry = abbench.summarize(runs, E2E)["w"]
    st = entry["metrics"]["repair_mibps"]
    assert st["pairs_change_better"] == 10 and st["pairs_run"] == 11   # 10/11 is enough
    assert entry["gain_blocked"] and st["verdict"] == "unresolved"

    runs[-2]["result"] = None           # the parent crashed as often: no longer blocked
    entry = abbench.summarize(runs, E2E)["w"]
    assert not entry["gain_blocked"] and entry["metrics"]["repair_mibps"]["verdict"] == "gain"


def test_a_parent_iqr_wider_than_the_bound_is_unresolved():
    parent = [8.0, 12.0] * 5            # IQR 4.0, wider than the bound (2.5)
    assert _repair(parent, [p + 1.0 for p in parent])["verdict"] == "unresolved"
    assert _repair(parent, [p - 1.0 for p in parent])["verdict"] == "unresolved"
    # every change run beats every parent run: resolved, and a gain
    assert _repair(parent, [12.5] * 10)["verdict"] == "no change"  # gap 2.5 < IQR
    assert _repair(parent, [15.0] * 10)["verdict"] == "gain"
    # lower is better: every change run below every parent run
    st = abbench.metric_stats([(p, 5.0) for p in parent], "lower", 0.25)
    assert st["change_beats_every_parent_run"] and st["verdict"] == "gain"
    # a regression beyond the bound still reads as one
    assert _repair(parent, [p * 0.5 for p in parent])["verdict"] == "regression"
