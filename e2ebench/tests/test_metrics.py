"""The end-to-end metrics summarise a run's children as README.md says."""

import statistics

import pytest

import run


def _child(index, setup_s, run_s):
    child = run.Child(index, False, None, None, cpu_s=run_s, peak_rss_mb=40.0)
    child.spawn = 100.0
    child.timing = {"built": 100.0 + setup_s, "run_end": 100.0 + setup_s + run_s,
                    "end": 100.0 + setup_s + run_s + 0.01}
    return child


def test_trimmed_mean_drops_each_tenth():
    values = [9.0, 1.0, 100.0] + [5.0] * 7
    assert run.trimmed_mean(values) == pytest.approx(statistics.fmean([5.0] * 7 + [9.0]))
    assert run.trimmed_mean([3.0, 1.0, 2.0]) == pytest.approx(2.0)


def test_end_to_end_median_setup_trimmed_rest():
    # two clusters of run times, as on a host that switches speed, plus
    # one child that stalls in both phases
    runs = [0.45] * 5 + [0.7] * 4 + [5.0]
    setups = [0.25] * 9 + [2.0]
    children = [_child(i, s, r) for i, (s, r) in enumerate(zip(setups, runs))]
    values = run.end_to_end(children, scale=1.0)
    assert set(values) == set(run.END_TO_END_UNITS)
    assert values["setup_s"] == pytest.approx(0.25)
    assert values["run_s"] == pytest.approx(statistics.fmean([0.45] * 4 + [0.7] * 4))


def test_end_to_end_scales_times_not_memory():
    children = [_child(i, 0.25, 0.5) for i in range(5)]
    plain, scaled = run.end_to_end(children, 1.0), run.end_to_end(children, 0.5)
    for name in ("setup_s", "run_s", "total_s", "cpu_s"):
        assert scaled[name] == pytest.approx(plain[name] * 0.5)
    assert scaled["peak_rss_mb"] == plain["peak_rss_mb"]
