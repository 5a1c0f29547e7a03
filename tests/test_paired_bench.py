"""tools/paired_bench.py reads each end-to-end metric of paired benchmark runs
as gain, no_worse, unresolved or worse against its bound, and flags every run
that was not correct or failed an op.  Its summary is checked here on
hand-made run dicts; no benchmark is run."""

import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")

END_TO_END = [
    {"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
    {"name": "verdict_p50_ms", "better": "lower", "bound": 0.25},
]


@pytest.fixture
def paired_bench(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import paired_bench

    return paired_bench


def runs(rates, p50s, seed=1, correct=True, failed=0):
    return [
        {"seed": seed + i, "correct": correct, "attempted": 100, "failed": failed,
         "metrics": {"verdicts_per_s": r, "verdict_p50_ms": p},
         "machine_speed": 1.0, "raw_verdict_p50_ms": p}
        for i, (r, p) in enumerate(zip(rates, p50s))
    ]


PARENT_RATES = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
PARENT_P50S = [2.0, 2.02, 1.98, 2.01, 1.99, 2.0, 2.0, 2.01, 1.99, 2.0]


class TestVerdicts:
    def test_gain_and_no_worse(self, paired_bench):
        change = runs([r + 20 for r in PARENT_RATES], [p * 1.1 for p in PARENT_P50S])
        table = paired_bench.tabulate(runs(PARENT_RATES, PARENT_P50S), change, END_TO_END)
        assert table["pair_wins"] == {"verdicts_per_s": 10, "verdict_p50_ms": 0}
        assert table["verdicts"] == {"verdicts_per_s": "gain", "verdict_p50_ms": "no_worse"}
        assert table["flags"] == []

    def test_eight_wins_of_ten_are_no_gain(self, paired_bench):
        rates = [r + 20 for r in PARENT_RATES]
        rates[0] = rates[1] = 90.0
        table = paired_bench.tabulate(runs(PARENT_RATES, PARENT_P50S), runs(rates, PARENT_P50S), END_TO_END)
        assert table["pair_wins"]["verdicts_per_s"] == 8
        assert table["verdicts"]["verdicts_per_s"] == "no_worse"

    def test_win_inside_parent_spread_is_no_gain(self, paired_bench):
        """Every pair won, by less than the parent's q3 - q1."""
        parent = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 108.0, 92.0, 103.0, 97.0]
        change = [r + 1.0 for r in parent]
        table = paired_bench.tabulate(runs(parent, PARENT_P50S), runs(change, PARENT_P50S), END_TO_END)
        assert table["pair_wins"]["verdicts_per_s"] == 10
        assert table["verdicts"]["verdicts_per_s"] == "no_worse"

    def test_worse_beyond_bound(self, paired_bench):
        change = runs([r * 0.7 for r in PARENT_RATES], [p * 1.3 for p in PARENT_P50S])
        table = paired_bench.tabulate(runs(PARENT_RATES, PARENT_P50S), change, END_TO_END)
        assert table["verdicts"] == {"verdicts_per_s": "worse", "verdict_p50_ms": "worse"}

    def test_wide_interleaved_runs_are_unresolved(self, paired_bench):
        """A parent q3 - q1 of about half its median, against a bound of
        25 %, with the two sides' runs interleaved."""
        parent = [300.0, 250.0, 330.0, 180.0, 350.0, 200.0, 340.0, 190.0, 320.0, 210.0]
        change = [v * 1.05 for v in reversed(parent)]
        table = paired_bench.tabulate(runs(PARENT_RATES, parent), runs(PARENT_RATES, change), END_TO_END)
        assert table["verdicts"]["verdict_p50_ms"] == "unresolved"

    def test_wide_but_separated_runs_are_read(self, paired_bench):
        """The same parent spread, but every change run beyond every parent
        run: the runs tell, and they tell worse."""
        parent = [300.0, 250.0, 330.0, 180.0, 350.0, 200.0, 340.0, 190.0, 320.0, 210.0]
        change = [v + 400.0 for v in parent]
        table = paired_bench.tabulate(runs(PARENT_RATES, parent), runs(PARENT_RATES, change), END_TO_END)
        assert table["verdicts"]["verdict_p50_ms"] == "worse"

    def test_flags_incorrect_and_failed_runs(self, paired_bench):
        parent = runs(PARENT_RATES[:2], PARENT_P50S[:2], seed=5, correct=False)
        change = runs(PARENT_RATES[:2], PARENT_P50S[:2], seed=5, failed=3)
        change[0]["failed"] = 0
        table = paired_bench.tabulate(parent, change, END_TO_END)
        assert table["flags"] == [
            "parent seed 5: correct False, failed 0",
            "parent seed 6: correct False, failed 0",
            "change seed 6: correct True, failed 3",
        ]
        assert (table["parent"]["failed"], table["change"]["failed"]) == (0, 3)

    def test_verdict_direction_and_ties(self, paired_bench):
        v = paired_bench.verdict
        # a lower-is-better metric that fell by half: a gain
        assert v([2.0] * 10, [1.0] * 10, 10, False, 0.25) == "gain"
        # ties win nothing: the same runs are no worse and no gain
        assert v([2.0] * 10, [2.0] * 10, 0, False, 0.25) == "no_worse"
        # exactly at the bound is within it
        assert v([100.0] * 10, [75.0] * 10, 0, True, 0.25) == "no_worse"
        assert v([100.0] * 10, [74.0] * 10, 0, True, 0.25) == "worse"
