"""tools/scale_table.py at n = 7: one child process per layout, every op of
the table timed, and the peak RSS read, of the layout and of its
many-times convergence probe; the table has a row per op."""

import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def scale_table(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import scale_table

    return scale_table


def test_layout_of_seven(scale_table):
    result = scale_table.run_child("1x7", calls=2)
    assert list(result["ms"]) == list(scale_table.OPS)
    assert all(len(ms) == 2 and min(ms) > 0 for ms in result["ms"].values())
    assert result["peak_rss_mb"] > 0


def test_table(scale_table, capsys):
    assert scale_table.main(["--layouts", "1x7", "3x3", "--calls", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| op | n = 7 (1×7) | n = 9 (3×3) |"
    assert [line.split(" | ")[0] for line in lines[2:-2]] == [f"| `{op}`" for op in scale_table.OPS]
    assert lines[-2].startswith("| peak RSS, MB | ")
    assert lines[-1].startswith("| peak RSS of `convergence_probe` (200 times), MB | ")


def test_many_times_peak(scale_table):
    assert scale_table.run_child("1x7", 1, "--many-times")["peak_rss_mb"] > 0
