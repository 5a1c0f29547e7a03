"""tools/ab_rounds.py times two source trees in one process: each side
imports its own balance_lab, and a tree whose ops sleep is found slower."""

import os
import shutil
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
SRC = os.path.join(ROOT, "src")
SLEEP_S = 0.02


@pytest.fixture
def ab_rounds(monkeypatch):
    # the tool pins BLAS to one thread through the environment when it is
    # imported; monkeypatch puts the variables back after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(TOOLS)
    import ab_rounds

    return ab_rounds


@pytest.fixture
def slow_tree(tmp_path):
    """A copy of this checkout's package whose is_ergodic sleeps first, and
    which marks itself."""
    shutil.copytree(os.path.join(SRC, "balance_lab"), tmp_path / "balance_lab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "balance_lab" / "balance.py", "a", encoding="utf-8") as fh:
        fh.write(f"\n\nimport time as _time\n_awake = is_ergodic\n\n\n"
                 f"def is_ergodic(*args, **kwargs):\n    _time.sleep({SLEEP_S})\n"
                 f"    return _awake(*args, **kwargs)\n")
    with open(tmp_path / "balance_lab" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write("\nSTUB_TREE = True\n")
    return str(tmp_path)


def test_each_side_imports_its_own_package(ab_rounds, slow_tree):
    before = sys.modules.get("balance_lab")
    a, b = ab_rounds.load_workloads(SRC, "a"), ab_rounds.load_workloads(slow_tree, "b")
    assert a.bl is not b.bl and sys.modules.get("balance_lab") is before
    for side, tree in ((a, SRC), (b, slow_tree)):
        for module in (side.bl, side.bl.kernel, side.bl.balance, side.bl.lindblad):
            assert os.path.realpath(module.__file__).startswith(os.path.realpath(tree) + os.sep)
    assert not hasattr(a.bl, "STUB_TREE") and b.bl.STUB_TREE
    assert hasattr(b.bl.balance, "_awake") and not hasattr(a.bl.balance, "_awake")


def test_sleeping_tree_is_slower(ab_rounds, slow_tree, capsys):
    result = ab_rounds.ab_rounds((SRC, slow_tree), "probes", rounds=2, seed=1)
    s = ab_rounds.summary(result)
    assert s["A"]["won"] == 1.0 and s["B"]["won"] == 0.0
    assert s["A"]["failed"] == s["B"]["failed"] == 0
    # every probes round calls is_ergodic once per slot
    ergodic = [k for k in s["B"]["kinds"] if k.startswith("ergodic.")]
    assert ergodic and all(s["B"]["kinds"][k] >= 1000 * SLEEP_S for k in ergodic)
    assert s["B"]["round"] - s["A"]["round"] >= 1000 * SLEEP_S * len(ergodic) * 0.9
    assert ab_rounds.table(result).splitlines()[-3].startswith("| round | ")
