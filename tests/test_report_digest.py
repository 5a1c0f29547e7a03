"""tools/report_digest.py prints two digests per line: one over every leaf,
and one over the non-float leaves alone (bools, ints, strings and the
structure).  Checked here on hand-made values; no round is run."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def report_digest(monkeypatch):
    # the tool pins BLAS to one thread through the environment when it is
    # imported; monkeypatch puts the variables back after the test, so that
    # no later subprocess inherits them
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(TOOLS)
    import report_digest

    return report_digest


@dataclasses.dataclass
class Verdict:
    balanced: bool
    residual: float
    deviations: list
    message: str


def digests(report_digest, value, text=False) -> tuple[str, str]:
    h = report_digest._Digests()
    h.feed(value, text=text)
    return tuple(h.hexdigest().split())


def test_floats_move_the_first_digest_only(report_digest):
    a = Verdict(True, 3.9629261228519884e-18, [(1.0, 0.2), (831.36, 1.8e-14)], "ok")
    b = Verdict(True, 3.962926122851986e-18, [(1.0, 0.2 + 1e-17), (831.36, 1.9e-14)], "ok")
    (all_a, verdicts_a), (all_b, verdicts_b) = digests(report_digest, a), digests(report_digest, b)
    assert all_a != all_b and verdicts_a == verdicts_b


@pytest.mark.parametrize("change", [
    {"balanced": False},
    {"message": "not ok"},
    {"deviations": [(1.0, 0.2)]},
])
def test_verdicts_strings_and_structure_move_both(report_digest, change):
    a = Verdict(True, 1e-17, [(1.0, 0.2), (2.0, 0.1)], "ok")
    b = dataclasses.replace(a, **change)
    (all_a, verdicts_a), (all_b, verdicts_b) = digests(report_digest, a), digests(report_digest, b)
    assert all_a != all_b and verdicts_a != verdicts_b


def test_arrays_and_ints(report_digest):
    x = np.array([1.0, 2.0])
    assert digests(report_digest, x)[1] == digests(report_digest, x + 1e-16 * x)[1]
    assert digests(report_digest, x)[0] != digests(report_digest, x * (1 + 1e-15))[0]
    assert digests(report_digest, np.array([1, 2]))[1] != digests(report_digest, np.array([1, 3]))[1]
    assert digests(report_digest, 3)[1] != digests(report_digest, 4)[1]
    # a float leaf and an int leaf are told apart
    assert digests(report_digest, 1.0)[1] != digests(report_digest, 1)[1]


def test_text_is_read_as_json(report_digest):
    """A command's stdout is text; where it parses as JSON, a float in it
    moves the first digest only, and text that does not parse is a
    string."""
    a = json.dumps({"balanced": True, "residual": 1e-17})
    b = json.dumps({"balanced": True, "residual": 2e-17})
    c = json.dumps({"balanced": False, "residual": 1e-17})
    da, db, dc = (digests(report_digest, t, text=True) for t in (a, b, c))
    assert da[0] != db[0] and da[1] == db[1]
    assert da[1] != dc[1]
    err = "input error: residual 1.000e-17\n"
    assert digests(report_digest, err, text=True) == digests(report_digest, err)


def test_first_digest_is_the_old_single_digest(report_digest):
    """The first digest is the one the tool printed before it printed two,
    so a digest list of an older checkout compares column for column."""
    import hashlib

    value = Verdict(True, 0.5, [(1.0, np.float64(0.25))], "ok")
    h = hashlib.sha256()
    report_digest._feed(h, value)
    assert digests(report_digest, value)[0] == h.hexdigest()[:16]


def test_src_names_the_tree_hashed(report_digest, tmp_path):
    """``--src`` puts the named tree's balance_lab first on the path, ahead
    of this checkout's, whose src/ is the default: a stub package there is
    the one imported."""
    assert report_digest.parser().parse_args([]).src == os.path.join(os.path.dirname(TOOLS), "src")
    (tmp_path / "balance_lab").mkdir()
    (tmp_path / "balance_lab" / "__init__.py").write_text("raise ImportError('stub tree')\n")
    run = subprocess.run([sys.executable, os.path.join(TOOLS, "report_digest.py"), "--src", str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode != 0 and "ImportError: stub tree" in run.stderr
