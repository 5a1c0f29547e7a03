"""The benchmark in perfbench/ calls the package by name: its tracer wraps the
functions listed in tracing.LAYERS, and its workloads call the public API.
A rename or a new signature there must fail here, not only in a benchmark run.
perfbench/ is put on sys.path as it is, unchanged."""

import os

import pytest

import balance_lab

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    return tracing, workloads


def test_every_traced_name_resolves(perfbench):
    tracing, _ = perfbench
    dual = balance_lab.channels.dual
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert balance_lab.channels.dual is not dual
    finally:
        tracer.uninstall()
    assert balance_lab.channels.dual is dual
    assert balance_lab.lindblad.dual is dual


@pytest.mark.parametrize("workload", ["grid", "probes"])
def test_warmup_ops_pass_their_checks(perfbench, workload):
    _, workloads = perfbench
    ops = workloads.warmup_ops(workload, 1)
    assert ops
    failures = [(op.kind, op.check(op.run())) for op in ops]
    assert [f for f in failures if f[1] is not None] == []
