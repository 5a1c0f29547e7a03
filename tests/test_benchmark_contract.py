"""The benchmark in perfbench/ calls the package by name: its tracer wraps the
functions listed in tracing.LAYERS, and its workloads call the public API.
A rename or a new signature there must fail here, not only in a benchmark run.
perfbench/ is put on sys.path as it is, unchanged."""

import os

import pytest

import balance_lab
from balance_lab.balance import BalanceReport, DualOrderReport

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


def assert_nullspaces_under_fixed_point_space(tracing, ops, certified):
    ops = [op for op in ops if op.kind.split(".")[0] in ("ergodic", "convergence")]
    assert len(ops) == 2
    tracer = tracing.Tracer()
    try:
        tracer.install()
        results = [op.run() for op in ops]
        assert [op.check(r) for op, r in zip(ops, results)] == [None, None]
    finally:
        tracer.uninstall()
    assert results[1].certified is certified
    spans = tracer.spans
    nulls = [s for s in spans if s[tracing.NAME] == "kernel.nullspace"]
    assert len(nulls) == 2
    for s in nulls:
        assert spans[s[tracing.PARENT]][tracing.NAME] == "channels.fixed_point_space"
    probes = [i for i, s in enumerate(spans) if s[tracing.NAME] == "balance.convergence_probe"]
    fixed = [s for s in spans if s[tracing.NAME] == "channels.fixed_point_space"
             and s[tracing.PARENT] in probes]
    assert len(probes) == len(fixed) == 1


def test_nullspace_spans_sit_under_fixed_point_space(perfbench):
    """The per-layer series kernel.nullspace counts the kernels of the
    fixed-point space: every nullspace span of the ergodicity and
    convergence probes is a child of a channels.fixed_point_space span,
    one of them under the (uncertified) convergence probe."""
    tracing, workloads = perfbench
    assert_nullspaces_under_fixed_point_space(tracing, workloads.warmup_ops("probes", 1), False)


def test_certified_probe_keeps_its_fixed_point_space(perfbench):
    """As above on a single cycle with a generic Hamiltonian, which is
    ergodic: a certified convergence probe computes the fixed-point space
    too."""
    tracing, workloads = perfbench
    slot = (7, (7,), ("entangled",), ("mixed",))
    ops = workloads.probes_round(1, slots=(slot,)).ops
    assert_nullspaces_under_fixed_point_space(tracing, ops, True)


@pytest.mark.parametrize("workload", ["grid", "probes"])
def test_warmup_ops_pass_their_checks(perfbench, workload):
    _, workloads = perfbench
    ops = workloads.warmup_ops(workload, 1)
    assert ops
    failures = [(op.kind, op.check(op.run())) for op in ops]
    assert [f for f in failures if f[1] is not None] == []


def test_failure_messages_show_the_report(perfbench):
    """The sampled and dual-order checks put a failing report's to_json()
    into their message."""
    _, workloads = perfbench
    ops = {op.kind.split(".")[0]: op for op in workloads.warmup_ops("probes", 1)}
    unbalanced = BalanceReport(
        balanced=False, residual=0.5, definition_residual=0.5, method_agreement=True, tol=1e-9
    )
    inconsistent = DualOrderReport(primal=True, dual_pair=False, kms_pair=True, consistent=False)
    for kind, result, rep in (
        ("sampled", [(1.0, unbalanced)], unbalanced),
        ("dual_order", inconsistent, inconsistent),
    ):
        message = ops[kind].check(result)
        assert message is not None
        assert all(repr(key) in message for key in rep.to_json())
