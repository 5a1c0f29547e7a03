"""Spans around the calls into each layer of balance_lab.

The benchmark does not change the package: ``Tracer.install`` replaces each
traced function, in every balance_lab module namespace that binds it, by a
wrapper that records a span (name, layer, start, end, parent index, op id),
and ``uninstall`` puts the originals back.  Calls between modules go through
those namespaces, so nested calls (``is_balanced`` inside ``dual_order_check``)
become child spans.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from time import perf_counter

CLI_COMMANDS = (
    "validate", "extract-channel", "coupling-from-channel", "check-balance",
    "compose", "check-orthogonal", "sqdb", "ergodic", "convergence",
    "scenario-run", "scenario-grid",
)

# layer -> traced functions, named as in the layer's module.  "System" wraps
# the constructor; "ReversingOperation.validate" the method.  The cli layer's
# "import" and per-command spans are recorded by the benchmark around a
# subprocess and around cli.main.
LAYERS = {
    "kernel": ("mat_exp", "nullspace", "matrix_from_json", "matrix_to_json"),
    "states": ("System", "canonicalize_density_matrix"),
    "channels": ("validate_ucp", "dual", "kms_dual", "theta_kms_dual",
                 "fixed_point_space", "ReversingOperation.validate"),
    "couplings": ("extract_channel", "coupling_from_channel", "compose",
                  "is_orthogonal", "validate_coupling"),
    "lindblad": ("scenario_build", "balance_sub_residuals", "semigroup",
                 "dual_generator", "kms_dual_generator", "theta_kms_dual_generator"),
    "balance": ("is_balanced", "sampled_balance", "check_theta_sqdb",
                "dual_order_check", "is_ergodic", "disjointness_probe",
                "convergence_probe"),
    "cli": ("import", "dumps_canonical") + CLI_COMMANDS,
}

# spans the benchmark records itself, around a subprocess or cli.main
RECORDED = {"cli.import"} | {f"cli.{c}" for c in CLI_COMMANDS}

MODULES = ("kernel", "states", "channels", "couplings", "lindblad", "balance", "cli")

NAME, LAYER, START, END, PARENT, OP = range(6)


def span_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.op = None
        self.active = False

    # -- recording ---------------------------------------------------------

    def _open(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][END] = perf_counter()

    @contextlib.contextmanager
    def span(self, name, layer):
        """A span recorded by the benchmark itself; nothing while uninstalled."""
        if not self.active:
            yield
            return
        idx = self._open(name, layer)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, layer):
        def traced(*args, **kwargs):
            # a function calling itself (dumps_canonical recurses) is one span
            if self._stack and self.spans[self._stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            idx = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        self.active = True
        pkg = sys.modules["balance_lab"]
        namespaces = [pkg] + [getattr(pkg, m) for m in MODULES]
        for layer, fns in LAYERS.items():
            home = getattr(pkg, layer)
            for fn in fns:
                name = f"{layer}.{fn}"
                if fn == "System":
                    cls = home.System
                    self._patch(cls, "__init__", self._wrap(cls.__init__, name, layer))
                    continue
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(getattr(cls, meth), name, layer))
                    continue
                if name in RECORDED:
                    continue
                orig = getattr(home, fn)
                wrapper = self._wrap(orig, name, layer)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patch(ns, attr, wrapper)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()
        self.active = False

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _durations(spans):
    out = {}
    for s in spans:
        out.setdefault(s[NAME], []).append(s[END] - s[START])
    return out


def layer_metrics(spans, rounds, op_time):
    """Per-layer metrics from the spans of the traced rounds (op phase
    "traced").  ``<fn>.calls`` counts calls per round.  ``<fn>.p50_ms`` is the
    median over those calls, or, for a function the workload never calls,
    over its calls in the coverage pass (op phase "coverage").
    ``<layer>.busy_frac`` is the share of op time with a span of the layer
    open; ``<layer>.self_frac`` the share spent in the layer's own code,
    outside any child span."""
    main = [s for s in spans if s[OP][0] == "traced"]
    cover = _durations(s for s in spans if s[OP][0] == "coverage")
    durs = _durations(main)
    metrics = {}
    for name in span_names():
        d = durs.get(name) or cover.get(name)
        if not d:
            raise RuntimeError(f"span {name} was never recorded")
        per_round = len(durs.get(name, ())) / rounds
        metrics[f"{name}.p50_ms"] = (statistics.median(d) * 1e3, "ms")
        metrics[f"{name}.calls"] = (int(per_round) if per_round.is_integer() else per_round,
                                    "count")

    child_time = [0.0] * len(spans)
    for s in main:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    busy = dict.fromkeys(LAYERS, 0.0)
    own = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        if s[OP][0] != "traced":
            continue
        dur = s[END] - s[START]
        own[s[LAYER]] += dur - child_time[i]
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] != s[LAYER]:
            p = spans[p][PARENT]
        if p < 0:  # outermost span of its layer: counts once toward busy time
            busy[s[LAYER]] += dur
    for layer in LAYERS:
        metrics[f"{layer}.busy_frac"] = (busy[layer] / op_time, "frac")
        metrics[f"{layer}.self_frac"] = (own[layer] / op_time, "frac")
    return metrics
