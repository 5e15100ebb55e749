"""Spans around the calls into lprime's layers, for the traced run only.

``Tracer.install`` replaces each traced function on every ``lprime`` module
binding that holds it (several modules import kernel functions by name, so
``lprime.numkernel.log_gamma_frac`` and ``lprime.lseries.log_gamma_frac``
both get the wrapper); ``uninstall`` puts the originals back.  Nothing in
lprime changes, and an untraced run never imports this module.

A span records its start, end, parent span and the operation that caused
it, and stays in memory until ``write``.  A span's self time is its busy
time minus the time covered by its children.  The three functions called
in tight loops (``two_sin_pi``, ``bernoulli``, ``factorize``) are leaves:
they count calls and busy time, and charge that time to the enclosing span
as child time, but store no span of their own.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: metric prefix -> (module, function) for the functions recorded as spans.
SPANS = {
    "cli.run": ("lprime.cli", "run"),
    "periodic.validate": ("lprime.periodic", "validate"),
    "lseries.l_deriv0_closed": ("lprime.lseries", "l_deriv0_closed"),
    "lseries.l_value": ("lprime.lseries", "l_value"),
    "lseries.l_deriv": ("lprime.lseries", "l_deriv"),
    "lseries.l_deriv0_even": ("lprime.lseries", "l_deriv0_even"),
    "lseries.family_rank": ("lprime.lseries", "family_rank"),
    "classify.classify_modulus": ("lprime.classify", "classify_modulus"),
    "classify.vanishing_verdict": ("lprime.classify", "vanishing_verdict"),
    "relations.find_relation_for_modulus": ("lprime.relations", "find_relation_for_modulus"),
    "relations.log_sine_basis": ("lprime.relations", "log_sine_basis"),
    "relations.find_integer_relation": ("lprime.relations", "find_integer_relation"),
    "relations.pslq": ("lprime.relations", "pslq_relation"),
    "relations.sine_identity_residual": ("lprime.relations", "sine_identity_residual"),
    "relations.build_witness": ("lprime.relations", "build_witness"),
    "numkernel.log_gamma_frac": ("lprime.numkernel", "log_gamma_frac"),
    "numkernel.hurwitz_zeta": ("lprime.numkernel", "hurwitz_zeta"),
    "numkernel.hurwitz_zeta_ds": ("lprime.numkernel", "hurwitz_zeta_ds"),
    "arith.mult_order": ("lprime.arith", "mult_order"),
}
LEAVES = {
    "numkernel.two_sin_pi": ("lprime.numkernel", "two_sin_pi"),
    "numkernel.bernoulli": ("lprime.numkernel", "bernoulli"),
    "arith.factorize": ("lprime.arith", "factorize"),
}
LOADS = "periodic.loads"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (name, id, parent, op, start, end, child)
        self.stack = [[0.0, 0.0, -1]]       # open spans: [start, child time, id]
        self.next_id = 0
        self.op = -1
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_busy: dict[str, float] = defaultdict(float)
        self.bernoulli_top = 0
        self.bernoulli_fill_s = 0.0
        self.pslq_dimension = 0
        self.pslq_candidates = 0
        self.relations_verified = 0
        self.installed: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, self.next_id]
            self.next_id += 1
            parent = stack[-1]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent[1] += end - frame[0]
                spans.append((name, frame[2], parent[2], self.op, frame[0], end, frame[1]))
            if observe:
                observe(args, result)
            return result
        return wrapper

    def _leaf(self, name: str, fn, observe=None):
        stack, calls, busy = self.stack, self.leaf_calls, self.leaf_busy

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                calls[name] += 1
                busy[name] += dur
                stack[-1][1] += dur
                if observe:
                    observe(args, dur)
        return wrapper

    def _observe_bernoulli(self, args, dur: float) -> None:
        """Bernoulli numbers are cached up to the largest even index asked for,
        so a call with a new largest even index is one that fills the cache."""
        n = args[0]
        if isinstance(n, int) and n % 2 == 0 and n > self.bernoulli_top:
            self.bernoulli_top = n
            self.bernoulli_fill_s += dur

    def _observe_pslq(self, args, result) -> None:
        self.pslq_dimension += len(args[0])
        self.pslq_candidates += result is not None

    def _observe_relation(self, args, result) -> None:
        self.relations_verified += result is not None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import lprime.cli  # noqa: F401  (loads every lprime module)
        from lprime.periodic import PeriodicFunction

        observers = {"relations.pslq": self._observe_pslq,
                     "relations.find_integer_relation": self._observe_relation,
                     "numkernel.bernoulli": self._observe_bernoulli}
        modules = [m for name, m in sys.modules.items()
                   if name == "lprime" or name.startswith("lprime.")]
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for name, (module, attr) in table.items():
                original = getattr(sys.modules[module], attr)
                wrapper = make(name, original, observers.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self.installed.append((mod, key, original))
        loads = PeriodicFunction.__dict__["loads"]
        PeriodicFunction.loads = classmethod(self._span(LOADS, loads.__func__))
        self.installed.append((PeriodicFunction, "loads", loads))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self.installed):
            setattr(owner, key, original)
        self.installed.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        name_of = {span[1]: span[0] for span in self.spans}
        pslq_in: dict[int, float] = defaultdict(float)
        detection_basis_s = 0.0
        for name, _, parent, _, start, end, child in self.spans:
            calls[name] += 1
            busy[name] += end - start
            self_s[name] += end - start - child
            parent_name = name_of.get(parent)
            if name == "relations.pslq":
                pslq_in[parent] += end - start
            if name == "relations.log_sine_basis" and parent_name != "relations.find_integer_relation":
                detection_basis_s += end - start
        reverify_s = sum((end - start - pslq_in[span_id]
                          for name, span_id, _, _, start, end, _ in self.spans
                          if name == "relations.find_integer_relation"), 0.0)
        for name in LEAVES:
            calls[name] = self.leaf_calls[name]
            busy[name] = self.leaf_busy[name]
        out = {}
        for name in ("numkernel.log_gamma_frac", "numkernel.hurwitz_zeta", "numkernel.hurwitz_zeta_ds",
                     "numkernel.two_sin_pi", "periodic.validate", "arith.factorize",
                     "arith.mult_order"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
        out["numkernel.bernoulli.calls"] = calls["numkernel.bernoulli"]
        out["numkernel.bernoulli.fill_s"] = self.bernoulli_fill_s
        for name in ("lseries.l_deriv0_closed", "lseries.l_value", "lseries.l_deriv",
                     "lseries.l_deriv0_even", "classify.vanishing_verdict",
                     "relations.sine_identity_residual", "relations.build_witness", "cli.run"):
            out[f"{name}.self_s"] = self_s[name]
        out["lseries.family_rank.busy_s"] = busy["lseries.family_rank"]
        out["periodic.loads.busy_s"] = busy[LOADS]
        out["classify.classify_modulus.calls"] = calls["classify.classify_modulus"]
        out["classify.classify_modulus.self_s"] = self_s["classify.classify_modulus"]
        out["relations.pslq.calls"] = calls["relations.pslq"]
        out["relations.pslq.busy_s"] = busy["relations.pslq"]
        out["relations.pslq.dimension"] = self.pslq_dimension
        out["relations.verified_per_candidate"] = (
            self.relations_verified / self.pslq_candidates if self.pslq_candidates else 0.0)
        out["relations.log_sine_basis.busy_s"] = detection_basis_s
        out["relations.reverify_2d.busy_s"] = reverify_s
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines, then one line with the leaf counters."""
        with open(path, "w") as fh:
            for name, span_id, parent, op, start, end, child in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end, "self": end - start - child}) + "\n")
            fh.write(json.dumps({"leaves": {name: {"calls": self.leaf_calls[name],
                                                   "busy_s": self.leaf_busy[name]}
                                            for name in LEAVES}}) + "\n")
