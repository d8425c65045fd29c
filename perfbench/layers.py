"""Per-layer counters and timers installed on setprob from outside.

Nothing under src/ is edited.  Each wrapper replaces a public function
wherever a setprob module binds it, or a method on its class, and
`Patch.undo` puts the originals back.  Callers that want to be seen must
reach setprob through module attributes (``setprob.compare(...)``), not
through names bound before the wrappers went in.

A span is a timed call.  Its self time is its duration minus the time of
the spans it called, so self times add up to the traced time without
double counting.  Count-only wrappers add no span: their time stays with
the caller.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

import setprob.bootstrap as bootstrap
import setprob.filters as filters
import setprob.germs as germs
import setprob.scenario as scenario
import setprob.snapshots as snapshots
import setprob.universe as universe

# Every rule name a Verdict can carry, in the order compare tries them.
RULES = ("rational", "structural", "subset-antisym", "subset-monotone",
         "subset-strict", "order", "ratio", "weight", "interval-limit",
         "interval-parity", "window-exhaustive", "sampled")

# Passed to outcome hooks and key functions when the wrapped call raised.
RAISED = object()

BUILDERS = ("superreg_witness", "ordinal_witness", "powerset_prefilter_stage",
            "powerset_witness_extend")


def _setprob_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "setprob" or name.startswith("setprob.")]


class Patch:
    """Replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, attr: str, wrapper_of) -> None:
        """Rebind `module.attr` in every setprob module that binds it."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for mod in _setprob_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def method(self, cls, attr: str, wrapper_of) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper_of(original))
        self._undo.append((cls, attr, original))

    def undo(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)


class Tracer:
    """Call counts, self times and a few outcome counts per layer."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_ns = [0]
        self._generating = 0
        self._patch = Patch()

    def reset(self) -> None:
        self.calls.clear()
        self.self_ns.clear()
        self.counts.clear()

    def _span(self, key, fn, before=None, after=None):
        """Wrap fn as a span; `key` is a name or a function of the result."""
        calls, self_ns, child_ns = self.calls, self.self_ns, self._child_ns
        key_of = key if callable(key) else None

        def wrapper(*args, **kwargs):
            mark = before() if before is not None else None
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(key if key_of is None else key_of(RAISED), start)
                if after is not None:
                    after(RAISED, mark)
                raise
            name = key if key_of is None else key_of(result)
            self._close(name, start)
            if after is not None:
                after(result, mark)
            return result

        return wrapper

    def _close(self, name: str, start: int) -> None:
        elapsed = perf_counter_ns() - start
        inner = self._child_ns.pop()
        self._child_ns[-1] += elapsed
        self.calls[name] += 1
        self.self_ns[name] += elapsed - inner

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- outcome hooks -------------------------------------------------

    def _snapshots_built(self):
        return self.calls["snapshots.build"]

    def _after_compare(self, verdict, built_before) -> None:
        if verdict is not RAISED and verdict.rule == "window-exhaustive":
            # _window_exhaustive builds one Snapshot per subset it
            # enumerates, and no rule tried before it builds any.
            self.counts["window.enumerated"] += (
                self.calls["snapshots.build"] - built_before)
            ev = verdict.evidence
            self.counts["window.admitted"] += (
                ev.get("holds", 0) + ev.get("fails", 0) + ev.get("vacuous", 0))

    def _after_audit(self, report, _mark) -> None:
        if report is RAISED:
            return
        self.counts["audit.requested"] += report.requested
        self.counts["audit.vacuous"] += report.vacuous

    def _after_find(self, snap, _mark) -> None:
        if snap is not None and snap is not RAISED:
            self.counts["find_witness.hits"] += 1
        if self._generating:
            self.counts["generate_witnesses.searches"] += 1

    def _enter_generate(self):
        self._generating += 1

    def _after_generate(self, found, _mark) -> None:
        self._generating -= 1
        if found is not RAISED:
            self.counts["generate_witnesses.yielded"] += len(found)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        p, span, counted = self._patch, self._span, self._counted
        p.method(universe.SetValue, "__init__",
                 lambda f: counted("universe.values_built", f))
        p.method(universe.UniverseHandle, "enumerate_universe",
                 lambda f: counted("universe.enumerate_universe.calls", f))
        p.method(universe.ClassSpec, "take_fresh",
                 lambda f: span("universe.take_fresh", f))
        p.function(universe, "parse_code",
                   lambda f: counted("universe.parse_code.calls", f))
        p.method(snapshots.Snapshot, "__init__",
                 lambda f: span("snapshots.build", f))
        p.method(snapshots.Snapshot, "count",
                 lambda f: counted("snapshots.count.calls", f))
        p.function(germs, "compare", lambda f: span(
            lambda v: "germs.compare." + ("raised" if v is RAISED else v.rule),
            f, before=self._snapshots_built, after=self._after_compare))
        p.method(germs.Germ, "eval_at", lambda f: span("germs.eval_at", f))
        p.function(germs, "classify_infinitesimal",
                   lambda f: span("germs.classify", f))
        p.function(germs, "audit_verdict",
                   lambda f: span("germs.audit", f, after=self._after_audit))
        p.function(filters, "generate_witnesses", lambda f: span(
            "filters.generate_witnesses", f, before=self._enter_generate,
            after=self._after_generate))
        p.function(filters, "find_witness", lambda f: span(
            "filters.find_witness", f, after=self._after_find))
        p.function(filters, "constraint_membership",
                   lambda f: counted("filters.membership.calls", f))
        p.function(filters, "check_fip", lambda f: span("filters.check_fip", f))
        for name in BUILDERS:
            p.function(filters, name, lambda f: span("filters.builders", f))
        for name in ("restrict_base", "audit_restricted_base"):
            p.function(bootstrap, name,
                       lambda f: span("bootstrap.restrict_base", f))
        p.function(bootstrap, "coherence_check",
                   lambda f: span("bootstrap.coherence", f))
        p.function(scenario, "validate_scenario",
                   lambda f: span("scenario.validate", f))
        p.function(scenario, "build_context",
                   lambda f: span("scenario.build_context", f))
        p.function(scenario, "run_scenario_data",
                   lambda f: span("scenario.run", f))

    def uninstall(self) -> None:
        self._patch.undo()

    # -- report --------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly on the same inputs."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counts)
        return out

    def metrics(self, overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        calls, counts = self.calls, self.counts

        def ms(key):
            return (self.self_ns[key] / 1e6, "ms")

        def n(value):
            return (value, "count")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        m: dict[str, tuple[float, str]] = {
            "scenario.validate.ms": ms("scenario.validate"),
            "scenario.build_context.ms": ms("scenario.build_context"),
            "scenario.run.ms": ms("scenario.run"),
            "universe.values_built": n(counts["universe.values_built"]),
            "universe.enumerate_universe.calls":
                n(counts["universe.enumerate_universe.calls"]),
            "universe.take_fresh.calls": n(calls["universe.take_fresh"]),
            "universe.take_fresh.ms": ms("universe.take_fresh"),
            "universe.parse_code.calls": n(counts["universe.parse_code.calls"]),
            "snapshots.built": n(calls["snapshots.build"]),
            "snapshots.build.ms": ms("snapshots.build"),
            "snapshots.count.calls": n(counts["snapshots.count.calls"]),
        }
        for rule in RULES:
            m[f"germs.compare.{rule}.calls"] = n(calls[f"germs.compare.{rule}"])
            m[f"germs.compare.{rule}.ms"] = ms(f"germs.compare.{rule}")
        m.update({
            "germs.eval_at.calls": n(calls["germs.eval_at"]),
            "germs.eval_at.ms": ms("germs.eval_at"),
            "germs.classify.ms": ms("germs.classify"),
            "germs.audit.ms": ms("germs.audit"),
            "germs.audit.vacuous_ratio":
                ratio(counts["audit.vacuous"], counts["audit.requested"]),
            "germs.window.enumerated": n(counts["window.enumerated"]),
            "germs.window.admitted_ratio":
                ratio(counts["window.admitted"], counts["window.enumerated"]),
            "filters.find_witness.calls": n(calls["filters.find_witness"]),
            "filters.find_witness.ms": ms("filters.find_witness"),
            "filters.find_witness.hit_ratio":
                ratio(counts["find_witness.hits"], calls["filters.find_witness"]),
            "filters.generate_witnesses.yield_ratio":
                ratio(counts["generate_witnesses.yielded"],
                      counts["generate_witnesses.searches"]),
            "filters.membership.calls": n(counts["filters.membership.calls"]),
            "filters.check_fip.ms": ms("filters.check_fip"),
            "filters.builders.ms": ms("filters.builders"),
            "bootstrap.restrict_base.ms": ms("bootstrap.restrict_base"),
            "bootstrap.coherence.ms": ms("bootstrap.coherence"),
            "trace.overhead": (overhead, "ratio"),
        })
        return m

    def ratio_bases(self) -> dict[str, int]:
        """The denominators behind the ratio metrics, for the log."""
        return {
            "germs.audit.vacuous_ratio": self.counts["audit.requested"],
            "germs.window.admitted_ratio": self.counts["window.enumerated"],
            "filters.find_witness.hit_ratio": self.calls["filters.find_witness"],
            "filters.generate_witnesses.yield_ratio":
                self.counts["generate_witnesses.searches"],
        }


class WitnessLog:
    """Records the codes of every witness the engine hands back.

    Audit witnesses are taken whole from `generate_witnesses`; other
    `find_witness` results (sampled compares, restriction audits) are
    taken where they are returned outside a `generate_witnesses` call.
    """

    def __init__(self):
        self.lines: list[str] = []
        self._depth = 0
        self._patch = Patch()

    def install(self) -> None:
        def gen(fn):
            def wrapper(*args, **kwargs):
                self._depth += 1
                try:
                    found = fn(*args, **kwargs)
                finally:
                    self._depth -= 1
                self.lines.extend(
                    "w " + ",".join(s.code for s in snap) for snap in found)
                return found
            return wrapper

        def find(fn):
            def wrapper(*args, **kwargs):
                snap = fn(*args, **kwargs)
                if not self._depth:
                    self.lines.append(
                        "f " + ("-" if snap is None
                                else ",".join(s.code for s in snap)))
                return snap
            return wrapper

        self._patch.function(filters, "generate_witnesses", gen)
        self._patch.function(filters, "find_witness", find)

    def take(self) -> list[str]:
        lines, self.lines = self.lines, []
        return lines

    def uninstall(self) -> None:
        self._patch.undo()

