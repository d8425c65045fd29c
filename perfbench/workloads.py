"""The three seeded workloads: inputs, the op, its known answer, its digest.

A workload is built from a seed during set-up: it makes its universes and
bases (`FIXTURES`), then a fixed list of ops.  Each op carries the
answer the benchmark expects, worked out by the generator's own
construction or by `reference`, never by asking setprob.  The timed
loop cycles through the list, so every input is run many times and every
run is checked.

setprob is always reached through module attributes (``sp.compare``), so
that the wrappers in `layers` see the calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import setprob as sp
from setprob.cli import registry_classes

import reference as ref


@dataclass
class Op:
    """One input.  `defect` names a documented engine defect the op is
    known to hit; its failures are still counted as failed ops."""

    kind: str
    args: object
    expect: object
    defect: str = ""


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _codes(snap) -> str:
    return ",".join(s.code for s in snap)


def _verdict_text(v) -> str:
    return "|".join((v.status, v.rule, ";".join(c.describe() for c in v.citations)))


# ---------------------------------------------------------------------------
# scenario: validate_scenario -> run_scenario_data -> report_json


ORD_POOL = ([f"o0.{b}" for b in range(24)] + [f"o1.{b}" for b in range(12)]
            + [f"o2.{b}" for b in range(8)] + [f"p{k}" for k in range(10)])

# Pr[S] rel Pr[T] for S strictly inside T, with a pinnable separator.
SUBSET_STATUS = {"le": "forced", "lt": "forced", "ne": "forced",
                 "gt": "forced_not", "ge": "forced_not", "eq": "forced_not"}


def scenario_fixtures() -> dict:
    hf = sp.make_universe("hf", 4)
    return {"ordinal": sp.make_universe("ordinal", 3), "hf": hf,
            "hf_codes": [v.code for v in hf.enumerate_universe()]}


def _ev(cls: str, rv: str | None = None) -> dict:
    body = {"class": cls}
    if rv:
        body["rv"] = rv
    return {"event": body}


class _Doc:
    """Builds one scenario document with the answers it must produce."""

    def __init__(self, rng: random.Random, pool: list[str]):
        self.rng = rng
        self.pool = pool
        self.queries: list[dict] = []
        self.expect: list[tuple] = []
        self.member: dict[str, object] = {}
        self.pi: dict[str, str] = {}

    def permutation(self, size: int) -> dict:
        support = self.rng.sample(self.pool, size)
        image = support[:]
        self.rng.shuffle(image)
        self.pi = dict(zip(support, image))
        return {"name": "pi", "kind": "table", "mapping": dict(self.pi)}

    def rv(self, name: str | None, code: str) -> str:
        return self.pi.get(code, code) if name == "pi" else code

    def snapshot(self, size: int, must=None) -> list[str]:
        snap = self.rng.sample(self.pool, size)
        if must is not None and not any(must(c) for c in snap):
            snap[0] = self.rng.choice([c for c in self.pool if must(c)])
        return snap

    def add(self, query: dict, expect: tuple) -> None:
        self.queries.append(query)
        self.expect.append(expect)

    def event_queries(self, names: list[str]) -> None:
        rng, m = self.rng, self.member
        x, y = rng.choice(names), rng.choice(names)
        snap = self.snapshot(rng.randint(5, 8))
        value = Fraction(ref.count([self.rv("pi", c) for c in snap], m[x]), len(snap))
        self.add({"kind": "event", "rv": "pi", "class": x, "snapshot": snap,
                  "expect": _q(value)}, ("value", _q(value)))
        snap = self.snapshot(rng.randint(5, 8))
        hits = sum(1 for c in snap if m[x](c) and m[y](self.rv("pi", c)))
        self.add({"kind": "joint", "class": x, "rv2": "pi", "class2": y,
                  "snapshot": snap}, ("value", _q(Fraction(hits, len(snap)))))
        x, y = rng.choice(names), rng.choice(names)
        snap = self.snapshot(rng.randint(5, 8), must=m[y])
        value = Fraction(sum(1 for c in snap if m[x](c) and m[y](c)),
                         ref.count(snap, m[y]))
        self.add({"kind": "conditional", "class": x, "given": y,
                  "snapshot": snap}, ("value", _q(value)))

    def subset_compare(self, small: str, big: str, rv: str | None) -> None:
        rel = self.rng.choice(sorted(SUBSET_STATUS))
        self.add({"kind": "compare", "lhs": _ev(small, rv), "rel": rel,
                  "rhs": _ev(big, rv)}, ("status", SUBSET_STATUS[rel]))

    def rational_compare(self) -> None:
        a = Fraction(self.rng.randint(0, 6), self.rng.randint(1, 6))
        b = Fraction(self.rng.randint(0, 6), self.rng.randint(1, 6))
        rel = self.rng.choice(sorted(ref.RELATIONS))
        status = "forced" if ref.RELATIONS[rel](a, b) else "forced_not"
        self.add({"kind": "compare", "lhs": {"const": _q(a)}, "rel": rel,
                  "rhs": {"const": _q(b)}}, ("status", status))

    def coherence(self, names: list[str]) -> None:
        rng = self.rng
        x = rng.choice(names)
        snap = self.snapshot(rng.randint(4, 8))
        meet = rng.sample(snap, rng.randint(1, 3))
        outside = [c for c in self.pool if c not in snap]
        probe = meet + rng.sample(outside, rng.randint(0, 3))
        value = Fraction(ref.count([self.rv("pi", c) for c in meet], self.member[x]),
                         len(meet))
        self.add({"kind": "coherence", "rv": "pi", "class": x, "snapshot": snap,
                  "probe": probe}, ("coherence", _q(value)))


def _ordinal_doc(rng: random.Random) -> tuple[dict, list, dict]:
    d = _Doc(rng, ORD_POOL)
    mod_a = rng.choice((4, 6, 8))
    small = rng.sample(ORD_POOL, 3)
    big = small + rng.sample([c for c in ORD_POOL if c not in small], 2)
    d.member = {name: ref.builtin(name) for name in ("V", "On", "Even", "Odd", "Lim", "Nat")}
    d.member.update(A=ref.residue(mod_a, 0), B=ref.residue(2, 1),
                    C=ref.residue(1, 2), S=ref.values(small), T=ref.values(big))
    doc = {
        "universe": {"mode": "ordinal", "bound": 3},
        "seed": rng.randrange(1000),
        "tiers": [4, 9, 17],
        "classes": [
            {"name": "A", "kind": "residue", "modulus": mod_a, "span": 0,
             "tier": {"infinite": 0},
             "subset_tags": ["B", "C", "Nat", "Even", "On", "V"]},
            {"name": "B", "kind": "residue", "modulus": 2, "span": 1,
             "tier": {"infinite": 1}, "subset_tags": ["C", "Even", "On", "V"]},
            {"name": "C", "kind": "residue", "modulus": 1, "span": 2,
             "tier": {"infinite": 2}, "subset_tags": ["On", "V"]},
            {"name": "S", "kind": "values", "values": small},
            {"name": "T", "kind": "values", "values": big},
        ],
        "variables": [d.permutation(4)],
        "base": {"builder": "ordinal_theorem", "pairs": [["A", "B"], ["B", "C"]]},
    }
    d.event_queries(["S", "T", "Even", "Nat", "A", "B", "On"])
    d.subset_compare("S", "T", rng.choice((None, "pi")))
    num, den = rng.choice((("A", "B"), ("B", "C")))
    k, rel = rng.randint(2, 6), rng.choice(("le", "gt"))
    d.add({"kind": "compare", "rel": rel, "rhs": {"const": f"1/{k}"},
           "lhs": {"op": {"op": "/", "left": _ev(num), "right": _ev(den)}}},
          ("status", "forced" if rel == "le" else "forced_not"))
    m, rel = rng.randint(2, 6), rng.choice(("le", "gt"))
    d.add({"kind": "compare", "lhs": _ev(rng.choice(("On", "C", "Even", "Nat"))),
           "rel": rel, "rhs": {"const": f"1/{m}"}},
          ("status", "forced" if rel == "le" else "forced_not"))
    pair = [{"cond": {"class": "Even", "given": "On"}},
            {"cond": {"class": "Odd", "given": "On"}}]
    rng.shuffle(pair)
    d.add({"kind": "compare", "rel": "abs_le",
           "rhs": {"const": f"1/{rng.randint(2, 6)}"},
           "lhs": {"op": {"op": "-", "left": pair[0], "right": pair[1]}}},
          ("status", "forced"))
    d.rational_compare()
    germ, status = rng.choice((
        (_ev("On"), "approx_zero"), (_ev("C"), "approx_zero"),
        ({"cond": {"class": "Lim", "given": "On"}}, "approx_zero"),
        ({"op": {"op": "/", "left": _ev("A"), "right": _ev("B")}}, "approx_zero"),
        (_ev("S"), "approx_zero"), ({"const": "0"}, "approx_zero"),
        ({"const": "1/3"}, "not_approx_zero")))
    d.add({"kind": "classify", "germ": germ}, ("classify", status))
    pins = [f"o0.{rng.randrange(40)}" for _ in range(rng.randint(1, 2))]
    k, l, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    d.add({"kind": "witness", "builder": "ordinal", "pins": pins,
           "pairs": [["A", "B"]], "k": k, "l": l, "m": m},
          ("witness", pins, [("A", "B", k)], l, m))
    pins = rng.sample(ORD_POOL, rng.randint(0, 3))
    pairs = [["A", "B", rng.randint(1, 4)]]
    if rng.random() < 0.5:
        pairs.append(["B", "C", rng.randint(1, 4)])
    d.add({"kind": "witness", "builder": "superreg", "pins": pins, "pairs": pairs},
          ("witness", pins, [tuple(p) for p in pairs], None, None))
    d.coherence(["S", "T", "Even", "B"])
    doc["queries"] = d.queries
    return doc, d.expect, d.member


def _hf_doc(rng: random.Random, codes: list[str]) -> tuple[dict, list, dict]:
    d = _Doc(rng, codes)
    small = rng.sample(codes, rng.randint(2, 3))
    big = small + rng.sample([c for c in codes if c not in small], 2)
    d.member = {"V": ref.builtin("V"), "S": ref.values(small), "T": ref.values(big),
                "R2": ref.rank_level(2), "R3": ref.rank_level(3)}
    doc = {
        "universe": {"mode": "hf", "bound": 4},
        "seed": rng.randrange(1000),
        "tiers": [4, 9, 17],
        "classes": [
            {"name": "S", "kind": "values", "values": small},
            {"name": "T", "kind": "values", "values": big},
            {"name": "R2", "kind": "builtin", "builtin": "RankLevel", "level": 2},
            {"name": "R3", "kind": "builtin", "builtin": "RankLevel", "level": 3},
        ],
        "variables": [d.permutation(4)],
        "base": {"builder": "fineness"},
    }
    d.event_queries(["S", "T", "R2", "R3"])
    d.subset_compare("S", "T", rng.choice((None, "pi")))
    d.subset_compare(rng.choice(("R2", "R3")), "V", None)
    d.rational_compare()
    germ, status = rng.choice(((_ev("S"), "approx_zero"), (_ev("R2"), "approx_zero"),
                               ({"const": "1/2"}, "not_approx_zero")))
    d.add({"kind": "classify", "germ": germ}, ("classify", status))
    d.coherence(["S", "T", "R3"])
    doc["queries"] = d.queries
    return doc, d.expect, d.member


def _witness_problem(codes: list[str], member, pins, pairs, l, m) -> str | None:
    """Check a built witness against its constraints, by reference counting."""
    got = set(codes)
    if not set(pins) <= got:
        return "witness misses a pin"
    for a, b, k in pairs:
        if k * ref.count(codes, member[a]) > ref.count(codes, member[b]):
            return f"witness breaks ratio {a}/{b} <= 1/{k}"
    if l is not None and any(run < l + 1 for run in ref.ordinal_runs(codes)):
        return f"witness has an ordinal run of at most {l} states"
    if m is not None and m * ref.count(codes, ref.builtin("On")) > len(codes):
        return f"witness breaks weight m={m}"
    return None


class ScenarioWorkload:
    """Scenario documents, two ordinal to one HF, twelve and eight queries."""

    name = "scenario"
    count = 102

    def __init__(self, seed: int):
        self.fx = scenario_fixtures()
        rng = random.Random(seed)
        self.ops = []
        for i in range(self.count):
            if i % 3 == 2:
                doc, expect, member = _hf_doc(rng, self.fx["hf_codes"])
            else:
                doc, expect, member = _ordinal_doc(rng)
            self.ops.append(Op(doc["universe"]["mode"], doc, (expect, member)))

    def run(self, op: Op):
        sp.validate_scenario(op.args)
        report = sp.run_scenario_data(op.args)
        return report, sp.report_json(report)

    def check(self, op: Op, out) -> str | None:
        report, _text = out
        expect, member = op.expect
        if len(report["queries"]) != len(expect):
            return "query count differs"
        for i, (rec, want) in enumerate(zip(report["queries"], expect)):
            if "error" in rec:
                return f"query {i}: {rec['error']}"
            kind = want[0]
            if kind == "value":
                got = rec["value"]
            elif kind == "status":
                got = rec["verdict"]["status"]
            elif kind == "classify":
                got = rec["status"]
            elif kind == "coherence":
                got = rec["levels"][0]["value"] if rec["assertion"] == "pass" else "fail"
            else:
                problem = _witness_problem(rec["witness"], member, *want[1:])
                if problem:
                    return f"query {i}: {problem}"
                continue
            if got != want[1]:
                return f"query {i} ({rec['kind']}): got {got}, expected {want[1]}"
        if not report["ok"]:
            return "report not ok"
        return None

    def canon(self, op: Op, out) -> str:
        return sp.canonical_report_text(out[0])


# ---------------------------------------------------------------------------
# audit: compare, then audit_verdict at 100 witnesses


AUDIT_WITNESSES = 100


def audit_fixtures() -> dict:
    ou = sp.make_universe("ordinal", 3)
    # the builtins and the tiered residue chain of acceptance criterion 7
    fx = dict(registry_classes(ou))
    fx["m4"], fx["e1"], fx["o2"] = fx["mult4_t0"], fx["even_t1"], fx["ord_t2"]
    fx["pool"] = list(islice(ou.enumerate_universe(), 80))
    fx["fine"] = sp.fineness_base(ou)
    fx["theorem"] = sp.ordinal_theorem_base(ou, [(fx["m4"], fx["e1"]),
                                                 (fx["e1"], fx["o2"])])
    hu = sp.make_universe("hf", 5)
    fx["hu"] = hu
    fx["rank3"] = list(hu.level_members(3))
    return fx


# A class of the user's own named Lim (not the builtin), compared as in
# ROADMAP item 1: the interval-limit rule forces Pr[Lim | On] <= 1/3 by
# name, and the claim is false on snapshots of the cited intersection.
LIM_DEFECT = "item-1: interval-limit keys on the class name Lim"


class AuditWorkload:
    """Forced verdicts re-audited on fresh witnesses, plus sampled compares.

    Twenty slots per cycle: four subset-strict (table permutations over
    the fineness base), two each of ratio, weight and interval-parity
    over the ordinal-theorem base, five order (two over HF classes,
    three over their power lifts), three sampled, one interval-limit on
    the builtin Lim, and the item-1 defect.
    """

    name = "audit"
    count = 100
    SLOTS = (["subset-strict"] * 4 + ["ratio"] * 2 + ["weight"] * 2
             + ["interval-parity"] * 2 + ["order"] * 2 + ["order-lift"] * 3
             + ["sampled"] * 3 + ["interval-limit", "defect"])

    def __init__(self, seed: int):
        self.fx = audit_fixtures()
        rng = random.Random(seed)
        self.ops = [self._make(self.SLOTS[i % len(self.SLOTS)], rng, i)
                    for i in range(self.count)]

    def _make(self, kind: str, rng: random.Random, i: int) -> Op:
        fx, ident = self.fx, sp.identity_rv()

        def ev(cls, rv=ident):
            return sp.germ_of_event(rv, cls)

        def on_cond(cls):
            return sp.conditional_germ(ident, cls, ident, fx["On"])

        seed = rng.randrange(1 << 30)
        bound_status = {"le": "forced", "gt": "forced_not"}
        if kind == "subset-strict":
            support = rng.sample(fx["pool"], 8)
            image = support[:]
            rng.shuffle(image)
            rv = sp.table_rv(dict(zip(support, image)), f"perm{i}")
            vals = rng.sample(image, 4)
            rel = rng.choice(("lt", "ne", "ge", "eq"))  # the strict-pin relations
            args = (ev(sp.class_from_values("small", vals[:2]), rv), rel,
                    ev(sp.class_from_values("large", vals), rv), fx["fine"])
            return Op(kind, args + (seed,), SUBSET_STATUS[rel])
        if kind == "ratio":
            a, b = rng.choice((("m4", "e1"), ("e1", "o2")))
            rel = rng.choice(("le", "gt"))
            q = sp.germ_arith("/", ev(fx[a]), ev(fx[b]))
            return Op(kind, (q, rel, sp.const_germ(Fraction(1, rng.randint(2, 6))),
                             fx["theorem"], seed), bound_status[rel])
        if kind == "weight":
            cls = fx[rng.choice(("On", "Even", "Odd", "Nat", "o2"))]
            rel = rng.choice(("le", "gt"))
            return Op(kind, (ev(cls), rel, sp.const_germ(Fraction(1, rng.randint(2, 6))),
                             fx["theorem"], seed), bound_status[rel])
        if kind == "interval-parity":
            pair = [on_cond(fx["Even"]), on_cond(fx["Odd"])]
            rng.shuffle(pair)
            return Op(kind, (sp.germ_arith("-", *pair), "abs_le",
                             sp.const_germ(Fraction(1, rng.randint(2, 6))),
                             fx["theorem"], seed), "forced")
        if kind == "interval-limit":
            rel = rng.choice(("le", "gt"))
            return Op(kind, (on_cond(fx["Lim"]), rel,
                             sp.const_germ(Fraction(1, rng.randint(2, 5))),
                             fx["theorem"], seed), bound_status[rel])
        if kind == "defect":
            lim = sp.class_from_values(
                "Lim", [sp.parse_code(c) for c in ("o0.1", "o0.2", "o0.3")])
            return Op(kind, (on_cond(lim), "le", sp.const_germ(Fraction(1, 3)),
                             fx["theorem"], seed), "forced", defect=LIM_DEFECT)
        if kind in ("order", "order-lift"):
            while True:
                a = set(rng.sample(range(12), rng.randint(2, 4)))
                b = set(rng.sample(range(12), rng.randint(2, 4)))
                if a - b and b - a:
                    break
            ca, cb = (sp.class_of_set(sp.hf_set([fx["rank3"][j] for j in sorted(s)]))
                      for s in (a, b))
            if rng.random() < 0.5:
                ground, rel = sp.order_lt(ca, cb), rng.choice(("lt", "ge"))
                status = "forced" if rel == "lt" else "forced_not"
            else:
                ground, rel = sp.order_ge(ca, cb), rng.choice(("ge", "lt"))
                status = "forced" if rel == "ge" else "forced_not"
            lifted = sp.power_lift(ground)
            fb = sp.FilterBase((ground, lifted), universe=fx["hu"])
            if kind == "order-lift":
                ca, cb = lifted.cls_a, lifted.cls_b
            return Op(kind, (ev(ca), rel, ev(cb), fb, seed), status)
        # sampled: infinite, co-infinite events over the fineness base,
        # which no finite set of pins can force either way
        c = sp.const_germ(Fraction(rng.choice((1, 1, 2)), rng.choice((3, 4, 5))))
        rel = rng.choice(("le", "ge"))
        if rng.random() < 0.5:
            germ = ev(fx[rng.choice(("Even", "Odd", "Nat", "m4", "e1"))])
        else:
            germ = sp.conditional_germ(ident, fx["Even"], ident, fx["Nat"])
        return Op(kind, (germ, rel, c, fx["fine"], seed), "undetermined")

    def run(self, op: Op):
        lhs, rel, rhs, fb, seed = op.args
        v = sp.compare(lhs, rel, rhs, fb)
        if v.status == sp.UNDETERMINED:
            return v, None
        return v, sp.audit_verdict(v, fb, random.Random(seed), AUDIT_WITNESSES)

    def check(self, op: Op, out) -> str | None:
        v, report = out
        if report is not None and not report.clean:
            return f"{v.rule} audit: {len(report.failures)} of {report.evaluated} failed"
        if report is not None and report.evaluated == 0:
            return f"{v.rule} audit evaluated no witness"
        if op.kind == "defect":
            # the claim is false on part of the cited intersection, so
            # only an undetermined verdict or a clean audit is right
            return None if v.status != sp.FORCED_NOT else "forced_not"
        if v.status != op.expect:
            return f"status {v.status} ({v.rule}), expected {op.expect}"
        if op.kind == "sampled":
            ev = v.evidence
            if v.rule != "sampled" or ev.get("holds", 0) + ev.get("fails", 0) == 0:
                return "sampled compare evaluated no witness"
        return None

    def canon(self, op: Op, out) -> str:
        v, report = out
        text = _verdict_text(v)
        if report is not None:
            text += (f"|{report.evaluated}/{report.vacuous}|"
                     + ";".join(_codes(w) for w in report.failures))
        return text


# ---------------------------------------------------------------------------
# window: window-exhaustive compares and restrict_base on HF lattices


def window_fixtures() -> dict:
    ou = sp.make_universe("ordinal", 3)
    hu = sp.make_universe("hf", 4)
    fx = {"ou": ou, "hu": hu,
          "opool": list(islice(ou.enumerate_universe(), 40)),
          "hpool": list(hu.enumerate_universe())}
    fx["ordinal_classes"] = {name: (ou.builtin_class(name), ref.builtin(name))
                             for name in ("On", "Even", "Odd", "Nat", "Lim")}
    fx["hf_classes"] = {f"RankLevel({k})": (hu.rank_level_class(k), ref.rank_level(k))
                        for k in (1, 2, 3)}
    return fx


# Compare j is a fixed cell of shape x size x universe x cap (96 cells,
# one each), with constraint tags cycling beside them, so every seed runs
# the same multiset of question shapes and only the states, classes and
# parameters are seeded.  Size 12 is listed twice so that p50 and p90
# fall inside a size class rather than between two.
WINDOW_SHAPES = ("event", "cond", "joint", "diff")
WINDOW_SIZES = (9, 10, 11, 12, 12, 13)
WINDOW_CONSTRAINTS = (("fineness",), ("ratio", "min_size"), ("order", "subset_bound"),
                      ("fineness", "ratio", "subset_bound"), ("subset_bound",))


class WindowWorkload:
    """Compares over 9-13 state windows, decided by window-exhaustive,
    with every seventh op a restrict-once / restrict-twice check."""

    name = "window"
    count = 112

    def __init__(self, seed: int):
        self.fx = window_fixtures()
        rng = random.Random(seed)
        self.ops = []
        j = 0
        for i in range(self.count):
            if i % 7 == 6:
                self.ops.append(self._restrict(rng, i // 7))
            else:
                self.ops.append(self._compare(rng, j))
                j += 1

    def _compare(self, rng: random.Random, j: int) -> Op:
        for _ in range(100):
            op = self._try_compare(rng, j)
            if op is not None:
                return op
        raise RuntimeError(f"no decidable window question for op {j}")

    def _try_compare(self, rng: random.Random, j: int) -> Op | None:
        fx, ident = self.fx, sp.identity_rv()
        shape = WINDOW_SHAPES[j % 4]
        n = WINDOW_SIZES[j // 4 % 6]
        ordinal = j // 24 % 2 == 0
        cap = n - 3 if j // 48 % 2 else None
        tags = WINDOW_CONSTRAINTS[j % len(WINDOW_CONSTRAINTS)]
        window = sorted(rng.sample(fx["opool"] if ordinal else fx["hpool"], n))
        codes = [v.code for v in window]
        named = dict(fx["ordinal_classes"] if ordinal else fx["hf_classes"])
        for name, size in (("A", 3), ("B", 4), ("C", 3)):
            vals = rng.sample(window, size)
            named[name] = (sp.class_from_values(name, vals),
                           ref.values(v.code for v in vals))
        names = sorted(named)
        if shape == "diff":
            x, y = "A", "B"
            if all(named["B"][1](v.code) for v in named["A"][0].members()):
                return None  # A inside B: the subset rule would settle it
        else:
            x, y = rng.sample(("A", "B", "C"), 2)

        cons, ref_cons = [], []
        for tag in tags:
            if tag == "fineness":
                v = rng.choice(window)
                cons.append(sp.fineness(v))
                ref_cons.append(("fineness", v.code))
            elif tag in ("ratio", "order"):
                # never the compared pair, which the order rule would settle
                p, q = rng.sample([m for m in names if m not in ("A", "B")], 2)
                if tag == "ratio":
                    cons.append(sp.ratio(named[p][0], named[q][0], 1))
                    ref_cons.append(("ratio", named[p][1], named[q][1], 1))
                else:
                    maker = rng.choice(("order_lt", "order_ge"))
                    cons.append(getattr(sp, maker)(named[p][0], named[q][0]))
                    ref_cons.append((maker, named[p][1], named[q][1]))
            elif tag == "subset_bound":
                vals = rng.sample(window, 5)
                cons.append(sp.subset_bound(vals, 3))
                ref_cons.append(("subset_bound", [v.code for v in vals], 3))
            else:
                cons.append(sp.min_size(3))
                ref_cons.append(("min_size", 3))

        if shape == "diff":
            ref_germ = ("diff", ("event", named["A"][1]), ("event", named["B"][1]))
        elif shape == "event":
            ref_germ = ("event", named[x][1])
        else:
            ref_germ = (shape, named[x][1], named[y][1])
        vals = ref.window_answer(codes, ref_cons, ref_germ, cap)
        defined = sorted({v for v in vals if v is not None})
        if not defined:
            return None

        if shape == "diff":
            rel, rhs = rng.choice(("le", "lt", "ge", "gt")), Fraction(0)
        else:
            want = ("forced", "forced_not", "undetermined")[j % 3]
            if want == "undetermined":
                if len(defined) < 2:
                    return None
                rel, rhs = "le", defined[(len(defined) - 1) // 2]
            elif want == "forced":
                rel, rhs = rng.choice((("le", defined[-1]), ("ge", defined[0])))
            else:
                rel, rhs = rng.choice((("gt", defined[-1]), ("lt", defined[0])))
        expect = ref.window_verdict(vals, rel, rhs)

        if shape == "diff":
            lhs, rg = (sp.germ_of_event(ident, named[name][0]) for name in ("A", "B"))
        else:
            rg = sp.const_germ(rhs)
            if shape == "event":
                lhs = sp.germ_of_event(ident, named[x][0])
            elif shape == "cond":
                lhs = sp.conditional_germ(ident, named[x][0], ident, named[y][0])
            else:
                lhs = sp.joint_germ(ident, named[x][0], ident, named[y][0])
        fb = sp.FilterBase(tuple(cons), universe=fx["ou" if ordinal else "hu"],
                           window=tuple(window), max_size=cap)
        return Op("compare", (lhs, rel, rg, fb), expect)

    def _restrict(self, rng: random.Random, r: int) -> Op:
        lattice = self.fx["hpool"]
        mid = rng.sample(lattice, 9 + r % 5)
        low = rng.sample(mid, 4 + r % 5)
        fb = sp.FilterBase(
            (sp.parametric_fineness(), sp.subset_bound(mid, 9), sp.subset_bound(low, 4)),
            universe=self.fx["hu"], window=tuple(lattice), provenance="fineness")
        return Op("restrict", (fb, mid, low), sorted(v.code for v in low))

    def run(self, op: Op):
        if op.kind == "compare":
            return sp.compare(*op.args)
        fb, mid, low = op.args
        once = sp.restrict_base(fb, low, 4)
        step = sp.restrict_base(fb, mid, 9)
        return once, step, sp.restrict_base(step[0], low, 4)

    def check(self, op: Op, out) -> str | None:
        if op.kind == "compare":
            status, evidence = op.expect
            got = {k: out.evidence.get(k, 0) for k in evidence}
            if out.rule != "window-exhaustive" or out.status != status or got != evidence:
                return (f"{out.status} ({out.rule}) {got}, expected {status} "
                        f"{evidence} by enumeration")
            return None
        (once, a1), (_, a2), (twice, a3) = out
        for audit in (a1, a2, a3):
            if not audit.passed:
                return "restriction audit failed: " + audit.summary()
        if sorted(v.code for v in once.window) != op.expect or once.max_size != 4:
            return "restricted space is not the sub-window below the cap"
        inside = set(op.expect)
        for c in once.constraints:
            if c.x is not None and c.x.code not in inside or \
                    c.window is not None and not {v.code for v in c.window} <= inside:
                return f"restricted base keeps {c.describe()} outside the sub-window"
        if twice.constraints != once.constraints or twice.window != once.window:
            return "restricting twice differs from restricting once"
        return None

    def canon(self, op: Op, out) -> str:
        if op.kind == "compare":
            return _verdict_text(out)
        parts = []
        for restricted, audit in out:
            parts.append(sp.filter_base_to_text(restricted))
            parts.append(audit.summary())
            parts.extend(_codes(w) for _, w in audit.fip_result.witnesses)
        return "\n".join(parts)


WORKLOADS = {w.name: w for w in (ScenarioWorkload, AuditWorkload, WindowWorkload)}

# What a fresh interpreter builds before a workload's first op.
FIXTURES = {"scenario": scenario_fixtures, "audit": audit_fixtures,
            "window": window_fixtures}
