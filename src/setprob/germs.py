"""Snapshot-indexed rational expressions and forcing verdicts.

A germ is a finite expression tree that evaluates to an exact rational
at each snapshot: event frequencies, joint and conditional frequencies,
constants, arithmetic combinations, and finite sums.  Two germs denote
the same hyperrational whenever they agree on a set of snapshots the
ultrafilter keeps, so decidable comparisons work by forcing: a verdict
is Forced when the relation holds on every snapshot in the intersection
of a cited finite subset of the ambient filter base.  An empty citation
list marks a pointwise fact, true at every snapshot outright.

No floating point appears anywhere in this module; every evaluation is
a `fractions.Fraction`.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import zlib
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable

from .errors import ConditionNull, DivisionUndefined, EmptySnapshot, EnumerationExhausted
from .filters import (
    TAG_FINENESS,
    TAG_INTERVAL,
    TAG_ORDER_GE,
    TAG_ORDER_LT,
    TAG_PARAMETRIC,
    TAG_RATIO,
    TAG_WEIGHT,
    Constraint,
    FilterBase,
    constraint_mask_test,
    expand_base,
    expand_parametric,
    fineness,
    find_witness,
    generate_witnesses,
    state_pool,
)
from .snapshots import Snapshot
from .universe import PREFIX_MEMO_CAP, ClassSpec, RandomVariable, SetValue

NODE_CONST = "const"
NODE_EVENT = "event"
NODE_JOINT = "joint"
NODE_COND = "cond"
NODE_BINOP = "binop"
NODE_SUM = "star_sum"

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@dataclass(frozen=True)
class Germ:
    """One rational-valued expression over snapshots.  Germs are equal
    when they have one shape over the same variable and class objects."""

    node: str
    value: Fraction | None = None
    rv: RandomVariable | None = None
    cls: ClassSpec | None = None
    rv2: RandomVariable | None = None
    cls2: ClassSpec | None = None
    op: str | None = None
    left: "Germ | None" = None
    right: "Germ | None" = None
    terms: tuple["Germ", ...] = ()
    indices: tuple[SetValue, ...] = ()

    def eval_at(self, t: Snapshot) -> Fraction:
        """Exact value at one snapshot.

        Compiles the germ over the snapshot (`compile_germ`) and
        evaluates it at the mask of all its states, so each node kind has
        its meaning written once, in the compiler; the membership masks
        stay cached on the snapshot for the next germ evaluated there.
        Raises EmptySnapshot, ConditionNull, or DivisionUndefined when
        the expression has no value there.
        """
        return compile_germ(self, t)(t.full)

    def key(self) -> str:
        """The germ as text, classes and variables by name: it seeds sampled
        compares, and germs over distinct classes of one name share it."""
        if self.node == NODE_CONST:
            return f"q({self.value})"
        if self.node == NODE_EVENT:
            return f"ev({self.rv.name}:{self.cls.name})"
        if self.node == NODE_JOINT:
            return f"jt({self.rv.name}:{self.cls.name}&{self.rv2.name}:{self.cls2.name})"
        if self.node == NODE_COND:
            return f"cd({self.rv.name}:{self.cls.name}|{self.rv2.name}:{self.cls2.name})"
        if self.node == NODE_BINOP:
            return f"({self.left.key()}{self.op}{self.right.key()})"
        if self.node == NODE_SUM:
            if self.indices:
                return "sum(" + ",".join(
                    f"{idx.code}:{term.key()}"
                    for term, idx in zip(self.terms, self.indices)) + ")"
            return "sum(" + ",".join(term.key() for term in self.terms) + ")"
        raise ValueError(f"unknown germ node {self.node}")

    def describe(self) -> str:
        if self.node == NODE_CONST:
            return str(self.value)
        if self.node == NODE_EVENT:
            return f"Pr[{self.rv.name} in {self.cls.name}]"
        if self.node == NODE_JOINT:
            return (f"Pr[{self.rv.name} in {self.cls.name}, "
                    f"{self.rv2.name} in {self.cls2.name}]")
        if self.node == NODE_COND:
            return (f"Pr[{self.rv.name} in {self.cls.name} | "
                    f"{self.rv2.name} in {self.cls2.name}]")
        if self.node == NODE_BINOP:
            return f"({self.left.describe()} {self.op} {self.right.describe()})"
        if self.node == NODE_SUM:
            if self.indices:
                inner = ", ".join(
                    f"{idx.pretty()}:{term.describe()}"
                    for term, idx in zip(self.terms, self.indices))
                return f"partial-sum({inner})"
            return "(" + " (+) ".join(term.describe() for term in self.terms) + ")"
        raise ValueError(f"unknown germ node {self.node}")

    def __repr__(self):
        return f"Germ<{self.describe()}>"


def compile_germ(g: Germ, t: Snapshot) -> Callable[[int], Fraction]:
    """The germ as a function of a subset of `t.states`, given as a mask.

    Membership masks are taken from the snapshot, so a class is tested once
    per state however many nodes or subsets mention it.  Event, joint
    and conditional frequencies are bit counts over the mask; an indexed
    star_sum adds a term only when its index state's bit is set.  The
    errors and their texts are those of `snapshot_prob`,
    `joint_snapshot_prob` and `conditional_snapshot_prob`, and operands
    are evaluated left to right, so a snapshot with no value raises what
    the node-by-node definition raises there.
    """
    node = g.node
    if node == NODE_CONST:
        value = g.value
        return lambda m: value
    if node == NODE_EVENT or node == NODE_JOINT:
        hits = t.mask(g.cls, g.rv)
        if node == NODE_JOINT:
            hits &= t.mask(g.cls2, g.rv2)

        def frequency(m: int) -> Fraction:
            if not m:
                raise EmptySnapshot("probability over an empty snapshot")
            return Fraction((m & hits).bit_count(), m.bit_count())
        return frequency
    if node == NODE_COND:
        cond = t.mask(g.cls2, g.rv2)
        both = t.mask(g.cls, g.rv) & cond

        def conditional(m: int) -> Fraction:
            if not m:
                raise EmptySnapshot("probability over an empty snapshot")
            den = (m & cond).bit_count()
            if not den:
                raise ConditionNull(
                    f"condition {g.cls2.name} has no states in the snapshot")
            return Fraction((m & both).bit_count(), den)
        return conditional
    if node == NODE_BINOP:
        left, right = compile_germ(g.left, t), compile_germ(g.right, t)
        if g.op == "/":
            def quotient(m: int) -> Fraction:
                lv, rv = left(m), right(m)
                if rv == 0:
                    raise DivisionUndefined(
                        f"denominator {g.right.key()} vanishes at {t.describe(m)}")
                return lv / rv
            return quotient
        op = _OPS[g.op]
        return lambda m: op(left(m), right(m))
    if node == NODE_SUM:
        terms = [compile_germ(term, t) for term in g.terms]
        if g.indices:
            present = list(zip([t.bit(idx) for idx in g.indices], terms))
            return lambda m: sum((f(m) for bit, f in present if m & bit), Fraction(0))
        return lambda m: sum((f(m) for f in terms), Fraction(0))
    raise ValueError(f"unknown germ node {node}")


def const_germ(q: Fraction | int) -> Germ:
    return Germ(NODE_CONST, value=Fraction(q))


def germ_of_event(rv: RandomVariable, cls: ClassSpec) -> Germ:
    return Germ(NODE_EVENT, rv=rv, cls=cls)


def joint_germ(rv1: RandomVariable, cls1: ClassSpec,
               rv2: RandomVariable, cls2: ClassSpec) -> Germ:
    return Germ(NODE_JOINT, rv=rv1, cls=cls1, rv2=rv2, cls2=cls2)


def conditional_germ(rv1: RandomVariable, cls1: ClassSpec,
                     rv2: RandomVariable, cls2: ClassSpec) -> Germ:
    return Germ(NODE_COND, rv=rv1, cls=cls1, rv2=rv2, cls2=cls2)


def germ_arith(op: str, left: Germ | Fraction | int, right: Germ | Fraction | int) -> Germ:
    if op not in ("+", "-", "*", "/"):
        raise ValueError(f"unsupported operation {op!r}")
    lg = left if isinstance(left, Germ) else const_germ(left)
    rg = right if isinstance(right, Germ) else const_germ(right)
    return Germ(NODE_BINOP, op=op, left=lg, right=rg)


def star_sum(terms: Iterable[Germ | Fraction | int],
             index: Iterable[SetValue] | None = None) -> Germ:
    """Finite sum germ; terms may be germs or plain rationals.

    Without an index the sum is pointwise over all terms.  With one,
    terms and index values pair up positionally and a term contributes
    at a snapshot only when its index value is present there, so the
    germ's value at T is the partial sum over the indices T contains.
    """
    gs = tuple(t if isinstance(t, Germ) else const_germ(t) for t in terms)
    if index is None:
        return Germ(NODE_SUM, terms=gs)
    idx = tuple(index)
    if len(idx) != len(gs):
        raise ValueError("index must pair with terms one for one")
    return Germ(NODE_SUM, terms=gs, indices=idx)


# ---------------------------------------------------------------------------
# Relations


_RELATIONS: dict[str, Callable[[Fraction, Fraction], bool]] = {
    "eq": operator.eq, "ne": operator.ne, "le": operator.le, "lt": operator.lt,
    "ge": operator.ge, "gt": operator.gt, "abs_le": lambda a, b: abs(a) <= b}

_MIRROR = {"eq": "eq", "ne": "ne", "le": "ge", "lt": "gt", "ge": "le", "gt": "lt"}


def eval_relation(rel: str, a: Fraction, b: Fraction) -> bool:
    return _RELATIONS[rel](a, b)


def _judge(relation: Callable[[Fraction, Fraction], bool], left: Callable,
           right: Callable, at) -> bool | None:
    """relation(left(at), right(at)), or None where a side has no value
    there; the left side is evaluated first."""
    try:
        return relation(left(at), right(at))
    except (ConditionNull, DivisionUndefined, EmptySnapshot):
        return None


def _judge_each(relation: Callable[[Fraction, Fraction], bool], lg: Germ,
                rg: Germ, witnesses: list[Snapshot]) -> list[bool | None]:
    """`_judge` of the relation between lg and rg at each witness, in order.

    Both germs are compiled once, over one Snapshot of every state the
    witnesses hold, and each witness is judged at its own mask there.  A
    compiled germ reads a mask only through the states it selects, so
    each answer is the one `eval_at` on the witness itself would give.
    """
    union = Snapshot(itertools.chain.from_iterable(witnesses))
    left, right = compile_germ(lg, union), compile_germ(rg, union)
    bits = {s.code: 1 << i for i, s in enumerate(union.states)}
    return [_judge(relation, left, right, sum(bits[s.code] for s in w))
            for w in witnesses]


FORCED = "forced"
FORCED_NOT = "forced_not"
UNDETERMINED = "undetermined"


@dataclass
class Verdict:
    """Outcome of a forcing comparison.

    `citations` is the finite constraint subset whose intersection
    carries the claim; empty citations mean the relation (or its
    negation, for forced_not) holds at every snapshot outright.
    """

    status: str
    relation: str
    lhs: Germ
    rhs: Germ
    rule: str = ""
    citations: tuple[Constraint, ...] = ()
    note: str = ""
    evidence: dict = field(default_factory=dict)

    @property
    def forced(self) -> bool:
        return self.status == FORCED

    def claim(self) -> str:
        rel = self.relation if self.status != FORCED_NOT else f"not {self.relation}"
        return f"{self.lhs.describe()} {rel} {self.rhs.describe()}"

    def summary(self) -> str:
        cites = "; ".join(c.describe() for c in self.citations) or "(pointwise)"
        return f"{self.status}: {self.claim()} [{self.rule}] cites {cites}"


_verdict_recorder: Callable[["Verdict", FilterBase], None] | None = None


def set_verdict_recorder(fn: Callable[[Verdict, FilterBase], None] | None) -> None:
    """Install a hook receiving every verdict `compare` produces."""
    global _verdict_recorder
    _verdict_recorder = fn


# ---------------------------------------------------------------------------
# Pattern helpers


def _is_identity(rv: RandomVariable) -> bool:
    """Read from the kind `identity_rv` gives, never from the name: a
    table variable may be called `identity` and still move states."""
    return rv.kind == "identity"


def _event_parts(g: Germ) -> tuple[RandomVariable, ClassSpec] | None:
    if g.node == NODE_EVENT:
        return g.rv, g.cls
    return None


def _identity_event_class(g: Germ) -> ClassSpec | None:
    if g.node == NODE_EVENT and _is_identity(g.rv):
        return g.cls
    return None


def _event_quotient(g: Germ) -> tuple[ClassSpec, ClassSpec] | None:
    """Matches Pr[id in A] / Pr[id in B]; the |T| factors cancel."""
    if g.node == NODE_BINOP and g.op == "/":
        num = _identity_event_class(g.left)
        den = _identity_event_class(g.right)
        if num is not None and den is not None:
            return num, den
    return None


def _identity_cond(g: Germ) -> tuple[ClassSpec, ClassSpec] | None:
    if g.node == NODE_COND and _is_identity(g.rv) and _is_identity(g.rv2):
        return g.cls, g.cls2
    return None


def _builtin(cls: ClassSpec) -> str | None:
    """The ordinal builtin the class is, from the mark
    `UniverseHandle.builtin_class` sets, never from its name."""
    return cls.meta.get("builtin")


def _under_on(cls: ClassSpec) -> bool:
    """The class is the builtin On or declared inside it; a value list
    holding a non-ordinal is not, whatever it declares."""
    if "values" in cls.meta and not all(v.is_ordinal for v in cls.meta["values"]):
        return False
    return _builtin(cls) == "On" or "On" in cls.subset_tags


def _const_value(g: Germ) -> Fraction | None:
    return g.value if g.node == NODE_CONST else None


def _pin(fb: FilterBase, wanted: Callable[[SetValue], bool], scan: int
         ) -> Constraint | None:
    """A fineness constraint pinning a state that satisfies `wanted`: one
    the base lists, else an instance of its parametric fineness family
    among the first `scan` states of the pool."""
    for c in fb.constraints:
        if c.tag == TAG_FINENESS and wanted(c.x):
            return c
    if fb.has_parametric(TAG_FINENESS) is not None:
        for x in state_pool(fb.universe, fb.window, scan):
            if wanted(x):
                return fineness(x)
    return None


def _with_pin(fb: FilterBase, c: Constraint, cls: ClassSpec) -> list[Constraint]:
    """c, followed by a completion pin: a fineness constraint pinning some
    member of cls, when the base has one.

    Cited alongside ratio and interval bounds so that audit witnesses
    keep the bounded quotient defined instead of vacuous.
    """
    pin = _pin(fb, cls.membership, 64)
    return [c] if pin is None else [c, pin]


def _bound(fb: FilterBase, tag: str, target: Fraction,
           cls_a: ClassSpec | None = None, cls_b: ClassSpec | None = None
           ) -> tuple[Constraint, Fraction] | None:
    """Best available bound 1/k from the tag's constraints (the ratio
    ones for the class pair).

    A concrete constraint gives its own k.  A parametric family gives any
    k, so its instance is taken at the least k with 1/k <= target.
    """
    best = fb.tightest(tag, cls_a, cls_b)
    if best is not None:
        return best, Fraction(1, best.param)
    family = fb.has_parametric(tag, cls_a, cls_b)
    if family is None or target <= 0:
        return None
    k = -(-target.denominator // target.numerator)  # ceil(1/target)
    return expand_parametric(family, k), Fraction(1, k)


# ---------------------------------------------------------------------------
# compare


def compare(lhs: Germ | Fraction | int, rel: str, rhs: Germ | Fraction | int,
            fb: FilterBase, sample_count: int = 10) -> Verdict:
    """Decide a relation between two germs against a filter base.

    Tries, in order: exact rational comparison, structural identity,
    subset monotonicity with fineness witnesses, cited order
    constraints, ratio / weight / interval bounds, exhaustive checking
    over a small restricted window, and finally seeded sampling, which
    can only ever report undetermined.
    """
    lg = lhs if isinstance(lhs, Germ) else const_germ(lhs)
    rg = rhs if isinstance(rhs, Germ) else const_germ(rhs)
    if rel not in _RELATIONS:
        raise ValueError(f"unknown relation {rel!r}")
    verdict = _compare_inner(lg, rel, rg, fb, sample_count)
    if _verdict_recorder is not None:
        _verdict_recorder(verdict, fb)
    return verdict


def _compare_inner(lg: Germ, rel: str, rg: Germ, fb: FilterBase,
                   sample_count: int) -> Verdict:
    def made(status, rule, citations=(), note="", **evidence) -> Verdict:
        return Verdict(status, rel, lg, rg, rule=rule,
                       citations=tuple(citations), note=note, evidence=evidence)

    lv = _const_value(lg)
    rv = _const_value(rg)
    if lv is not None and rv is not None:
        holds = eval_relation(rel, lv, rv)
        return made(FORCED if holds else FORCED_NOT, "rational",
                    note="constants compare exactly")

    if rel != "abs_le" and lg == rg:
        holds = rel in ("eq", "le", "ge")
        return made(FORCED if holds else FORCED_NOT, "structural",
                    note="both sides are the same germ")

    v = _subset_rule(lg, rel, rg, fb, made)
    if v is not None:
        return v
    v = _order_rule(lg, rel, rg, fb, made)
    if v is not None:
        return v
    v = _upper_bound_rules(lg, rel, rg, fb, made)
    if v is not None:
        return v
    if rel in _MIRROR:
        v = _upper_bound_rules(rg, _MIRROR[rel], lg, fb, made)
        if v is not None:
            return v
    v = _window_exhaustive(lg, rel, rg, fb, made)
    if v is not None:
        return v
    return _sampled(lg, rel, rg, fb, made, sample_count)


def _subset_rule(lg: Germ, rel: str, rg: Germ, fb: FilterBase, made) -> Verdict | None:
    """Monotone comparison of two events of the same variable.

    With A inside B the frequency of A never exceeds that of B at any
    snapshot, which settles the lax relations outright.  The strict ones
    additionally need a pinned state witnessing B strictly bigger: a y
    in B outside A whose preimage the base forces into every snapshot.
    Each containment is read in the orientation that puts the smaller
    class on the left, so `Pr[B] ge Pr[A]` is asked as `Pr[A] le Pr[B]`.
    """
    lp = _event_parts(lg)
    rp = _event_parts(rg)
    if lp is None or rp is None or rel not in _MIRROR:
        return None
    rv, cls_a = lp
    rv2, cls_b = rp
    if rv is not rv2:
        return None
    fwd = cls_a.is_subset_of(cls_b)
    bwd = cls_b.is_subset_of(cls_a)
    if fwd is True and bwd is True:
        return made(FORCED if rel in ("eq", "le", "ge") else FORCED_NOT,
                    "subset-antisym",
                    note=f"{cls_a.name} and {cls_b.name} contain each other")
    for small, big, r, inside in ((cls_a, cls_b, rel, fwd),
                                  (cls_b, cls_a, _MIRROR[rel], bwd)):
        if inside is not True:
            continue
        if r in ("le", "gt"):
            return made(FORCED if r == "le" else FORCED_NOT, "subset-monotone",
                        note=f"{small.name} is contained in {big.name}")

        def separates(x: SetValue) -> bool:
            y = rv(x)
            return big.membership(y) and not small.membership(y)

        pin = _pin(fb, separates, 256)
        if pin is not None:
            return made(FORCED if r in ("lt", "ne") else FORCED_NOT, "subset-strict",
                        citations=(pin,),
                        note=f"{pin.x.pretty()} lies in {big.name} but not {small.name}",
                        separator=pin.x.code)
    return None


def _order_rule(lg: Germ, rel: str, rg: Germ, fb: FilterBase, made) -> Verdict | None:
    """Comparisons carried directly by cited count-order constraints.

    A strict order in either orientation decides every relation; failing
    that, order_ge both ways gives equality, and order_ge one way decides
    `ge` and `lt` read in that orientation.
    """
    cls_a = _identity_event_class(lg)
    cls_b = _identity_event_class(rg)
    if cls_a is None or cls_b is None or rel not in _MIRROR:
        return None
    note = "count order divides through by the snapshot size"
    sides = ((cls_a, cls_b, rel), (cls_b, cls_a, _MIRROR[rel]))
    for x, y, r in sides:
        lt = fb.tightest(TAG_ORDER_LT, x, y)
        if lt is not None:
            return made(FORCED if r in ("lt", "le", "ne") else FORCED_NOT, "order",
                        citations=(lt,), note=note)
    ge = [fb.tightest(TAG_ORDER_GE, x, y) for x, y, _ in sides]
    if None not in ge and rel in ("eq", "ne"):
        return made(FORCED if rel == "eq" else FORCED_NOT, "order",
                    citations=ge, note=note)
    for c, (_, _, r) in zip(ge, sides):
        if c is not None and r in ("ge", "lt"):
            return made(FORCED if r == "ge" else FORCED_NOT, "order",
                        citations=(c,), note=note)
    return None


def _upper_bound_rules(lg: Germ, rel: str, rg: Germ, fb: FilterBase, made) -> Verdict | None:
    """Bounds of the shape (germ) <= 1/k supplied by cited constraints:
    ratio constraints for event quotients, weight for the ordinal mass,
    interval for limit mass and the parity imbalance under On.
    `classify_infinitesimal` asks them too, with its own `made`."""
    target = _const_value(rg)
    if target is None:
        return None

    quotient = _event_quotient(lg)
    if quotient is not None:
        cls_a, cls_b = quotient
        found = _bound(fb, TAG_RATIO, target, cls_a, cls_b)
        if found is not None:
            c, bound = found
            note = (f"|{cls_a.name} hits| stays within 1/{c.param} of "
                    f"|{cls_b.name} hits|; the size factors cancel")
            return _bound_verdict(made, rel, bound, target, "ratio",
                                  _with_pin(fb, c, cls_b), note)

    ev = _event_parts(lg)
    if ev is not None and _is_identity(ev[0]) and _under_on(ev[1]):
        found = _bound(fb, TAG_WEIGHT, target)
        if found is not None:
            c, bound = found
            note = "ordinal states carry at most 1/m of any admitted snapshot"
            if _builtin(ev[1]) != "On":
                note += f"; {ev[1].name} sits inside On"
            return _bound_verdict(made, rel, bound, target, "weight", [c], note)

    cond = _identity_cond(lg)
    if cond is not None and cond[0].name == "Lim" and _builtin(cond[1]) == "On":
        found = _bound(fb, TAG_INTERVAL, target)
        if found is not None:
            c, bound = found
            note = ("each ordinal run admits at most one limit point and "
                    "runs have more than l states")
            return _bound_verdict(made, rel, bound, target, "interval-limit",
                                  _with_pin(fb, c, cond[1]), note)

    if rel == "abs_le" and lg.node == NODE_BINOP and lg.op == "-":
        dl = _identity_cond(lg.left)
        dr = _identity_cond(lg.right)
        if dl is not None and dr is not None \
                and _builtin(dl[1]) == _builtin(dr[1]) == "On" \
                and {_builtin(dl[0]), _builtin(dr[0])} == {"Even", "Odd"}:
            found = _bound(fb, TAG_INTERVAL, target)
            if found is not None:
                c, bound = found
                note = ("parities alternate inside each run, so the "
                        "imbalance is at most one state per run")
                return _bound_verdict(made, rel, bound, target, "interval-parity",
                                      _with_pin(fb, c, dl[1]), note)
    return None


# Status of `value rel target` given `value <= bound`, and whether the
# bound must lie strictly below the target to settle it.
_BOUND_SETTLES = {"le": (FORCED, False), "abs_le": (FORCED, False),
                  "lt": (FORCED, True), "ne": (FORCED, True),
                  "gt": (FORCED_NOT, False), "ge": (FORCED_NOT, True),
                  "eq": (FORCED_NOT, True)}


def _bound_verdict(made, rel: str, bound: Fraction, target: Fraction,
                   rule: str, cites, note: str) -> Verdict | None:
    """Turn `value <= bound` into a verdict about `value rel target`."""
    status, strict = _BOUND_SETTLES[rel]
    if bound < target or (bound == target and not strict):
        return made(status, rule, cites, note, bound=str(bound))
    return None


def _window_exhaustive(lg: Germ, rel: str, rg: Germ, fb: FilterBase, made) -> Verdict | None:
    """Decide by counting every admissible snapshot of a small window.

    A snapshot is a set, so the snapshots counted are the nonempty
    subsets of the window's distinct states, at most 14 of them, below
    the base's size bound.  A subset is an int mask over those states in
    canonical order: each constraint becomes a bit-count test
    (`constraint_mask_test`) and each side one compiled germ
    (`compile_germ`), so no Snapshot is built per subset, only the
    window's own.

    The window is a fresh Snapshot per compare, so its atoms come from
    this compare's masks alone.  Compiling records the masks the closures
    read in it: each (variable, class) mask, each indexed star_sum bit,
    and one mask per side of each constraint's count form.  Their
    atoms are the classes of states no such mask tells apart, and the
    closures give one answer on all subsets with the same count of
    states in each atom.  So the loop runs over count vectors (n_1, ...,
    n_r), one count per atom, with 1 <= n_1 + ... + n_r below the size
    bound.  Each vector is evaluated once, at its representative mask
    (the first n_i states of atom i), and adds the number of subsets it
    stands for, the product of C(|atom_i|, n_i), to `holds`, `fails` or
    `vacuous`.  The evidence is therefore the count over subsets.  The
    vectors are listed over the first r - 1 atoms only; n_r is taken in
    the loop.  A constraint that reads the subset's states by position
    (interval, an ordinal-only tag in HF mode, anything
    `constraint_membership` decides) takes every state's bit, so each
    atom is one state and each vector one subset.

    Snapshots where either side has no value are vacuous; a verdict
    needs at least one snapshot where both sides evaluate.
    """
    if fb.window is None:
        return None
    win = Snapshot(fb.window)
    n = len(win)
    if n > 14:
        return None
    concrete = [c for c in fb.constraints if c.tag != TAG_PARAMETRIC]
    mode = fb.universe.mode if fb.universe is not None else None
    tests = [constraint_mask_test(c, win, mode) for c in concrete]
    left, right = compile_germ(lg, win), compile_germ(rg, win)
    relation = _RELATIONS[rel]
    top = n if fb.max_size is None else min(n, fb.max_size - 1)
    # (representative mask, subsets it stands for), over the atoms before
    # the last one, and (its first k states, C(|atom|, k)) for the last
    vectors = lasts = [(0, 1)]
    for atom in win.atoms():
        vectors = [(m | f, w * ways) for m, w in vectors for f, ways in lasts]
        firsts = [0]  # firsts[k]: the first k states of the atom
        while atom:
            low = atom & -atom
            firsts.append(firsts[-1] | low)
            atom ^= low
        lasts = [(f, math.comb(len(firsts) - 1, k)) for k, f in enumerate(firsts)]
    # fits[c]: the last atom's choices that make a vector of c states
    # nonempty and at most `top`; only the vector 0 has no state
    fits = [lasts[c == 0:max(top - c + 1, 0)] for c in range(n + 1)]
    tally = {True: 0, False: 0, None: 0}  # subsets where it holds, fails, is vacuous
    for m0, w0 in vectors:
        for f, ways in fits[m0.bit_count()]:
            m = m0 | f
            for test in tests:
                if not test(m):
                    break
            else:  # `_judge` inlined: this loop is the hot path
                try:
                    tally[relation(left(m), right(m))] += w0 * ways
                except (ConditionNull, DivisionUndefined, EmptySnapshot):
                    tally[None] += w0 * ways
    holds, fails, vacuous = tally[True], tally[False], tally[None]
    if holds and not fails:
        return made(FORCED, "window-exhaustive", citations=tuple(concrete),
                    note="checked every admissible snapshot of the window",
                    holds=holds, vacuous=vacuous)
    if fails and not holds:
        return made(FORCED_NOT, "window-exhaustive", citations=tuple(concrete),
                    note="relation failed at every admissible snapshot",
                    fails=fails, vacuous=vacuous)
    if holds and fails:
        return made(UNDETERMINED, "window-exhaustive",
                    note="relation splits the window's snapshots",
                    holds=holds, fails=fails, vacuous=vacuous)
    return None


def _sampled(lg: Germ, rel: str, rg: Germ, fb: FilterBase, made,
             sample_count: int) -> Verdict:
    """Last resort: evaluate on sampled witnesses.  Samples justify no
    forcing either way, so the status is always undetermined."""
    seed = zlib.crc32(f"{lg.key()}|{rel}|{rg.key()}".encode())
    rng = random.Random(seed)
    concrete = expand_base(fb)
    witnesses = []
    for _ in range(sample_count):
        w = find_witness(concrete, fb.universe, rng=rng, window=fb.window,
                         max_size=fb.max_size, decorate=rng.randrange(0, 5))
        if w is None:
            break
        witnesses.append(w)
    held = _judge_each(_RELATIONS[rel], lg, rg, witnesses)
    return made(UNDETERMINED, "sampled",
                note="no citable rule applies; sampled evidence only",
                holds=held.count(True), fails=held.count(False),
                vacuous=held.count(None))


# ---------------------------------------------------------------------------
# Infinitesimal classification


APPROX_ZERO = "approx_zero"
NOT_APPROX_ZERO = "not_approx_zero"


@dataclass
class Classification:
    """Symbolic infinitesimality verdict for a germ.

    approx_zero means: for every k there is a citable finite subset of
    the base on whose intersection |germ| <= 1/k, so the germ is below
    every positive rational in the forcing order.  `sample_citations`
    shows the subset produced at one sample parameter.
    """

    status: str
    germ: Germ
    rule: str = ""
    note: str = ""
    sample_citations: tuple[Constraint, ...] = ()
    sample_parameter: int | None = None

    @property
    def approx_zero(self) -> bool:
        return self.status == APPROX_ZERO


# The parameter at which a classification's sample citations are shown.
_SAMPLE_K = 3
_SAMPLE_BOUND = const_germ(Fraction(1, _SAMPLE_K))

# The `_upper_bound_rules` rule that bounds a germ by a family's instance at
# `_SAMPLE_K`, and the classification it gives: the family has one at every k.
_FAMILY_RULES = {
    "ratio": ("ratio-family", "each k is carried by the ratio constraint at that k"),
    "weight": ("weight-family", "ordinal mass shrinks below 1/m for every m"),
    "interval-limit": ("interval-family",
                       "limit mass under On shrinks below 1/l for every l"),
}


def classify_infinitesimal(g: Germ, fb: FilterBase) -> Classification:
    """Decide approx-zero status from the base's parametric families.

    The decision is symbolic: no witness search runs.  A germ counts as
    approximately zero exactly when the base supplies, for every k, a
    finite citation set bounding it by 1/k.  The ratio, weight and
    interval cases are compare's bound rules, asked whether `g le 1/k`
    is forced at k = `_SAMPLE_K` over the base's families and fineness
    pins alone: a concrete constraint bounds one k, not every k.
    """
    v = _const_value(g)
    if v is not None:
        if v == 0:
            return Classification(APPROX_ZERO, g, rule="zero",
                                  note="the zero constant is below every 1/k")
        return Classification(NOT_APPROX_ZERO, g, rule="rational",
                              note=f"|{v}| exceeds 1/k for large k")

    if g.node == NODE_BINOP and g.op == "/" and g.left == g.right:
        return Classification(NOT_APPROX_ZERO, g, rule="self-quotient",
                              note="the quotient is 1 wherever it is defined")
    if g.node == NODE_BINOP and g.op == "-" and g.left == g.right:
        return Classification(APPROX_ZERO, g, rule="cancellation",
                              note="the difference vanishes wherever defined")

    def bounded(status, rule: str, cites, note: str, **evidence) -> Classification:
        rule, note = _FAMILY_RULES[rule]
        return Classification(APPROX_ZERO, g, rule, note, tuple(cites), _SAMPLE_K)

    families = replace(fb, constraints=tuple(
        c for c in fb.constraints if c.tag in (TAG_PARAMETRIC, TAG_FINENESS)))
    found = _upper_bound_rules(g, "le", _SAMPLE_BOUND, families, bounded)
    if found is not None:
        return found

    ev = _event_parts(g)
    if ev is not None and ev[0].diagonal and ev[1].tier.is_finite and \
            fb.has_parametric(TAG_FINENESS) is not None:
        rv, cls = ev
        pins = _dilution_pins(fb, rv, cls, _SAMPLE_K)
        if pins is not None:
            return Classification(APPROX_ZERO, g, "fineness-dilution",
                                  f"{cls.name} meets at most {cls.tier.index} states, "
                                  "while pinned snapshots grow without bound",
                                  tuple(pins), _SAMPLE_K)

    return Classification(UNDETERMINED, g, rule="",
                          note="no parametric family in the base covers this germ")


def _dilution_pins(fb: FilterBase, rv: RandomVariable, cls: ClassSpec,
                   k: int) -> list[Constraint] | None:
    """Fineness pins diluting a finite event below 1/k.

    The event hits at most n states of any snapshot, n its finite tier
    as `members` checks it; pinning k*n states outside the event's
    preimage (from the first PREFIX_MEMO_CAP pool states) keeps the
    frequency at most 1/k.
    """
    need = k * cls.tier.index
    outside = (x for x in state_pool(fb.universe, fb.window, PREFIX_MEMO_CAP)
               if not cls.membership(rv(x)))
    pins = [fineness(x) for x in itertools.islice(outside, need)]
    if len(pins) < need:
        return None
    try:
        cls.members()
    except EnumerationExhausted:
        return None
    return pins


# ---------------------------------------------------------------------------
# Verdict auditing


@dataclass
class AuditReport:
    verdict: Verdict
    requested: int
    evaluated: int
    vacuous: int
    failures: tuple[Snapshot, ...]

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (f"audit[{self.verdict.rule}]: {self.evaluated} evaluated, "
                f"{self.vacuous} vacuous, {len(self.failures)} failures "
                f"over {self.requested} witnesses")


def audit_verdict(verdict: Verdict, fb: FilterBase, rng: random.Random,
                  witness_count: int = 100) -> AuditReport:
    """Re-verify a forced verdict on fresh witnesses of its citations.

    Every witness in the cited intersection must satisfy the claimed
    relation (the negated relation for forced_not).  Snapshots where a
    side has no value do not refute the claim: the comparison there is
    vacuous by construction.  Each side is compiled once for all the
    witnesses (`_judge_each`); the failures are the witnesses themselves.
    """
    if verdict.status == UNDETERMINED:
        raise ValueError("only forced verdicts carry an auditable claim")
    witnesses = generate_witnesses(
        list(verdict.citations), fb.universe, rng, witness_count,
        window=fb.window, max_size=fb.max_size)
    relation, expect = _RELATIONS[verdict.relation], verdict.status == FORCED
    held = _judge_each(relation, verdict.lhs, verdict.rhs, witnesses)
    failures = tuple(w for w, h in zip(witnesses, held) if h is not None and h != expect)
    vacuous = held.count(None)
    return AuditReport(verdict, witness_count, len(held) - vacuous, vacuous, failures)
