"""Constraint families, filter bases, and witness constructions.

A full ultrafilter is not a computable object, so forcing works with
finite (or parametric) constraint bases instead.  Each constraint
denotes a set of snapshots with exactly decidable membership; a filter
base is a finite list of constraints, possibly including parametric
families that expand on demand.  A verdict justified by a finite subset
of the base holds on every snapshot in that subset's intersection and
is therefore sound for any ultrafilter extending the base.

The witness builders in this module construct concrete snapshots lying
in prescribed constraint intersections.  They are the engine's
combinatorial core: the superregularity loop, the staged power-class
judgement builder with its witness extension, and the ordinal
interval/weight construction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ConstructionFailed,
    EnumerationExhausted,
    MarkerMissing,
    WrongMode,
)
from .snapshots import Snapshot, StateIndex
from .universe import (
    HF_MODE,
    ORDINAL_MODE,
    ClassSpec,
    SetValue,
    UniverseHandle,
    class_of_set,
    ord_value,
    power_class,
    rank,
)

TAG_FINENESS = "fineness"
TAG_RATIO = "ratio"
TAG_ORDER_LT = "order_lt"
TAG_ORDER_GE = "order_ge"
TAG_INTERVAL = "interval"
TAG_WEIGHT = "weight"
TAG_SUBSET_BOUND = "subset_bound"
TAG_MIN_SIZE = "min_size"
TAG_PARAMETRIC = "parametric"

_ORDINAL_ONLY_TAGS = (TAG_INTERVAL, TAG_WEIGHT)


@dataclass(frozen=True)
class Constraint:
    """One constraint set over snapshots, identified by tag and payload.

    Tags:
      fineness(x)          snapshots containing the state x
      ratio(A,B,k)         k*|A cap T| <= |B cap T|
      order_lt(A,B)        |A cap T| < |B cap T|
      order_ge(A,B)        |A cap T| >= |B cap T|
      interval(l)          every maximal ordinal run in T has > l steps
      weight(m)            m*|On cap T| <= |T|
      subset_bound(W,a)    |T cap W| < a
      min_size(n)          |T| >= n
      parametric(family)   the whole family over its parameter
    """

    tag: str
    x: SetValue | None = None
    cls_a: ClassSpec | None = None
    cls_b: ClassSpec | None = None
    param: int | None = None
    window: tuple[SetValue, ...] | None = None
    family: str | None = None

    def describe(self) -> str:
        return constraint_to_text(self)

    def __repr__(self):
        return f"Constraint[{self.describe()}]"


def fineness(x: SetValue) -> Constraint:
    return Constraint(TAG_FINENESS, x=x)


def ratio(cls_a: ClassSpec, cls_b: ClassSpec, k: int) -> Constraint:
    if k < 1:
        raise ValueError("ratio constraint needs k >= 1")
    return Constraint(TAG_RATIO, cls_a=cls_a, cls_b=cls_b, param=k)


def order_lt(cls_a: ClassSpec, cls_b: ClassSpec) -> Constraint:
    return Constraint(TAG_ORDER_LT, cls_a=cls_a, cls_b=cls_b)


def order_ge(cls_a: ClassSpec, cls_b: ClassSpec) -> Constraint:
    return Constraint(TAG_ORDER_GE, cls_a=cls_a, cls_b=cls_b)


def interval(l: int) -> Constraint:
    if l < 1:
        raise ValueError("interval constraint needs l >= 1")
    return Constraint(TAG_INTERVAL, param=l)


def weight(m: int) -> Constraint:
    if m < 1:
        raise ValueError("weight constraint needs m >= 1")
    return Constraint(TAG_WEIGHT, param=m)


def subset_bound(window: Iterable[SetValue], alpha: int) -> Constraint:
    vals = tuple(sorted({v.code: v for v in window}.values(), key=lambda v: v._key))
    return Constraint(TAG_SUBSET_BOUND, window=vals, param=alpha)


def min_size(n: int) -> Constraint:
    return Constraint(TAG_MIN_SIZE, param=n)


def parametric_fineness() -> Constraint:
    return Constraint(TAG_PARAMETRIC, family=TAG_FINENESS)


def parametric_ratio(cls_a: ClassSpec, cls_b: ClassSpec) -> Constraint:
    return Constraint(TAG_PARAMETRIC, cls_a=cls_a, cls_b=cls_b, family=TAG_RATIO)


def parametric_interval() -> Constraint:
    return Constraint(TAG_PARAMETRIC, family=TAG_INTERVAL)


def parametric_weight() -> Constraint:
    return Constraint(TAG_PARAMETRIC, family=TAG_WEIGHT)


def expand_parametric(c: Constraint, param: int) -> Constraint:
    """Concrete instance of a parametric family at one parameter value."""
    if c.tag != TAG_PARAMETRIC:
        raise ValueError("not a parametric constraint")
    if c.family == TAG_RATIO:
        return ratio(c.cls_a, c.cls_b, param)
    if c.family == TAG_INTERVAL:
        return interval(param)
    if c.family == TAG_WEIGHT:
        return weight(param)
    raise ValueError(f"family {c.family} expands over states, not integers")


# ---------------------------------------------------------------------------
# Membership


def _ordinal_runs(t: Snapshot) -> list[int]:
    """Lengths (in states) of maximal consecutive ordinal runs in t.

    Runs live inside one limit block: w*a+b and w*a+b+1 are consecutive,
    while a limit ordinal never continues a run from below.
    """
    blocks: dict[int, list[int]] = {}
    for s in t:
        if s.is_ordinal:
            a, b = s.ord_parts
            blocks.setdefault(a, []).append(b)
    lengths: list[int] = []
    for bs in blocks.values():
        bs.sort()
        run = 1
        for prev, cur in zip(bs, bs[1:]):
            if cur == prev + 1:
                run += 1
            else:
                lengths.append(run)
                run = 1
        lengths.append(run)
    return lengths


def constraint_membership(c: Constraint, t: Snapshot, mode: str | None = None) -> bool:
    """Exact membership of snapshot t in the constraint set."""
    if c.tag in _ORDINAL_ONLY_TAGS and mode == HF_MODE:
        raise WrongMode(f"{c.tag} constraint is meaningless in HF mode")
    if c.tag == TAG_FINENESS:
        return c.x in t
    if c.tag == TAG_RATIO:
        # 0/0 counts as satisfied: an empty numerator cannot exceed any bound.
        return c.param * t.count(c.cls_a) <= t.count(c.cls_b)
    if c.tag == TAG_ORDER_LT:
        return t.count(c.cls_a) < t.count(c.cls_b)
    if c.tag == TAG_ORDER_GE:
        return t.count(c.cls_a) >= t.count(c.cls_b)
    if c.tag == TAG_INTERVAL:
        return all(length >= c.param + 1 for length in _ordinal_runs(t))
    if c.tag == TAG_WEIGHT:
        on_count = sum(1 for s in t if s.is_ordinal)
        return c.param * on_count <= len(t)
    if c.tag == TAG_SUBSET_BOUND:
        inside = {v.code for v in c.window}
        return sum(1 for s in t if s.code in inside) < c.param
    if c.tag == TAG_MIN_SIZE:
        return len(t) >= c.param
    if c.tag == TAG_PARAMETRIC:
        raise WrongMode("parametric families have no direct membership; expand first")
    raise ValueError(f"unknown constraint tag {c.tag}")


def constraint_mask_test(c: Constraint, ix: StateIndex,
                         mode: str | None = None) -> Callable[[int], bool]:
    """Membership in c of the subset of `ix.states` a mask selects.

    Equal to `constraint_membership` on that subset's Snapshot, but every
    tag except interval is an integer test on bit counts, so no state is
    touched per subset.  Interval, and any constraint that
    `constraint_membership` rejects (an ordinal-only tag in HF mode, an
    unknown or parametric tag), builds the subset's Snapshot and asks
    `constraint_membership`, which then decides or raises as usual.
    """
    tag = c.tag
    if tag in _ORDINAL_ONLY_TAGS and mode == HF_MODE:
        tag = None  # constraint_membership raises WrongMode for it below
    if tag == TAG_FINENESS:
        pin = ix.bit(c.x)
        return lambda m: m & pin != 0
    if tag in (TAG_RATIO, TAG_ORDER_LT, TAG_ORDER_GE):
        a, b = ix.mask(c.cls_a), ix.mask(c.cls_b)
        if tag == TAG_RATIO:
            k = c.param
            return lambda m: k * (m & a).bit_count() <= (m & b).bit_count()
        if tag == TAG_ORDER_LT:
            return lambda m: (m & a).bit_count() < (m & b).bit_count()
        return lambda m: (m & a).bit_count() >= (m & b).bit_count()
    if tag == TAG_WEIGHT:
        on, k = ix.where(lambda s: s.is_ordinal), c.param
        return lambda m: k * (m & on).bit_count() <= m.bit_count()
    if tag == TAG_SUBSET_BOUND:
        inside, alpha = 0, c.param
        for v in c.window:
            inside |= ix.bit(v)
        return lambda m: (m & inside).bit_count() < alpha
    if tag == TAG_MIN_SIZE:
        n = c.param
        return lambda m: m.bit_count() >= n
    return lambda m: constraint_membership(c, Snapshot(ix.subset(m)), mode)


# ---------------------------------------------------------------------------
# Filter bases


@dataclass(frozen=True)
class FilterBase:
    """A finite list of constraints with optional window confinement.

    `window`/`max_size` describe a restricted snapshot space: snapshots
    drawn from the window with size strictly below the bound.  The
    universe handle is carried for enumeration but does not take part in
    equality.
    """

    constraints: tuple[Constraint, ...]
    universe: UniverseHandle | None = field(default=None, compare=False, repr=False)
    window: tuple[SetValue, ...] | None = None
    max_size: int | None = None
    provenance: str = ""

    def with_constraints(self, extra: Iterable[Constraint]) -> "FilterBase":
        merged = list(self.constraints)
        for c in extra:
            if c not in merged:
                merged.append(c)
        return replace(self, constraints=tuple(merged))

    def fineness_pins(self) -> list[SetValue]:
        return [c.x for c in self.constraints if c.tag == TAG_FINENESS]

    def has_parametric(self, family: str, cls_a: ClassSpec | None = None,
                       cls_b: ClassSpec | None = None) -> Constraint | None:
        """The parametric family of that name (over the class pair, for
        ratio), if the base has it."""
        for c in self.constraints:
            if c.tag == TAG_PARAMETRIC and c.family == family \
                    and c.cls_a == cls_a and c.cls_b == cls_b:
                return c
        return None

    def tightest(self, tag: str, cls_a: ClassSpec | None = None,
                 cls_b: ClassSpec | None = None) -> Constraint | None:
        """The concrete constraint of the tag (and class pair, for ratio)
        with the largest parameter, if any."""
        best = None
        for c in self.constraints:
            if c.tag == tag and c.cls_a == cls_a and c.cls_b == cls_b \
                    and (best is None or c.param > best.param):
                best = c
        return best

    def find_order(self, tag: str, cls_a: ClassSpec, cls_b: ClassSpec) -> Constraint | None:
        for c in self.constraints:
            if c.tag == tag and c.cls_a == cls_a and c.cls_b == cls_b:
                return c
        return None


def state_pool(universe: UniverseHandle | None,
               window: Iterable[SetValue] | None,
               limit: int | None = None) -> Iterator[SetValue]:
    """Candidate states: the whole window if there is one, otherwise the
    universe enumeration cut to `limit` states, otherwise nothing.

    A pool of at most PREFIX_MEMO_CAP universe states is a lazy slice of
    the handle's memo, so repeated pools reuse the values built the first
    time instead of rebuilding them."""
    if window is not None:
        return iter(window)
    if universe is None:
        return iter(())
    return itertools.islice(universe.enumerate_universe(), limit)


def fineness_base(universe: UniverseHandle,
                  window: Iterable[SetValue] | None = None) -> FilterBase:
    """The parametric family of all fineness constraints over a window.

    With no window the family ranges over the whole universe
    enumeration; any finite subfamily has its own pin set as a witness.
    """
    win = None
    if window is not None:
        win = tuple(sorted({v.code: v for v in window}.values(), key=lambda v: v._key))
    return FilterBase(
        constraints=(parametric_fineness(),),
        universe=universe,
        window=win,
        provenance="fineness",
    )


def ordinal_theorem_base(
    universe: UniverseHandle,
    pairs: Sequence[tuple[ClassSpec, ClassSpec]] = (),
) -> FilterBase:
    """Fineness plus the parametric ratio, interval, and weight families."""
    if universe.mode != ORDINAL_MODE:
        raise WrongMode("the interval/weight families need an ordinal universe")
    cs: list[Constraint] = [parametric_fineness()]
    for cls_a, cls_b in pairs:
        cs.append(parametric_ratio(cls_a, cls_b))
    cs.append(parametric_interval())
    cs.append(parametric_weight())
    return FilterBase(tuple(cs), universe=universe, provenance="ordinal-theorem")


# ---------------------------------------------------------------------------
# Serialization (canonical structured text)


def _window_text(window: tuple[SetValue, ...]) -> str:
    return ";".join(v.code for v in window)


def constraint_to_text(c: Constraint) -> str:
    if c.tag == TAG_FINENESS:
        return f"fineness({c.x.code})"
    if c.tag == TAG_RATIO:
        return f"ratio({c.cls_a.name},{c.cls_b.name},k={c.param})"
    if c.tag == TAG_ORDER_LT:
        return f"order_lt({c.cls_a.name},{c.cls_b.name})"
    if c.tag == TAG_ORDER_GE:
        return f"order_ge({c.cls_a.name},{c.cls_b.name})"
    if c.tag == TAG_INTERVAL:
        return f"interval(l={c.param})"
    if c.tag == TAG_WEIGHT:
        return f"weight(m={c.param})"
    if c.tag == TAG_SUBSET_BOUND:
        return f"subset_bound([{_window_text(c.window)}],alpha={c.param})"
    if c.tag == TAG_MIN_SIZE:
        return f"min_size({c.param})"
    if c.tag == TAG_PARAMETRIC:
        if c.family == TAG_RATIO:
            return f"parametric(ratio,{c.cls_a.name},{c.cls_b.name})"
        return f"parametric({c.family})"
    raise ValueError(f"unknown constraint tag {c.tag}")


def constraint_from_text(text: str, classes: dict[str, ClassSpec] | None = None) -> Constraint:
    """Parse the canonical constraint rendering.

    Class references are resolved through `classes`; a missing entry is
    an error because membership would be undecidable.
    """
    from .universe import parse_code

    classes = classes or {}

    def resolve(name: str) -> ClassSpec:
        if name not in classes:
            raise KeyError(f"constraint references unknown class {name!r}")
        return classes[name]

    head, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"bad constraint text {text!r}")
    body = rest[:-1]
    if head == "fineness":
        return fineness(parse_code(body))
    if head == "ratio":
        a, b, kpart = body.rsplit(",", 2)
        return ratio(resolve(a), resolve(b), int(kpart.removeprefix("k=")))
    if head in ("order_lt", "order_ge"):
        a, b = body.rsplit(",", 1)
        maker = order_lt if head == "order_lt" else order_ge
        return maker(resolve(a), resolve(b))
    if head == "interval":
        return interval(int(body.removeprefix("l=")))
    if head == "weight":
        return weight(int(body.removeprefix("m=")))
    if head == "subset_bound":
        wpart, apart = body.rsplit(",", 1)
        inner = wpart[1:-1]
        vals = [parse_code(v) for v in inner.split(";")] if inner else []
        return subset_bound(vals, int(apart.removeprefix("alpha=")))
    if head == "min_size":
        return min_size(int(body))
    if head == "parametric":
        family, *names = body.split(",")
        if family == TAG_RATIO:
            a, b = names
            return parametric_ratio(resolve(a), resolve(b))
        if family not in (TAG_FINENESS, TAG_INTERVAL, TAG_WEIGHT):
            raise ValueError(f"unknown parametric family {family!r}")
        return Constraint(TAG_PARAMETRIC, family=family)
    raise ValueError(f"unknown constraint head {head!r}")


def filter_base_to_text(fb: FilterBase) -> str:
    """Canonical rendering: header lines then sorted constraint lines."""
    lines = [f"provenance: {fb.provenance}"]
    if fb.window is not None:
        lines.append(f"window: {_window_text(fb.window)}")
    if fb.max_size is not None:
        lines.append(f"max_size: {fb.max_size}")
    lines.extend(sorted(constraint_to_text(c) for c in fb.constraints))
    return "\n".join(lines)


def filter_base_from_text(
    text: str,
    universe: UniverseHandle | None = None,
    classes: dict[str, ClassSpec] | None = None,
) -> FilterBase:
    from .universe import parse_code

    provenance = ""
    window = None
    max_size = None
    cs: list[Constraint] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("provenance: "):
            provenance = line.removeprefix("provenance: ")
        elif line.startswith("window: "):
            inner = line.removeprefix("window: ")
            window = tuple(parse_code(v) for v in inner.split(";")) if inner else ()
        elif line.startswith("max_size: "):
            max_size = int(line.removeprefix("max_size: "))
        else:
            cs.append(constraint_from_text(line, classes))
    return FilterBase(tuple(cs), universe=universe, window=window,
                      max_size=max_size, provenance=provenance)


# ---------------------------------------------------------------------------
# FIP checking


# Parametric families are sampled at these points for budgeted checks:
# the first few window or universe states for fineness, k = 1, 2, 3 for
# the integer families.  check_fip tries every subset of up to
# FIP_SUBSET_SIZE of the sampled constraints.
FINENESS_SAMPLES = 3
PARAM_SAMPLES = (1, 2, 3)
FIP_SUBSET_SIZE = 3


@dataclass(frozen=True)
class FipBudget:
    """Search limits for the finite-intersection audit."""

    scan_cap: int = 4000


@dataclass(frozen=True)
class FipResult:
    status: str  # "witnessed" | "refuted" | "unknown"
    witnesses: tuple[tuple[tuple[Constraint, ...], Snapshot], ...] = ()
    refuted_subset: tuple[Constraint, ...] | None = None
    note: str = ""

    @property
    def witnessed(self) -> bool:
        return self.status == "witnessed"


def expand_base(fb: FilterBase) -> list[Constraint]:
    """Concrete constraints: parametric families sampled at fixed points."""
    out: list[Constraint] = []
    for c in fb.constraints:
        if c.tag != TAG_PARAMETRIC:
            insts = [c]
        elif c.family == TAG_FINENESS:
            insts = [fineness(x) for x in itertools.islice(
                state_pool(fb.universe, fb.window), FINENESS_SAMPLES)]
        else:
            insts = [expand_parametric(c, p) for p in PARAM_SAMPLES]
        for inst in insts:
            if inst not in out:
                out.append(inst)
    return out


def _structurally_empty(subset: Sequence[Constraint]) -> bool:
    """Detect intersections provably empty by trichotomy on counts."""
    for c in subset:
        if c.tag == TAG_ORDER_LT and c.cls_a == c.cls_b:
            return True
    for c, d in itertools.combinations(subset, 2):
        pair = {c.tag, d.tag}
        if pair == {TAG_ORDER_LT, TAG_ORDER_GE}:
            lt = c if c.tag == TAG_ORDER_LT else d
            ge = d if c.tag == TAG_ORDER_LT else c
            if lt.cls_a == ge.cls_a and lt.cls_b == ge.cls_b:
                return True
        if c.tag == TAG_ORDER_LT and d.tag == TAG_ORDER_LT:
            if c.cls_a == d.cls_b and c.cls_b == d.cls_a:
                return True
    return False


def check_fip(fb: FilterBase, budget: FipBudget | None = None,
              rng: random.Random | None = None) -> FipResult:
    """Budgeted finite-intersection-property audit.

    Checks every subset of up to FIP_SUBSET_SIZE constraints, plus the
    full expanded set.  A subset is refuted only when its emptiness is
    proved structurally; a failed witness search downgrades the result
    to unknown rather than refuting.
    """
    budget = budget or FipBudget()
    concrete = expand_base(fb)
    if fb.max_size is not None:
        for c in concrete:
            # A size floor at or above the space's size cap is outright empty.
            if c.tag == TAG_MIN_SIZE and c.param >= fb.max_size:
                return FipResult("refuted", refuted_subset=(c,))
    subsets: list[tuple[Constraint, ...]] = []
    for size in range(1, min(FIP_SUBSET_SIZE, len(concrete)) + 1):
        subsets.extend(itertools.combinations(concrete, size))
    full = tuple(concrete)
    if full and full not in subsets:
        subsets.append(full)
    found: list[tuple[tuple[Constraint, ...], Snapshot]] = []
    for subset in subsets:
        if _structurally_empty(subset):
            return FipResult("refuted", refuted_subset=subset)
        w = find_witness(subset, fb.universe, rng=rng, window=fb.window,
                         max_size=fb.max_size, scan_cap=budget.scan_cap)
        if w is None:
            return FipResult(
                "unknown",
                witnesses=tuple(found),
                note="witness search exhausted its budget on: "
                + "; ".join(c.describe() for c in subset),
            )
        found.append((subset, w))
    return FipResult("witnessed", witnesses=tuple(found))


# ---------------------------------------------------------------------------
# Generic witness search


def _shuffled_stream(stream: Iterator[SetValue], rng: random.Random | None,
                     buffer: int = 64) -> Iterator[SetValue]:
    """Optionally shuffle within consecutive buffers; order stays seeded."""
    if rng is None:
        yield from stream
        return
    while True:
        chunk = list(itertools.islice(stream, buffer))
        if not chunk:
            return
        rng.shuffle(chunk)
        yield from chunk


def _isolation_ok(cand: SetValue, l: int, avoid_classes: Sequence[ClassSpec],
                  occupied: Iterable[SetValue]) -> bool:
    """True when [cand-l, cand+l] avoids the classes and stays clear of
    already-placed ordinals, so interval closure cannot leak into them."""
    a, b = cand.ord_parts
    for d in range(-l, l + 1):
        if b + d < 0:
            continue
        neighbour = ord_value(a, b + d)
        if any(cls.membership(neighbour) for cls in avoid_classes):
            return False
    for s in occupied:
        if s.is_ordinal and s.ord_parts[0] == a and abs(s.ord_parts[1] - b) <= l:
            return False
    return True


def _close_intervals(states: set[SetValue], l: int,
                     protected: Sequence[ClassSpec] = ()) -> list[SetValue]:
    """Extend every maximal ordinal run to at least l+1 states.

    With no protected classes this is plain successor closure, adding
    the l states after each run.  Otherwise the window covering the run
    may slide backwards, choosing the placement that adds the fewest
    protected-class members; ties resolve toward successor closure.
    """
    added: list[SetValue] = []
    blocks = _ordinal_blocks(states)
    for a, bs in blocks.items():
        for b in sorted(bs):
            run_start = b
            while run_start - 1 in bs:
                run_start -= 1
            if run_start != b:
                continue  # each run is handled once, from its left end
            run_end = b
            while run_end + 1 in bs:
                run_end += 1
            if run_end - run_start + 1 >= l + 1:
                continue

            def cost(start: int) -> int:
                return sum(1 for nb in range(start, start + l + 1)
                           if nb not in bs
                           and any(p.membership(ord_value(a, nb))
                                   for p in protected))

            best = run_start
            if protected:
                lo = max(0, run_end - l)
                best = min(range(lo, run_start + 1),
                           key=lambda s0: (cost(s0), run_start - s0))
            for nb in range(best, best + l + 1):
                if nb not in bs:
                    v = ord_value(a, nb)
                    added.append(v)
                    bs.add(nb)
    for v in added:
        states.add(v)
    return added


def _ordinal_blocks(states: Iterable[SetValue]) -> dict[int, set[int]]:
    """For each limit block a, the b of every ordinal w*a+b among states."""
    blocks: dict[int, set[int]] = {}
    for s in states:
        if s.is_ordinal:
            a, b = s.ord_parts
            blocks.setdefault(a, set()).add(b)
    return blocks


def _run_feasible(cand: SetValue, l: int, protected: Sequence[ClassSpec],
                  present: Iterable[int]) -> bool:
    """True when cand's run could be closed without touching protected
    classes: either the merged run is already long enough, or some
    window of l+1 states covering it stays clear.

    `present` holds the b of every placed ordinal in cand's block.  The
    run is walked at most l states each way, which is enough to tell
    whether it is long enough, so the cost does not grow with the
    number of placed states.
    """
    a, b = cand.ord_parts
    r0 = b
    while r0 > b - l and r0 - 1 in present:
        r0 -= 1
    r1 = b
    while r1 < b + l and r1 + 1 in present:
        r1 += 1
    if r1 - r0 + 1 >= l + 1:
        return True
    for start in range(max(0, r1 - l), r0 + 1):
        if all(nb == b or nb in present
               or not any(p.membership(ord_value(a, nb)) for p in protected)
               for nb in range(start, start + l + 1)):
            return True
    return False


def find_witness(
    constraints: Sequence[Constraint],
    universe: UniverseHandle | None,
    rng: random.Random | None = None,
    window: Iterable[SetValue] | None = None,
    max_size: int | None = None,
    scan_cap: int = 4000,
    restarts: int = 4,
    rounds: int = 10,
    decorate: int = 0,
) -> Snapshot | None:
    """Construct a snapshot in the intersection of concrete constraints.

    Repair-loop search: start from the fineness pins, then satisfy ratio
    and order constraints by adding fresh class elements, close ordinal
    runs for interval constraints, and pad with non-ordinal states for
    weight constraints.  Candidates for ratio/order repairs respect
    interval isolation when an interval constraint is present, which is
    what makes the combined families converge.  Returns None when the
    budget is exhausted: `restarts` attempts of at most `rounds` repair
    rounds, each repair scanning at most `scan_cap` candidates, and an
    attempt whose snapshot has grown past `scan_cap` states is given up.
    With an rng, a found snapshot then takes up to `decorate` random
    extra states that keep every constraint.  Every returned snapshot is
    verified against all constraints before being handed back.
    """
    cs = list(constraints)
    if any(c.tag == TAG_PARAMETRIC for c in cs):
        raise ValueError("find_witness needs concrete constraints; expand first")
    mode = universe.mode if universe is not None else None
    if mode == HF_MODE and any(c.tag in _ORDINAL_ONLY_TAGS for c in cs):
        raise WrongMode("interval/weight constraints need an ordinal universe")

    pins = [c.x for c in cs if c.tag == TAG_FINENESS]
    # Count repairs (small, big, k, slack): |big| must reach k*|small| +
    # slack, grown with fresh members of big outside small.
    repairs = [(c.cls_a, c.cls_b, c.param, 0) for c in cs if c.tag == TAG_RATIO] + \
        [(c.cls_a, c.cls_b, 1, 1) for c in cs if c.tag == TAG_ORDER_LT] + \
        [(c.cls_b, c.cls_a, 1, 0) for c in cs if c.tag == TAG_ORDER_GE]
    interval_c = max((c.param for c in cs if c.tag == TAG_INTERVAL), default=0)
    weight_cs = [c for c in cs if c.tag == TAG_WEIGHT]
    minsize_cs = [c for c in cs if c.tag == TAG_MIN_SIZE]

    window_vals = None
    if window is not None:
        window_vals = list(window)
        win_codes = {v.code for v in window_vals}
        if any(p.code not in win_codes for p in pins):
            return None

    # growth inside these classes needs compensation elsewhere, so the
    # interval machinery steers closures away from them
    protected = [small for small, _, _, _ in repairs]
    avoid_for_pads = [cls for small, big, _, _ in repairs for cls in (small, big)]

    def satisfied(states: set[SetValue]) -> bool:
        snap = Snapshot(states)
        return all(constraint_membership(c, snap, mode) for c in cs)

    def class_count(states: set[SetValue], cls: ClassSpec) -> int:
        return sum(1 for s in states if cls.membership(s))

    def candidate_stream(cls: ClassSpec, states: set[SetValue]) -> Iterator[SetValue]:
        if window_vals is not None:
            base = (v for v in window_vals if cls.membership(v) and v not in states)
        else:
            base = cls.enumerate(exclusions=states)
        return _shuffled_stream(base, rng)

    def grow(states: set[SetValue], cls: ClassSpec, need: int,
             avoid: Sequence[ClassSpec]) -> bool:
        # First pass insists the candidate's run can close without
        # touching an avoided class; the fallback drops that demand and
        # leaves the spill to the next repair round.
        got = 0
        blocks = _ordinal_blocks(states) if interval_c else {}
        for strict in (True, False):
            scanned = 0
            for cand in candidate_stream(cls, states):
                scanned += 1
                if scanned > scan_cap:
                    break
                if any(a.membership(cand) for a in avoid):
                    continue
                if strict and interval_c and cand.is_ordinal \
                        and not _run_feasible(cand, interval_c, avoid,
                                              blocks.get(cand.ord_parts[0], ())):
                    continue
                states.add(cand)
                if interval_c and cand.is_ordinal:
                    a, b = cand.ord_parts
                    blocks.setdefault(a, set()).add(b)
                got += 1
                if got == need:
                    return True
        return got >= need

    def pad_stream(states: set[SetValue]) -> Iterator[SetValue]:
        # never an ordinal: pads, non-ordinal window states or HF sets
        if window_vals is not None:
            return iter([v for v in window_vals
                         if not v.is_ordinal and v not in states])
        if universe is None:
            return iter(())
        if universe.mode == ORDINAL_MODE:
            return (p for p in universe.pads() if p not in states)
        return (v for v in universe.enumerate_universe() if v not in states)

    def pad(states: set[SetValue], need: int) -> bool:
        """Add up to `need` pad states outside every repaired class."""
        got = 0
        for cand in _shuffled_stream(pad_stream(states), rng):
            if any(a.membership(cand) for a in avoid_for_pads):
                continue
            states.add(cand)
            got += 1
            if got == need:
                break
        return got > 0

    for attempt in range(restarts):
        states: set[SetValue] = set(pins)
        progressed = True
        for _ in range(rounds):
            if satisfied(states) and not progressed:
                break
            progressed = False
            for small, big, k, slack in repairs:
                deficit = k * class_count(states, small) + slack - class_count(states, big)
                if deficit > 0 and grow(states, big, deficit, avoid=[small]):
                    progressed = True
            if interval_c:
                if _close_intervals(states, interval_c, protected):
                    progressed = True
            for c in weight_cs:
                on_count = sum(1 for s in states if s.is_ordinal)
                deficit = c.param * on_count - len(states)
                if deficit > 0 and pad(states, deficit):
                    progressed = True
            for c in minsize_cs:
                deficit = c.param - len(states)
                if deficit > 0 and pad(states, deficit):
                    progressed = True
            if max_size is not None and len(states) >= max_size:
                break
            if satisfied(states):
                break
            if len(states) > scan_cap:
                break  # past what one repair may scan: out of budget
        if not states and satisfied(states):
            # The empty set satisfies e.g. a lone ratio constraint, but the
            # snapshot space holds nonempty snapshots only: seed one state.
            for cand in _shuffled_stream(pad_stream(states), rng):
                states.add(cand)
                if satisfied(states):
                    break
                states.discard(cand)
        if states and satisfied(states):
            if max_size is not None and len(states) >= max_size:
                continue
            if decorate and rng is not None:
                pool = [v for v in state_pool(universe, window_vals, 120)
                        if v not in states]
                rng.shuffle(pool)
                added = 0
                for cand in pool:
                    if added >= decorate or \
                            (max_size is not None and len(states) + 1 >= max_size):
                        break
                    states.add(cand)
                    if satisfied(states):
                        added += 1
                    else:
                        states.discard(cand)
            return Snapshot(states)
        if rng is None:
            break  # deterministic restarts would repeat themselves
    return None


def generate_witnesses(
    constraints: Sequence[Constraint],
    universe: UniverseHandle | None,
    rng: random.Random,
    count: int,
    window: Iterable[SetValue] | None = None,
    max_size: int | None = None,
) -> list[Snapshot]:
    """Distinct snapshots in the constraint intersection, for audits:
    up to 8 seeded searches per snapshot asked for, then a deterministic
    padding fallback."""
    out: list[Snapshot] = []
    seen: set[frozenset] = set()
    attempts = count * 8
    while len(out) < count and attempts > 0:
        attempts -= 1
        w = find_witness(constraints, universe, rng=rng, window=window,
                         max_size=max_size, decorate=rng.randrange(0, 5))
        if w is None:
            continue
        key = frozenset(s.code for s in w)
        if key in seen:
            continue
        seen.add(key)
        out.append(w)
    if len(out) < count:
        # Deterministic fallback: grow one witness by safe padding.
        base = find_witness(constraints, universe, window=window, max_size=max_size)
        if base is None:
            raise ConstructionFailed(
                "could not generate witnesses for: "
                + "; ".join(c.describe() for c in constraints))
        mode = universe.mode if universe is not None else None
        states = set(base)
        for cand in (v for v in state_pool(universe, window) if v not in states):
            if len(out) >= count:
                break
            states.add(cand)
            if max_size is not None and len(states) >= max_size:
                break
            snap = Snapshot(states)
            if all(constraint_membership(c, snap, mode) for c in constraints):
                key = frozenset(s.code for s in snap)
                if key not in seen:
                    seen.add(key)
                    out.append(snap)
            else:
                states.discard(cand)
        if len(out) < count:
            raise ConstructionFailed(
                f"only {len(out)} of {count} witnesses found for: "
                + "; ".join(c.describe() for c in constraints))
    return out


# ---------------------------------------------------------------------------
# Superregularity witness loop


def superreg_witness(
    pins: Iterable[SetValue],
    pairs: Sequence[tuple[ClassSpec, ClassSpec, int]],
) -> Snapshot:
    """Snapshot satisfying all pins and every ratio bound of `pairs`.

    Pairs are processed in ascending declared-tier order of their first
    class.  At stage j the current count a of F-states in A_j is taken
    and n*a fresh elements of B_j are added, where n is the largest
    requested bound and the fresh elements avoid every A_1..A_j.  Later
    stages keep avoiding earlier first classes, so each A_j count is
    frozen once its stage has run and every ratio lands at or below 1/n.
    """
    pair_list = list(pairs)
    for cls_a, cls_b, n in pair_list:
        if n < 1:
            raise ValueError("ratio bound must be >= 1")
        if not cls_a.tier.is_infinite:
            raise WrongMode(f"{cls_a.name} must carry an infinite declared tier")
        if not cls_a.tier < cls_b.tier:
            raise WrongMode(
                f"need tier({cls_a.name}) < tier({cls_b.name}); "
                f"got {cls_a.tier.describe()} vs {cls_b.tier.describe()}")
    pair_list.sort(key=lambda p: (p[0].tier._order_key(), p[0].name))
    n_max = max((n for _, _, n in pair_list), default=1)

    states: dict[str, SetValue] = {}
    for p in pins:
        states[p.code] = p
    seen_first: list[ClassSpec] = []
    for cls_a, cls_b, _ in pair_list:
        seen_first.append(cls_a)
        avoid = list(seen_first)
        a_count = sum(1 for v in states.values() if cls_a.membership(v))
        need = n_max * a_count
        if need:
            fresh = cls_b.take_fresh(
                need,
                exclusions=list(states.values()),
                predicate=lambda v: not any(a.membership(v) for a in avoid),
            )
            for v in fresh:
                states[v.code] = v
    result = Snapshot(states.values())
    for cls_a, cls_b, n in pair_list:
        if not constraint_membership(ratio(cls_a, cls_b, n), result):
            raise ConstructionFailed(
                f"ratio {cls_a.name}/{cls_b.name} <= 1/{n} failed after construction")
    return result


def superreg_constraints(
    pairs: Sequence[tuple[ClassSpec, ClassSpec, int]],
    pins: Iterable[SetValue] = (),
) -> list[Constraint]:
    """The constraint subset the superregularity witness certifies."""
    out = [fineness(p) for p in pins]
    out.extend(ratio(a, b, n) for a, b, n in pairs)
    return out


# ---------------------------------------------------------------------------
# Ordinal interval/weight witness


def ordinal_witness(
    universe: UniverseHandle,
    pins: Iterable[SetValue],
    k: int,
    l: int,
    m: int,
    pairs: Sequence[tuple[ClassSpec, ClassSpec]] = (),
) -> Snapshot:
    """Snapshot inside pins, ratio(k), interval(l) and weight(m) at once.

    Construction: start from the pins; for each class pair add k*(number
    of pins) elements of the second class that are l-isolated, meaning
    the whole closed neighbourhood of radius l avoids every first class
    and existing ordinals; close every ordinal run with l successors;
    pad with j*m non-ordinal states for j the number of states so far.
    Isolation is what lets the successor closure avoid the first
    classes; if a pinned ordinal's successors land in one anyway, the
    construction refuses rather than silently repairing.
    """
    if universe.mode != ORDINAL_MODE:
        raise WrongMode("ordinal_witness needs an ordinal-mode universe")
    for value, low in ((k, 1), (l, 1), (m, 1)):
        if value < low:
            raise ValueError("k, l, m must all be >= 1")
    pin_list = list(dict.fromkeys(pins))
    n_pins = len(pin_list)
    pair_list = sorted(pairs, key=lambda p: (p[0].tier._order_key(), p[0].name))

    states: set[SetValue] = set(pin_list)
    if not states:
        # No pins: seed one run now so the result is nonempty.  The seed
        # must precede pair growth, or its run would add unbalanced
        # first-class mass after the ratios were already settled.
        states.add(ord_value(0, 0))

    def live(cls: ClassSpec) -> int:
        return sum(1 for s in states if cls.membership(s))

    # Successor closure of the pin runs comes first.  States it adds may
    # land in a pair's first class; the pair's growth below is computed
    # from live counts, so such states are absorbed, not repaired.
    _close_intervals(states, l)

    # Pairs in ascending tier order.  Growth for a later pair may add to
    # an earlier pair's second class (harmless) but never to a guarded
    # first class, so balanced ratios stay balanced.
    guarded: list[ClassSpec] = []
    for cls_a, cls_b in pair_list:
        guard = guarded + [cls_a]
        need = max(k * n_pins, k * live(cls_a) - live(cls_b))
        while need > 0:
            chosen = cls_b.take_fresh(
                need,
                exclusions=list(states),
                predicate=lambda v: (
                    v.is_ordinal
                    and not any(g.membership(v) for g in guard)
                    and _isolation_ok(v, l, guard, states)
                ),
            )
            states.update(chosen)
            added = _close_intervals(states, l, guard)
            for v in added:
                hit = next((g for g in guard if g.membership(v)), None)
                if hit is not None:
                    raise ConstructionFailed(
                        f"interval closure state {v.pretty()} landed in "
                        f"{hit.name}; the pins are not l-isolated from it")
            need = k * live(cls_a) - live(cls_b)
        guarded.append(cls_a)

    j = len(states)
    pad_need = j * m
    avoid = [a for a, _ in pair_list] + [b for _, b in pair_list]
    got = []
    for cand in universe.pads():
        if len(got) == pad_need:
            break
        if cand in states:
            continue
        if any(cls.membership(cand) for cls in avoid):
            continue
        got.append(cand)
    states.update(got)

    result = Snapshot(states)
    checks: list[Constraint] = [fineness(p) for p in pin_list]
    checks.extend(ratio(a, b, k) for a, b in pair_list)
    checks.append(interval(l))
    checks.append(weight(m))
    for c in checks:
        if not constraint_membership(c, result, universe.mode):
            raise ConstructionFailed(f"construction violates {c.describe()}")
    return result


# ---------------------------------------------------------------------------
# Staged power-class judgements


def power_lift(c: Constraint) -> Constraint:
    """Lift an order judgement to the corresponding power classes."""
    if c.tag not in (TAG_ORDER_LT, TAG_ORDER_GE):
        raise ValueError("only order judgements lift to power classes")
    maker = order_lt if c.tag == TAG_ORDER_LT else order_ge
    return maker(power_class(c.cls_a), power_class(c.cls_b))


def powerset_prefilter_stage(
    universe: UniverseHandle,
    level: int,
    prior: FilterBase,
    pair_order: Sequence[tuple[SetValue, SetValue]],
    budget: FipBudget | None = None,
    rng: random.Random | None = None,
) -> FilterBase:
    """Extend a base with order judgements for one rank level, then lift.

    For each pair of rank-`level` sets, in order, the strict judgement
    is tried first and kept if the extended base still has a budgeted
    witness; otherwise the non-strict reverse judgement is kept (the
    dichotomy guarantees one branch).  After all pairs, each kept
    judgement is lifted to the corresponding power classes.
    """
    if universe.mode != HF_MODE:
        raise WrongMode("power-class staging works over the HF universe")
    budget = budget or FipBudget()
    fb = prior
    kept: list[Constraint] = []
    for sv_a, sv_b in pair_order:
        if rank(sv_a) != level or rank(sv_b) != level:
            raise WrongMode(f"stage pairs must have rank {level}")
        cls_a = class_of_set(sv_a)
        cls_b = class_of_set(sv_b)
        decided = None
        for cand in (order_lt(cls_a, cls_b), order_ge(cls_a, cls_b)):
            trial = fb.with_constraints([cand])
            if check_fip(trial, budget, rng).witnessed:
                decided = cand
                break
        if decided is None:
            raise ConstructionFailed(
                f"neither judgement for ({sv_a.pretty()}, {sv_b.pretty()}) "
                "survived the budgeted check")
        fb = fb.with_constraints([decided])
        kept.append(decided)
    lifts = [power_lift(c) for c in kept]
    fb = fb.with_constraints(lifts)
    final = check_fip(fb, budget, rng)
    if not final.witnessed:
        raise ConstructionFailed(f"lifted base lost its witnesses: {final.note}")
    return fb


def _power_base_values(cls: ClassSpec) -> tuple[SetValue, ...]:
    base = cls.meta.get("power_base")
    if base is None or "values" not in base.meta:
        raise WrongMode(
            f"{cls.name} is not a power class over an extensional base")
    return base.meta["values"]


def powerset_witness_extend(
    universe: UniverseHandle,
    base_snapshot: Snapshot,
    positions: Sequence[Sequence[ClassSpec]],
    judgements: FilterBase,
) -> Snapshot:
    """Extend a witness to realize a total pre-order on power classes.

    `positions` lists tie-groups of power classes in strictly ascending
    order.  Walking upward, the first class of each position receives
    (previous position's count)+1 fresh members; every member of a tie
    group is then topped up to the group's common count.  Fresh members
    are subsets of the class's base set built around marker elements:
    one marker per class to be avoided (an element of this base set
    outside the other), plus a maximal-rank anchor so additions stay at
    the current level and cannot disturb judgements at lower levels.
    """
    states: dict[str, SetValue] = {s.code: s for s in base_snapshot}

    def count(cls: ClassSpec) -> int:
        return sum(1 for v in states.values() if cls.membership(v))

    def base_values(cls: ClassSpec) -> set[SetValue]:
        return set(_power_base_values(cls))

    def add_members(cls: ClassSpec, need: int, avoid: list[ClassSpec]) -> None:
        own = base_values(cls)
        # One marker role per avoided class; a single element may fill
        # several roles at once, which keeps the candidate pool large.
        separators: list[set[SetValue]] = []
        for other in avoid:
            seps = own - base_values(other)
            if not seps:
                raise MarkerMissing(
                    f"no separator inside {cls.name} against {other.name}: "
                    "the judgement slice is inconsistent")
            separators.append(seps)
        fixed: dict[str, SetValue] = {}
        uncovered = list(range(len(separators)))
        while uncovered:
            best = max(sorted(own, key=lambda v: v._key),
                       key=lambda v: sum(1 for i in uncovered if v in separators[i]))
            fixed[best.code] = best
            uncovered = [i for i in uncovered if best not in separators[i]]
        max_rank = max((rank(v) for v in own), default=0)
        tops = [v for v in fixed.values() if rank(v) == max_rank]
        if not tops:
            tops = [v for v in own if rank(v) == max_rank]
        anchor = min(tops, key=lambda v: v._key)
        fixed[anchor.code] = anchor
        rest = sorted((v for v in own if v.code not in fixed), key=lambda v: v._key)
        added = 0
        from .universe import hf_set
        for size in range(0, len(rest) + 1):
            for combo in itertools.combinations(rest, size):
                cand = hf_set(tuple(fixed.values()) + combo)
                if cand.code in states:
                    continue
                if any(other.membership(cand) for other in avoid):
                    continue
                states[cand.code] = cand
                added += 1
                if added == need:
                    return
        raise EnumerationExhausted(
            f"level cannot supply {need} fresh members of {cls.name}")

    prev_max: int | None = None
    realized: list[int] = []
    for idx, group in enumerate(positions):
        group = list(group)
        lower = [cls for g in positions[:idx] for cls in g]

        def peers_of(cls: ClassSpec) -> list[ClassSpec]:
            return [other for other in group
                    if other is not cls
                    and base_values(other) != base_values(cls)]

        if prev_max is not None:
            add_members(group[0], prev_max + 1,
                        avoid=lower + peers_of(group[0]))
        target = max(count(cls) for cls in group)
        if prev_max is not None:
            target = max(target, prev_max + 1)
        for cls in group:
            deficit = target - count(cls)
            if deficit > 0:
                add_members(cls, deficit, avoid=lower + peers_of(cls))
        counts_now = [count(cls) for cls in group]
        if len(set(counts_now)) != 1:
            raise ConstructionFailed(
                f"tie group {[c.name for c in group]} failed to equalize: {counts_now}")
        if prev_max is not None and counts_now[0] <= prev_max:
            raise ConstructionFailed("strict step failed to exceed the previous position")
        prev_max = counts_now[0]
        realized.append(prev_max)

    result = Snapshot(states.values())
    for c in judgements.constraints:
        if c.tag in (TAG_ORDER_LT, TAG_ORDER_GE, TAG_FINENESS):
            if not constraint_membership(c, result):
                raise ConstructionFailed(
                    f"extension broke a base judgement: {c.describe()}")
    return result
