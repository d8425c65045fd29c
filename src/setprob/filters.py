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
import math
import random
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, lru_cache, partial
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    ConstructionFailed,
    EnumerationExhausted,
    MarkerMissing,
    WrongMode,
)
from .snapshots import Snapshot
from .universe import (
    _CLEARS,
    HF_MODE,
    INTERN_CAP,
    KIND_ORD,
    ORDINAL_MODE,
    ClassSpec,
    Memo,
    SetValue,
    UniverseHandle,
    canonical,
    class_of_set,
    excerpt,
    hf_set,
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

    `form` gives every tag but interval as a count inequality.
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

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Copies and pickles are rebuilt from the fields, so they take this
        # process's hash, and a payload without classes is the interned one.
        if self.cls_a is None and self.cls_b is None:
            return (_interned, (self.tag, self.x, self.param, self.window, self.family))
        return (Constraint, (self.tag, self.x, self.cls_a, self.cls_b, self.param,
                             self.window, self.family))

    def __eq__(self, other):
        """The dataclass's own equality, of the field tuples, asked last:
        the same object is equal, and unequal kept hashes tell most
        unequal constraints apart, as in the search table's lookups and
        the bases' membership tests."""
        if self is other:
            return True
        if other.__class__ is not Constraint:
            return NotImplemented
        return self._hash == other._hash and \
            (self.tag, self.x, self.cls_a, self.cls_b, self.param, self.window,
             self.family) == (other.tag, other.x, other.cls_a, other.cls_b,
                              other.param, other.window, other.family)

    @cached_property
    def _hash(self) -> int:
        """The dataclass's own hash, of the field tuple, taken once: every
        `find_witness` call hashes its constraints to look up its search."""
        return hash((self.tag, self.x, self.cls_a, self.cls_b, self.param,
                     self.window, self.family))

    @cached_property
    def form(self) -> _CountForm | None:
        """The constraint as a count inequality, or None for interval,
        which bounds run lengths.  The witness search tests and repairs
        the form's excess k*|small| + slack - |big|.  Bases reuse their
        constraints across many searches, so it is built once per
        constraint (`cached_property` writes the instance `__dict__`,
        which the frozen dataclass leaves open)."""
        tag, n = self.tag, self.param
        if tag == TAG_FINENESS:
            return _CountForm(0, None, 1, frozenset((self.x.code,)))
        if tag == TAG_RATIO:
            return _CountForm(n, self.cls_a, 0, self.cls_b)
        if tag == TAG_ORDER_LT:
            return _CountForm(1, self.cls_a, 1, self.cls_b)
        if tag == TAG_ORDER_GE:
            return _CountForm(1, self.cls_b, 0, self.cls_a)
        if tag == TAG_WEIGHT:
            return _CountForm(n, _is_ordinal, 0, _everything)
        if tag == TAG_SUBSET_BOUND:
            return _CountForm(1, frozenset(v.code for v in self.window), 1 - n, None)
        if tag == TAG_MIN_SIZE:
            return _CountForm(0, None, n, _everything)
        if tag == TAG_INTERVAL:
            return None
        raise ValueError(f"{tag} constraint has no count form; expand first")


@lru_cache(maxsize=INTERN_CAP, typed=True)
def _interned(tag: str, x: SetValue | None, param: int | None,
              window: tuple[SetValue, ...] | None, family: str | None) -> Constraint:
    """The one constraint of a payload without classes, interned
    (`INTERN_CAP`), so its hash and count form are taken once and the
    search table's lookups and the bases' membership tests meet it by
    identity.  The class constructors build anew: a process-wide table
    would keep their classes, and the classes' memos, alive."""
    return Constraint(tag, x=x, param=param, window=window, family=family)


_CLEARS.append(_interned.cache_clear)  # emptied by universe.clear_caches


def fineness(x: SetValue) -> Constraint:
    return _interned(TAG_FINENESS, x, None, None, None)


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
    return _interned(TAG_INTERVAL, None, l, None, None)


def weight(m: int) -> Constraint:
    if m < 1:
        raise ValueError("weight constraint needs m >= 1")
    return _interned(TAG_WEIGHT, None, m, None, None)


def subset_bound(window: Iterable[SetValue], alpha: int) -> Constraint:
    return _interned(TAG_SUBSET_BOUND, None, alpha, canonical(window), None)


def min_size(n: int) -> Constraint:
    return _interned(TAG_MIN_SIZE, None, n, None, None)


def parametric_fineness() -> Constraint:
    return _interned(TAG_PARAMETRIC, None, None, None, TAG_FINENESS)


def parametric_ratio(cls_a: ClassSpec, cls_b: ClassSpec) -> Constraint:
    return Constraint(TAG_PARAMETRIC, cls_a=cls_a, cls_b=cls_b, family=TAG_RATIO)


def parametric_interval() -> Constraint:
    return _interned(TAG_PARAMETRIC, None, None, None, TAG_INTERVAL)


def parametric_weight() -> Constraint:
    return _interned(TAG_PARAMETRIC, None, None, None, TAG_WEIGHT)


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


def _ordinal_blocks(states: Iterable[SetValue]) -> dict[int, set[int]]:
    """For each limit block a, the b of every ordinal w*a+b among states."""
    blocks: dict[int, set[int]] = {}
    for s in states:
        if s.is_ordinal:
            a, b = s.ord_parts
            blocks.setdefault(a, set()).add(b)
    return blocks


def _ordinal_runs(t: Snapshot) -> list[int]:
    """Lengths (in states) of maximal consecutive ordinal runs in t.

    Runs live inside one limit block: w*a+b and w*a+b+1 are consecutive,
    while a limit ordinal never continues a run from below.
    """
    lengths: list[int] = []
    for block in _ordinal_blocks(t).values():
        bs = sorted(block)
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
        inside = c.form.small  # the window's codes
        return sum(1 for s in t if s.code in inside) < c.param
    if c.tag == TAG_MIN_SIZE:
        return len(t) >= c.param
    if c.tag == TAG_PARAMETRIC:
        raise WrongMode("parametric families have no direct membership; expand first")
    raise ValueError(f"unknown constraint tag {c.tag}")


def constraint_count_form(c: Constraint, t: Snapshot,
                          mode: str | None = None) -> tuple[int, int, int, int] | None:
    """c's membership as k*|m & small| + slack <= |m & big| over the
    subsets m of `t.states`, as (k, slack, small, big), or None.

    c is concrete: a parametric family has no count form, so
    `Constraint.form` raises ValueError for it (`admissible_vectors`
    takes concrete constraints only).  Each side of c's form becomes one
    mask of `t` (`_side_mask`): a class, a pin or a subset_bound window
    is one recorded mask, not the bits of its states, and a missing side
    (fineness, min_size: k is 0) is 0, so no atom of `t` splits a side.
    None for interval, which bounds run lengths, and for an ordinal-only
    tag in HF mode, where `constraint_membership` raises WrongMode.
    """
    if c.tag in _ORDINAL_ONLY_TAGS and mode == HF_MODE:
        return None
    form = c.form
    if form is None:
        return None
    return form.k, form.slack, _side_mask(form.small, t), _side_mask(form.big, t)


def constraint_mask_test(c: Constraint, t: Snapshot,
                         mode: str | None = None) -> Callable[[int], bool]:
    """Membership in c of the subset of `t.states` a mask selects.

    Equal to `constraint_membership` on that subset's Snapshot.  A count
    tag is read from its `constraint_count_form`, on bit counts, with no
    state touched per subset.  A constraint with no count form builds the
    subset's Snapshot and asks `constraint_membership`, which then
    decides or raises WrongMode as usual; it takes the bit of every
    state, so each state is an atom of `t`.
    """
    form = constraint_count_form(c, t, mode)
    if form is None:
        for s in t.states:
            t.bit(s)
        return lambda m: constraint_membership(c, Snapshot(t.subset(m)), mode)
    k, slack, small, big = form
    return lambda m: k * (m & small).bit_count() + slack <= (m & big).bit_count()


def admissible_vectors(t: Snapshot, constraints: Sequence[Constraint], mode: str | None,
                       max_size: int | None) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """The nonempty subsets of `t.states` below `max_size` in every one of
    the concrete `constraints`, one per count vector (n_1, ..., n_r) of
    states in each atom, as (m0, w0, ends): m0 takes the first n_i states
    of each atom but the last, w0 is the product of the C(|atom_i|, n_i),
    and each (f, ways) in ends is one admissible count of the last atom.
    The atoms are those of the masks recorded on `t` (`Snapshot.atoms`)
    once the count forms have recorded theirs, so a caller compiles what
    it will evaluate at the masks m0 | f (`compile_germ`) first.

    The vectors are listed over the first r - 1 atoms only, the largest
    atom last, and n_r is solved for.  A count form
    k*|m & small| + slack <= |m & big| (`constraint_count_form`) is linear
    in the counts and no atom splits its sides.  A form whose sides miss
    the last atom settles at the last atom they read: no later atom adds
    to either side, so its truth on the vectors over the atoms up to that
    one is its truth on every completion, and the vectors it fails are
    dropped as soon as that atom's counts are multiplied in.  For each
    other form (one that reads the last atom, or has no side) and each
    listed prefix m0 it reads coef*n_r <= rhs, with
    coef = k*[last in small] - [last in big] and
    rhs = |m0 & big| - k*|m0 & small| - slack: n_r <= floor(rhs / coef)
    when coef is positive, n_r >= -rhs when it is negative (coef is then
    -1, as every `Constraint.form` weighs its big side once), every n_r
    or none when it is 0 (one Fourier-Motzkin step).  Only the
    n_r inside every such bound and the size bound are listed, and no
    count form is tested per subset.  A constraint with no count form
    (interval, an ordinal-only tag in HF mode) is tested per mask
    (`constraint_mask_test`), and so is every constraint after it, in
    the given order, since such a test reads the subset's states by
    position or raises WrongMode; it takes every state's bit, so each
    atom is one state and each vector one subset.
    """
    # count forms (k, slack, small, big) up to the first constraint that
    # has none; that one and the rest are tested per mask, in order
    forms, tests = [], []
    for c in constraints:
        form = None if tests else constraint_count_form(c, t, mode)
        if form is None:
            tests.append(constraint_mask_test(c, t, mode))
        else:
            forms.append(form)
    top = len(t) if max_size is None else min(len(t), max_size - 1)
    atoms = sorted(t.atoms(), key=int.bit_count)  # the largest last
    last = atoms[-1] if atoms else 0
    # settle[i]: the forms whose sides miss the last atom and whose last
    # atom read is atoms[i - 1], checked once the first i atoms are
    # counted; bounds: the rest, with coef, what one state of the last
    # atom adds to a form's left side less what it adds to its right,
    # since no atom splits a side
    settle = [[] for _ in atoms]
    bounds = []
    for form in forms:
        k, slack, small, big = form
        sides = small | big
        if sides and not sides & last:
            settle[1 + max(i for i, atom in enumerate(atoms) if atom & sides)].append(form)
        else:
            bounds.append((*form, k * bool(last & small) - bool(last & big)))
    # (representative mask, subsets it stands for), over the atoms before
    # the last one, and (its first c states, C(|atom|, c)) for the last
    vectors = lasts = [(0, 1)]
    for atom, settled in zip(atoms, settle):
        vectors = [(m | f, w * ways) for m, w in vectors for f, ways in lasts]
        for k, slack, small, big in settled:
            vectors = [(m, w) for m, w in vectors
                       if k * (m & small).bit_count() + slack <= (m & big).bit_count()]
        firsts = [0]  # firsts[c]: the first c states of the atom
        while atom:
            low = atom & -atom
            firsts.append(firsts[-1] | low)
            atom ^= low
        lasts = [(f, math.comb(len(firsts) - 1, c)) for c, f in enumerate(firsts)]
    size = len(lasts) - 1  # the last atom's
    listed = []
    for m0, w0 in vectors:
        # a nonempty vector of at most `top` states; only the vector 0 has none
        lo, hi = not m0, top - m0.bit_count()
        if hi > size:
            hi = size
        for k, slack, small, big, coef in bounds:
            rhs = (m0 & big).bit_count() - k * (m0 & small).bit_count() - slack
            if coef > 0:  # c <= floor(rhs / coef)
                if rhs < coef * hi:
                    hi = rhs // coef
            elif coef < 0:  # c >= -rhs: a form weighs its big side once, so coef is -1
                if -rhs > lo:
                    lo = -rhs
            elif rhs < 0:  # no c
                hi = -1
        if lo > hi:  # a negative slice end would wrap around
            continue
        ends = lasts[lo:hi + 1]
        if tests:
            ends = [(f, ways) for f, ways in ends if all(test(m0 | f) for test in tests)]
        listed.append((m0, w0, ends))
    return listed


def _everything(s: SetValue) -> bool:
    return True


def _is_ordinal(s: SetValue) -> bool:
    return s.is_ordinal


_Side = ClassSpec | frozenset | Callable[[SetValue], bool] | None


class _CountForm(NamedTuple):
    """k*|T cap small| + slack <= |T cap big|, where a side is a class, a
    frozenset of state codes, a predicate on states, or None, which
    counts nothing."""

    k: int
    small: _Side
    slack: int
    big: _Side


def _side_mask(side: _Side, t: Snapshot) -> int:
    """The mask of `t` whose states a form side counts."""
    if side is None:
        return 0
    if isinstance(side, ClassSpec):
        return t.mask(side)
    if isinstance(side, frozenset):
        return t.where(lambda s: s.code in side)
    return t.where(side)


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
        """The concrete constraint of the tag (and class pair, for ratio
        and order) with the largest parameter, if any.  A missing
        parameter counts as 0, so for an order tag the first match wins."""
        best = None
        for c in self.constraints:
            if c.tag == tag and c.cls_a == cls_a and c.cls_b == cls_b \
                    and (best is None or (c.param or 0) > (best.param or 0)):
                best = c
        return best


def state_pool(universe: UniverseHandle | None,
               window: Iterable[SetValue] | None,
               limit: int | None = None) -> Iterator[SetValue]:
    """Candidate states: the whole window if there is one, otherwise the
    universe enumeration cut to `limit` states, otherwise nothing.

    A universe pool is a walk, one step per state, that stops where its
    caller stops.  Its first PREFIX_MEMO_CAP states come from the
    handle's memo (`UniverseHandle.states`), so they are not rebuilt; a
    witness search reads that memo's list in slices (`Memo.reader`) for
    its HF pads.  A caller that wants a list of the pool, such as the
    decoration index of a witness search (`_Search.positions`), makes it
    from the pool, and a window that repeats a state repeats it here."""
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
    return FilterBase(
        constraints=(parametric_fineness(),),
        universe=universe,
        window=None if window is None else canonical(window),
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


def _class_pair(text: str, classes: dict[str, ClassSpec]) -> tuple[ClassSpec, ClassSpec]:
    """The classes of a rendered pair "a,b".  A class name may hold a
    comma, so the pair splits at the one comma whose two sides are both
    known classes: none is an unknown class, more than one is ambiguous."""
    cuts = [(text[:i], text[i + 1:]) for i, ch in enumerate(text) if ch == ","]
    pairs = [(a, b) for a, b in cuts if a in classes and b in classes]
    if len(pairs) > 1:
        raise ValueError(f"ambiguous class pair {excerpt(text)}")
    if not pairs:
        a, b = text.rsplit(",", 1)  # with no comma: not enough values to unpack
        missing = a if a not in classes else b
        raise KeyError(f"constraint references unknown class {missing!r}")
    [(a, b)] = pairs
    return classes[a], classes[b]


def constraint_from_text(text: str, classes: dict[str, ClassSpec] | None = None) -> Constraint:
    """Parse the canonical constraint rendering.

    Class references are resolved through `classes`; a missing entry is
    an error because membership would be undecidable.
    """
    from .universe import parse_code

    classes = classes or {}
    head, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ValueError(f"bad constraint text {excerpt(text)}")
    body = rest[:-1]
    if head == "fineness":
        return fineness(parse_code(body))
    if head == "ratio":
        pair, kpart = body.rsplit(",", 1)
        return ratio(*_class_pair(pair, classes), int(kpart.removeprefix("k=")))
    if head in ("order_lt", "order_ge"):
        maker = order_lt if head == "order_lt" else order_ge
        return maker(*_class_pair(body, classes))
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
        family, _, names = body.partition(",")
        if family == TAG_RATIO:
            return parametric_ratio(*_class_pair(names, classes))
        if family not in (TAG_FINENESS, TAG_INTERVAL, TAG_WEIGHT):
            raise ValueError(f"unknown parametric family {family!r}")
        return _interned(TAG_PARAMETRIC, None, None, None, family)
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


# ---------------------------------------------------------------------------
# FIP checking


# Parametric families are sampled at these points for budgeted checks:
# the first few window or universe states for fineness, k = 1, 2, 3 for
# the integer families.  check_fip tries every subset of up to
# FIP_SUBSET_SIZE of the sampled constraints.
FINENESS_SAMPLES = 3
PARAM_SAMPLES = (1, 2, 3)
FIP_SUBSET_SIZE = 3
# The default number of candidates one witness-search scan may read.
SCAN_CAP = 4000


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


def _structurally_empty(subset: Sequence[Constraint], max_size: int | None) -> bool:
    """Whether count forms prove the subset's intersection empty: a size
    floor at or above the size cap; a subset bound of cap alpha <= 0,
    whose form |W| + (1 - alpha) <= 0 counts nothing on its big side; or
    two ratio/order forms over one class pair in opposite directions,
    k1*|A| + s1 <= |B| and k2*|B| + s2 <= |A| (A may be B, a form paired
    with itself), which sum with multipliers (k2, 1) to
    (k1*k2 - 1)*|A| + k2*s1 + s2 <= 0: false when a slack is positive,
    as every k >= 1.  Sound but incomplete: what it cannot refute is
    left to the witness search."""
    forms = []
    for c in subset:
        if c.tag == TAG_MIN_SIZE and max_size is not None and c.param >= max_size:
            return True
        if c.tag == TAG_SUBSET_BOUND and c.form.slack > 0:
            return True
        if c.tag in (TAG_RATIO, TAG_ORDER_LT, TAG_ORDER_GE):
            forms.append(c.form)
    return any(f.small is g.big and f.big is g.small and f.slack + g.slack > 0
               for f, g in itertools.combinations_with_replacement(forms, 2))


def check_fip(fb: FilterBase, rng: random.Random | None = None,
              scan_cap: int = SCAN_CAP) -> FipResult:
    """Budgeted finite-intersection-property audit of every subset of up
    to FIP_SUBSET_SIZE constraints, plus the full expanded set.  The
    first subset `_structurally_empty` refutes is returned before any
    search; else each gets a witness search scanning at most `scan_cap`
    candidates per repair, and one that fails makes the result unknown.

    `_structurally_empty` refutes a subset only through one of its
    constraints alone or one pair of them, and the singles and pairs
    come first, so only they are asked: the first refuted single, else
    the first refuted pair, is the first refuted subset.  A subset of
    fineness pins and subset_bound caps alone has nothing to repair, so
    its search is answered by `constraint_membership` from its pins, or
    with no pin from its first fitting pad; its tally and count sides
    are built only on a seeded run (`_Search`)."""
    concrete = expand_base(fb)
    for size in (1, 2):
        for subset in itertools.combinations(concrete, size):
            if _structurally_empty(subset, fb.max_size):
                return FipResult("refuted", refuted_subset=subset)
    subsets: list[tuple[Constraint, ...]] = []
    for size in range(1, min(FIP_SUBSET_SIZE, len(concrete)) + 1):
        subsets.extend(itertools.combinations(concrete, size))
    if len(concrete) > FIP_SUBSET_SIZE:  # else the full set is listed
        subsets.append(tuple(concrete))
    found: list[tuple[tuple[Constraint, ...], Snapshot]] = []
    for subset in subsets:
        w = find_witness(subset, fb.universe, rng=rng, window=fb.window,
                         max_size=fb.max_size, scan_cap=scan_cap)
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


# _WIDTHS[i] is the bit width of i + 1, the draw `_shuffle` makes at step
# i, for every list a search shuffles but a long window's.
_WIDTHS = tuple((i + 1).bit_length() for i in range(256))


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle x in place as `rng.shuffle(x)` does, with its `_randbelow`
    written out: the same permutation, and the generator left in the
    same state.  This replays `random.Random.shuffle` for any generator
    whose draws come from `getrandbits`, which covers every
    `random.Random` setprob builds; it saves one Python call per element
    on the witness searches' hottest draws, and reads each step's bit
    width from `_WIDTHS`."""
    n = len(x)
    widths = _WIDTHS if n <= len(_WIDTHS) else [i.bit_length() for i in range(1, n + 1)]
    getrandbits = rng.getrandbits
    for i in range(n - 1, 0, -1):
        k = widths[i]
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _listed(items: list[SetValue]) -> Callable[[int], list[SetValue]]:
    """`Memo.reader` over a list known whole."""
    return Memo(partial(iter, items), items).reader()


def _shuffled_stream(take: Callable[[int], list[SetValue]], skip: Container[SetValue],
                     rng: random.Random | None) -> Iterator[SetValue]:
    """The states `take` gives (`Memo.reader`) outside `skip`.
    With an rng they come in buffers of 64, each filled by comprehensions
    over the next states and checked against `skip` as it is filled, then
    shuffled (`_shuffle`, the draws of `rng.shuffle`), so order stays
    seeded; with none, each is checked just before it is yielded."""
    size = 64 if rng is not None else 1
    while True:
        chunk: list[SetValue] = []
        while len(chunk) < size:
            got = take(size - len(chunk))
            if not got:
                break
            chunk += [v for v in got if v not in skip]
        if not chunk:
            return
        if rng is not None:
            _shuffle(rng, chunk)
        yield from chunk


def _touch_test(protected: Sequence[ClassSpec]) -> Callable[[int, int], bool]:
    """touches(a, nb): whether w*a+nb lies in a protected class.  The
    classes are fixed, so each answer is computed once and remembered."""
    return cache(lambda a, nb: any(p.membership(ord_value(a, nb)) for p in protected))


def _run_through(bs: Container[int], b: int, reach: int) -> tuple[int, int]:
    """The first and last b of the run through b among the b's `bs` of
    one block, b itself counted as present.  The run is walked at most
    `reach` states each way, so a run longer than that is cut there."""
    r0 = b
    while r0 > b - reach and r0 - 1 in bs:
        r0 -= 1
    r1 = b
    while r1 < b + reach and r1 + 1 in bs:
        r1 += 1
    return r0, r1


def _closing_windows(bs: Container[int], a: int, r0: int, r1: int, l: int,
                     touches: Callable[[int, int], bool], most: int | None = None
                     ) -> Iterator[tuple[int, int]]:
    """The windows of l+1 states of block a that cover the run r0..r1,
    nearest the run's start first, each as (start, cost): the number of
    protected states it would add, b's outside the run and `bs` that
    `touches`, counted up to `most`."""
    for start in range(r0, max(0, r1 - l) - 1, -1):
        cost = 0
        for nb in range(start, start + l + 1):
            if (nb < r0 or nb > r1) and nb not in bs and touches(a, nb):
                cost += 1
                if cost == most:
                    break
        yield start, cost


def _isolation_ok(cand: SetValue, l: int, touches: Callable[[int, int], bool],
                  present: Container[int]) -> bool:
    """True when [cand-l, cand+l] avoids the protected classes
    (`touches`) and every placed ordinal, so interval closure cannot
    leak into them.  `present` holds the b of every placed ordinal in
    cand's block, so only 2l+1 states are read."""
    a, b = cand.ord_parts
    return not any(nb in present or touches(a, nb)
                   for nb in range(max(0, b - l), b + l + 1))


def _close_intervals(states: _Tally, l: int,
                     touches: Callable[[int, int], bool] | None = None
                     ) -> list[SetValue]:
    """Extend every maximal ordinal run of the tally to at least l+1
    states, adding to it; return the states added.

    The runs are read off the tally's `blocks`, which each add keeps up
    to date.  With no protected classes (`touches` None) this is plain
    successor closure, adding the l states after each run.  Otherwise
    the window closing the run may slide backwards (`_closing_windows`),
    to the one that adds the fewest protected-class states; ties go to
    the run's start, that is to successor closure.  So a run that starts
    at a state isolated from them (`_isolation_ok`) closes as with none.
    """
    added: list[SetValue] = []
    for a, bs in states.blocks.items():
        for b in sorted(bs):
            if b - 1 in bs:
                continue  # each run is handled once, from its left end
            _, r1 = _run_through(bs, b, l)
            if r1 - b + 1 > l:
                continue
            best = b
            if touches is not None:
                best, _ = min(_closing_windows(bs, a, b, r1, l, touches),
                              key=lambda w: w[1])
            for nb in range(best, best + l + 1):
                if nb not in bs:
                    v = ord_value(a, nb)
                    added.append(v)
                    states.add(v)
    return added


def _run_feasible(cand: SetValue, l: int, touches: Callable[[int, int], bool],
                  present: Container[int]) -> bool:
    """True when cand's run could be closed without touching protected
    classes (`touches`, from `_touch_test`): either the merged run is
    already long enough, or some window of l+1 states covering it
    (`_closing_windows`) adds no protected state.

    `present` holds the b of every placed ordinal in cand's block.  The
    run is walked at most l states each way, which is enough to tell
    whether it is long enough.  A window's count stops at its first
    protected state and the search at the first clear window, so the
    cost does not grow with the number of placed states.
    """
    a, b = cand.ord_parts
    r0, r1 = _run_through(present, b, l)
    if r1 - r0 + 1 > l:
        return True
    return any(cost == 0 for _, cost in
               _closing_windows(present, a, r0, r1, l, touches, most=1))


class _Sides:
    """The count sides of a constraint list's forms, prepared once for
    every `_Tally` over the list.

    `forms` are the constraints' count forms and `limit` is L, the
    largest interval parameter, or None with no interval constraint.
    Each distinct side has one count under `keys`: a code set by value,
    which holds state s when `s.code in side`, and a class or predicate
    as an object, by its membership test.  `of(s)` gives the sides s
    counts in, asking each membership once per state code: every tally
    and attempt of a kept search reads the same answers.
    """

    def __init__(self, cs: Sequence[Constraint]):
        self.forms: list[_CountForm] = []
        self.limit: int | None = None
        tests: dict[_Side, Callable[[SetValue], bool] | None] = {None: None}
        for c in cs:
            form = c.form
            if form is None:  # interval
                self.limit = max(self.limit or 0, c.param)
                continue
            self.forms.append(form)
            for side in (form.small, form.big):
                if side not in tests:
                    tests[side] = None if isinstance(side, frozenset) else \
                        side.membership if isinstance(side, ClassSpec) else side
        self.keys = tuple(tests)  # None, the side that counts nothing, first
        tested = tuple(tests.items())[1:]
        # keyed by the state's code, a str, which hashes in C
        memo: dict[str, tuple[_Side, ...]] = {}

        def of(s: SetValue) -> tuple[_Side, ...]:
            code = s.code
            sides = memo.get(code)
            if sides is None:
                sides = memo[code] = tuple(
                    side for side, test in tested
                    if (code in side if test is None else test(s)))
            return sides

        self.of = of


class _Tally:
    """The state set of one witness construction, with the counts its
    constraints read, updated on every add.

    It keeps one count per side of its `_Sides` and, for interval
    constraints, `blocks`: the b of every ordinal w*a+b by block a, for
    each block holding one, with the number of maximal runs of at most L
    states, L the largest interval parameter: a run of at most l <= L
    states is one of them.
    `satisfied` is then the boolean `constraint_membership` gives on the
    Snapshot of the states.
    Run closure (`_close_intervals`), run feasibility (`_run_feasible`)
    and isolation (`_isolation_ok`) read the runs off `blocks`, so none
    of them scans the placed states.
    Callers read the state set itself as `states`.  As for a set, adding
    a present state changes nothing.
    `admit` decides on the counts alone: it works out the counts the
    candidate would give and adds it only if they satisfy every
    constraint, so a refused candidate changes nothing.
    """

    def __init__(self, sides: _Sides, states: Iterable[SetValue] = ()):
        self.states: set[SetValue] = set()
        self.blocks: dict[int, set[int]] = {}
        self._sides = sides
        self._counts: dict[_Side, int] = dict.fromkeys(sides.keys, 0)
        self._limit = sides.limit  # L, while there is an interval constraint
        self._short = 0  # maximal runs of at most L states
        # a run longer than L is short for every interval constraint
        self._reach = (self._limit or 0) + 1
        for s in states:
            self.add(s)

    def copy(self) -> _Tally:
        """A tally of the same states and counts that changes apart."""
        new = _Tally.__new__(_Tally)
        new.states = set(self.states)
        new.blocks = {a: set(bs) for a, bs in self.blocks.items()}
        new._sides, new._counts = self._sides, self._counts.copy()
        new._limit, new._short, new._reach = self._limit, self._short, self._reach
        return new

    def satisfied(self) -> bool:
        if self._short:
            return False
        counts = self._counts
        for k, x, slack, y in self._sides.forms:
            if k * counts[x] + slack > counts[y]:
                return False
        return True

    def excess(self, form: _CountForm) -> int:
        """k*|small| + slack - |big| for a form of one of the constraints."""
        counts = self._counts
        return form.k * counts[form.small] + form.slack - counts[form.big]

    def add(self, s: SetValue) -> None:
        states = self.states
        n = len(states)
        states.add(s)  # s is hashed once
        if len(states) > n:
            counts = self._counts
            for key in self._sides.of(s):
                counts[key] += 1
            if self._limit is not None and s.kind == KIND_ORD:
                a, b = s.data  # w*a+b, as `ord_parts`
                bs = self.blocks.setdefault(a, set())
                self._short += self._run_change(bs, b)
                bs.add(b)

    def admit(self, s: SetValue) -> bool:
        """Add s if every constraint would then hold; say if it did.  The
        counts s would give are read first: each side s counts in, plus
        one, and for an ordinal the change in short runs.  A refused or
        present state changes nothing; for a present one the answer is
        `satisfied`."""
        if s in self.states:
            return self.satisfied()
        short = self._short
        if self._limit is not None and s.kind == KIND_ORD:
            a, b = s.data
            short += self._run_change(self.blocks.get(a, ()), b)
        if short:
            return False
        sides, counts = self._sides.of(s), self._counts
        for k, x, slack, y in self._sides.forms:
            if k * (counts[x] + (x in sides)) + slack > counts[y] + (y in sides):
                return False
        self.add(s)
        return True

    def _run_change(self, bs: Container[int], b: int) -> int:
        """The change in short runs that placing b in a block holding `bs`
        (b not among them) makes: the runs just below and above b join
        into one run through b.  Each run is walked only as far as
        `_reach` (`_run_through`)."""
        r0, r1 = _run_through(bs, b, self._reach)
        limit = self._limit
        return (r1 - r0 + 1 <= limit) - (0 < b - r0 <= limit) - (0 < r1 - b <= limit)


def _verified(snap: Snapshot, cs: Sequence[Constraint], mode: str | None) -> Snapshot:
    """snap, once `constraint_membership` agrees that it lies in every
    constraint; a construction that built it believing so has a fault."""
    for c in cs:
        if not constraint_membership(c, snap, mode):
            raise ConstructionFailed(
                f"construction built {snap!r} outside {c.describe()}")
    return snap


# The repair order, on which seeded witnesses depend.
_GROWN_TAGS = (TAG_RATIO, TAG_ORDER_LT, TAG_ORDER_GE)
_PADDED_TAGS = (TAG_WEIGHT, TAG_MIN_SIZE)
_UNRUN = object()  # `_Search.plain` before its first call


class _Search:
    """A witness search prepared from its inputs alone: the constraints,
    universe, window, max_size and scan_cap of a `find_witness` call.

    One pass over the constraints gives the pins, the grown and padded
    forms in repair order (listed only when there are any) and whether an
    ordinal-only tag is present.  A search with nothing to grow, pad or
    close, whose constraints are fineness pins and subset_bound caps
    alone, is `decided`: its run with no rng is answered by
    `constraint_membership`, with no tally, from the pins, or with no
    pin from the first fitting state of its pad source (`_pad_stream`).
    The rest is built on first use: the sides each attempt's `_Tally`
    counts, with the interval parameter and their per-state memo
    (`sides`), the settled tally, what growth reads, and the decoration
    index (`positions`); so a decided search builds its
    tally and count sides only on a seeded run.  Every draw and decision
    of a call is made in `run`, so a search run again draws as a fresh
    one would.  A run with no rng draws nothing, so `plain` keeps its
    result.  With no grown or padded form, the repair loop of an attempt
    (`_repair`) draws nothing either, so the tally it reaches is kept,
    as `settled` (else None): a seeded attempt starts from a copy, and a
    run with no rng reads it in place.
    """

    def __init__(self, cs: tuple[Constraint, ...], universe: UniverseHandle | None,
                 window: tuple[SetValue, ...] | None, max_size: int | None,
                 scan_cap: int):
        self.pins: list[SetValue] = []
        grown, padded, ordinal_only = [], [], False
        for c in cs:
            tag = c.tag
            if tag == TAG_FINENESS:
                self.pins.append(c.x)
            elif tag in _GROWN_TAGS:
                grown.append(c)
            elif tag == TAG_PARAMETRIC:
                raise ValueError("find_witness needs concrete constraints; expand first")
            else:
                if tag in _PADDED_TAGS:
                    padded.append(c)
                ordinal_only = ordinal_only or tag in _ORDINAL_ONLY_TAGS
        self.mode = universe.mode if universe is not None else None
        if ordinal_only and self.mode == HF_MODE:
            raise WrongMode("interval/weight constraints need an ordinal universe")
        self.cs, self.universe, self.window = cs, universe, window
        self.max_size, self.scan_cap = max_size, scan_cap
        # the forms in repair order, listed only when there are any
        self.grown = grown and [c.form for t in _GROWN_TAGS for c in grown if c.tag == t]
        self.padded = padded and [c.form for t in _PADDED_TAGS for c in padded if c.tag == t]
        # a pin outside the window leaves nothing to find
        self.barred = window is not None and not all(p in window for p in self.pins)
        # pins and subset caps alone: nothing to grow, pad or close (`run`)
        self.decided = not (grown or padded or ordinal_only)
        self._plain = _UNRUN

    @cached_property
    def sides(self) -> _Sides:
        return _Sides(self.cs)

    @cached_property
    def settled(self) -> _Tally | None:
        """With no grown or padded form the repair loop draws nothing, so
        every attempt reaches this tally, the pins and their run closure;
        else None."""
        return None if self.grown or self.padded else self._repair(None)

    # What growth reads.  Growth inside the grown classes needs
    # compensation elsewhere, so run closure steers away from them
    # (`closing`) and padding keeps clear of them; each class a repair
    # grows around has one memoised run-closure test, and each class it
    # grows its window states or its memo as candidates.
    @cached_property
    def closing(self) -> Callable[[int, int], bool] | None:
        return _touch_test([f.small for f in self.grown]) if self.grown else None

    @cached_property
    def grown_sides(self) -> frozenset:
        return frozenset(cls for f in self.grown for cls in (f.small, f.big))

    @cached_property
    def touch_tests(self) -> dict[ClassSpec, Callable[[int, int], bool]]:
        return {f.small: _touch_test([f.small]) for f in self.grown}

    @cached_property
    def candidates(self) -> dict[ClassSpec, Callable[[], Callable[[int], list]]]:
        window = self.window
        return {f.big: f.big.memo.reader if window is None else
                partial(_listed, [v for v in window if f.big.membership(v)])
                for f in self.grown}

    def avoids(self, s: SetValue) -> bool:
        """Whether s counts in a side of a grown form, which padding keeps
        clear of; never with no grown form."""
        return not self.grown_sides.isdisjoint(self.sides.of(s))

    def plain(self) -> Snapshot | None:
        """The result of the run with no rng, which is a function of the
        inputs, kept from the first call; a run that raises keeps nothing."""
        found = self._plain
        if found is _UNRUN:
            found = self._plain = self.run(None, 0)
        return found

    @cached_property
    def positions(self) -> dict[SetValue, int]:
        """The decoration index: each state decoration draws from, the
        window's or else the first 120 universe states', with its position
        in that list; a repeated state is kept once, where first seen."""
        positions: dict[SetValue, int] = {}
        for v in state_pool(self.universe, self.window, 120):
            positions.setdefault(v, len(positions))
        return positions

    def _pad_stream(self, placed: Container[SetValue], rng: random.Random | None,
                    ordinal: bool = False) -> Iterator[SetValue]:
        """Pads, non-ordinal window states or HF sets not `placed`, in
        `_shuffled_stream` order; with `ordinal`, the ordinal window states
        instead.  Pads and HF sets are read off the universe's memos; the
        window's states are picked when the stream is made."""
        if self.window is not None:
            take = _listed([v for v in self.window
                            if v.is_ordinal == ordinal and v not in placed])
            placed = ()
        elif self.universe is None or ordinal:
            return iter(())
        elif self.mode == ORDINAL_MODE:
            take = self.universe.pads().reader()
        else:
            take = self.universe.states().reader()
        return _shuffled_stream(take, placed, rng)

    def _grow(self, states: _Tally, form: _CountForm, need: int,
              rng: random.Random | None) -> None:
        # First pass insists the candidate's run can close without
        # touching the small class; the fallback drops that demand and
        # leaves the spill to the next repair round.
        small, big, interval_c = form.small, form.big, self.sides.limit or 0
        touches, placed = self.touch_tests[small], states.states
        for strict in (True, False):
            scanned = 0
            for cand in _shuffled_stream(self.candidates[big](), placed, rng):
                scanned += 1
                if scanned > self.scan_cap:
                    break
                if small.membership(cand):
                    continue
                if strict and interval_c and cand.is_ordinal \
                        and not _run_feasible(cand, interval_c, touches,
                                              states.blocks.get(cand.ord_parts[0], ())):
                    continue
                states.add(cand)
                need -= 1
                if not need:
                    return

    def _pad(self, states: _Tally, need: int, rng: random.Random | None,
             ordinal: bool = False) -> int:
        """Add up to `need` pad states outside every grown class; return
        how many were added."""
        got = 0
        for cand in itertools.islice(self._pad_stream(states.states, rng, ordinal),
                                     self.scan_cap):
            if self.avoids(cand):
                continue
            states.add(cand)
            got += 1
            if got == need:
                break
        return got

    def _decorate(self, states: _Tally, rng: random.Random, decorate: int) -> None:
        """Admit up to `decorate` indexed states (`positions`), in the order
        `_shuffle` puts those outside the tally."""
        placed, positions = states.states, self.positions
        pool = list(positions)
        for i in sorted([positions[s] for s in placed if s in positions],
                        reverse=True):
            del pool[i]
        _shuffle(rng, pool)
        added, max_size = 0, self.max_size
        for cand in pool:
            if added >= decorate or \
                    (max_size is not None and len(placed) + 1 >= max_size):
                break
            added += states.admit(cand)

    def _repair(self, rng: random.Random | None) -> _Tally:
        """The repair loop of one attempt: from the pins, up to ten rounds
        of growth, run closure and padding, ending early once the tally
        reaches `max_size`, is satisfied or has grown past `scan_cap`.
        With no rng a round that adds no state ends the loop too, since
        every later round would repeat it; a seeded round draws, so the
        next one may not."""
        max_size, scan_cap = self.max_size, self.scan_cap
        interval_c = self.sides.limit or 0
        states = _Tally(self.sides, self.pins)
        placed = states.states
        for _ in range(10):
            size = len(placed)
            for form in self.grown:
                deficit = states.excess(form)
                if deficit > 0:
                    self._grow(states, form, deficit, rng)
            if interval_c:
                _close_intervals(states, interval_c, self.closing)
            for form in self.padded:
                deficit = states.excess(form)
                if deficit > 0:
                    got = self._pad(states, deficit, rng)
                    if got < deficit and form.small is None:
                        # a window short of other states: ordinals fill a
                        # size floor, whose small side counts nothing
                        self._pad(states, deficit - got, rng, ordinal=True)
            if max_size is not None and len(placed) >= max_size:
                break
            if states.satisfied():
                break
            if len(placed) > scan_cap:
                break  # past what one repair may scan: out of budget
            if rng is None and len(placed) == size:
                break
        return states

    def run(self, rng: random.Random | None, decorate: int) -> Snapshot | None:
        """The attempts of one `find_witness` call: each repairs (`_repair`,
        or starts from `settled` when that draws nothing), seeds one state
        if the empty set satisfies everything, and decorates what it
        found.  With no rng a decided search has one candidate: the pins'
        Snapshot, or with no pin the one-state Snapshot of the first state
        of `_pad_stream` that lies in every constraint, the state an
        attempt would seed.  It returns that candidate if every pin is in
        the window, it lies in every constraint by `constraint_membership`
        and it is below max_size, else None.  Any other search then makes
        one attempt, since a restart would repeat it, and it reads a
        non-empty `settled` in place: seeding needs an empty tally and
        decoration an rng, so nothing adds to it.  A seeded attempt, or
        one from an empty tally, takes a copy."""
        if self.barred:
            return None
        max_size, scan_cap = self.max_size, self.scan_cap
        if rng is None and self.decided:
            # no attempt adds to the pins, so they are the one candidate;
            # with none it is the state an attempt would seed, and under a
            # cap of alpha <= 0, which the empty set breaks, it seeds none
            if self.pins:
                firsts = (self.pins,)
            elif any(c.param < 1 for c in self.cs):
                return None
            else:
                firsts = ((s,) for s in
                          itertools.islice(self._pad_stream((), None), scan_cap))
            for states in firsts:
                found = Snapshot(states)
                if all(constraint_membership(c, found, self.mode) for c in self.cs):
                    return found if max_size is None or len(found) < max_size else None
            return None
        settled = self.settled
        for attempt in range(4):
            if settled is None:
                states = self._repair(rng)
            elif rng is None and settled.states:
                states = settled
            else:
                states = settled.copy()
            placed = states.states
            if not placed and states.satisfied():
                # The empty set satisfies e.g. a lone ratio constraint, but the
                # snapshot space holds nonempty snapshots only: seed one state.
                for cand in itertools.islice(self._pad_stream(placed, rng), scan_cap):
                    if states.admit(cand):
                        break
            if placed and states.satisfied() and \
                    (max_size is None or len(placed) < max_size):
                if decorate and rng is not None:
                    self._decorate(states, rng, decorate)
                return _verified(Snapshot(placed), self.cs, self.mode)
            if rng is None:
                break
        return None


SEARCH_TABLE_CAP = 128


@lru_cache(maxsize=SEARCH_TABLE_CAP)
def _prepared(cs: tuple[Constraint, ...], universe: UniverseHandle | None,
              window: tuple[SetValue, ...] | None, max_size: int | None,
              scan_cap: int) -> _Search:
    """The prepared search of these inputs, kept while among the last
    `SEARCH_TABLE_CAP` used; the cache compares inputs by value."""
    return _Search(cs, universe, window, max_size, scan_cap)


_CLEARS.append(_prepared.cache_clear)  # emptied by universe.clear_caches


def find_witness(
    constraints: Iterable[Constraint],
    universe: UniverseHandle | None,
    rng: random.Random | None = None,
    window: Iterable[SetValue] | None = None,
    max_size: int | None = None,
    scan_cap: int = SCAN_CAP,
    decorate: int = 0,
) -> Snapshot | None:
    """Construct a snapshot in the intersection of concrete constraints.

    Repair-loop search: start from the fineness pins, then fill the
    excess of each `Constraint.form` round by round.  Where the big side is a
    class (ratio, order), add fresh members outside the small side; then
    close ordinal runs for interval constraints; where it is the whole
    snapshot (weight, min_size), pad with non-ordinal states, and with
    ordinal window states too where the small side counts nothing.
    Candidates for class repairs respect interval isolation when an
    interval constraint is present, which is what makes the combined
    families converge.
    Returns None when the budget is exhausted: four attempts of at most
    ten repair rounds, each repair and padding, and the search for one
    state when the empty set satisfies everything, scanning at most
    `scan_cap` candidates, and an attempt whose snapshot has grown past `scan_cap`
    states is given up.  Candidates are read off memoised lists: a grown
    class's members (`ClassSpec.memo`), the pads or the HF states of the
    universe, or the window.  With an rng they come in shuffled buffers
    (`_shuffled_stream`), and a found snapshot then takes up to
    `decorate` random extra states that keep every constraint, drawn
    from the window, or else from the first 120 universe states, in the
    order `_shuffle` puts them; a state the window repeats is drawn once.
    Every shuffle makes the draws of `rng.shuffle`, so a seed gives the
    witnesses it always gave.

    The inputs, the constraints and window as tuples, fix a prepared
    search (`_Search`), which builds its decoration index and its memo
    of the sides each state counts in once.  `_prepared`, an lru_cache,
    keeps the last `SEARCH_TABLE_CAP` used, so the repeated searches of
    `generate_witnesses`, of sampled compares and of a restriction audit
    prepare theirs once.  A call with no rng draws nothing and returns
    the search's kept result (`plain`), found in one attempt whose repair
    loop ends at the first round that adds no state; a seeded call runs
    the search, drawing as a fresh one would.  A search with nothing to
    repair, fineness pins and subset_bound caps alone, is answered with
    no rng by `constraint_membership` from its pins, or with no pin from
    its first fitting pad (the first state of its pad source that lies
    alone in every cap): that Snapshot if each pin is in the window, it
    lies in every constraint and it is below `max_size`, else None.  Its
    tally and count sides are built only on a seeded run.
    Each attempt keeps its states in a `_Tally`; the Snapshot is built
    once, on return, and checked by `_verified`.  A search with no
    ratio, order, weight or min_size form makes its first draw after the
    repair loop, so it settles that loop's tally once
    (`_Search.settled`): its seeded attempts copy it, and its run with no
    rng reads it in place; decoration admits each candidate on the
    counts it would give (`_Tally.admit`), so a refusal changes nothing.
    """
    search = _prepared(tuple(constraints), universe,
                       None if window is None else tuple(window), max_size, scan_cap)
    return search.plain() if rng is None else search.run(rng, decorate)


def generate_witnesses(
    constraints: Iterable[Constraint],
    universe: UniverseHandle | None,
    rng: random.Random,
    count: int,
    window: Iterable[SetValue] | None = None,
    max_size: int | None = None,
) -> list[Snapshot]:
    """Distinct snapshots in the constraint intersection, for audits:
    up to 8 seeded searches per snapshot asked for, then a deterministic
    padding fallback.  The constraints and window are read once, into
    tuples; every search is a `find_witness` call with those same
    inputs, so they share one kept search."""
    constraints = tuple(constraints)
    window = None if window is None else tuple(window)
    out: list[Snapshot] = []
    seen: set[Snapshot] = set()
    attempts = count * 8
    while len(out) < count and attempts > 0:
        attempts -= 1
        w = find_witness(constraints, universe, rng=rng, window=window,
                         max_size=max_size, decorate=rng.randrange(0, 5))
        if w is None or w in seen:
            continue
        seen.add(w)
        out.append(w)
    if len(out) < count:
        # Deterministic fallback: grow one witness by safe padding.
        base = find_witness(constraints, universe, window=window, max_size=max_size)
        if base is None:
            raise ConstructionFailed(
                "could not generate witnesses for: "
                + "; ".join(c.describe() for c in constraints))
        mode = universe.mode if universe is not None else None
        states = _Tally(_Sides(constraints), base)
        placed = states.states
        for cand in (v for v in state_pool(universe, window, SCAN_CAP)
                     if v not in placed):
            if len(out) >= count or \
                    (max_size is not None and len(placed) + 1 >= max_size):
                break
            if not states.admit(cand):
                continue
            w = Snapshot(placed)
            if w not in seen:
                seen.add(w)
                out.append(_verified(w, constraints, mode))
        if len(out) < count:
            raise ConstructionFailed(
                f"only {len(out)} of {count} witnesses found for: "
                + "; ".join(c.describe() for c in constraints))
    return out


def sample_witnesses(fb: FilterBase, rng: random.Random, count: int) -> list[Snapshot]:
    """Up to `count` seeded witnesses of the base, its parametric families
    sampled (`expand_base`): one `find_witness` search each, decorated
    with up to 4 extra states, stopping at the first that finds none."""
    concrete = expand_base(fb)
    out: list[Snapshot] = []
    for _ in range(count):
        w = find_witness(concrete, fb.universe, rng=rng, window=fb.window,
                         max_size=fb.max_size, decorate=rng.randrange(0, 5))
        if w is None:
            break
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# Superregularity witness loop


def _tier_order(pair: tuple[ClassSpec, ...]) -> tuple:
    """Class pairs go by the declared tier of their first class, then its name."""
    return pair[0].tier, pair[0].name


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
    pair_list.sort(key=_tier_order)
    n_max = max((n for _, _, n in pair_list), default=1)

    pin_list = list(pins)
    states = set(pin_list)
    seen_first: list[ClassSpec] = []
    for cls_a, cls_b, _ in pair_list:
        seen_first.append(cls_a)
        need = n_max * sum(1 for v in states if cls_a.membership(v))
        if need:
            # take_fresh has read the predicate before seen_first grows
            states.update(cls_b.take_fresh(
                need, exclusions=states,
                predicate=lambda v: not any(a.membership(v) for a in seen_first)))
    return _verified(Snapshot(states),
                     superreg_constraints(pair_list, pin_list), None)


def superreg_constraints(
    pairs: Sequence[tuple[ClassSpec, ClassSpec, int]],
    pins: Iterable[SetValue] = (),
) -> list[Constraint]:
    """The constraint subset the superregularity witness certifies."""
    out = [fineness(p) for p in pins]
    out.extend(ratio(a, b, n) for a, b, n in pairs)
    return out


def ordinal_constraints(pins: Iterable[SetValue], k: int, l: int, m: int,
                        pairs: Sequence[tuple[ClassSpec, ClassSpec]] = ()
                        ) -> list[Constraint]:
    """The constraint subset the ordinal witness certifies."""
    return superreg_constraints([(a, b, k) for a, b in pairs], pins) + \
        [interval(l), weight(m)]


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
    classes: an isolated state's l successors lie in its neighbourhood.

    The states live in a `_Tally` over the pair ratios and interval(l),
    all the construction reads: a pair's deficit is the excess of its
    ratio form, and the isolation and closure of a candidate read its
    block of the tally's `blocks`.  `_verified` checks the result
    against every certified constraint.
    """
    if universe.mode != ORDINAL_MODE:
        raise WrongMode("ordinal_witness needs an ordinal-mode universe")
    if min(k, l, m) < 1:
        raise ValueError("k, l, m must all be >= 1")
    pin_list = list(dict.fromkeys(pins))
    pair_list = sorted(pairs, key=_tier_order)
    cs = ordinal_constraints(pin_list, k, l, m, pair_list)
    ratios = [c for c in cs if c.tag == TAG_RATIO]

    states = _Tally(_Sides([*ratios, interval(l)]), pin_list)
    placed = states.states
    if not placed:
        # No pins: seed one run now so the result is nonempty.  The seed
        # must precede pair growth, or its run would add unbalanced
        # first-class mass after the ratios were already settled.
        states.add(ord_value(0, 0))

    # Successor closure of the pin runs comes first.  States it adds may
    # land in a pair's first class; the pair's growth below is computed
    # from the tally's counts, so such states are absorbed, not repaired.
    _close_intervals(states, l)

    # Pairs in ascending tier order.  Growth for a later pair may add to
    # an earlier pair's second class (harmless) but never to a guarded
    # first class, so balanced ratios stay balanced.
    guarded: list[ClassSpec] = []
    for (cls_a, cls_b), c in zip(pair_list, ratios):
        touches = _touch_test(guarded + [cls_a])
        need = max(k * len(pin_list), states.excess(c.form))
        while need > 0:
            for v in cls_b.take_fresh(
                    need,
                    exclusions=placed,
                    predicate=lambda v: v.is_ordinal and _isolation_ok(
                        v, l, touches, states.blocks.get(v.ord_parts[0], ()))):
                states.add(v)
            _close_intervals(states, l)
            need = states.excess(c.form)
        guarded.append(cls_a)

    # nothing reads the tally's counts after this, so pads skip it
    avoid = [a for a, _ in pair_list] + [b for _, b in pair_list]
    pads = itertools.islice(
        (v for v in universe.pads()
         if v not in placed and not any(cls.membership(v) for cls in avoid)),
        len(placed) * m)
    return _verified(Snapshot([*placed, *pads]), cs, universe.mode)


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
    fb = prior
    kept: list[Constraint] = []
    for sv_a, sv_b in pair_order:
        if rank(sv_a) != level or rank(sv_b) != level:
            raise WrongMode(f"stage pairs must have rank {level}")
        cls_a = class_of_set(sv_a)
        cls_b = class_of_set(sv_b)
        for cand in (order_lt(cls_a, cls_b), order_ge(cls_a, cls_b)):
            trial = fb.with_constraints([cand])
            if check_fip(trial, rng).witnessed:
                break
        else:
            raise ConstructionFailed(
                f"neither judgement for ({sv_a.pretty()}, {sv_b.pretty()}) "
                "survived the budgeted check")
        fb = trial
        kept.append(cand)
    lifts = [power_lift(c) for c in kept]
    fb = fb.with_constraints(lifts)
    final = check_fip(fb, rng)
    if not final.witnessed:
        raise ConstructionFailed(f"lifted base lost its witnesses: {final.note}")
    return fb


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
    Every class of `positions` must be a power class over a value list.
    """
    bases: dict[ClassSpec, frozenset[SetValue]] = {}
    for cls in itertools.chain.from_iterable(positions):
        term = cls.term
        if term[0] not in ("power", "finite_subsets") or term[1].term[0] != "values":
            raise WrongMode(
                f"{cls.name} is not a power class over an extensional base")
        bases[cls] = frozenset(term[1].term[1])
    states = set(base_snapshot)
    lower: list[ClassSpec] = []  # the classes of the positions walked so far

    def count(cls: ClassSpec) -> int:
        return sum(1 for v in states if cls.membership(v))

    def add_members(cls: ClassSpec, need: int, group: Sequence[ClassSpec]) -> None:
        own = bases[cls]
        # Fresh members stay out of every lower class, and out of each
        # tie peer over another base set.
        avoid = lower + [other for other in group
                         if other is not cls and bases[other] != own]
        ordered = sorted(own, key=lambda v: v._key)
        # One marker role per avoided class; a single element may fill
        # several roles at once, which keeps the candidate pool large.
        separators: list[frozenset[SetValue]] = []
        for other in avoid:
            seps = own - bases[other]
            if not seps:
                raise MarkerMissing(
                    f"no separator inside {cls.name} against {other.name}: "
                    "the judgement slice is inconsistent")
            separators.append(seps)
        fixed: set[SetValue] = set()
        while separators:
            best = max(ordered, key=lambda v: sum(1 for s in separators if v in s))
            fixed.add(best)
            separators = [s for s in separators if best not in s]
        top = max((rank(v) for v in own), default=0)
        if all(rank(v) != top for v in fixed):
            fixed.add(min((v for v in own if rank(v) == top), key=lambda v: v._key))
        rest = [v for v in ordered if v not in fixed]
        # distinct combinations give distinct sets, so none is taken twice
        candidates = (hf_set([*fixed, *combo]) for size in range(len(rest) + 1)
                      for combo in itertools.combinations(rest, size))
        fresh = list(itertools.islice(
            (cand for cand in candidates if cand not in states
             and not any(other.membership(cand) for other in avoid)),
            need))
        if len(fresh) < need:
            raise EnumerationExhausted(
                f"level cannot supply {need} fresh members of {cls.name}")
        states.update(fresh)

    prev_max: int | None = None
    for group in positions:
        if prev_max is not None:
            add_members(group[0], prev_max + 1, group)
        target = max(count(cls) for cls in group)
        for cls in group:
            deficit = target - count(cls)
            if deficit > 0:
                add_members(cls, deficit, group)
        counts_now = [count(cls) for cls in group]
        if len(set(counts_now)) != 1:
            raise ConstructionFailed(
                f"tie group {[c.name for c in group]} failed to equalize: {counts_now}")
        if prev_max is not None and counts_now[0] <= prev_max:
            raise ConstructionFailed("strict step failed to exceed the previous position")
        prev_max = counts_now[0]
        lower.extend(group)

    return _verified(Snapshot(states),
                     [c for c in judgements.constraints
                      if c.tag in (TAG_ORDER_LT, TAG_ORDER_GE, TAG_FINENESS)], None)
