"""Finite-snapshot probabilities.

A snapshot is a finite, duplicate-free, canonically ordered set of
states.  Event probabilities at a snapshot are exact rationals obtained
by counting: the fraction of states whose outcome under a variable
lands in a class.  No floating point enters anywhere; values are
`fractions.Fraction` throughout, which keeps them reduced with positive
denominators for free.  A `StateIndex` numbers the distinct states of a
window, so that each subset is an int mask and each count a bit count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .errors import ConditionNull, EmptySnapshot
from .universe import ClassSpec, RandomVariable, SetValue


class Snapshot:
    """An immutable finite set of states in canonical order."""

    __slots__ = ("states", "_codes")

    def __init__(self, states: Iterable[SetValue]):
        uniq: dict[str, SetValue] = {}
        for s in states:
            uniq[s.code] = s
        ordered = tuple(sorted(uniq.values(), key=lambda v: v._key))
        object.__setattr__(self, "states", ordered)
        object.__setattr__(self, "_codes", frozenset(uniq))

    def __setattr__(self, name, value):
        raise AttributeError("Snapshot is immutable")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[SetValue]:
        return iter(self.states)

    def __contains__(self, value: SetValue) -> bool:
        return value.code in self._codes

    def __eq__(self, other):
        return isinstance(other, Snapshot) and self._codes == other._codes

    def __hash__(self):
        return hash(self._codes)

    def __repr__(self):
        return _snapshot_text(self.states)

    def union(self, extra: Iterable[SetValue]) -> "Snapshot":
        return Snapshot(self.states + tuple(extra))

    def intersect(self, values: Iterable[SetValue]) -> "Snapshot":
        keep = {v.code for v in values}
        return Snapshot(s for s in self.states if s.code in keep)

    def count(self, cls: ClassSpec) -> int:
        return sum(1 for s in self.states if cls.membership(s))


def _snapshot_text(states: Iterable[SetValue]) -> str:
    inner = ",".join(s.pretty() for s in states)
    return f"Snapshot{{{inner}}}"


class StateIndex:
    """Distinct states in canonical order, with subsets as int masks.

    Bit i of a mask stands for `states[i]`, so a subset of the states is
    one int, its size is `mask.bit_count()`, and the count of a class in
    it is `(mask & self.mask(cls)).bit_count()`.  Each (variable, class)
    membership mask is computed once per index and then reused.
    `states` must already be distinct and canonically ordered, as a
    Snapshot's are; `window_index` builds an index from any states.
    """

    __slots__ = ("states", "full", "_bits", "_masks")

    def __init__(self, states: tuple[SetValue, ...]):
        self.states = states
        self.full = (1 << len(states)) - 1
        self._bits: dict[str, int] | None = None  # built on first `bit`
        # keyed by identity; the entry keeps rv and cls alive with it
        self._masks: dict[tuple[int, int], tuple[int, object, object]] = {}

    def bit(self, x: SetValue) -> int:
        """The bit of x, or 0 when x is not one of the states."""
        if self._bits is None:
            self._bits = {s.code: 1 << i for i, s in enumerate(self.states)}
        return self._bits.get(x.code, 0)

    def where(self, pred: Callable[[SetValue], bool],
              rv: RandomVariable | None = None) -> int:
        """Mask of the states s with pred(s), or pred(rv(s)) given rv."""
        m, bit = 0, 1
        for s in self.states:
            if pred(s if rv is None else rv(s)):
                m |= bit
            bit <<= 1
        return m

    def mask(self, cls: ClassSpec, rv: RandomVariable | None = None) -> int:
        """Mask of the states whose outcome under rv (the state itself
        when rv is None) lies in cls."""
        key = (id(rv), id(cls))
        hit = self._masks.get(key)
        if hit is not None:
            return hit[0]
        m = self.where(cls.membership, rv)
        self._masks[key] = (m, rv, cls)
        return m

    def subset(self, mask: int) -> tuple[SetValue, ...]:
        """The states a mask selects, in canonical order."""
        return tuple(s for i, s in enumerate(self.states) if mask >> i & 1)

    def describe(self, mask: int) -> str:
        """The text `repr` gives the Snapshot of the states a mask selects."""
        return _snapshot_text(self.subset(mask))


def window_index(states: Iterable[SetValue]) -> StateIndex:
    """Index over the distinct states among `states`, in canonical order."""
    uniq = {s.code: s for s in states}
    return StateIndex(tuple(sorted(uniq.values(), key=lambda v: v._key)))


def snapshot(*states: SetValue) -> Snapshot:
    return Snapshot(states)


def snapshot_prob(rv: RandomVariable, cls: ClassSpec, t: Snapshot) -> Fraction:
    """Fraction of states in `t` whose outcome under `rv` lies in `cls`."""
    if len(t) == 0:
        raise EmptySnapshot("probability over an empty snapshot")
    hits = sum(1 for s in t if cls.membership(rv(s)))
    return Fraction(hits, len(t))


def joint_snapshot_prob(
    rv1: RandomVariable,
    cls1: ClassSpec,
    rv2: RandomVariable,
    cls2: ClassSpec,
    t: Snapshot,
) -> Fraction:
    """Fraction of states landing in both events simultaneously."""
    if len(t) == 0:
        raise EmptySnapshot("probability over an empty snapshot")
    hits = sum(
        1 for s in t if cls1.membership(rv1(s)) and cls2.membership(rv2(s))
    )
    return Fraction(hits, len(t))


def conditional_snapshot_prob(
    rv1: RandomVariable,
    cls1: ClassSpec,
    rv2: RandomVariable,
    cls2: ClassSpec,
    t: Snapshot,
) -> Fraction:
    """Joint probability over the condition's probability.

    Raises ConditionNull when no state of `t` satisfies the condition;
    there is no convention value for 0/0 here.
    """
    if len(t) == 0:
        raise EmptySnapshot("probability over an empty snapshot")
    cond = sum(1 for s in t if cls2.membership(rv2(s)))
    if cond == 0:
        raise ConditionNull(f"condition {cls2.name} has no states in the snapshot")
    both = sum(
        1 for s in t if cls1.membership(rv1(s)) and cls2.membership(rv2(s))
    )
    return Fraction(both, cond)
