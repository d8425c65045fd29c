"""Finite-snapshot probabilities.

A snapshot is a finite, duplicate-free, canonically ordered set of
states.  Event probabilities at a snapshot are exact rationals obtained
by counting: the fraction of states whose outcome under a variable
lands in a class.  No floating point enters anywhere; values are
`fractions.Fraction` throughout, which keeps them reduced with positive
denominators for free.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .errors import ConditionNull, EmptySnapshot
from .universe import ClassSpec, RandomVariable, SetValue

Rational = Fraction


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
        inner = ",".join(s.pretty() for s in self.states)
        return f"Snapshot{{{inner}}}"

    def union(self, extra: Iterable[SetValue]) -> "Snapshot":
        return Snapshot(self.states + tuple(extra))

    def intersect(self, values: Iterable[SetValue]) -> "Snapshot":
        keep = {v.code for v in values}
        return Snapshot(s for s in self.states if s.code in keep)

    def count(self, cls: ClassSpec) -> int:
        return sum(1 for s in self.states if cls.membership(s))


def snapshot(*states: SetValue) -> Snapshot:
    return Snapshot(states)


def snapshot_prob(rv: RandomVariable, cls: ClassSpec, t: Snapshot) -> Rational:
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
) -> Rational:
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
) -> Rational:
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
