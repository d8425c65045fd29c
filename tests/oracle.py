"""Joint and conditional frequencies at a snapshot, counted state by
state: the plain definitions that `germs.compile_germ`'s bit counts are
checked against."""

from fractions import Fraction

from setprob import ClassSpec, RandomVariable, Snapshot
from setprob.errors import ConditionNull, EmptySnapshot


def joint_snapshot_prob(rv1: RandomVariable, cls1: ClassSpec,
                        rv2: RandomVariable, cls2: ClassSpec, t: Snapshot) -> Fraction:
    """Fraction of states landing in both events simultaneously."""
    if len(t) == 0:
        raise EmptySnapshot("probability over an empty snapshot")
    hits = sum(1 for s in t if cls1.membership(rv1(s)) and cls2.membership(rv2(s)))
    return Fraction(hits, len(t))


def conditional_snapshot_prob(rv1: RandomVariable, cls1: ClassSpec,
                              rv2: RandomVariable, cls2: ClassSpec,
                              t: Snapshot) -> Fraction:
    """Joint probability over the condition's probability.

    Raises ConditionNull when no state of `t` satisfies the condition;
    there is no convention value for 0/0 here.
    """
    if len(t) == 0:
        raise EmptySnapshot("probability over an empty snapshot")
    cond = sum(1 for s in t if cls2.membership(rv2(s)))
    if cond == 0:
        raise ConditionNull(f"condition {cls2.name} has no states in the snapshot")
    both = sum(1 for s in t if cls1.membership(rv1(s)) and cls2.membership(rv2(s)))
    return Fraction(both, cond)
