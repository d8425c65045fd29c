"""Snapshots: canonical order at every site, masks cached per object, and
exact counting of event probabilities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setprob import (
    ORDINAL_MODE,
    Snapshot,
    class_from_values,
    even_shift_permutation,
    identity_rv,
    make_universe,
    nat,
    ord_value,
    pad,
    snapshot,
    snapshot_prob,
)
from setprob.bootstrap import TieredProb, TierConfig, non_restriction_counterexample, \
    restrict_base
from setprob.errors import ConditionNull, EmptySnapshot
from setprob.filters import fineness_base, subset_bound
from setprob.germs import germ_of_event
from setprob.universe import canonical, hf_set, parse_code, table_rv

from oracle import conditional_snapshot_prob, joint_snapshot_prob

IDENT = identity_rv()


def _ord_universe_classes():
    from setprob import ORDINAL_MODE, make_universe

    u = make_universe(ORDINAL_MODE, 3)
    return u.builtin_class("Even"), u.builtin_class("Odd"), \
        u.builtin_class("On"), u.builtin_class("Lim"), u.universe_class()


EVEN, ODD, ON, LIM, V = _ord_universe_classes()
U = make_universe(ORDINAL_MODE, 3)
POOL = list(itertools.islice(U.enumerate_universe(), 16)) + [hf_set([nat(1)]), pad(2)]


# ---------------------------------------------------------------------------
# Snapshot mechanics


def test_snapshot_dedupes_and_orders():
    t = snapshot(nat(3), nat(1), nat(3), nat(2))
    assert len(t) == 3
    assert [s.code for s in t] == ["o0.1", "o0.2", "o0.3"]
    assert t == snapshot(nat(1), nat(2), nat(3))
    assert nat(2) in t and nat(9) not in t


def test_snapshot_immutable():
    t = snapshot(nat(1))
    with pytest.raises(AttributeError):
        t.states = ()


def test_snapshot_union_intersect():
    t = snapshot(nat(1), nat(2))
    assert snapshot(*t, nat(3)) == snapshot(nat(1), nat(2), nat(3))
    assert t.intersect([nat(2), nat(9)]) == snapshot(nat(2))
    assert t.count(EVEN) == 1


@given(st.lists(st.sampled_from(POOL), min_size=1, max_size=7), st.randoms())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_every_site_keeps_canonical_order(values, rnd):
    # Repeated codes, some as separate objects, in shuffled order.
    xs = values + [parse_code(v.code) for v in values[::2]]
    rnd.shuffle(xs)
    want = canonical(xs)
    assert [v.code for v in want] == sorted({v.code for v in xs},
                                            key=lambda c: parse_code(c)._key)
    for a, b in itertools.product(xs, repeat=2):  # derived from __lt__
        assert (a <= b, a > b, a >= b) == (a._key <= b._key, a._key > b._key,
                                           a._key >= b._key)
    tiers = TierConfig((2, 4))
    assert hf_set(xs).children == want
    assert class_from_values("c", xs).meta["values"] == want
    assert Snapshot(xs).states == want
    assert subset_bound(xs, 2).window == want
    assert fineness_base(U, xs).window == want
    assert restrict_base(fineness_base(U), xs, 3, require_license=False)[0].window == want
    assert TieredProb(U, tiers, xs).window == want
    assert non_restriction_counterexample(U, tiers, xs).bad_base.window == want


def test_same_named_classes_and_variables_keep_their_own_masks():
    # A snapshot caches membership masks by object, not by name.
    t = snapshot(*[nat(i) for i in range(4)])
    one, two = class_from_values("A", [nat(1)]), class_from_values("A", [nat(2), nat(3)])
    assert germ_of_event(IDENT, one).eval_at(t) == Fraction(1, 4)
    assert germ_of_event(IDENT, two).eval_at(t) == Fraction(2, 4)
    assert germ_of_event(IDENT, one).eval_at(t) == Fraction(1, 4)
    stay, move = table_rv({}, "f"), table_rv({nat(0): nat(1), nat(1): nat(0)}, "f")
    assert germ_of_event(stay, two).eval_at(t) == Fraction(2, 4)
    assert germ_of_event(move, one).eval_at(t) == Fraction(1, 4)
    assert germ_of_event(move, class_from_values("A", [nat(0)])).eval_at(t) == \
        Fraction(1, 4)
    assert t.mask(one) == 0b0010 and t.mask(one, move) == 0b0001
    assert t.mask(two) == t.mask(two, stay) == 0b1100


# ---------------------------------------------------------------------------
# Event probability


def test_event_prob_direct_count():
    t = snapshot(*[nat(i) for i in range(5)])
    assert snapshot_prob(IDENT, EVEN, t) == Fraction(3, 5)


def test_event_prob_total_event():
    for states in ([nat(0)], [nat(1), pad(0), ord_value(2, 2)]):
        assert snapshot_prob(IDENT, V, Snapshot(states)) == 1


def test_event_prob_under_permutation():
    # The even-shift sends 0,1,2,3 to 2,0,4,1; three land in the evens.
    pi = even_shift_permutation()
    t = snapshot(*[nat(i) for i in range(4)])
    assert snapshot_prob(pi, EVEN, t) == Fraction(3, 4)


def test_event_prob_empty_snapshot():
    with pytest.raises(EmptySnapshot):
        snapshot_prob(IDENT, EVEN, Snapshot([]))


# ---------------------------------------------------------------------------
# Joint probability


def test_joint_total_is_one():
    t = snapshot(nat(0), nat(1), pad(0))
    assert joint_snapshot_prob(IDENT, V, IDENT, V, t) == 1


def test_joint_disjoint_same_variable():
    t = snapshot(nat(0), nat(1), nat(2))
    assert joint_snapshot_prob(IDENT, EVEN, IDENT, ODD, t) == 0


def test_joint_mixed_variables():
    # s even with pi(s) even: s=0 (goes to 2) and s=2 (goes to 4).
    pi = even_shift_permutation()
    t = snapshot(*[nat(i) for i in range(4)])
    assert joint_snapshot_prob(IDENT, EVEN, pi, EVEN, t) == Fraction(1, 2)


def test_joint_empty_snapshot():
    with pytest.raises(EmptySnapshot):
        joint_snapshot_prob(IDENT, V, IDENT, V, Snapshot([]))


# ---------------------------------------------------------------------------
# Conditional probability


def test_conditional_on_ordinals():
    t = snapshot(nat(0), nat(1), nat(2), ord_value(1, 0))
    assert conditional_snapshot_prob(IDENT, EVEN, IDENT, ON, t) == Fraction(3, 4)


def test_conditional_on_everything_is_plain_prob():
    t = snapshot(nat(0), nat(1), nat(2), pad(0))
    assert conditional_snapshot_prob(IDENT, EVEN, IDENT, V, t) == \
        snapshot_prob(IDENT, EVEN, t)


def test_conditional_null_condition():
    with pytest.raises(ConditionNull):
        conditional_snapshot_prob(IDENT, EVEN, IDENT, LIM,
                                  snapshot(nat(0), nat(1), nat(2)))


# ---------------------------------------------------------------------------
# Pointwise properties

ordinals = st.builds(ord_value, st.integers(0, 2), st.integers(0, 30))
states = st.one_of(ordinals, st.builds(pad, st.integers(0, 10)))
snapshots = st.lists(states, min_size=1, max_size=12).map(Snapshot)


@settings(derandomize=True)
@given(snapshots)
def test_additivity_even_odd(t):
    f_even = snapshot_prob(IDENT, EVEN, t)
    f_odd = snapshot_prob(IDENT, ODD, t)
    assert f_even + f_odd == snapshot_prob(IDENT, ON, t)


@settings(derandomize=True)
@given(snapshots)
def test_range_and_total(t):
    f = snapshot_prob(IDENT, EVEN, t)
    assert 0 <= f <= 1
    assert snapshot_prob(IDENT, V, t) == 1
    empty = class_from_values("nothing", [])
    assert snapshot_prob(IDENT, empty, t) == 0


@settings(derandomize=True)
@given(snapshots)
def test_monotone_subset(t):
    assert snapshot_prob(IDENT, LIM, t) <= snapshot_prob(IDENT, EVEN, t) \
        <= snapshot_prob(IDENT, ON, t)


@settings(derandomize=True)
@given(st.lists(st.integers(0, 20), min_size=2, max_size=8, unique=True))
def test_uniformity_of_diagonal_values(points):
    # Any two outcomes a diagonal variable takes inside the snapshot are
    # equally likely: each preimage is one state.
    t = Snapshot([nat(i) for i in points])
    values = [snapshot_prob(IDENT, class_from_values(f"at{i}", [nat(i)]), t)
              for i in points]
    assert all(v == Fraction(1, len(t)) for v in values)
