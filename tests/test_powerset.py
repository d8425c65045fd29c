"""Staged power-class judgements and witness extension."""

import random
from itertools import combinations

import pytest

from setprob import (
    ClassSpec,
    FilterBase,
    HF_MODE,
    ORDINAL_MODE,
    check_fip,
    class_from_values,
    class_of_set,
    constraint_membership,
    find_witness,
    fineness,
    hf_set,
    make_universe,
    order_ge,
    order_lt,
    power_class,
    power_lift,
    powerset_prefilter_stage,
    powerset_witness_extend,
    make_universe,
    snapshot,
)
from setprob.cli import chain_sets, demo_powerset_chain, demo_pn_iteration
from setprob.errors import (
    ConstructionFailed,
    EnumerationExhausted,
    MarkerMissing,
    WrongMode,
)

HF = make_universe(HF_MODE, 5)
A1, A2, A3, A4 = chain_sets()
ELS = [class_of_set(sv) for sv in (A1, A2, A3, A4)]
POWERS = [power_class(c) for c in ELS]


def members_of(cls, base_set):
    """All subsets of base_set's members, as hf_set values."""
    kids = list(base_set.children)
    out = []
    for size in range(len(kids) + 1):
        for combo in combinations(kids, size):
            out.append(hf_set(combo))
    return out


def pcount(t, p):
    return sum(1 for s in t if p.membership(s))


# ---------------------------------------------------------------------------
# Staging


def test_stage_empty_pair_list_is_identity():
    prior = FilterBase((), universe=HF, provenance="prior")
    out = powerset_prefilter_stage(HF, 4, prior, [])
    assert out.constraints == prior.constraints
    assert out.provenance == prior.provenance


def test_stage_keeps_prior_and_adds_lifts():
    prior = FilterBase((fineness(hf_set([])),), universe=HF)
    out = powerset_prefilter_stage(HF, 4, prior, [(A1, A2)],
                                   rng=random.Random(0))
    assert prior.constraints[0] in out.constraints
    tags = [c.tag for c in out.constraints]
    assert tags.count("order_lt") == 2  # the judgement and its lift
    assert check_fip(out).witnessed


def test_stage_prefers_strict_judgement():
    prior = FilterBase((), universe=HF)
    out = powerset_prefilter_stage(HF, 4, prior, [(A1, A2), (A3, A4)],
                                   rng=random.Random(0))
    assert all(c.tag == "order_lt" for c in out.constraints)
    assert len(out.constraints) == 4


def test_stage_reflexive_pair_keeps_ge():
    out = powerset_prefilter_stage(HF, 4, FilterBase((), universe=HF),
                                   [(A1, A1)], rng=random.Random(0))
    assert [c.tag for c in out.constraints] == ["order_ge", "order_ge"]


def test_stage_strictness_lift_invariant():
    out = powerset_prefilter_stage(HF, 4, FilterBase((), universe=HF),
                                   [(A1, A2), (A2, A3), (A1, A4)],
                                   rng=random.Random(1))
    strict = [c for c in out.constraints
              if c.tag == "order_lt" and c.cls_a.term[0] != "power"]
    lifted_names = {c.cls_a.name for c in out.constraints
                    if c.tag == "order_lt" and c.cls_a.term[0] == "power"}
    for c in strict:
        assert f"P({c.cls_a.name})" in lifted_names


def test_stage_fails_when_the_prior_refutes_both_judgements():
    e1, e2 = ELS[0], ELS[1]
    prior = FilterBase((order_lt(e1, e2), order_lt(e2, e1)), universe=HF)
    with pytest.raises(ConstructionFailed, match="neither judgement"):
        powerset_prefilter_stage(HF, 4, prior, [(A1, A2)], rng=random.Random(0))


def test_stage_rejects_wrong_rank_and_mode():
    prior = FilterBase((), universe=HF)
    with pytest.raises(WrongMode):
        powerset_prefilter_stage(HF, 3, prior, [(A1, A2)])
    U = make_universe(ORDINAL_MODE, 2)
    with pytest.raises(WrongMode):
        powerset_prefilter_stage(U, 1, FilterBase((), universe=U), [(A1, A2)])


# ---------------------------------------------------------------------------
# Witness extension


def test_extend_no_positions_returns_base():
    base = snapshot(*list(HF.level_members(3))[:3])
    out = powerset_witness_extend(HF, base, [], FilterBase((), universe=HF))
    assert out == base


def test_extend_single_strict_edge_adds_count_plus_one():
    ground = find_witness([order_lt(ELS[0], ELS[1])], HF,
                          rng=random.Random(2))
    subs = [s for s in members_of(POWERS[0], A1) if s != A1][:2]
    base = snapshot(*ground, *subs)
    assert pcount(base, POWERS[0]) == 2
    judgements = FilterBase(
        (order_lt(ELS[0], ELS[1]), power_lift(order_lt(ELS[0], ELS[1]))),
        universe=HF)
    out = powerset_witness_extend(HF, base, [[POWERS[0]], [POWERS[1]]],
                                  judgements)
    added = [s for s in out if s not in base]
    assert len(added) == 3
    marker = next(x for x in A2.children if x not in A1.children)
    for s in added:
        assert POWERS[1].membership(s) and not POWERS[0].membership(s)
        assert marker in s.children
    assert pcount(out, POWERS[0]) < pcount(out, POWERS[1])


def test_extend_tie_group_equalizes_at_max():
    high = [s for s in members_of(POWERS[2], A3)
            if not POWERS[3].membership(s)][:5]
    low = [s for s in members_of(POWERS[3], A4)
           if not POWERS[2].membership(s)][:3]
    base = snapshot(*(high + low))
    out = powerset_witness_extend(HF, base, [[POWERS[2], POWERS[3]]],
                                  FilterBase((), universe=HF))
    assert pcount(out, POWERS[2]) == pcount(out, POWERS[3]) == 5
    # equalization only ever adds states
    assert all(s in out for s in base)


def test_extend_marker_missing_for_contained_base():
    # A1's members all lie in A2, so nothing separates P(A1) from P(A2)
    base = snapshot(members_of(POWERS[1], A2)[3])
    with pytest.raises(MarkerMissing):
        powerset_witness_extend(HF, base, [[POWERS[1]], [POWERS[0]]],
                                FilterBase((), universe=HF))


def test_extend_exhausts_small_level():
    # all four subsets of A1 already present: the strict step above them
    # needs five marker-bearing members of P(A2) but only four exist
    base = snapshot(*members_of(POWERS[0], A1))
    with pytest.raises(EnumerationExhausted):
        powerset_witness_extend(HF, base, [[POWERS[0]], [POWERS[1]]],
                                FilterBase((), universe=HF))


def test_extend_worked_chain():
    slice_cs = [
        order_lt(ELS[0], ELS[1]), order_lt(ELS[1], ELS[2]),
        order_lt(ELS[0], ELS[2]), order_lt(ELS[0], ELS[3]),
        order_lt(ELS[1], ELS[3]),
        order_ge(ELS[2], ELS[3]), order_ge(ELS[3], ELS[2]),
    ]
    judgements = FilterBase(
        tuple(slice_cs + [power_lift(c) for c in slice_cs]), universe=HF)
    ground = find_witness(slice_cs, HF, rng=random.Random(0))
    assert ground is not None
    out = powerset_witness_extend(
        HF, ground, [[POWERS[0]], [POWERS[1]], [POWERS[2], POWERS[3]]],
        judgements)
    counts = [pcount(out, p) for p in POWERS]
    assert counts[0] < counts[1] < counts[2] == counts[3]
    for c in slice_cs:
        assert constraint_membership(c, out, HF.mode)


def test_extend_preserves_base_judgements_or_raises():
    from setprob.errors import ConstructionFailed
    # base violating a ground judgement is caught by the final check
    bad_base = snapshot(*[s for s in members_of(POWERS[0], A1) if s != A1][:2])
    judgements = FilterBase(
        (order_lt(ELS[0], ELS[1]), power_lift(order_lt(ELS[0], ELS[1]))),
        universe=HF)
    with pytest.raises(ConstructionFailed):
        powerset_witness_extend(HF, bad_base, [[POWERS[0]], [POWERS[1]]],
                                judgements)


def test_extend_anchor_falls_back_to_the_least_top_rank_element():
    # A's only separator against B is rank 2, below A's top rank 3, so the
    # member added to P(A) also holds A's least rank-3 element
    r2 = list(HF.level_members(2))
    r3 = list(HF.level_members(3))
    pa = power_class(class_from_values("A", r2[:2] + r3[:2]))
    pb = power_class(class_from_values("B", r3[:3]))
    out = powerset_witness_extend(HF, snapshot(), [[pb], [pa]],
                                  FilterBase((), universe=HF))
    [added] = out
    marker, anchor = sorted(added.children, key=lambda v: v._key)
    assert marker in r2[:2]
    assert anchor == min(r3[:2], key=lambda v: v._key)


@pytest.mark.parametrize("taken", ["present", "avoided"])
def test_extend_skips_a_candidate_it_cannot_take(taken):
    # the first candidate for P(A2) above P(A1) is taken away, either by
    # the snapshot already holding it or by a lower class holding it
    judgements = FilterBase((), universe=HF)
    [first] = powerset_witness_extend(HF, snapshot(), [[POWERS[0]], [POWERS[1]]],
                                      judgements)
    if taken == "present":
        lower, base = POWERS[0], snapshot(first)
    else:
        p0 = POWERS[0]
        lower = ClassSpec("Q", lambda x: x == first or p0.membership(x),
                          lambda: iter(()), p0.tier, term=p0.term)
        base = snapshot()
    out = powerset_witness_extend(HF, base, [[lower], [POWERS[1]]], judgements)
    [added] = [s for s in out if s not in base]
    assert added != first
    assert POWERS[1].membership(added) and not lower.membership(added)


def test_extend_refuses_a_power_class_over_a_non_value_base():
    over_v = power_class(HF.universe_class())
    with pytest.raises(WrongMode, match="not a power class over an extensional base"):
        powerset_witness_extend(HF, snapshot(), [[POWERS[0]], [over_v]],
                                FilterBase((), universe=HF))


@pytest.mark.parametrize("cls", [power_class(HF.universe_class()), ELS[0]],
                         ids=["P(V)", "els"])
def test_extend_refuses_a_class_before_it_needs_members(cls):
    # a lone first position adds nothing, yet its class is still checked
    with pytest.raises(WrongMode, match="not a power class over an extensional base"):
        powerset_witness_extend(HF, snapshot(), [[cls]], FilterBase((), universe=HF))


# ---------------------------------------------------------------------------
# Iterated lift


def test_lift_iterates_three_levels():
    r2 = list(HF.level_members(2))
    a = hf_set(r2[:1])
    b = hf_set(r2[:2])
    current = order_lt(class_of_set(a), class_of_set(b))
    for n in range(4):
        w = find_witness([current], HF, rng=random.Random(n))
        assert w is not None, f"no witness after {n} lifts"
        assert constraint_membership(current, w, HF.mode)
        if n < 3:
            current = power_lift(current)


def test_demos_run_clean():
    ok, text = demo_powerset_chain(0)
    assert ok and "chain realized: yes" in text
    ok2, text2 = demo_pn_iteration(0)
    assert ok2 and "P^3" in text2
