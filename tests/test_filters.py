"""Constraint membership, FIP checking, witness constructors."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setprob import (
    FilterBase,
    FipBudget,
    HF_MODE,
    ORDINAL_MODE,
    check_fip,
    class_from_values,
    constraint_from_text,
    constraint_membership,
    constraint_to_text,
    expand_parametric,
    filter_base_from_text,
    filter_base_to_text,
    find_witness,
    fineness,
    fineness_base,
    generate_witnesses,
    hf_set,
    interval,
    make_universe,
    min_size,
    nat,
    ord_value,
    order_ge,
    order_lt,
    ordinal_theorem_base,
    ordinal_witness,
    pad,
    parametric_fineness,
    parametric_interval,
    parametric_ratio,
    parametric_weight,
    power_lift,
    ratio,
    snapshot,
    subset_bound,
    superreg_constraints,
    superreg_witness,
    weight,
)
from setprob.cli import registry_classes
from setprob.errors import ConstructionFailed, WrongMode
from setprob.filters import state_pool

U = make_universe(ORDINAL_MODE, 3)
HF = make_universe(HF_MODE, 5)
REG = registry_classes(U)
M4, E1, O2 = REG["mult4_t0"], REG["even_t1"], REG["ord_t2"]


# ---------------------------------------------------------------------------
# Membership


def test_fineness_membership():
    c = fineness(nat(5))
    assert constraint_membership(c, snapshot(nat(1), nat(5), nat(9)))
    assert not constraint_membership(c, snapshot(nat(1), nat(9)))


def test_interval_membership():
    c = interval(2)
    good = snapshot(nat(0), nat(1), nat(2),
                    ord_value(1, 0), ord_value(1, 1), ord_value(1, 2))
    assert constraint_membership(c, good, U.mode)
    assert not constraint_membership(c, snapshot(nat(0), ord_value(1, 0)), U.mode)


def test_interval_runs_do_not_cross_limit_blocks():
    # three successors of one limit are one run; a lone limit above breaks
    t = snapshot(nat(7), nat(8), nat(9), ord_value(2, 0))
    assert not constraint_membership(interval(2), t, U.mode)
    assert constraint_membership(interval(2),
                                 snapshot(nat(7), nat(8), nat(9)), U.mode)


def test_weight_membership():
    c = weight(2)
    assert constraint_membership(c, snapshot(nat(0), nat(1), pad(0), pad(1)), U.mode)
    assert not constraint_membership(c, snapshot(nat(0), nat(1), pad(0)), U.mode)


def test_ratio_membership_zero_over_zero():
    c = ratio(M4, E1, 3)
    assert constraint_membership(c, snapshot(pad(0)), U.mode)
    assert constraint_membership(c, snapshot(nat(0), nat(2), nat(6)), U.mode)
    assert not constraint_membership(c, snapshot(nat(0), nat(4)), U.mode)


def test_order_membership():
    assert constraint_membership(order_lt(M4, E1), snapshot(nat(2), nat(6)), U.mode)
    assert not constraint_membership(order_lt(M4, E1), snapshot(nat(0), nat(4)), U.mode)
    assert constraint_membership(order_ge(M4, E1), snapshot(nat(0), nat(4)), U.mode)


def test_subset_bound_membership():
    c = subset_bound([nat(0), nat(1), nat(2)], 2)
    assert constraint_membership(c, snapshot(nat(0), nat(7)))
    assert not constraint_membership(c, snapshot(nat(0), nat(1)))


def test_min_size_membership():
    assert constraint_membership(min_size(2), snapshot(nat(0), nat(1)))
    assert not constraint_membership(min_size(3), snapshot(nat(0), nat(1)))


def test_ordinal_constraints_refuse_hf_mode():
    with pytest.raises(WrongMode):
        constraint_membership(interval(1), snapshot(hf_set([])), HF_MODE)
    with pytest.raises(WrongMode):
        constraint_membership(weight(2), snapshot(hf_set([])), HF_MODE)


def test_parametric_has_no_direct_membership():
    with pytest.raises(WrongMode):
        constraint_membership(parametric_fineness(), snapshot(nat(0)))


# ---------------------------------------------------------------------------
# Parametric expansion


def test_expand_parametric_families():
    assert expand_parametric(parametric_ratio(M4, E1), 4).param == 4
    assert expand_parametric(parametric_interval(), 2).tag == "interval"
    assert expand_parametric(parametric_weight(), 3).param == 3
    with pytest.raises(ValueError):
        expand_parametric(parametric_fineness(), 2)
    with pytest.raises(ValueError):
        expand_parametric(weight(2), 2)


def test_state_pool_window_wins_and_limit_cuts_the_universe():
    window = [nat(7), pad(2)]
    assert list(state_pool(U, window, limit=1)) == window
    assert list(state_pool(None, window)) == window
    assert list(state_pool(U, [])) == []
    assert list(state_pool(U, None, limit=5)) == \
        list(islice(U.enumerate_universe(), 5))
    assert list(state_pool(None, None, limit=5)) == []


# ---------------------------------------------------------------------------
# FIP checking


def test_fip_fineness_pins_witnessed_by_union():
    fb = FilterBase((fineness(nat(1)), fineness(nat(3)), fineness(nat(5))),
                    universe=U)
    result = check_fip(fb)
    assert result.witnessed
    # every budgeted subset got its own concrete witness
    assert len(result.witnesses) == 7
    for subset, t in result.witnesses:
        assert all(constraint_membership(c, t, U.mode) for c in subset)


def test_fip_order_conflict_refuted():
    fb = FilterBase((order_lt(M4, E1), order_ge(M4, E1)), universe=U)
    result = check_fip(fb)
    assert result.status == "refuted"
    assert result.refuted_subset is not None and len(result.refuted_subset) == 2


def test_fip_irreflexive_strict_order_refuted():
    result = check_fip(FilterBase((order_lt(M4, M4),), universe=U))
    assert result.status == "refuted"


def test_fip_min_size_beyond_cap_refuted():
    result = check_fip(FilterBase((min_size(9),), universe=U, max_size=5))
    assert result.status == "refuted"


def test_fip_search_failure_reports_unknown_not_refuted():
    # nothing can have fewer members than an empty class
    hollow = class_from_values("hollow", [])
    fb = FilterBase((order_lt(U.universe_class(), hollow),), universe=U)
    result = check_fip(fb)
    assert result.status == "unknown"
    assert result.refuted_subset is None and not result.witnessed


def test_fip_ordinal_theorem_base():
    fb = ordinal_theorem_base(U, [(M4, E1), (E1, O2)])
    assert check_fip(fb).witnessed


def test_fip_fineness_with_weight():
    fb = FilterBase((fineness(nat(4)), weight(3)), universe=U)
    assert check_fip(fb).witnessed


def test_fip_fineness_with_strict_inclusion_order():
    fb = FilterBase((fineness(nat(0)), order_lt(M4, E1)), universe=U)
    assert check_fip(fb).witnessed


# ---------------------------------------------------------------------------
# Generic witness search


def test_find_witness_mixed_families():
    cs = [fineness(nat(5)), ratio(M4, E1, 2), interval(2), weight(2)]
    t = find_witness(cs, U, random.Random(11))
    assert t is not None
    assert all(constraint_membership(c, t, U.mode) for c in cs)


def test_find_witness_respects_window():
    window = [nat(i) for i in range(6)] + [pad(0), pad(1)]
    cs = [fineness(nat(2)), weight(2)]
    t = find_witness(cs, U, random.Random(3), window=window)
    assert t is not None
    allowed = {v.code for v in window}
    assert all(s.code in allowed for s in t)


def test_generate_witnesses_distinct_and_valid():
    cs = [fineness(nat(1)), weight(2)]
    ts = generate_witnesses(cs, U, random.Random(5), 6)
    assert len(ts) == 6
    assert len({frozenset(s.code for s in t) for t in ts}) == 6
    for t in ts:
        assert all(constraint_membership(c, t, U.mode) for c in cs)


def test_generate_witnesses_raises_when_starved():
    # a two-state window cannot hold six distinct witnesses
    cs = [fineness(nat(0))]
    with pytest.raises(ConstructionFailed):
        generate_witnesses(cs, U, random.Random(0), 6,
                           window=[nat(0), nat(1)])


# ---------------------------------------------------------------------------
# Superregularity construction


def test_superreg_single_pair_construction():
    w = superreg_witness([nat(0)], [(M4, E1, 2)])
    assert len(w) == 3
    fresh = [s for s in w if s != nat(0)]
    assert all(E1.membership(s) and not M4.membership(s) for s in fresh)
    assert 2 * w.count(M4) <= w.count(E1)


def test_superreg_disjoint_pins_stay_put():
    w = superreg_witness([pad(0), pad(1)], [(M4, E1, 2)])
    assert w == snapshot(pad(0), pad(1))


def test_superreg_nested_pairs():
    pairs = [(M4, E1, 3), (E1, O2, 3)]
    w = superreg_witness([nat(0)], pairs)
    for c in superreg_constraints(pairs, pins=[nat(0)]):
        assert constraint_membership(c, w, U.mode)
    assert 3 * w.count(M4) <= w.count(E1)
    assert 3 * w.count(E1) <= w.count(O2)


def test_superreg_constraints_shape():
    cs = superreg_constraints([(M4, E1, 2)], pins=[nat(4)])
    tags = sorted(c.tag for c in cs)
    assert tags == ["fineness", "ratio"]


def test_superreg_rejects_bad_inputs():
    with pytest.raises(ValueError):
        superreg_witness([], [(M4, E1, 0)])
    finite = class_from_values("tiny", [nat(0), nat(2)])
    with pytest.raises(WrongMode):
        superreg_witness([], [(finite, E1, 2)])
    with pytest.raises(WrongMode):
        superreg_witness([], [(E1, M4, 2)])


# ---------------------------------------------------------------------------
# Ordinal-theorem construction


def test_ordinal_witness_passes_all_four_checks():
    w = ordinal_witness(U, [nat(5)], k=2, l=2, m=2, pairs=[(M4, E1)])
    for c in (fineness(nat(5)), ratio(M4, E1, 2), interval(2), weight(2)):
        assert constraint_membership(c, w, U.mode)


def test_ordinal_witness_degenerate():
    w = ordinal_witness(U, [], k=1, l=1, m=1)
    assert constraint_membership(interval(1), w, U.mode)
    assert constraint_membership(weight(1), w, U.mode)
    ordinals = sum(1 for s in w if s.is_ordinal)
    assert ordinals >= 1 and len(w) >= 2 * ordinals


def test_ordinal_witness_no_pins_with_pair_stays_balanced():
    # The seed run for an empty pin set starts at 0, which lies in
    # mult4_t0; growth must still settle the ratio around it.
    reg = registry_classes(U)
    m4, e1 = reg["mult4_t0"], reg["even_t1"]
    for k in (1, 2, 3, 5):
        w = ordinal_witness(U, [], k=k, l=1, m=1, pairs=[(m4, e1)])
        assert constraint_membership(ratio(m4, e1, k), w, U.mode)
        assert constraint_membership(interval(1), w, U.mode)


def test_ordinal_witness_weight_is_exact():
    for m in (2, 3, 4):
        w = ordinal_witness(U, [nat(3)], k=2, l=2, m=m)
        on_count = sum(1 for s in w if s.is_ordinal)
        assert m * on_count <= len(w)


def test_ordinal_witness_rejects_bad_inputs():
    with pytest.raises(WrongMode):
        ordinal_witness(HF, [], k=1, l=1, m=1)
    with pytest.raises(ValueError):
        ordinal_witness(U, [], k=0, l=1, m=1)
    with pytest.raises(ValueError):
        ordinal_witness(U, [], k=1, l=0, m=1)
    with pytest.raises(ValueError):
        ordinal_witness(U, [], k=1, l=1, m=0)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.sets(st.integers(0, 40), max_size=3))
@settings(max_examples=25, deadline=None)
def test_ordinal_witness_property(k, l, m, pinset):
    pins = [nat(i) for i in sorted(pinset)]
    w = ordinal_witness(U, pins, k=k, l=l, m=m)
    for p in pins:
        assert p in w
    assert constraint_membership(interval(l), w, U.mode)
    assert constraint_membership(weight(m), w, U.mode)


# ---------------------------------------------------------------------------
# Power lift


def test_power_lift_wraps_order_pairs():
    c = power_lift(order_lt(M4, E1))
    assert c.tag == "order_lt"
    assert c.cls_a.meta.get("power_base") is M4
    assert c.cls_b.meta.get("power_base") is E1
    assert power_lift(order_ge(M4, E1)).tag == "order_ge"


def test_power_lift_rejects_other_kinds():
    with pytest.raises(ValueError):
        power_lift(fineness(nat(1)))


# ---------------------------------------------------------------------------
# Serialization


def test_constraint_text_round_trip():
    classes = {"mult4_t0": M4, "even_t1": E1}
    cases = [fineness(ord_value(1, 2)), ratio(M4, E1, 3), order_lt(M4, E1),
             order_ge(E1, M4), interval(2), weight(4),
             subset_bound([nat(0), pad(1)], 3), min_size(2),
             parametric_fineness(), parametric_ratio(M4, E1),
             parametric_interval(), parametric_weight()]
    for c in cases:
        text = constraint_to_text(c)
        back = constraint_from_text(text, classes)
        assert constraint_to_text(back) == text


def test_constraint_from_text_unknown_class():
    with pytest.raises(KeyError):
        constraint_from_text("ratio(nosuch,even_t1,k=2)", {"even_t1": E1})


def test_filter_base_round_trip():
    fb = FilterBase((parametric_fineness(), ratio(M4, E1, 2), weight(3)),
                    universe=U, window=(nat(0), nat(1), pad(0)),
                    provenance="test")
    text = filter_base_to_text(fb)
    back = filter_base_from_text(text, universe=U,
                                 classes={"mult4_t0": M4, "even_t1": E1})
    assert filter_base_to_text(back) == text
    assert back.window == fb.window
    assert back.provenance == fb.provenance
