"""Germ expressions, forcing verdicts, infinitesimal classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setprob import (
    APPROX_ZERO,
    FORCED,
    FORCED_NOT,
    UNDETERMINED,
    FilterBase,
    Snapshot,
    audit_verdict,
    class_from_predicate,
    class_from_values,
    class_of_set,
    classify_infinitesimal,
    compare,
    conditional_germ,
    const_germ,
    even_shift_permutation,
    expand_parametric,
    fineness,
    fineness_base,
    germ_arith,
    germ_of_event,
    identity_rv,
    interval,
    joint_germ,
    make_universe,
    much_less,
    nat,
    ord_value,
    order_ge,
    order_lt,
    ordinal_theorem_base,
    pad,
    parametric_ratio,
    ratio,
    set_verdict_recorder,
    snapshot,
    star_sum,
    weight,
)
from setprob import CardinalityTier, ORDINAL_MODE
from setprob.errors import DivisionUndefined

IDENT = identity_rv()
U = make_universe(ORDINAL_MODE, 3)
EVEN = U.builtin_class("Even")
ODD = U.builtin_class("Odd")
ON = U.builtin_class("On")
V = U.universe_class()


def _evens_of_block_zero():
    return class_from_predicate(
        "evens0",
        lambda v: v.is_ordinal and v.ord_parts[0] == 0 and v.ord_parts[1] % 2 == 0,
        lambda: (nat(2 * i) for i in range(10**9)),
        tier=CardinalityTier.infinite(0),
        subset_tags=("Even", "Nat", "On", "V"),
    )


# ---------------------------------------------------------------------------
# Evaluation


def test_event_germ_delegates_to_counting():
    g = germ_of_event(IDENT, EVEN)
    assert g.eval_at(snapshot(*[nat(i) for i in range(5)])) == Fraction(3, 5)
    assert germ_of_event(IDENT, V).eval_at(snapshot(pad(0), nat(1))) == 1


def test_singleton_event_germ():
    cls = class_from_values("just_w", [ord_value(1, 0)])
    g = germ_of_event(IDENT, cls)
    t = snapshot(nat(0), ord_value(1, 0), ord_value(1, 1))
    assert g.eval_at(t) == Fraction(1, 3)


def test_arith_identity_with_zero():
    g = germ_of_event(IDENT, EVEN)
    h = germ_arith("+", g, const_germ(0))
    for t in (snapshot(nat(0)), snapshot(nat(1), nat(2), pad(0))):
        assert h.eval_at(t) == g.eval_at(t)


def test_arith_additivity_even_plus_odd():
    total = germ_arith("+", germ_of_event(IDENT, EVEN), germ_of_event(IDENT, ODD))
    on = germ_of_event(IDENT, ON)
    for t in (snapshot(nat(0), nat(1)), snapshot(nat(2), pad(0), ord_value(1, 3))):
        assert total.eval_at(t) == on.eval_at(t)


def test_self_quotient_is_one_where_nonzero():
    g = germ_of_event(IDENT, EVEN)
    q = germ_arith("/", g, g)
    assert q.eval_at(snapshot(nat(0), nat(1))) == 1
    with pytest.raises(DivisionUndefined):
        q.eval_at(snapshot(nat(1), nat(3)))


def test_arith_rejects_unknown_op():
    with pytest.raises(ValueError):
        germ_arith("%", const_germ(1), const_germ(2))


def test_conditional_germ_on_everything():
    g = conditional_germ(IDENT, EVEN, IDENT, V)
    plain = germ_of_event(IDENT, EVEN)
    for t in (snapshot(nat(0), nat(1), pad(2)), snapshot(nat(4))):
        assert g.eval_at(t) == plain.eval_at(t)


def test_conditional_germ_among_ordinals():
    g = conditional_germ(IDENT, EVEN, IDENT, ON)
    t = snapshot(nat(0), nat(1), ord_value(1, 0), pad(0))
    assert g.eval_at(t) == Fraction(2, 3)


def test_conditional_germ_null_condition_is_division_error():
    g = conditional_germ(IDENT, EVEN, IDENT, ON)
    with pytest.raises(DivisionUndefined):
        g.eval_at(snapshot(pad(0), pad(1)))


def test_joint_germ_eval():
    pi = even_shift_permutation()
    g = joint_germ(IDENT, EVEN, pi, EVEN)
    assert g.eval_at(snapshot(*[nat(i) for i in range(4)])) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# Sums


def test_star_sum_empty_is_zero():
    g = star_sum([], index=[])
    assert g.eval_at(snapshot(nat(0))) == 0
    assert star_sum([]).eval_at(snapshot(nat(0))) == 0


def test_star_sum_partial_over_contained_indices():
    g = star_sum([1, 1, 1], index=[nat(1), nat(2), nat(3)])
    assert g.eval_at(snapshot(nat(1), nat(2), nat(3), nat(9))) == 3
    assert g.eval_at(snapshot(nat(2), nat(9))) == 1
    assert g.eval_at(snapshot(nat(9))) == 0


def test_star_sum_index_must_pair():
    with pytest.raises(ValueError):
        star_sum([1, 2], index=[nat(1)])


def test_star_sum_of_partition_germs_is_union_germ():
    parts = [class_from_values("p1", [nat(0), nat(3)]),
             class_from_values("p2", [nat(1)]),
             class_from_values("p3", [nat(4), nat(6)])]
    union = class_from_values("u", [nat(0), nat(1), nat(3), nat(4), nat(6)])
    summed = star_sum([germ_of_event(IDENT, p) for p in parts])
    direct = germ_of_event(IDENT, union)
    for t in (snapshot(nat(0), nat(1), nat(2)),
              snapshot(nat(3), nat(4), nat(5), nat(6), pad(0))):
        assert summed.eval_at(t) == direct.eval_at(t)


def test_germ_keys_distinguish_structures():
    a = germ_of_event(IDENT, EVEN)
    b = germ_of_event(IDENT, ODD)
    assert a.key() != b.key()
    assert star_sum([1], index=[nat(1)]).key() != star_sum([1]).key()
    assert germ_arith("+", a, b).key() == germ_arith("+", a, b).key()


# ---------------------------------------------------------------------------
# Field laws, pointwise

_leaves = st.sampled_from([
    germ_of_event(IDENT, EVEN),
    germ_of_event(IDENT, ODD),
    germ_of_event(IDENT, ON),
    const_germ(Fraction(1, 2)),
    const_germ(2),
])
_snaps = st.lists(
    st.one_of(st.builds(ord_value, st.integers(0, 2), st.integers(0, 12)),
              st.builds(pad, st.integers(0, 4))),
    min_size=1, max_size=6).map(Snapshot)


@given(_leaves, _leaves, _leaves, _snaps)
@settings(max_examples=60)
def test_field_laws_pointwise(f, g, h, t):
    add = lambda a, b: germ_arith("+", a, b)
    mul = lambda a, b: germ_arith("*", a, b)
    assert add(add(f, g), h).eval_at(t) == add(f, add(g, h)).eval_at(t)
    assert add(f, g).eval_at(t) == add(g, f).eval_at(t)
    assert mul(f, add(g, h)).eval_at(t) == add(mul(f, g), mul(f, h)).eval_at(t)
    assert germ_arith("-", f, f).eval_at(t) == 0


# ---------------------------------------------------------------------------
# Verdicts


def test_compare_constants_exactly():
    fb = fineness_base(U)
    assert compare(Fraction(1, 3), "lt", Fraction(1, 2), fb).status == FORCED
    assert compare(Fraction(1, 2), "lt", Fraction(1, 3), fb).status == FORCED_NOT


def test_compare_structural_equality():
    fb = fineness_base(U)
    g = germ_of_event(IDENT, EVEN)
    v = compare(g, "eq", germ_of_event(IDENT, EVEN), fb)
    assert v.status == FORCED and v.rule == "structural"
    assert compare(g, "lt", germ_of_event(IDENT, EVEN), fb).status == FORCED_NOT


def test_compare_subset_strict_with_fineness():
    fb = fineness_base(U)
    v = compare(germ_of_event(IDENT, _evens_of_block_zero()), "lt",
                germ_of_event(IDENT, EVEN), fb)
    assert v.status == FORCED
    assert v.rule == "subset-strict"
    assert len(v.citations) == 1 and v.citations[0].tag == "fineness"
    # the cited pin is even but outside block zero, e.g. a limit ordinal
    sep = v.citations[0].x
    assert EVEN.membership(sep) and not _evens_of_block_zero().membership(sep)


def test_compare_subset_lax_without_pins():
    # No fineness family, no pins: containment still settles `le`.
    fb = FilterBase((), universe=U)
    v = compare(germ_of_event(IDENT, _evens_of_block_zero()), "le",
                germ_of_event(IDENT, EVEN), fb)
    assert v.status == FORCED and v.rule == "subset-monotone"
    assert v.citations == ()


def test_compare_order_rule():
    a = class_from_values("a", [nat(1)])
    b = class_from_values("b", [nat(2)])
    fb = FilterBase((order_lt(a, b),), universe=U)
    v = compare(germ_of_event(IDENT, a), "lt", germ_of_event(IDENT, b), fb)
    assert v.status == FORCED and v.rule == "order"
    assert compare(germ_of_event(IDENT, a), "ge",
                   germ_of_event(IDENT, b), fb).status == FORCED_NOT


def test_compare_ratio_bound():
    evens0 = _evens_of_block_zero()
    fb = FilterBase((ratio(evens0, EVEN, 3),), universe=U)
    q = germ_arith("/", germ_of_event(IDENT, evens0), germ_of_event(IDENT, EVEN))
    v = compare(q, "le", Fraction(1, 3), fb)
    assert v.status == FORCED and v.rule == "ratio"
    assert compare(q, "le", Fraction(1, 2), fb).status == FORCED
    assert compare(q, "gt", Fraction(1, 3), fb).status == FORCED_NOT


def test_compare_weight_bound():
    fb = FilterBase((weight(4),), universe=U)
    v = compare(germ_of_event(IDENT, ON), "le", Fraction(1, 4), fb)
    assert v.status == FORCED and v.rule == "weight"
    # mirrored orientation decides the flipped statement too
    v2 = compare(Fraction(1, 4), "ge", germ_of_event(IDENT, ON), fb)
    assert v2.status == FORCED


def test_compare_sampling_never_forces():
    fb = fineness_base(U)
    v = compare(germ_of_event(IDENT, EVEN), "ge", Fraction(0), fb)
    assert v.status == UNDETERMINED
    assert v.rule == "sampled"
    assert "holds" in v.evidence


def test_compare_unknown_relation():
    with pytest.raises(ValueError):
        compare(const_germ(0), "spaceship", const_germ(1), fineness_base(U))


def test_verdict_recorder_sees_comparisons():
    seen = []
    set_verdict_recorder(lambda v, fb: seen.append(v.status))
    try:
        fb = fineness_base(U)
        compare(Fraction(0), "lt", Fraction(1), fb)
        compare(germ_of_event(IDENT, EVEN), "ge", Fraction(0), fb)
    finally:
        set_verdict_recorder(None)
    assert seen == [FORCED, UNDETERMINED]


def test_window_exhaustive_decides_small_spaces():
    window = [nat(0), nat(2), nat(4)]
    fb = FilterBase((), universe=U, window=tuple(window))
    v = compare(germ_of_event(IDENT, EVEN), "eq", const_germ(1), fb)
    assert v.status == FORCED and v.rule == "window-exhaustive"


def test_window_exhaustive_counts_each_snapshot_once():
    # A snapshot is a set: repeating states in the window adds no snapshot.
    plain = [nat(1), nat(2), nat(3)]
    evidence = []
    for window in (plain, plain + [nat(2), nat(2)]):
        fb = FilterBase((), universe=U, window=tuple(window))
        v = compare(germ_of_event(IDENT, EVEN), "le", Fraction(1, 2), fb)
        assert v.status == UNDETERMINED and v.rule == "window-exhaustive"
        evidence.append(v.evidence)
    assert evidence == [{"holds": 6, "fails": 1, "vacuous": 0}] * 2


def test_window_cap_counts_distinct_states():
    window = [nat(i) for i in range(14)] * 2
    fb = FilterBase((), universe=U, window=tuple(window))
    v = compare(germ_of_event(IDENT, EVEN), "le", Fraction(1, 2), fb, sample_count=0)
    assert v.rule == "window-exhaustive"
    assert sum(v.evidence.values()) == 2 ** 14 - 1


# ---------------------------------------------------------------------------
# Infinitesimal classification


def test_classify_constants():
    fb = fineness_base(U)
    assert classify_infinitesimal(const_germ(0), fb).status == APPROX_ZERO
    assert classify_infinitesimal(const_germ(Fraction(1, 2)), fb).status == \
        "not_approx_zero"


def test_classify_singleton_event_under_fineness():
    fb = fineness_base(U)
    cls = class_from_values("one", [nat(6)])
    result = classify_infinitesimal(germ_of_event(IDENT, cls), fb)
    assert result.approx_zero
    assert result.rule == "fineness-dilution"
    # cited pins all avoid the event, so they only dilute it
    assert all(c.x != nat(6) for c in result.sample_citations)


def test_classify_ordinal_mass_under_weight_family():
    fb = ordinal_theorem_base(U)
    result = classify_infinitesimal(germ_of_event(IDENT, ON), fb)
    assert result.approx_zero and result.rule == "weight-family"


def test_classify_limit_mass_under_interval_family():
    fb = ordinal_theorem_base(U)
    lim = U.builtin_class("Lim")
    result = classify_infinitesimal(conditional_germ(IDENT, lim, IDENT, ON), fb)
    assert result.approx_zero and result.rule == "interval-family"


def test_classify_ratio_family():
    evens0 = _evens_of_block_zero()
    fb = FilterBase((parametric_ratio(evens0, EVEN),), universe=U)
    q = germ_arith("/", germ_of_event(IDENT, evens0), germ_of_event(IDENT, EVEN))
    result = classify_infinitesimal(q, fb)
    assert result.approx_zero and result.rule == "ratio-family"
    assert result.sample_citations[0].param == result.sample_parameter


def test_classify_needs_parametric_family():
    evens0 = _evens_of_block_zero()
    fb = FilterBase((ratio(evens0, EVEN, 3),), universe=U)  # concrete only
    q = germ_arith("/", germ_of_event(IDENT, evens0), germ_of_event(IDENT, EVEN))
    assert classify_infinitesimal(q, fb).status == UNDETERMINED


def test_much_less_under_parametric_ratio():
    evens0 = _evens_of_block_zero()
    fb = FilterBase((parametric_ratio(evens0, EVEN),), universe=U)
    result = much_less(germ_of_event(IDENT, evens0), germ_of_event(IDENT, EVEN), fb)
    assert result.approx_zero


def test_much_less_of_equal_germs():
    fb = fineness_base(U)
    g = germ_of_event(IDENT, EVEN)
    assert much_less(g, g, fb).status == "not_approx_zero"


# ---------------------------------------------------------------------------
# Auditing


def test_audit_confirms_subset_strict():
    fb = fineness_base(U)
    v = compare(germ_of_event(IDENT, _evens_of_block_zero()), "lt",
                germ_of_event(IDENT, EVEN), fb)
    report = audit_verdict(v, fb, random.Random(7), witness_count=30)
    assert report.clean
    assert report.evaluated > 0
    assert report.requested == 30


def test_audit_rejects_undetermined():
    fb = fineness_base(U)
    v = compare(germ_of_event(IDENT, EVEN), "ge", Fraction(0), fb)
    with pytest.raises(ValueError):
        audit_verdict(v, fb, random.Random(0))


def test_audit_weight_claim_clean():
    fb = FilterBase((weight(2),), universe=U)
    v = compare(germ_of_event(IDENT, ON), "le", Fraction(1, 2), fb)
    assert v.status == FORCED
    report = audit_verdict(v, fb, random.Random(3), witness_count=20)
    assert report.clean


def test_antisym_leaves_abs_le_alone():
    # |Pr[Even]| <= Pr[Even] holds wherever Pr[Even] is defined; the
    # antisymmetry rule used to call it forced_not.
    fb = fineness_base(U)
    g = germ_of_event(IDENT, EVEN)
    v = compare(g, "abs_le", germ_of_event(IDENT, EVEN), fb)
    assert v.rule != "subset-antisym"
    if v.status != UNDETERMINED:
        assert audit_verdict(v, fb, random.Random(0), witness_count=50).clean


def test_value_list_ignores_declared_subset_tags():
    # A declares itself inside B, but their values are disjoint: at {o0.1}
    # Pr[A] is 1 and Pr[B] is 0, so `le` must not be forced.
    a = class_from_values("A", [ord_value(0, i) for i in (1, 2, 3)], subset_tags=["B"])
    b = class_from_values("B", [ord_value(0, 5)])
    assert a.is_subset_of(b) is False
    fb = ordinal_theorem_base(U)
    v = compare(germ_of_event(IDENT, a), "le", germ_of_event(IDENT, b), fb)
    assert v.status == UNDETERMINED
    assert class_from_values("C", [nat(2)], subset_tags=["D"]).is_subset_of(EVEN) is True


# ---------------------------------------------------------------------------
# Pinned compare table
#
# Each rule with a mirrored case (subset, order, the upper bounds) is asked
# both orientations of a pair under all seven relations, and every verdict's
# status, rule, citations and note must equal the literal recorded here.  A
# row left out of COMPARE_TABLE falls through to sampling.

_LIM = U.builtin_class("Lim")
_RELS = ("eq", "ne", "le", "lt", "ge", "gt", "abs_le")


def _compare_table_rows() -> dict[str, str]:
    evens0 = _evens_of_block_zero()
    order_bases = {
        "fineness": fineness_base(U),
        "pins": FilterBase((fineness(nat(1)), fineness(ord_value(1, 0))), universe=U),
        "lt-pair": FilterBase((order_lt(EVEN, ODD), order_lt(ODD, EVEN)), universe=U),
        "ge+lt": FilterBase((order_ge(EVEN, ODD), order_lt(ODD, EVEN)), universe=U),
        "ge-pair": FilterBase((order_ge(EVEN, ODD), order_ge(ODD, EVEN)), universe=U),
        "ge-rev": FilterBase((order_ge(ODD, EVEN),), universe=U),
    }
    bound_bases = {
        "theorem": ordinal_theorem_base(U, [(evens0, ODD)]),
        "concrete": FilterBase((ratio(evens0, ODD, 2), ratio(evens0, ODD, 4), weight(3),
                                weight(5), interval(2), fineness(nat(1))), universe=U),
    }
    events = [germ_of_event(IDENT, c) for c in (EVEN, ODD, evens0)]
    event_pairs = [(a, b) for a in events for b in events if a != b]
    on_cond = [conditional_germ(IDENT, c, IDENT, ON) for c in (_LIM, EVEN, ODD)]
    bounded = [germ_arith("/", events[2], events[1]), germ_of_event(IDENT, ON), events[2],
               on_cond[0], germ_arith("-", on_cond[1], on_cond[2])]
    third = const_germ(Fraction(1, 3))
    bound_pairs = [p for g in bounded for p in ((g, third), (third, g))]
    cases = [("fineness", order_bases["fineness"], [(events[0], events[0])])]
    cases += [(name, fb, event_pairs) for name, fb in order_bases.items()]
    cases += [(name, fb, bound_pairs) for name, fb in bound_bases.items()]
    rows = {}
    for name, fb, pairs in cases:
        for lg, rg in pairs:
            for rel in _RELS:
                v = compare(lg, rel, rg, fb, sample_count=0)
                cites = "; ".join(c.describe() for c in v.citations)
                rows[f"{name}: {lg.key()} {rel} {rg.key()}"] = \
                    f"{v.status} {v.rule} [{cites}] {v.note}"
    return rows


_SAMPLED_ROW = "undetermined sampled [] no citable rule applies; sampled evidence only"

COMPARE_TABLE = {
    "fineness: ev(identity:Even) eq ev(identity:Even)":
        "forced structural [] both sides are the same germ",
    "fineness: ev(identity:Even) ne ev(identity:Even)":
        "forced_not structural [] both sides are the same germ",
    "fineness: ev(identity:Even) le ev(identity:Even)":
        "forced structural [] both sides are the same germ",
    "fineness: ev(identity:Even) lt ev(identity:Even)":
        "forced_not structural [] both sides are the same germ",
    "fineness: ev(identity:Even) ge ev(identity:Even)":
        "forced structural [] both sides are the same germ",
    "fineness: ev(identity:Even) gt ev(identity:Even)":
        "forced_not structural [] both sides are the same germ",
    "fineness: ev(identity:Even) eq ev(identity:evens0)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:Even) ne ev(identity:evens0)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:Even) le ev(identity:evens0)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:Even) lt ev(identity:evens0)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "fineness: ev(identity:Even) ge ev(identity:evens0)":
        "forced subset-monotone [] evens0 is contained in Even",
    "fineness: ev(identity:Even) gt ev(identity:evens0)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:evens0) eq ev(identity:Even)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:evens0) ne ev(identity:Even)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:evens0) le ev(identity:Even)":
        "forced subset-monotone [] evens0 is contained in Even",
    "fineness: ev(identity:evens0) lt ev(identity:Even)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:evens0) ge ev(identity:Even)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "fineness: ev(identity:evens0) gt ev(identity:Even)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "pins: ev(identity:Even) eq ev(identity:evens0)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:Even) ne ev(identity:evens0)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:Even) le ev(identity:evens0)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:Even) lt ev(identity:evens0)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "pins: ev(identity:Even) ge ev(identity:evens0)":
        "forced subset-monotone [] evens0 is contained in Even",
    "pins: ev(identity:Even) gt ev(identity:evens0)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:evens0) eq ev(identity:Even)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:evens0) ne ev(identity:Even)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:evens0) le ev(identity:Even)":
        "forced subset-monotone [] evens0 is contained in Even",
    "pins: ev(identity:evens0) lt ev(identity:Even)":
        "forced subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:evens0) ge ev(identity:Even)":
        "forced_not subset-strict [fineness(o1.0)] w lies in Even but not evens0",
    "pins: ev(identity:evens0) gt ev(identity:Even)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "lt-pair: ev(identity:Even) eq ev(identity:Odd)":
        "forced_not order [order_lt(Even,Odd)] count order divides through by the "
        "snapshot size",
    "lt-pair: ev(identity:Even) ne ev(identity:Odd)":
        "forced order [order_lt(Even,Odd)] count order divides through by the snapshot "
        "size",
    "lt-pair: ev(identity:Even) le ev(identity:Odd)":
        "forced order [order_lt(Even,Odd)] count order divides through by the snapshot "
        "size",
    "lt-pair: ev(identity:Even) lt ev(identity:Odd)":
        "forced order [order_lt(Even,Odd)] count order divides through by the snapshot "
        "size",
    "lt-pair: ev(identity:Even) ge ev(identity:Odd)":
        "forced_not order [order_lt(Even,Odd)] count order divides through by the "
        "snapshot size",
    "lt-pair: ev(identity:Even) gt ev(identity:Odd)":
        "forced_not order [order_lt(Even,Odd)] count order divides through by the "
        "snapshot size",
    "lt-pair: ev(identity:Even) lt ev(identity:evens0)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "lt-pair: ev(identity:Even) ge ev(identity:evens0)":
        "forced subset-monotone [] evens0 is contained in Even",
    "lt-pair: ev(identity:Odd) eq ev(identity:Even)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "lt-pair: ev(identity:Odd) ne ev(identity:Even)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "lt-pair: ev(identity:Odd) le ev(identity:Even)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "lt-pair: ev(identity:Odd) lt ev(identity:Even)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "lt-pair: ev(identity:Odd) ge ev(identity:Even)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "lt-pair: ev(identity:Odd) gt ev(identity:Even)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "lt-pair: ev(identity:evens0) le ev(identity:Even)":
        "forced subset-monotone [] evens0 is contained in Even",
    "lt-pair: ev(identity:evens0) gt ev(identity:Even)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "ge+lt: ev(identity:Even) eq ev(identity:Odd)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge+lt: ev(identity:Even) ne ev(identity:Odd)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge+lt: ev(identity:Even) le ev(identity:Odd)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge+lt: ev(identity:Even) lt ev(identity:Odd)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge+lt: ev(identity:Even) ge ev(identity:Odd)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge+lt: ev(identity:Even) gt ev(identity:Odd)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge+lt: ev(identity:Even) lt ev(identity:evens0)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "ge+lt: ev(identity:Even) ge ev(identity:evens0)":
        "forced subset-monotone [] evens0 is contained in Even",
    "ge+lt: ev(identity:Odd) eq ev(identity:Even)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge+lt: ev(identity:Odd) ne ev(identity:Even)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge+lt: ev(identity:Odd) le ev(identity:Even)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge+lt: ev(identity:Odd) lt ev(identity:Even)":
        "forced order [order_lt(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge+lt: ev(identity:Odd) ge ev(identity:Even)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge+lt: ev(identity:Odd) gt ev(identity:Even)":
        "forced_not order [order_lt(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge+lt: ev(identity:evens0) le ev(identity:Even)":
        "forced subset-monotone [] evens0 is contained in Even",
    "ge+lt: ev(identity:evens0) gt ev(identity:Even)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "ge-pair: ev(identity:Even) eq ev(identity:Odd)":
        "forced order [order_ge(Even,Odd); order_ge(Odd,Even)] count order divides "
        "through by the snapshot size",
    "ge-pair: ev(identity:Even) ne ev(identity:Odd)":
        "forced_not order [order_ge(Even,Odd); order_ge(Odd,Even)] count order divides "
        "through by the snapshot size",
    "ge-pair: ev(identity:Even) le ev(identity:Odd)":
        "forced order [order_ge(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge-pair: ev(identity:Even) lt ev(identity:Odd)":
        "forced_not order [order_ge(Even,Odd)] count order divides through by the "
        "snapshot size",
    "ge-pair: ev(identity:Even) ge ev(identity:Odd)":
        "forced order [order_ge(Even,Odd)] count order divides through by the snapshot "
        "size",
    "ge-pair: ev(identity:Even) gt ev(identity:Odd)":
        "forced_not order [order_ge(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge-pair: ev(identity:Even) lt ev(identity:evens0)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "ge-pair: ev(identity:Even) ge ev(identity:evens0)":
        "forced subset-monotone [] evens0 is contained in Even",
    "ge-pair: ev(identity:Odd) eq ev(identity:Even)":
        "forced order [order_ge(Odd,Even); order_ge(Even,Odd)] count order divides "
        "through by the snapshot size",
    "ge-pair: ev(identity:Odd) ne ev(identity:Even)":
        "forced_not order [order_ge(Odd,Even); order_ge(Even,Odd)] count order divides "
        "through by the snapshot size",
    "ge-pair: ev(identity:Odd) le ev(identity:Even)":
        "forced order [order_ge(Even,Odd)] count order divides through by the snapshot "
        "size",
    "ge-pair: ev(identity:Odd) lt ev(identity:Even)":
        "forced_not order [order_ge(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge-pair: ev(identity:Odd) ge ev(identity:Even)":
        "forced order [order_ge(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge-pair: ev(identity:Odd) gt ev(identity:Even)":
        "forced_not order [order_ge(Even,Odd)] count order divides through by the "
        "snapshot size",
    "ge-pair: ev(identity:evens0) le ev(identity:Even)":
        "forced subset-monotone [] evens0 is contained in Even",
    "ge-pair: ev(identity:evens0) gt ev(identity:Even)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "ge-rev: ev(identity:Even) le ev(identity:Odd)":
        "forced order [order_ge(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge-rev: ev(identity:Even) gt ev(identity:Odd)":
        "forced_not order [order_ge(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge-rev: ev(identity:Even) lt ev(identity:evens0)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "ge-rev: ev(identity:Even) ge ev(identity:evens0)":
        "forced subset-monotone [] evens0 is contained in Even",
    "ge-rev: ev(identity:Odd) lt ev(identity:Even)":
        "forced_not order [order_ge(Odd,Even)] count order divides through by the "
        "snapshot size",
    "ge-rev: ev(identity:Odd) ge ev(identity:Even)":
        "forced order [order_ge(Odd,Even)] count order divides through by the snapshot "
        "size",
    "ge-rev: ev(identity:evens0) le ev(identity:Even)":
        "forced subset-monotone [] evens0 is contained in Even",
    "ge-rev: ev(identity:evens0) gt ev(identity:Even)":
        "forced_not subset-monotone [] evens0 is contained in Even",
    "theorem: (ev(identity:evens0)/ev(identity:Odd)) le q(1/3)":
        "forced ratio [ratio(evens0,Odd,k=3); fineness(o0.1)] |evens0 hits| stays within "
        "1/3 of |Odd hits|; the size factors cancel",
    "theorem: (ev(identity:evens0)/ev(identity:Odd)) gt q(1/3)":
        "forced_not ratio [ratio(evens0,Odd,k=3); fineness(o0.1)] |evens0 hits| stays "
        "within 1/3 of |Odd hits|; the size factors cancel",
    "theorem: (ev(identity:evens0)/ev(identity:Odd)) abs_le q(1/3)":
        "forced ratio [ratio(evens0,Odd,k=3); fineness(o0.1)] |evens0 hits| stays within "
        "1/3 of |Odd hits|; the size factors cancel",
    "theorem: q(1/3) lt (ev(identity:evens0)/ev(identity:Odd))":
        "forced_not ratio [ratio(evens0,Odd,k=3); fineness(o0.1)] |evens0 hits| stays "
        "within 1/3 of |Odd hits|; the size factors cancel",
    "theorem: q(1/3) ge (ev(identity:evens0)/ev(identity:Odd))":
        "forced ratio [ratio(evens0,Odd,k=3); fineness(o0.1)] |evens0 hits| stays within "
        "1/3 of |Odd hits|; the size factors cancel",
    "theorem: ev(identity:On) le q(1/3)":
        "forced weight [weight(m=3)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "theorem: ev(identity:On) gt q(1/3)":
        "forced_not weight [weight(m=3)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "theorem: ev(identity:On) abs_le q(1/3)":
        "forced weight [weight(m=3)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "theorem: q(1/3) lt ev(identity:On)":
        "forced_not weight [weight(m=3)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "theorem: q(1/3) ge ev(identity:On)":
        "forced weight [weight(m=3)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "theorem: ev(identity:evens0) le q(1/3)":
        "forced weight [weight(m=3)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "theorem: ev(identity:evens0) gt q(1/3)":
        "forced_not weight [weight(m=3)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "theorem: ev(identity:evens0) abs_le q(1/3)":
        "forced weight [weight(m=3)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "theorem: q(1/3) lt ev(identity:evens0)":
        "forced_not weight [weight(m=3)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "theorem: q(1/3) ge ev(identity:evens0)":
        "forced weight [weight(m=3)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "theorem: cd(identity:Lim|identity:On) le q(1/3)":
        "forced interval-limit [interval(l=3); fineness(o0.0)] each ordinal run admits at"
        " most one limit point and runs have more than l states",
    "theorem: cd(identity:Lim|identity:On) gt q(1/3)":
        "forced_not interval-limit [interval(l=3); fineness(o0.0)] each ordinal run "
        "admits at most one limit point and runs have more than l states",
    "theorem: cd(identity:Lim|identity:On) abs_le q(1/3)":
        "forced interval-limit [interval(l=3); fineness(o0.0)] each ordinal run admits at"
        " most one limit point and runs have more than l states",
    "theorem: q(1/3) lt cd(identity:Lim|identity:On)":
        "forced_not interval-limit [interval(l=3); fineness(o0.0)] each ordinal run "
        "admits at most one limit point and runs have more than l states",
    "theorem: q(1/3) ge cd(identity:Lim|identity:On)":
        "forced interval-limit [interval(l=3); fineness(o0.0)] each ordinal run admits at"
        " most one limit point and runs have more than l states",
    "theorem: (cd(identity:Even|identity:On)-cd(identity:Odd|identity:On)) abs_le q(1/3)":
        "forced interval-parity [interval(l=3); fineness(o0.0)] parities alternate inside"
        " each run, so the imbalance is at most one state per run",
    "concrete: (ev(identity:evens0)/ev(identity:Odd)) eq q(1/3)":
        "forced_not ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays "
        "within 1/4 of |Odd hits|; the size factors cancel",
    "concrete: (ev(identity:evens0)/ev(identity:Odd)) ne q(1/3)":
        "forced ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays within "
        "1/4 of |Odd hits|; the size factors cancel",
    "concrete: (ev(identity:evens0)/ev(identity:Odd)) le q(1/3)":
        "forced ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays within "
        "1/4 of |Odd hits|; the size factors cancel",
    "concrete: (ev(identity:evens0)/ev(identity:Odd)) lt q(1/3)":
        "forced ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays within "
        "1/4 of |Odd hits|; the size factors cancel",
    "concrete: (ev(identity:evens0)/ev(identity:Odd)) ge q(1/3)":
        "forced_not ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays "
        "within 1/4 of |Odd hits|; the size factors cancel",
    "concrete: (ev(identity:evens0)/ev(identity:Odd)) gt q(1/3)":
        "forced_not ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays "
        "within 1/4 of |Odd hits|; the size factors cancel",
    "concrete: (ev(identity:evens0)/ev(identity:Odd)) abs_le q(1/3)":
        "forced ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays within "
        "1/4 of |Odd hits|; the size factors cancel",
    "concrete: q(1/3) eq (ev(identity:evens0)/ev(identity:Odd))":
        "forced_not ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays "
        "within 1/4 of |Odd hits|; the size factors cancel",
    "concrete: q(1/3) ne (ev(identity:evens0)/ev(identity:Odd))":
        "forced ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays within "
        "1/4 of |Odd hits|; the size factors cancel",
    "concrete: q(1/3) le (ev(identity:evens0)/ev(identity:Odd))":
        "forced_not ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays "
        "within 1/4 of |Odd hits|; the size factors cancel",
    "concrete: q(1/3) lt (ev(identity:evens0)/ev(identity:Odd))":
        "forced_not ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays "
        "within 1/4 of |Odd hits|; the size factors cancel",
    "concrete: q(1/3) ge (ev(identity:evens0)/ev(identity:Odd))":
        "forced ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays within "
        "1/4 of |Odd hits|; the size factors cancel",
    "concrete: q(1/3) gt (ev(identity:evens0)/ev(identity:Odd))":
        "forced ratio [ratio(evens0,Odd,k=4); fineness(o0.1)] |evens0 hits| stays within "
        "1/4 of |Odd hits|; the size factors cancel",
    "concrete: ev(identity:On) eq q(1/3)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "concrete: ev(identity:On) ne q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "concrete: ev(identity:On) le q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "concrete: ev(identity:On) lt q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "concrete: ev(identity:On) ge q(1/3)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "concrete: ev(identity:On) gt q(1/3)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "concrete: ev(identity:On) abs_le q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "concrete: q(1/3) eq ev(identity:On)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "concrete: q(1/3) ne ev(identity:On)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "concrete: q(1/3) le ev(identity:On)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "concrete: q(1/3) lt ev(identity:On)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot",
    "concrete: q(1/3) ge ev(identity:On)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "concrete: q(1/3) gt ev(identity:On)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot",
    "concrete: ev(identity:evens0) eq q(1/3)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "concrete: ev(identity:evens0) ne q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "concrete: ev(identity:evens0) le q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "concrete: ev(identity:evens0) lt q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "concrete: ev(identity:evens0) ge q(1/3)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "concrete: ev(identity:evens0) gt q(1/3)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "concrete: ev(identity:evens0) abs_le q(1/3)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "concrete: q(1/3) eq ev(identity:evens0)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "concrete: q(1/3) ne ev(identity:evens0)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "concrete: q(1/3) le ev(identity:evens0)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "concrete: q(1/3) lt ev(identity:evens0)":
        "forced_not weight [weight(m=5)] ordinal states carry at most 1/m of any admitted"
        " snapshot; evens0 sits inside On",
    "concrete: q(1/3) ge ev(identity:evens0)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
    "concrete: q(1/3) gt ev(identity:evens0)":
        "forced weight [weight(m=5)] ordinal states carry at most 1/m of any admitted "
        "snapshot; evens0 sits inside On",
}


def test_compare_table_is_pinned():
    rows = _compare_table_rows()
    assert set(COMPARE_TABLE) <= set(rows)
    assert {k: v for k, v in rows.items() if v != _SAMPLED_ROW} == COMPARE_TABLE
