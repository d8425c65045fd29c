"""Germ expressions, forcing verdicts, infinitesimal classification."""

import random
import zlib
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setprob import (
    APPROX_ZERO,
    FORCED,
    FORCED_NOT,
    UNDETERMINED,
    FilterBase,
    RandomVariable,
    Snapshot,
    Verdict,
    audit_verdict,
    class_from_values,
    class_of_set,
    classify_infinitesimal,
    compare,
    conditional_germ,
    const_germ,
    constraint_membership,
    even_shift_permutation,
    expand_base,
    expand_parametric,
    find_witness,
    fineness,
    fineness_base,
    generate_witnesses,
    germ_arith,
    germ_of_event,
    hf_set,
    identity_rv,
    interval,
    joint_germ,
    make_universe,
    nat,
    ord_value,
    order_ge,
    order_lt,
    ordinal_theorem_base,
    pad,
    parametric_interval,
    parametric_ratio,
    parametric_weight,
    ratio,
    set_verdict_recorder,
    snapshot,
    star_sum,
    table_rv,
    translate_class,
    weight,
)
from setprob import CardinalityTier, ClassSpec, HF_MODE, ORDINAL_MODE
from setprob.cli import registry_classes
from setprob.errors import ConditionNull, DivisionUndefined, EmptySnapshot
from setprob.germs import eval_relation

IDENT = identity_rv()
U = make_universe(ORDINAL_MODE, 3)
EVEN = U.builtin_class("Even")
ODD = U.builtin_class("Odd")
ON = U.builtin_class("On")
V = U.universe_class()


def _evens_of_block_zero():
    return ClassSpec(
        "evens0",
        lambda v: v.is_ordinal and v.ord_parts[0] == 0 and v.ord_parts[1] % 2 == 0,
        lambda: (nat(2 * i) for i in range(10**9)),
        CardinalityTier.infinite(0),
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


def test_conditional_germ_at_the_empty_snapshot_is_an_error():
    with pytest.raises(EmptySnapshot):
        conditional_germ(IDENT, EVEN, IDENT, ON).eval_at(Snapshot(()))


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


def test_star_sum_describes_its_terms():
    terms = [germ_of_event(IDENT, EVEN), Fraction(1, 2)]
    assert star_sum(terms).describe() == "(Pr[identity in Even] (+) 1/2)"
    assert star_sum(terms, index=[nat(1), nat(2)]).describe() == \
        "partial-sum(1:Pr[identity in Even], 2:1/2)"


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
@settings(max_examples=60, derandomize=True)
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
    # true, then false, at every sampled witness: still undetermined
    for rel, evidence in (("ge", (10, 0, 0)), ("lt", (0, 10, 0))):
        v = compare(germ_of_event(IDENT, EVEN), rel, Fraction(0), fb)
        assert v.status == UNDETERMINED
        assert v.rule == "sampled"
        assert (v.evidence["holds"], v.evidence["fails"], v.evidence["vacuous"]) == evidence


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


def test_window_past_the_cap_is_sampled():
    fb = FilterBase((), universe=U, window=tuple(nat(i) for i in range(15)))
    v = compare(germ_of_event(IDENT, EVEN), "le", const_germ(1), fb)
    assert (v.status, v.rule) == (UNDETERMINED, "sampled")


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


# One compile per audit: `audit_verdict` and sampled compares judge every
# witness on one Snapshot of all the witnesses' states.  The references
# below evaluate each witness on its own with `eval_at`.


def _outcome(lg, rel, rg, w):
    """The relation at w, or the class of the error that leaves it vacuous."""
    try:
        return eval_relation(rel, lg.eval_at(w), rg.eval_at(w))
    except (ConditionNull, DivisionUndefined, EmptySnapshot) as exc:
        return type(exc)


def _hand_verdict(status, lg, rel, rg, fb):
    return Verdict(status, rel, lg, rg, rule="by-hand", citations=fb.constraints)


_PADDED = FilterBase((fineness(pad(0)),), universe=U)
_HFU = make_universe(HF_MODE, 4)
_R3 = list(islice(_HFU.level_members(3), 6))
_HA, _HB = class_of_set(hf_set(_R3[:3])), class_of_set(hf_set(_R3[2:5]))
_HF_ORDER = FilterBase((order_lt(_HA, _HB),), universe=_HFU)
_ODDS_PER_EVEN = germ_arith("/", germ_of_event(IDENT, ODD), germ_of_event(IDENT, EVEN))
_LIM_BY_NAME = class_from_values("Lim", [nat(1), nat(2), nat(3)])

_AUDITED = {
    "holds": lambda: (compare(germ_of_event(IDENT, _evens_of_block_zero()), "lt",
                              germ_of_event(IDENT, EVEN), fineness_base(U)),
                      fineness_base(U)),
    "hf-order": lambda: (compare(germ_of_event(IDENT, _HA), "lt",
                                 germ_of_event(IDENT, _HB), _HF_ORDER), _HF_ORDER),
    # a value class named Lim, forced by its name: false on every witness
    "lim-by-name": lambda: (
        compare(conditional_germ(IDENT, _LIM_BY_NAME, IDENT, ON), "le",
                Fraction(1, 3), ordinal_theorem_base(U)), ordinal_theorem_base(U)),
    "condition-null": lambda: (_hand_verdict(
        FORCED, conditional_germ(IDENT, EVEN, IDENT, EVEN), "eq", const_germ(1),
        _PADDED), _PADDED),
    "division-undefined": lambda: (_hand_verdict(
        FORCED, _ODDS_PER_EVEN, "le", const_germ(Fraction(1, 2)), _PADDED), _PADDED),
    "forced-not": lambda: (_hand_verdict(
        FORCED_NOT, conditional_germ(IDENT, EVEN, IDENT, ON), "gt",
        const_germ(Fraction(1, 2)), _PADDED), _PADDED),
    # p0 is in every witness, o0.2 in a few
    "indexed-sum": lambda: (_hand_verdict(
        FORCED, star_sum([germ_of_event(IDENT, EVEN), 1], index=[pad(0), nat(2)]),
        "le", const_germ(1), _PADDED), _PADDED),
}


@pytest.mark.parametrize("case", sorted(_AUDITED))
def test_audit_judges_each_witness_as_eval_at_does(case):
    v, fb = _AUDITED[case]()
    assert v.status != UNDETERMINED
    report = audit_verdict(v, fb, random.Random(0), witness_count=50)
    witnesses = generate_witnesses(list(v.citations), fb.universe, random.Random(0),
                                   50, window=fb.window, max_size=fb.max_size)
    outcomes = [_outcome(v.lhs, v.relation, v.rhs, w) for w in witnesses]
    held = [None if isinstance(o, type) else o for o in outcomes]
    failures = tuple(w for w, h in zip(witnesses, held)
                     if h is not None and h != (v.status == FORCED))
    assert (report.requested, report.evaluated, report.vacuous) == \
        (50, 50 - held.count(None), held.count(None))
    assert report.failures == failures
    expected = {
        "holds": (50, 0, 0), "hf-order": (50, 0, 0), "lim-by-name": (50, 0, 50),
    }
    if case in expected:
        assert (report.evaluated, report.vacuous, len(report.failures)) == expected[case]
    elif case == "condition-null":
        assert ConditionNull in outcomes and report.evaluated and not failures
    elif case == "division-undefined":
        assert DivisionUndefined in outcomes and ConditionNull not in outcomes
        assert report.evaluated > len(failures) > 0
    elif case == "forced-not":
        assert ConditionNull in outcomes and report.evaluated > len(failures) > 0
    else:
        assert report.evaluated > len(failures) > 0


_SAMPLED = {
    "fineness": (germ_of_event(IDENT, EVEN), "le", Fraction(1, 2), fineness_base(U)),
    "condition-null": (conditional_germ(IDENT, EVEN, IDENT, ODD), "le",
                       Fraction(1, 2), FilterBase((), universe=U)),
    "division-undefined": (_ODDS_PER_EVEN, "le", Fraction(1, 2),
                           FilterBase((), universe=U)),
    "holds-and-fails": (_ODDS_PER_EVEN, "le", Fraction(1, 2), fineness_base(U)),
}


@pytest.mark.parametrize("case", sorted(_SAMPLED))
def test_sampled_evidence_counts_each_witness_as_eval_at_does(case):
    lg, rel, q, fb = _SAMPLED[case]
    rg = const_germ(q)
    v = compare(lg, rel, rg, fb, sample_count=30)
    assert (v.status, v.rule) == (UNDETERMINED, "sampled")
    rng = random.Random(zlib.crc32(f"{lg.key()}|{rel}|{rg.key()}".encode()))
    outcomes = []
    for _ in range(30):
        w = find_witness(expand_base(fb), fb.universe, rng=rng, window=fb.window,
                         max_size=fb.max_size, decorate=rng.randrange(0, 5))
        if w is None:
            break
        outcomes.append(_outcome(lg, rel, rg, w))
    vacuous = sum(isinstance(o, type) for o in outcomes)
    assert v.evidence == {"holds": outcomes.count(True), "fails": outcomes.count(False),
                          "vacuous": vacuous}
    assert sum(v.evidence.values()) == 30
    if case == "holds-and-fails":
        assert v.evidence["holds"] and v.evidence["fails"]
    elif case != "fineness":
        vacuous_by = {"condition-null": ConditionNull,
                      "division-undefined": DivisionUndefined}[case]
        assert vacuous_by in outcomes


def test_antisym_forces_equal_value_classes():
    # two classes with the same values, listed in another order
    a = class_from_values("A", [ord_value(0, 1), ord_value(0, 2)])
    b = class_from_values("B", [ord_value(0, 2), ord_value(0, 1)])
    fb = fineness_base(U)
    for rel, status in (("eq", FORCED), ("lt", FORCED_NOT)):
        v = compare(germ_of_event(IDENT, a), rel, germ_of_event(IDENT, b), fb)
        assert (v.status, v.rule) == (status, "subset-antisym")


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


U2 = make_universe(ORDINAL_MODE, 2)
LYING = CardinalityTier.finite(1)


@pytest.mark.parametrize("small, rel, big", [
    # the even naturals declare one member: at {o0.2} Pr[R] is 1, Pr[B] 0
    (U2.residue_class("R", 2, 0, 0, LYING), "eq", class_from_values("B", [nat(0)])),
    # T = A + 1 = {2, 4} inherits A's one-member tier; B = {2}
    (translate_class(class_from_values("A", [nat(1), nat(3)], tier=LYING), nat(1),
                     name="T"),
     "le", class_from_values("B", [nat(2)])),
], ids=["residue", "translate"])
def test_declared_finite_tier_is_checked_before_containment(small, rel, big):
    # Read from the stream cut at the declared size, each class once
    # seemed to contain B's values and no more, and subset-antisym forced
    # an equality that fails on snapshots holding the uncounted members.
    assert small.is_subset_of(big) is None
    fb = fineness_base(U2)
    v = compare(germ_of_event(IDENT, small), rel, germ_of_event(IDENT, big), fb)
    assert (v.status, v.rule) == (FORCED_NOT, "subset-strict")
    assert audit_verdict(v, fb, random.Random(0), witness_count=50).clean


def test_dilution_declines_a_class_larger_than_its_tier():
    fb = fineness_base(U)
    lying = class_from_values("two", [nat(6), nat(8)], tier=CardinalityTier.finite(1))
    assert classify_infinitesimal(germ_of_event(IDENT, lying), fb).rule != \
        "fineness-dilution"


def test_weight_rule_ignores_a_value_list_declared_inside_on():
    # P holds two pads but declares itself inside On: at {p0} Pr[P] is 1
    # and the weight constraint holds with no ordinals, so `le 1/3` must
    # not be forced by `weight`.
    p = class_from_values("P", [pad(0), pad(1)], subset_tags=["On"])
    fb = ordinal_theorem_base(U)
    v = compare(germ_of_event(IDENT, p), "le", const_germ(Fraction(1, 3)), fb)
    assert v.rule != "weight"
    if v.status != UNDETERMINED:
        assert audit_verdict(v, fb, random.Random(0), witness_count=50).clean
    # a declaration the values bear out still counts
    on_values = class_from_values("Q", [ord_value(0, 1), ord_value(0, 2)],
                                  subset_tags=["On"])
    v = compare(germ_of_event(IDENT, on_values), "le", const_germ(Fraction(1, 2)), fb)
    assert (v.status, v.rule) == (FORCED, "weight")


def test_a_table_named_identity_is_not_the_identity():
    # The table swaps p0, p1, p2 with o0.0, o0.1, o0.2.  Read by its name,
    # it counted as the identity and `weight` forced Pr[identity in On]
    # <= 1/3, which failed on 7 of 50 audit witnesses (seed 0): weight
    # admits {o0.15, p1, p4, p51}, where p1 goes to o0.1 and Pr is 1/2.
    swap = {}
    for i in range(3):
        swap[pad(i)], swap[nat(i)] = nat(i), pad(i)
    named = table_rv(swap, "identity")
    fb = fineness_base(U).with_constraints([weight(3)])
    on = U.builtin_class("On")
    v = compare(germ_of_event(named, on), "le", const_germ(Fraction(1, 3)), fb)
    assert v.status != FORCED and v.rule != "weight"
    v = compare(germ_of_event(IDENT, on), "le", const_germ(Fraction(1, 3)), fb)
    assert (v.status, v.rule) == (FORCED, "weight")
    assert audit_verdict(v, fb, random.Random(0), witness_count=50).clean


def test_value_classes_named_even_and_odd_are_not_the_builtins():
    # Read by name, `interval-parity` forced |Pr[Even|On] - Pr[Odd|On]| <=
    # 1/3 for value classes Even = {o0.1, o0.3, ..., o0.11} and Odd = {o0.0},
    # citing interval(l=3) and fineness(o0.0).  The snapshot o0.0..o0.11
    # lies in both and gives 5/12; 50 audit witnesses (seed 0) miss it.
    reg = registry_classes(U)
    fb = ordinal_theorem_base(U, [(reg["mult4_t0"], reg["even_t1"]),
                                  (reg["even_t1"], reg["ord_t2"])])

    def parity(even, odd):
        return germ_arith("-", conditional_germ(IDENT, even, IDENT, ON),
                          conditional_germ(IDENT, odd, IDENT, ON))

    even = class_from_values("Even", [nat(b) for b in range(1, 12, 2)])
    odd = class_from_values("Odd", [nat(0)])
    v = compare(parity(even, odd), "abs_le", Fraction(1, 3), fb)
    assert (v.status, v.rule) == (UNDETERMINED, "sampled")
    w = snapshot(*[nat(b) for b in range(12)])
    assert all(constraint_membership(c, w) for c in (interval(3), fineness(nat(0))))
    assert parity(even, odd).eval_at(w) == Fraction(5, 12)
    v = compare(parity(EVEN, ODD), "abs_le", Fraction(1, 3), fb)
    assert (v.status, v.rule) == (FORCED, "interval-parity")
    assert [c.describe() for c in v.citations] == ["interval(l=3)", "fineness(o0.0)"]


def test_a_class_named_on_is_not_the_builtin():
    # Read by name, `weight` bounded any class called On by 1/m, and
    # `interval-limit` took it as the condition of Pr[Lim | On].  This On
    # holds the pads: at {p0}, which weight(3) admits, Pr[On] is 1.
    pads = ClassSpec("On", lambda v: not v.is_ordinal,
                     lambda: (pad(i) for i in range(10**9)),
                     CardinalityTier.infinite(0))
    fb = fineness_base(U).with_constraints([weight(3), interval(3)])
    v = compare(germ_of_event(IDENT, pads), "le", Fraction(1, 3), fb)
    assert v.status != FORCED and v.rule != "weight"
    assert germ_of_event(IDENT, pads).eval_at(snapshot(pad(0))) == 1
    lim = conditional_germ(IDENT, _LIM, IDENT, pads)
    assert compare(lim, "le", Fraction(1, 3), fb).rule != "interval-limit"
    assert compare(germ_of_event(IDENT, ON), "le", Fraction(1, 3), fb).rule == "weight"
    lim = conditional_germ(IDENT, _LIM, IDENT, ON)
    assert compare(lim, "le", Fraction(1, 3), fb).rule == "interval-limit"


# Classes and variables are compared as objects.  In each case below two
# distinct value classes share one name; read by name, a rule forced a
# claim that a snapshot in the cited intersection refutes.


def test_same_named_classes_are_not_one_germ():
    # `structural` forced Pr[A] eq Pr[A'], and the audit (seed 0) found 4
    # of 50 failures: at {o0.1}, which fineness(o0.1) admits, they are 1
    # and 0.
    a, twin = class_from_values("A", [nat(1)]), class_from_values("A", [nat(2)])
    lhs, rhs = germ_of_event(IDENT, a), germ_of_event(IDENT, twin)
    assert lhs.key() == rhs.key() and lhs != rhs
    fb = FilterBase((fineness(nat(1)),), universe=U2)
    v = compare(lhs, "eq", rhs, fb)
    assert (v.status, v.rule) == (UNDETERMINED, "sampled")
    w = snapshot(nat(1))
    assert constraint_membership(fineness(nat(1)), w)
    assert (lhs.eval_at(w), rhs.eval_at(w)) == (1, 0)
    assert compare(lhs, "eq", germ_of_event(IDENT, a), fb).rule == "structural"


def test_same_named_classes_do_not_cancel():
    # `cancellation` called Pr[A] - Pr[A'] approx_zero, and `self-quotient`
    # called Pr[A] / Pr[A'] constantly 1.
    a, twin = class_from_values("A", [nat(1)]), class_from_values("A", [nat(2)])
    lhs, rhs = germ_of_event(IDENT, a), germ_of_event(IDENT, twin)
    fb = fineness_base(U2)
    for op in ("-", "/"):
        assert classify_infinitesimal(germ_arith(op, lhs, rhs), fb).status == UNDETERMINED
    same = germ_of_event(IDENT, a)
    assert classify_infinitesimal(germ_arith("-", lhs, same), fb).rule == "cancellation"
    assert classify_infinitesimal(germ_arith("/", lhs, same), fb).rule == "self-quotient"


def test_a_ratio_bound_holds_only_for_the_class_it_names():
    # ratio(B, Even, k=3) bounds Pr[B]/Pr[Even]; `ratio` also forced it for
    # B' = {o0.1, o0.3, o0.5}, and the audit found 1 failure in 27
    # evaluated: at {o0.1, o0.2} the quotient is 1.
    b = class_from_values("B", [nat(0)])
    twin = class_from_values("B", [nat(1), nat(3), nat(5)])
    even = U2.builtin_class("Even")
    fb = FilterBase((ratio(b, even, 3), fineness(nat(1))), universe=U2)
    quotient = germ_arith("/", germ_of_event(IDENT, twin), germ_of_event(IDENT, even))
    v = compare(quotient, "le", Fraction(1, 3), fb)
    assert (v.status, v.rule) == (UNDETERMINED, "sampled")
    w = snapshot(nat(1), nat(2))
    assert all(constraint_membership(c, w) for c in fb.constraints)
    assert quotient.eval_at(w) == 1
    named = germ_arith("/", germ_of_event(IDENT, b), germ_of_event(IDENT, even))
    assert compare(named, "le", Fraction(1, 3), fb).rule == "ratio"


def test_rebuilt_shared_objects_keep_their_verdicts():
    # identity_rv() and builtin_class give one object per call site, so
    # sides built apart still meet the object tests of the rules.
    fb = fineness_base(U2)
    v = compare(germ_of_event(identity_rv(), U2.builtin_class("Even")), "le",
                germ_of_event(identity_rv(), U2.builtin_class("On")), fb)
    assert (v.status, v.rule) == (FORCED, "subset-monotone")
    v = compare(germ_of_event(IDENT, U2.builtin_class("Even")), "eq",
                germ_of_event(IDENT, U2.builtin_class("Even")), fb)
    assert (v.status, v.rule) == (FORCED, "structural")
    # a variable built apart is another variable, whatever its kind
    other = RandomVariable("identity", "identity", lambda x: x, lambda y: y, True)
    v = compare(germ_of_event(IDENT, U2.builtin_class("Even")), "le",
                germ_of_event(other, U2.builtin_class("On")), fb)
    assert v.status == UNDETERMINED


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


# ---------------------------------------------------------------------------
# Pinned classification table
#
# Twelve germs over six bases, plus one HF row.  The bases hold the
# families alone; the families beside concrete ratio, weight and interval
# constraints and fineness pins (a concrete constraint bounds one k, so
# the family is still cited at the sample parameter, with the base's own
# pin as completion); the concrete constraints alone; the families over a
# window; the families with no universe; and the fineness family alone.

_HF = make_universe(HF_MODE, 4)


def _classify_table_rows() -> dict[str, str]:
    evens0 = _evens_of_block_zero()
    one = class_from_values("one", [nat(6)])
    families = [parametric_ratio(evens0, ODD), parametric_interval(), parametric_weight()]
    concrete = [ratio(evens0, ODD, 5), weight(7), interval(9), fineness(nat(1)),
                fineness(ord_value(1, 0))]
    theorem = ordinal_theorem_base(U, [(evens0, ODD)])
    window = [nat(i) for i in range(8)] + [ord_value(1, 0), pad(0), pad(1)]
    bases = {
        "families": theorem,
        "families+concrete": theorem.with_constraints(concrete),
        "concrete": FilterBase(tuple(concrete), universe=U),
        "window": fineness_base(U, window).with_constraints(families),
        "no-universe": FilterBase(theorem.constraints),
        "fineness": fineness_base(U),
    }
    events = {c: germ_of_event(IDENT, c) for c in (EVEN, ODD, ON, evens0, one)}
    germs = [
        const_germ(0), const_germ(Fraction(1, 2)),
        germ_arith("/", events[evens0], events[ODD]),
        germ_arith("/", events[ODD], events[evens0]),
        events[ON], events[evens0], events[one],
        conditional_germ(IDENT, _LIM, IDENT, ON),
        conditional_germ(IDENT, EVEN, IDENT, ON),
        germ_arith("-", events[EVEN], events[EVEN]),
        germ_arith("/", events[EVEN], events[EVEN]),
        germ_of_event(even_shift_permutation(), ON),
    ]
    cases = [(name, fb, g) for name, fb in bases.items() for g in germs]
    hf_pair = class_of_set(hf_set(list(islice(_HF.enumerate_universe(), 1, 3))))
    cases.append(("hf-fineness", fineness_base(_HF), germ_of_event(IDENT, hf_pair)))
    rows = {}
    for name, fb, g in cases:
        c = classify_infinitesimal(g, fb)
        cites = "; ".join(x.describe() for x in c.sample_citations)
        rows[f"{name}: {g.key()}"] = \
            f"{c.status} {c.rule} k={c.sample_parameter} [{cites}] {c.note}"
    return rows


CLASSIFY_TABLE = {
    "families: q(0)":
        "approx_zero zero k=None [] the zero constant is below every 1/k",
    "families: q(1/2)":
        "not_approx_zero rational k=None [] |1/2| exceeds 1/k for large k",
    "families: (ev(identity:evens0)/ev(identity:Odd))":
        "approx_zero ratio-family k=3 [ratio(evens0,Odd,k=3); fineness(o0.1)] each k "
        "is carried by the ratio constraint at that k",
    "families: (ev(identity:Odd)/ev(identity:evens0))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "families: ev(identity:On)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "families: ev(identity:evens0)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "families: ev(identity:one)":
        "approx_zero fineness-dilution k=3 [fineness(o0.0); fineness(p0); "
        "fineness(o0.1)] one meets at most 1 states, while pinned snapshots grow "
        "without bound",
    "families: cd(identity:Lim|identity:On)":
        "approx_zero interval-family k=3 [interval(l=3); fineness(o0.0)] limit mass "
        "under On shrinks below 1/l for every l",
    "families: cd(identity:Even|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "families: (ev(identity:Even)-ev(identity:Even))":
        "approx_zero cancellation k=None [] the difference vanishes wherever defined",
    "families: (ev(identity:Even)/ev(identity:Even))":
        "not_approx_zero self-quotient k=None [] the quotient is 1 wherever it is "
        "defined",
    "families: ev(even-shift:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "families+concrete: q(0)":
        "approx_zero zero k=None [] the zero constant is below every 1/k",
    "families+concrete: q(1/2)":
        "not_approx_zero rational k=None [] |1/2| exceeds 1/k for large k",
    "families+concrete: (ev(identity:evens0)/ev(identity:Odd))":
        "approx_zero ratio-family k=3 [ratio(evens0,Odd,k=3); fineness(o0.1)] each k "
        "is carried by the ratio constraint at that k",
    "families+concrete: (ev(identity:Odd)/ev(identity:evens0))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "families+concrete: ev(identity:On)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "families+concrete: ev(identity:evens0)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "families+concrete: ev(identity:one)":
        "approx_zero fineness-dilution k=3 [fineness(o0.0); fineness(p0); "
        "fineness(o0.1)] one meets at most 1 states, while pinned snapshots grow "
        "without bound",
    "families+concrete: cd(identity:Lim|identity:On)":
        "approx_zero interval-family k=3 [interval(l=3); fineness(o0.1)] limit mass "
        "under On shrinks below 1/l for every l",
    "families+concrete: cd(identity:Even|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "families+concrete: (ev(identity:Even)-ev(identity:Even))":
        "approx_zero cancellation k=None [] the difference vanishes wherever defined",
    "families+concrete: (ev(identity:Even)/ev(identity:Even))":
        "not_approx_zero self-quotient k=None [] the quotient is 1 wherever it is "
        "defined",
    "families+concrete: ev(even-shift:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: q(0)":
        "approx_zero zero k=None [] the zero constant is below every 1/k",
    "concrete: q(1/2)":
        "not_approx_zero rational k=None [] |1/2| exceeds 1/k for large k",
    "concrete: (ev(identity:evens0)/ev(identity:Odd))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: (ev(identity:Odd)/ev(identity:evens0))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: ev(identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: ev(identity:evens0)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: ev(identity:one)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: cd(identity:Lim|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: cd(identity:Even|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "concrete: (ev(identity:Even)-ev(identity:Even))":
        "approx_zero cancellation k=None [] the difference vanishes wherever defined",
    "concrete: (ev(identity:Even)/ev(identity:Even))":
        "not_approx_zero self-quotient k=None [] the quotient is 1 wherever it is "
        "defined",
    "concrete: ev(even-shift:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "window: q(0)":
        "approx_zero zero k=None [] the zero constant is below every 1/k",
    "window: q(1/2)":
        "not_approx_zero rational k=None [] |1/2| exceeds 1/k for large k",
    "window: (ev(identity:evens0)/ev(identity:Odd))":
        "approx_zero ratio-family k=3 [ratio(evens0,Odd,k=3); fineness(o0.1)] each k "
        "is carried by the ratio constraint at that k",
    "window: (ev(identity:Odd)/ev(identity:evens0))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "window: ev(identity:On)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "window: ev(identity:evens0)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "window: ev(identity:one)":
        "approx_zero fineness-dilution k=3 [fineness(o0.0); fineness(o0.1); "
        "fineness(o0.2)] one meets at most 1 states, while pinned snapshots grow "
        "without bound",
    "window: cd(identity:Lim|identity:On)":
        "approx_zero interval-family k=3 [interval(l=3); fineness(o0.0)] limit mass "
        "under On shrinks below 1/l for every l",
    "window: cd(identity:Even|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "window: (ev(identity:Even)-ev(identity:Even))":
        "approx_zero cancellation k=None [] the difference vanishes wherever defined",
    "window: (ev(identity:Even)/ev(identity:Even))":
        "not_approx_zero self-quotient k=None [] the quotient is 1 wherever it is "
        "defined",
    "window: ev(even-shift:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "no-universe: q(0)":
        "approx_zero zero k=None [] the zero constant is below every 1/k",
    "no-universe: q(1/2)":
        "not_approx_zero rational k=None [] |1/2| exceeds 1/k for large k",
    "no-universe: (ev(identity:evens0)/ev(identity:Odd))":
        "approx_zero ratio-family k=3 [ratio(evens0,Odd,k=3)] each k is carried by "
        "the ratio constraint at that k",
    "no-universe: (ev(identity:Odd)/ev(identity:evens0))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "no-universe: ev(identity:On)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "no-universe: ev(identity:evens0)":
        "approx_zero weight-family k=3 [weight(m=3)] ordinal mass shrinks below 1/m "
        "for every m",
    "no-universe: ev(identity:one)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "no-universe: cd(identity:Lim|identity:On)":
        "approx_zero interval-family k=3 [interval(l=3)] limit mass under On shrinks "
        "below 1/l for every l",
    "no-universe: cd(identity:Even|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "no-universe: (ev(identity:Even)-ev(identity:Even))":
        "approx_zero cancellation k=None [] the difference vanishes wherever defined",
    "no-universe: (ev(identity:Even)/ev(identity:Even))":
        "not_approx_zero self-quotient k=None [] the quotient is 1 wherever it is "
        "defined",
    "no-universe: ev(even-shift:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "fineness: q(0)":
        "approx_zero zero k=None [] the zero constant is below every 1/k",
    "fineness: q(1/2)":
        "not_approx_zero rational k=None [] |1/2| exceeds 1/k for large k",
    "fineness: (ev(identity:evens0)/ev(identity:Odd))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "fineness: (ev(identity:Odd)/ev(identity:evens0))":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "fineness: ev(identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "fineness: ev(identity:evens0)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "fineness: ev(identity:one)":
        "approx_zero fineness-dilution k=3 [fineness(o0.0); fineness(p0); "
        "fineness(o0.1)] one meets at most 1 states, while pinned snapshots grow "
        "without bound",
    "fineness: cd(identity:Lim|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "fineness: cd(identity:Even|identity:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "fineness: (ev(identity:Even)-ev(identity:Even))":
        "approx_zero cancellation k=None [] the difference vanishes wherever defined",
    "fineness: (ev(identity:Even)/ev(identity:Even))":
        "not_approx_zero self-quotient k=None [] the quotient is 1 wherever it is "
        "defined",
    "fineness: ev(even-shift:On)":
        "undetermined  k=None [] no parametric family in the base covers this germ",
    "hf-fineness: ev(identity:els{{{}},{{{}}}})":
        "approx_zero fineness-dilution k=3 [fineness({}); fineness({{},{{}}}); "
        "fineness({{{{}}}}); fineness({{{},{{}}}}); fineness({{},{{{}}}}); "
        "fineness({{},{{},{{}}}})] els{{{}},{{{}}}} meets at most 2 states, while "
        "pinned snapshots grow without bound",
}


def test_classify_table_is_pinned():
    assert _classify_table_rows() == CLASSIFY_TABLE
