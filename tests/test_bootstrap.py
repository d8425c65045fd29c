"""Tier configs, base restriction, tiered probability, coherence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setprob import (
    CoherenceReport,
    FilterBase,
    HF_MODE,
    TierConfig,
    TieredProb,
    check_fip,
    class_from_values,
    coherence_check,
    expand_base,
    filter_base_to_text,
    find_witness,
    fineness,
    fineness_base,
    identity_rv,
    make_universe,
    min_size,
    non_restriction_counterexample,
    order_ge,
    order_lt,
    parametric_fineness,
    restrict_base,
    restrict_constraint_set,
    snapshot,
    subset_bound,
)
from setprob.universe import clear_caches
from setprob.bootstrap import AUDIT_SAMPLES, CoherenceLevel, audit_restricted_base
from setprob.errors import ConditionNull, MissingSubsetBound

U = make_universe(HF_MODE, 4)
WIN = list(U.enumerate_universe())  # the sixteen rank-<4 sets


# ---------------------------------------------------------------------------
# Tier configuration


def test_tier_config_validation():
    with pytest.raises(ValueError):
        TierConfig(())
    with pytest.raises(ValueError):
        TierConfig((1, 5))
    with pytest.raises(ValueError):
        TierConfig((4, 4))
    with pytest.raises(ValueError):
        TierConfig((9, 4))


def test_tier_config_lookup():
    tc = TierConfig((4, 9, 17))
    assert tc.t0 == 4
    assert [tc.tier(n) for n in (0, 3, 4, 8, 9, 16, 17)] == [0, 0, 1, 1, 2, 2, 3]
    assert tc.snapshot_threshold(3) == 3  # tier 0: below the snapshot itself
    assert tc.snapshot_threshold(5) == 4
    assert tc.snapshot_threshold(10) == 9


# ---------------------------------------------------------------------------
# Restricting constraint sets


def test_restrict_constraint_set_drops_large_images():
    a, b, c = WIN[0], WIN[1], WIN[2]
    out = restrict_constraint_set([snapshot(a, b), snapshot(a, c)], [a, b], 2)
    assert out == [snapshot(a)]


def test_restrict_constraint_set_trims_to_window():
    xs = [snapshot(*WIN[i:i + 3]) for i in range(6)]
    out = restrict_constraint_set(xs, WIN[:4], 3)
    inside = {v.code for v in WIN[:4]}
    for t in out:
        assert all(s.code in inside for s in t)
        assert len(t) < 3


def test_restrict_constraint_set_dedupes():
    a, b = WIN[0], WIN[1]
    out = restrict_constraint_set([snapshot(a, b), snapshot(a, WIN[5])], [a], 2)
    assert out == [snapshot(a)]


# ---------------------------------------------------------------------------
# Restricting bases


def _licensed_base(sub, alpha):
    return FilterBase(
        (parametric_fineness(), subset_bound(sub, alpha)),
        universe=U, window=tuple(WIN), provenance="fineness")


def test_restrict_base_passes_five_checks():
    sub = WIN[:6]
    fb = _licensed_base(sub, 4)
    restricted, audit = restrict_base(fb, sub, 4)
    assert audit.passed, audit.summary()
    assert audit.fineness_ok and audit.fip_ok and audit.dichotomy_ok
    assert audit.nonprincipal_ok and audit.exclusion_ok
    assert {v.code for v in restricted.window} == {v.code for v in sub}
    assert restricted.max_size == 4


def test_restriction_audit_asks_each_pinned_sample_once(counted_searches):
    # A parametric fineness pins the first window states, so a sampled
    # state's search is check_fip's search of the full base, kept; only
    # the shut-out search of each sample is prepared anew.
    prepared, _ = counted_searches
    restricted, _ = restrict_base(_licensed_base(WIN[:6], 4), WIN[:6], 4)

    def from_empty_table(step):
        clear_caches()
        prepared.clear()
        return step(restricted), len(prepared)

    fip, fip_searches = from_empty_table(check_fip)
    audit, audit_searches = from_empty_table(audit_restricted_base)
    assert audit.summary() == ("fineness=ok, fip=ok, dichotomy=ok, "
                               "non-principality=ok, empty-set exclusion=ok")
    assert audit.fip_result == fip
    assert audit_searches == fip_searches + AUDIT_SAMPLES
    # the search with the sample pinned twice finds the same witness
    concrete, window = expand_base(restricted), restricted.window
    for x in window[:AUDIT_SAMPLES]:
        assert fineness(x) in concrete
        assert find_witness(concrete + [fineness(x)], U, window=window, max_size=4) == \
            find_witness(concrete, U, window=window, max_size=4)


def test_restriction_audit_names_a_structural_refutation():
    # Exclusion is read from check_fip, so an order conflict, which no
    # size floor shows, is named as well.
    a, b = class_from_values("a", WIN[:3]), class_from_values("b", WIN[3:6])
    conflict = (order_lt(a, b), order_ge(a, b))
    fb = _licensed_base(WIN[:6], 4).with_constraints(conflict)
    _, audit = restrict_base(fb, WIN[:6], 4)
    assert not audit.exclusion_ok and not audit.passed
    assert audit.details["empty_member"] == "; ".join(c.describe() for c in conflict)


def test_restrict_base_keeps_inside_pins_only():
    sub = WIN[:6]
    fb = _licensed_base(sub, 4).with_constraints(
        [fineness(WIN[2]), fineness(WIN[9])])
    restricted, _ = restrict_base(fb, sub, 4)
    pins = [c.x for c in restricted.constraints if c.tag == "fineness" and c.x]
    assert WIN[2] in pins
    assert WIN[9] not in pins


def test_restrict_base_requires_license():
    fb = FilterBase((parametric_fineness(),), universe=U, window=tuple(WIN))
    with pytest.raises(MissingSubsetBound):
        restrict_base(fb, WIN[:6], 4)
    # explicit opt-out skips the license check, not the audit
    restricted, audit = restrict_base(fb, WIN[:6], 4, require_license=False)
    assert restricted.max_size == 4
    assert audit.passed


def test_restrict_base_flags_overtight_cap():
    # a cap equal to the sampled pin count cannot host the pins
    sub = WIN[:4]
    fb = FilterBase(
        (parametric_fineness(), subset_bound(WIN[:8], 5), subset_bound(sub, 3)),
        universe=U, window=tuple(WIN), provenance="fineness")
    _, audit = restrict_base(fb, WIN[:8], 5)
    assert not audit.passed
    assert not audit.fip_ok


def test_restrict_twice_equals_restrict_once():
    mid, low = WIN[:8], WIN[:4]
    fb = FilterBase(
        (parametric_fineness(), subset_bound(mid, 5), subset_bound(low, 4)),
        universe=U, window=tuple(WIN), provenance="fineness")
    once, _ = restrict_base(fb, low, 4)
    step1, _ = restrict_base(fb, mid, 5)
    twice, _ = restrict_base(step1, low, 4)
    assert twice.constraints == once.constraints
    assert twice.window == once.window
    assert twice.max_size == once.max_size


# ---------------------------------------------------------------------------
# Tiered probability


def test_tiered_prob_default_base_is_licensed():
    tp = TieredProb(U, TierConfig((4, 9, 17)), WIN)
    tags = [c.tag for c in tp.base.constraints]
    assert "parametric" in tags and "subset_bound" in tags


def test_tiered_prob_restriction_memoized_and_audited():
    tp = TieredProb(U, TierConfig((4, 9, 17)), WIN)
    fb1, audit1 = tp.restricted(1)
    assert tp.restricted(1)[0] is fb1
    assert audit1.passed
    fb0, audit0 = tp.restricted(0)
    assert audit0.passed
    assert fb0.max_size == 4 and fb1.max_size == 9


# ---------------------------------------------------------------------------
# Coherence


TIERS = TierConfig((4, 9, 17))


def test_coherence_total_event():
    t = snapshot(*WIN[:5])
    total = class_from_values("tt", list(WIN[:5]))
    rep = coherence_check(TIERS, identity_rv(), total,
                          t, [WIN[0], WIN[1], WIN[8]])
    assert rep.ok
    assert all(lv.direct == 1 for lv in rep.levels)


def test_coherence_disjoint_event():
    t = snapshot(*WIN[:5])
    off = class_from_values("off", [WIN[9], WIN[11]])
    rep = coherence_check(TIERS, identity_rv(), off, t, [WIN[0], WIN[9]])
    assert rep.ok
    assert all(lv.direct == 0 for lv in rep.levels)


def test_coherence_exact_three_way_agreement():
    cls = class_from_values("trio", [WIN[0], WIN[2], WIN[5]])
    t = snapshot(*WIN[:5])
    probe = [WIN[0], WIN[1], WIN[2], WIN[6], WIN[8], WIN[10]]
    rep = coherence_check(TIERS, identity_rv(), cls, t, probe)
    assert rep.ok
    lv = rep.levels[0]
    assert lv.direct == lv.via_germ_quotient == Fraction(2, 3)


def test_coherence_recurses_through_tiers():
    cls = class_from_values("kls", [WIN[0], WIN[3], WIN[6], WIN[12]])
    t = snapshot(*WIN[:10])                # tier 2
    probe = WIN[:5] + WIN[12:15]           # meets t in 5 states: tier 1
    rep = coherence_check(TIERS, identity_rv(), cls, t, probe)
    assert rep.ok
    assert len(rep.levels) == 2
    assert [lv.tier for lv in rep.levels] == [2, 1]


def test_coherence_probe_admissibility():
    cls = class_from_values("c0", [WIN[0]])
    t = snapshot(*WIN[:5])
    with pytest.raises(ConditionNull):
        coherence_check(TIERS, identity_rv(), cls, t, WIN[10:14])
    with pytest.raises(ValueError):
        coherence_check(TIERS, identity_rv(), cls, t, WIN[:4])


@given(st.sets(st.integers(0, 15), min_size=1, max_size=6),
       st.sets(st.integers(0, 15), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_coherence_random_events(cls_idx, probe_idx):
    t = snapshot(*WIN[:5])
    probe = [WIN[i] for i in sorted(probe_idx)] + WIN[13:15]
    cls = class_from_values("rnd", [WIN[i] for i in sorted(cls_idx)])
    if not any(p in t for p in probe):
        with pytest.raises(ConditionNull):
            coherence_check(TIERS, identity_rv(), cls, t, probe)
        return
    rep = coherence_check(TIERS, identity_rv(), cls, t, probe)
    assert rep.ok


def test_coherence_level_that_disagrees_is_a_mismatch():
    good = CoherenceLevel(5, 3, 1, Fraction(2, 5), Fraction(2, 5))
    bad = CoherenceLevel(5, 3, 1, Fraction(2, 5), Fraction(1, 3))
    assert good.equal and not bad.equal
    assert CoherenceReport([good]).ok
    report = CoherenceReport([good, bad])
    assert not report.ok
    assert report.summary().endswith("value=2/5 MISMATCH")
    assert report.summary().count("MISMATCH") == 1


# ---------------------------------------------------------------------------
# The restriction counterexample


def test_counterexample_demonstrates_failure():
    cx = non_restriction_counterexample(U, TierConfig((4, 9, 17)), WIN)
    assert cx.demonstrates_failure
    assert cx.bad_top_check.witnessed
    assert not cx.bad_restricted_audit.exclusion_ok
    # the refutation check_fip found names the empty member
    assert cx.bad_restricted_audit.fip_result.refuted_subset == (min_size(4),)
    assert cx.bad_restricted_audit.details["empty_member"] == min_size(4).describe()
    assert cx.dropped_images > 0
    assert cx.repair_top_check.witnessed
    assert cx.repair_restricted_audit.passed


def test_counterexample_uses_size_floor():
    cx = non_restriction_counterexample(U, TierConfig((4, 9, 17)), WIN)
    tags = [c.tag for c in cx.bad_base.constraints]
    assert "min_size" in tags
    assert all(c.tag != "min_size" or c.param >= 4
               for c in cx.bad_base.constraints)
    repair_tags = [c.tag for c in cx.repair_base.constraints]
    assert "subset_bound" in repair_tags


def test_counterexample_is_deterministic():
    tc = TierConfig((4, 9, 17))
    n1 = non_restriction_counterexample(U, tc, WIN).narrative()
    n2 = non_restriction_counterexample(U, tc, WIN).narrative()
    assert n1 == n2
    assert "empty" in n1.lower()
