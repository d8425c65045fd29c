"""Constraint membership, FIP checking, witness constructors."""

import dataclasses
import random
from itertools import combinations, islice, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setprob import (
    CardinalityTier,
    ClassSpec,
    FilterBase,
    HF_MODE,
    ORDINAL_MODE,
    Snapshot,
    check_fip,
    class_from_values,
    class_of_set,
    constraint_from_text,
    constraint_membership,
    constraint_to_text,
    expand_base,
    expand_parametric,
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
    restrict_base,
    snapshot,
    subset_bound,
    superreg_constraints,
    superreg_witness,
    weight,
)
from setprob.cli import registry_classes
from setprob.errors import ConstructionFailed, EnumerationExhausted, WrongMode
from setprob import filters
from setprob.filters import state_pool
from setprob.universe import PREFIX_MEMO_CAP, SetValue, clear_caches

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
    for _ in range(2):  # the second pool is served by the memo
        assert list(state_pool(HF, None, limit=120)) == \
            list(islice(HF.enumerate_universe(), 120))
    assert list(state_pool(None, None, limit=5)) == []


# The prefix of a universe is now read through `state_pool`; these keep
# the checks of the deleted `UniverseHandle.prefix` on that one reader.
@pytest.mark.parametrize("n", [0, 1, 120, PREFIX_MEMO_CAP])
@pytest.mark.parametrize("mode, bound", [(ORDINAL_MODE, 3), (HF_MODE, 5)])
def test_prefix_is_the_start_of_the_enumeration(mode, bound, n, fresh_caches):
    u = make_universe(mode, bound)  # a new handle, its memo grown by the pool itself
    got = list(state_pool(u, None, n))
    assert got == list(islice(u._walk(), n))
    assert len(got) == n
    assert len(u._states.items) == n


def test_prefix_stops_at_the_end_of_a_small_universe_and_at_the_cap():
    small = make_universe(HF_MODE, 3)
    assert list(state_pool(small, None, limit=10)) == list(small._walk())
    assert len(list(state_pool(small, None, limit=10))) == 4
    assert len(list(state_pool(small, None))) == 4
    u = make_universe(HF_MODE, 5)
    got = list(state_pool(u, None, PREFIX_MEMO_CAP + 5))
    assert got == list(islice(u._walk(), PREFIX_MEMO_CAP + 5))
    assert len(u._states.items) == PREFIX_MEMO_CAP  # the walk goes on past the memo


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
    assert result.refuted_subset == fb.constraints


def test_fip_strict_orders_both_ways_refuted():
    even, odd = U.builtin_class("Even"), U.builtin_class("Odd")
    pair = (order_lt(even, odd), order_lt(odd, even))
    result = check_fip(FilterBase(pair, universe=U))
    assert result.status == "refuted"
    assert result.refuted_subset == pair


def test_fip_irreflexive_strict_order_refuted():
    result = check_fip(FilterBase((order_lt(M4, M4),), universe=U))
    assert result.status == "refuted"
    # a namesake is another class: |{1} cap T| < |{2} cap T| holds at {2},
    # which the refutation by name denied
    a, twin = class_from_values("A", [nat(1)]), class_from_values("A", [nat(2)])
    assert check_fip(FilterBase((order_lt(a, twin),), universe=U)).witnessed


def test_fip_min_size_beyond_cap_refuted():
    result = check_fip(FilterBase((min_size(9),), universe=U, max_size=5))
    assert result.status == "refuted"
    assert result.refuted_subset == (min_size(9),)


def test_fip_empty_subset_bound_refuted():
    # |T cap W| < 0 holds nowhere: refuted before any search, and the
    # audit of a base restricted at that cap names it as an empty member
    w = [nat(b) for b in range(6)]
    empty = subset_bound(w, 0)
    fb = FilterBase((parametric_fineness(), empty), universe=U, window=tuple(w))
    result = check_fip(fb)
    assert (result.status, result.refuted_subset) == ("refuted", (empty,))
    _, audit = restrict_base(fb, w, 0)
    assert not audit.exclusion_ok and not audit.passed
    assert audit.details["empty_member"] == empty.describe()


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


EVEN, ODD = U.builtin_class("Even"), U.builtin_class("Odd")
_A, _B = class_from_values("A", [nat(1)]), class_from_values("B", [nat(2)])
_B_TWIN = class_from_values("B", [nat(3)])


@pytest.mark.parametrize("constraints, refuted", [
    # k*|Even| <= |Odd| and |Odd| + 1 <= |Even| sum to (k - 1)*|Even| + 1 <= 0
    ((ratio(EVEN, ODD, 1), order_lt(ODD, EVEN)), True),
    ((ratio(EVEN, ODD, 2), order_lt(ODD, EVEN)), True),
    # |Even| = |Odd| meets both
    ((order_ge(EVEN, ODD), order_ge(ODD, EVEN)), False),
    # 2*|Even| <= |Even| holds where there are no evens
    ((ratio(EVEN, EVEN, 2),), False),
    # opposite only by name: {1, 2} meets both
    ((ratio(_A, _B, 1), order_lt(_B_TWIN, _A)), False),
    # |Even| <= |Odd| twice, in the same direction
    ((ratio(EVEN, ODD, 1), order_ge(ODD, EVEN)), False),
], ids=["ratio-k1-cycle", "ratio-k2-cycle", "ge-both-ways", "ratio-self",
        "namesakes", "same-direction"])
def test_fip_count_form_refutation(constraints, refuted):
    result = check_fip(FilterBase(constraints, universe=U))
    if refuted:
        assert (result.status, result.refuted_subset) == ("refuted", constraints)
    else:
        assert result.witnessed


def test_fip_refutes_before_any_witness_search(monkeypatch):
    searches = []
    real = filters.find_witness
    monkeypatch.setattr(filters, "find_witness",
                        lambda *a, **kw: searches.append(a) or real(*a, **kw))
    pair = (order_lt(EVEN, ODD), order_ge(EVEN, ODD))
    fb = ordinal_theorem_base(U, [(M4, E1), (E1, O2)]).with_constraints(pair)
    result = check_fip(fb)
    assert (result.status, result.refuted_subset, searches) == ("refuted", pair, [])


FIP_SCAN_CAP = 300


def per_subset_fip(fb: FilterBase) -> filters.FipResult:
    """check_fip written as a scan of every listed subset: each subset
    of up to FIP_SUBSET_SIZE constraints, and the full set when no listed
    subset equals it, asked of `_structurally_empty` in turn, then
    searched in turn."""
    concrete = expand_base(fb)
    subsets = []
    for size in range(1, min(filters.FIP_SUBSET_SIZE, len(concrete)) + 1):
        subsets.extend(combinations(concrete, size))
    full = tuple(concrete)
    if full and full not in subsets:
        subsets.append(full)
    for subset in subsets:
        if filters._structurally_empty(subset, fb.max_size):
            return filters.FipResult("refuted", refuted_subset=subset)
    found = []
    for subset in subsets:
        w = find_witness(subset, fb.universe, window=fb.window, max_size=fb.max_size,
                         scan_cap=FIP_SCAN_CAP)
        if w is None:
            return filters.FipResult(
                "unknown", witnesses=tuple(found),
                note="witness search exhausted its budget on: "
                + "; ".join(c.describe() for c in subset))
        found.append((subset, w))
    return filters.FipResult("witnessed", witnesses=tuple(found))


_FIP_POOL = [nat(b) for b in range(8)]
_FIP_CLASS = st.sampled_from((EVEN, ODD, M4, _A, _B))
_FIP_CONSTRAINT = st.one_of(
    st.sampled_from(_FIP_POOL).map(fineness),
    st.builds(ratio, _FIP_CLASS, _FIP_CLASS, st.integers(1, 2)),
    st.builds(order_lt, _FIP_CLASS, _FIP_CLASS),
    st.builds(order_ge, _FIP_CLASS, _FIP_CLASS),
    st.integers(1, 6).map(min_size),
    st.builds(subset_bound, st.lists(st.sampled_from(_FIP_POOL), max_size=3),
              st.integers(-1, 2)),
)


@st.composite
def fip_bases(draw):
    """Bases of 1, 3, 4 or 6 distinct constraints: pins, ratio and order
    forms that may cycle, min_size that may reach the size cap, and
    subset bounds that may have a cap of 0 or less."""
    n = draw(st.sampled_from((1, 3, 4, 6)))
    constraints = draw(st.lists(_FIP_CONSTRAINT, min_size=n, max_size=n, unique=True))
    max_size = draw(st.one_of(st.none(), st.integers(3, 7)))
    return FilterBase(tuple(constraints), universe=U, max_size=max_size)


def _fip_base(*constraints, max_size=None):
    return FilterBase(constraints, universe=U, max_size=max_size)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fip_bases())
# a cycle in the first pair, a refuted single later: the single is named
@example(_fip_base(ratio(EVEN, ODD, 1), order_lt(ODD, EVEN), fineness(nat(1)),
                   order_ge(M4, EVEN), fineness(nat(3)), subset_bound([nat(0)], 0)))
@example(_fip_base(fineness(nat(2)), ratio(EVEN, ODD, 2), order_lt(ODD, EVEN)))
@example(_fip_base(fineness(nat(2)), order_ge(EVEN, M4), min_size(5),
                   subset_bound([nat(1)], 1), max_size=5))
@example(_fip_base(order_lt(M4, M4)))
@example(_fip_base(fineness(nat(1)), fineness(nat(3)), order_ge(EVEN, M4), min_size(2)))
def test_fip_scans_singles_and_pairs_as_every_subset(fb):
    concrete = expand_base(fb)
    asked = []
    real = filters._structurally_empty
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_structurally_empty",
                   lambda subset, cap: asked.append(subset) or real(subset, cap))
        result = check_fip(fb, scan_cap=FIP_SCAN_CAP)
    assert result == per_subset_fip(fb)
    n = len(concrete)
    singles_and_pairs = [s for size in (1, 2) for s in combinations(concrete, size)]
    if result.status == "refuted":
        assert asked == singles_and_pairs[:asked.index(result.refuted_subset) + 1]
    else:
        assert asked == singles_and_pairs  # n + n*(n - 1)/2 calls
    if result.status == "witnessed":
        listed = [subset for subset, _ in result.witnesses]
        assert listed.count(tuple(concrete)) == 1
        within = sum(comb(n, size) for size in range(1, min(filters.FIP_SUBSET_SIZE, n) + 1))
        assert len(listed) == within + (n > filters.FIP_SUBSET_SIZE)


def test_structural_refutation_is_sound_on_every_small_snapshot():
    # Bounded-exhaustive: every nonempty snapshot of o0.0-o0.5 and one
    # state outside every class, against every subset of at most three
    # ratio and order constraints over three value classes, two of them
    # namesakes, and subset bounds at caps -1, 0 and 1.  Nothing a
    # refuted subset admits may exist.
    pool = [ord_value(0, b) for b in range(6)] + [ord_value(1, 0)]
    classes = (class_from_values("A", pool[0:3]), class_from_values("B", pool[2:4]),
               class_from_values("A", pool[4:6]))
    makers = (lambda a, b: ratio(a, b, 1), lambda a, b: ratio(a, b, 2),
              order_lt, order_ge)
    cs = [make(a, b) for a, b in product(classes, repeat=2) for make in makers]
    cs += [subset_bound(pool[:3], alpha) for alpha in (-1, 0, 1)]
    snaps = [snapshot(*(s for i, s in enumerate(pool) if m >> i & 1))
             for m in range(1, 1 << len(pool))]
    # bit j of admits[i]: snapshot j is in constraint i
    admits = [sum(1 << j for j, t in enumerate(snaps)
                  if constraint_membership(c, t, U.mode)) for c in cs]
    refuted = 0
    for size in (1, 2, 3):
        for idx in combinations(range(len(cs)), size):
            if filters._structurally_empty([cs[i] for i in idx], None):
                refuted += 1
                meet = (1 << len(snaps)) - 1
                for i in idx:
                    meet &= admits[i]
                assert meet == 0, [cs[i] for i in idx]
    assert refuted


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


@pytest.mark.parametrize("rng", [None, random.Random(4)])
def test_find_witness_meets_min_size_in_a_window_of_ordinals(rng):
    # no pad or other non-ordinal state to grow with: {o0.0, o0.1} is one answer
    window = [ord_value(0, i) for i in range(7)]
    cs = [fineness(ord_value(0, 1)), min_size(2)]
    t = find_witness(cs, U, rng, window=window, max_size=5)
    assert t is not None
    assert all(constraint_membership(c, t, U.mode) for c in cs)
    assert {s.code for s in t} <= {v.code for v in window}


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


def test_generate_witnesses_fallback_stops_at_the_scan_budget():
    # Only {o0.1} and {o0.1, o0.2} lie in both constraints; the fallback
    # must give up instead of walking the endless ordinal universe.
    u = make_universe(ORDINAL_MODE, 2)
    a = class_from_values("A", [ord_value(0, 1), ord_value(0, 2)])
    cs = [fineness(ord_value(0, 1)), order_ge(a, u.universe_class())]
    with pytest.raises(ConstructionFailed, match="only 2 of 5 witnesses"):
        generate_witnesses(cs, u, random.Random(0), 5)


def test_generate_witnesses_padding_fallback_reaches_what_seeding_cannot():
    # The 32 snapshots of six window states that hold o0.0.  The whole
    # window needs 5 decoration states, one more than a seeded search
    # adds, so only the padding fallback reaches it.
    u = make_universe(ORDINAL_MODE, 2)
    window = [ord_value(0, i) for i in range(6)]
    cs = [fineness(ord_value(0, 0))]
    ts = generate_witnesses(cs, u, random.Random(1), 32, window=window)
    assert {frozenset(t) for t in ts} == \
        {frozenset([window[0], *(v for v, bit in zip(window[1:], bits) if bit)])
         for bits in product((0, 1), repeat=5)}
    for t in ts:
        assert constraint_membership(cs[0], t, u.mode)


def test_find_witness_is_barred_by_a_pin_outside_the_window():
    assert find_witness([fineness(nat(5))], U, window=[nat(1), nat(2)]) is None


def test_find_witness_without_universe_or_window_pads_from_nothing():
    assert find_witness([min_size(2)], None) is None


@pytest.mark.parametrize("scan_cap", [1, 2, 3, None])
def test_find_witness_gives_up_past_its_scan_cap(scan_cap):
    # {o0.0} needs two On states outside Even: a repair that may scan one
    # candidate stops there, and a snapshot grown past two states is
    # given up, so the search ends empty-handed below a scan cap of 3.
    u = make_universe(ORDINAL_MODE, 3)
    cs = [fineness(nat(0)), ratio(u.builtin_class("Even"), u.builtin_class("On"), 3)]
    budget = {} if scan_cap is None else {"scan_cap": scan_cap}
    t = find_witness(cs, u, **budget)
    if scan_cap is not None and scan_cap < 3:
        assert t is None
    else:
        assert t == snapshot(nat(0), nat(1), ord_value(1, 1))


def test_decoration_index_keeps_a_repeated_window_state_once():
    window = (nat(3), pad(0), nat(3), nat(1), pad(0))
    search = filters._Search((fineness(nat(1)),), U, window, None, filters.SCAN_CAP)
    assert list(search.positions.items()) == [(nat(3), 0), (pad(0), 1), (nat(1), 2)]
    search = filters._Search((fineness(nat(1)),), U, None, None, filters.SCAN_CAP)
    assert list(search.positions) == list(islice(U.enumerate_universe(), 120))


def test_equal_inputs_share_one_prepared_search(counted_searches):
    # The kept search is keyed by its inputs' values, so constraints and
    # a window built afresh for each call, equal but other objects, reuse it.
    prepared, _ = counted_searches

    def witness():
        cs = [fineness(nat(0)), ratio(U.builtin_class("Even"), U.builtin_class("Odd"), 1)]
        return find_witness(cs, U, rng=random.Random(3),
                            window=[nat(b) for b in range(6)], decorate=2)

    first, second = witness(), witness()
    assert len(prepared) == 1
    assert first == second and first is not None


def test_a_deterministic_search_runs_once_while_kept(counted_searches):
    prepared, runs = counted_searches
    a = [fineness(nat(0)), ratio(U.builtin_class("Even"), U.builtin_class("Odd"), 1)]
    b = [fineness(nat(1))]
    first, _, again = find_witness(a, U), find_witness(b, U), find_witness(a, U)
    assert again is first and first is not None
    assert [len(key[0]) for key in prepared] == [2, 1]
    assert [len(cs) for cs in runs] == [2, 1]


def test_the_least_recently_used_search_is_dropped_past_the_cap(counted_searches):
    prepared, _ = counted_searches
    cap = filters.SEARCH_TABLE_CAP
    for b in (0, *range(1, cap), 0, cap):  # 0 used again, so 1 is the oldest at cap
        find_witness([fineness(nat(b))], U)
    find_witness([fineness(nat(0))], U)
    assert len(prepared) == cap + 1
    find_witness([fineness(nat(1))], U)
    assert [key[0][0].x for key in prepared] == \
        [nat(b) for b in (*range(cap + 1), 1)]


def test_a_search_that_raises_raises_on_every_call(counted_searches, monkeypatch):
    # the search is kept, but not its result: each call runs it again;
    # min_size gives it a form to repair, so its run builds a tally
    prepared, runs = counted_searches
    monkeypatch.setattr(filters._Tally, "satisfied", lambda self: True)
    cs = [fineness(nat(0)), subset_bound([nat(0)], 1), min_size(1)]
    for _ in range(2):
        with pytest.raises(ConstructionFailed, match="outside subset_bound"):
            find_witness(cs, U)
    assert len(prepared) == 1 and len(runs) == 2


def _every_tag_twice():
    """Pairs of constraints built apart, for every tag, equal and not."""
    even, on = U.builtin_class("Even"), U.builtin_class("On")
    makers = [lambda: fineness(ord_value(1, 2)), lambda: fineness(pad(3)),
              lambda: ratio(even, on, 2), lambda: ratio(on, even, 2),
              lambda: order_lt(even, on), lambda: order_ge(even, on),
              lambda: interval(2), lambda: interval(3), lambda: weight(2),
              lambda: subset_bound([nat(0), pad(1)], 2),
              lambda: subset_bound([nat(0), pad(2)], 2), lambda: min_size(2),
              parametric_fineness, parametric_interval, parametric_weight,
              lambda: parametric_ratio(even, on)]
    return [(f(), g()) for f in makers for g in makers]


def test_constraint_equality_is_its_field_tuples():
    fields = [f.name for f in dataclasses.fields(filters.Constraint)]
    for c, d in _every_tag_twice():
        assert c is not d
        same = tuple(getattr(c, f) for f in fields) == tuple(getattr(d, f) for f in fields)
        assert (c == d) == (d == c) == same and (c != d) == (not same)
        assert not same or hash(c) == hash(d)
        assert c == c and (c == c.tag) is False


def test_constraint_hash_is_its_field_tuple_taken_once():
    # the table's lookups hash constraints; equal ones built apart hash
    # equal, to the dataclass's own value, so no set or dict order moves
    window = [nat(0), pad(1), nat(2)]
    for make in (lambda: fineness(ord_value(1, 2)),
                 lambda: subset_bound(list(window), 3),
                 lambda: ratio(U.builtin_class("Even"), U.builtin_class("On"), 2)):
        c, d = make(), make()
        assert c is not d and c == d and hash(c) == hash(d)
        assert hash(c) == c.__dict__["_hash"] == hash(
            tuple(getattr(c, f.name) for f in dataclasses.fields(c)))
        e = dataclasses.replace(c, param=(c.param or 0) + 1)
        assert "_hash" not in e.__dict__
        assert hash(e) == hash(tuple(getattr(e, f.name) for f in dataclasses.fields(e)))
        assert hash(e) != hash(c) and hash(c) == c.__dict__["_hash"]


@pytest.mark.parametrize("one_pass", ["constraints", "window"])
def test_generate_witnesses_reads_each_argument_once(one_pass):
    # An iterator given for the constraints or the window is read once,
    # so every search and the fallback see all of it.
    cs = [fineness(nat(0)), ratio(U.builtin_class("Even"), U.builtin_class("On"), 1)]
    window = [nat(b) for b in range(10)] + [pad(0), pad(1)]
    want = generate_witnesses(cs, U, random.Random(1), 4, window=window)
    args = {"constraints": cs, "window": window}
    args[one_pass] = iter(args[one_pass])
    got = generate_witnesses(args["constraints"], U, random.Random(1), 4,
                             window=args["window"])
    assert got == want
    assert all(nat(0) in w for w in got)


# Every concrete tag, with two interval parameters, over two blocks of
# ordinals and a few pads.  Edge cases: a duplicated pin, a pin and a
# class (FAR) outside the states, subset_bound at alpha 0 and 1,
# min_size(0), and a pin and a subset_bound on the same state, whose
# code-set sides are equal values from two constraints.
EVEN, ODD = REG["Even"], REG["Odd"]
FAR = class_from_values("Far", [ord_value(2, 0), ord_value(2, 1)])
TALLY_CONSTRAINTS = [
    fineness(nat(1)), fineness(pad(0)), ratio(M4, E1, 2),
    order_lt(EVEN, ODD), order_ge(EVEN, ODD), interval(1), interval(3),
    weight(2), subset_bound([nat(0), nat(1), pad(1)], 2), min_size(4),
    fineness(nat(1)), fineness(ord_value(2, 5)), ratio(EVEN, FAR, 1),
    order_lt(FAR, ODD), order_ge(FAR, M4), subset_bound([nat(2), pad(0)], 0),
    subset_bound([nat(2), pad(0)], 1), min_size(0),
    fineness(pad(2)), subset_bound([pad(2)], 1),
]
TALLY_STATES = [ord_value(a, b) for a in range(2) for b in range(8)] + \
    [pad(k) for k in range(4)]
HF_STATES = list(islice(HF.enumerate_universe(), 24))
HF_A = class_of_set(hf_set(HF_STATES[1:3]))
HF_B = class_of_set(hf_set(HF_STATES[2:5]))
HF_C = class_of_set(hf_set(HF_STATES[4:8]))
HF_TALLY_CONSTRAINTS = [fineness(HF_STATES[3]), order_lt(HF_A, HF_B),
                        order_ge(HF_A, HF_B), order_lt(HF_B, HF_A),
                        order_ge(HF_C, HF_A), min_size(5)]


def _tally_parts(t):
    """What a tally holds, as plain values: its states, its blocks, every
    side count and the number of short runs."""
    return (set(t.states), {a: set(bs) for a, bs in t.blocks.items()},
            dict(t._counts), t._short)


def _check_admit(t, cs, universe, s):
    """Admit s to t; the answer must be constraint_membership on the
    Snapshot with s added, a refusal must leave t as it was, and an
    acceptance must leave t as `add` does."""
    before, added = _tally_parts(t), t.copy()
    added.add(s)
    ok = t.admit(s)
    snap = Snapshot(t.states | {s})
    assert ok == all(constraint_membership(c, snap, universe.mode) for c in cs)
    assert _tally_parts(t) == (_tally_parts(added) if ok else before)
    return ok


def _check_tally_steps(universe, cs, steps):
    """Apply add/admit steps to a set and to tallies over each constraint
    and over all of them; each tally's verdict, and the sign of each
    count form's excess in the shared tally, must be
    constraint_membership on the Snapshot of the set, and the excess
    itself k*|small| + slack - |big| counted on that Snapshot.  An admit
    is checked on every tally (`_check_admit`); the set follows the
    shared tally, and a single tally that kept or refused otherwise is
    rebuilt from the set."""
    singles = [filters._Tally(filters._Sides([c])) for c in cs]
    whole = filters._Tally(filters._Sides(cs))
    forms = {i: c.form for i, c in enumerate(cs) if c.form}
    states = set()
    for step, s in steps:
        if step == "admit":
            # a present state stays, whatever the answer
            if _check_admit(whole, cs, universe, s) or s in states:
                states.add(s)
            for i, (t, c) in enumerate(zip(singles, cs)):
                if _check_admit(t, [c], universe, s) != (s in states):
                    singles[i] = filters._Tally(t._sides, states)
        else:
            for t in (*singles, whole):
                t.add(s)
            states.add(s)
        snap = Snapshot(states)
        verdicts = [constraint_membership(c, snap, universe.mode) for c in cs]
        assert [t.satisfied() for t in singles] == verdicts
        assert whole.satisfied() == all(verdicts)
        assert [whole.excess(f) <= 0 for f in forms.values()] == \
            [verdicts[i] for i in forms]
        assert [whole.excess(f) for f in forms.values()] == [
            f.k * filters._side_mask(f.small, snap).bit_count() + f.slack
            - filters._side_mask(f.big, snap).bit_count() for f in forms.values()]
        assert whole.states == states and len(whole.states) == len(snap)
        assert _tally_parts(whole.copy()) == _tally_parts(whole)


_STEPS = st.sampled_from(["add", "admit"])


@given(st.lists(st.tuples(_STEPS, st.sampled_from(TALLY_STATES)),
                min_size=20, max_size=60))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tally_matches_membership_after_every_step(steps):
    _check_tally_steps(U, TALLY_CONSTRAINTS, steps)


@given(st.lists(st.tuples(_STEPS, st.sampled_from(HF_STATES)),
                min_size=20, max_size=40))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tally_matches_membership_in_hf_mode(steps):
    _check_tally_steps(HF, HF_TALLY_CONSTRAINTS, steps)


def test_admitting_a_present_state_changes_nothing():
    # an unsatisfied tally (the run {o0.0} is short) keeps its state and
    # answers as `satisfied` does
    t = filters._Tally(filters._Sides([interval(2)]), [nat(0)])
    assert t.admit(nat(0)) is False
    assert _tally_parts(t) == ({nat(0)}, {0: {0}}, {None: 0}, 1)
    t.add(nat(1))
    t.add(nat(2))
    assert t.admit(nat(2)) is True and t.states == {nat(0), nat(1), nat(2)}


# Rows where one part of the would-be counts alone decides an admit:
# (constraints, the tally's states, the candidate, the answer).  An
# ordinal w*a+b is (a, b), a pad ("p", k).
_ADMIT_ROWS = {
    # the short-run change: an isolated ordinal opens a short run, and one
    # that joins two short runs closes both into one long run
    "isolated": ([interval(2)], [(0, 0), (0, 1), (0, 2)], (0, 7), False),
    "extends": ([interval(2)], [(0, 0), (0, 1), (0, 2)], (0, 3), True),
    "joins": ([interval(2)], [(0, 0), (0, 1), (0, 3), (0, 4)], (0, 2), True),
    "joins-short": ([interval(3)], [(1, 0), (1, 2)], (1, 1), False),
    # a count form whose small and big sides both count the candidate:
    # each side is counted once, so the answer turns on that one count
    "weight-in": ([weight(2)], [("p", 0), ("p", 1), (0, 0)], (0, 1), True),
    "weight-out": ([weight(2)], [("p", 0), (0, 0)], (0, 1), False),
    "weight-pad": ([weight(2)], [("p", 0), (0, 0)], ("p", 1), True),
    "ratio-in": ([ratio(U.builtin_class("Even"), U.builtin_class("On"), 2)],
                 [(0, 1), (0, 0), (0, 3)], (0, 2), True),
    "ratio-out": ([ratio(U.builtin_class("Even"), U.builtin_class("On"), 2)],
                  [(0, 1), (0, 0)], (0, 2), False),
}


def _row_state(x):
    return pad(x[1]) if x[0] == "p" else ord_value(*x)


@pytest.mark.parametrize("row", sorted(_ADMIT_ROWS))
def test_admit_reads_the_counts_the_candidate_would_give(row):
    cs, placed, cand, expected = _ADMIT_ROWS[row]
    states = [_row_state(x) for x in placed]
    t = filters._Tally(filters._Sides(cs), states)
    assert t.satisfied() == all(constraint_membership(c, Snapshot(states), U.mode)
                                for c in cs)
    assert _check_admit(t, cs, U, _row_state(cand)) is expected


def test_sides_ask_each_membership_once_per_state():
    # equal states built apart are one state to the memo, keyed by code
    asked = []

    def counted(name, member):
        def test(v):
            asked.append((name, v.code))
            return member(v)
        return ClassSpec(name, test, lambda: iter(()), CardinalityTier.infinite(0))

    c = counted("C", lambda v: v.is_ordinal and v.ord_parts[1] % 2 == 0)
    d = counted("D", lambda v: not v.is_ordinal)
    sides = filters._Sides([ratio(c, d, 1), order_lt(d, c)])
    states = [nat(0), nat(1), pad(2)]
    twins = [SetValue(v.kind, v.data, v.code, v._key) for v in states]
    assert all(t is not v and t == v for v, t in zip(states, twins))
    assert [sides.of(v) for v in states] == [sides.of(t) for t in twins] == \
        [(c,), (), (d,)]
    assert sorted(asked) == sorted((n, v.code) for n in "CD" for v in states)


@pytest.mark.parametrize("universe, cs, states", [
    (U, TALLY_CONSTRAINTS, TALLY_STATES),
    (HF, HF_TALLY_CONSTRAINTS, HF_STATES),
], ids=["ordinal", "hf"])
def test_padding_avoids_exactly_the_grown_classes(universe, cs, states):
    # with the grown forms and without them, when nothing is avoided
    grown = [c for c in cs if c.tag in filters._GROWN_TAGS]
    for kept in (cs, [c for c in cs if c not in grown]):
        search = filters._Search(tuple(kept), universe, None, None, filters.SCAN_CAP)
        classes = [k for c in kept if c in grown for k in (c.cls_a, c.cls_b)]
        assert [search.avoids(v) for v in states] == \
            [any(k.membership(v) for k in classes) for v in states]


def _fresh_witnesses(cs, universe, rng, count, window, max_size):
    """The seeded searches of generate_witnesses, each prepared afresh,
    so that no two share anything: the distinct witnesses found, and the
    base of the padding fallback when fewer than `count` turn up."""
    def search(r, decorate):
        return filters._Search(tuple(cs), universe, window, max_size,
                               filters.SCAN_CAP).run(r, decorate)
    out = []
    for _ in range(count * 8):
        if len(out) == count:
            break
        w = search(rng, rng.randrange(0, 5))
        if w is not None and w not in out:
            out.append(w)
    return out, (search(None, 0) if len(out) < count else None)


LEAK_POOLS = ((U, TALLY_CONSTRAINTS, tuple(TALLY_STATES)),
              (HF, HF_TALLY_CONSTRAINTS, tuple(HF_STATES[:12])))


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_reused_search_leaks_nothing(data):
    # Two constraint lists in a row, each through generate_witnesses,
    # whose searches share one prepared search, and through fresh
    # searches that share nothing: the witnesses and the generator's
    # final state must agree.
    for _ in range(2):
        universe, pool, window = data.draw(st.sampled_from(LEAK_POOLS))
        cs = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        window = data.draw(st.sampled_from((None, window)))
        max_size = data.draw(st.sampled_from((None, 4, 9)))
        seed = data.draw(st.integers(0, 2 ** 16))
        rng, ref = random.Random(seed), random.Random(seed)
        try:
            got = generate_witnesses(cs, universe, rng, 3, window=window,
                                     max_size=max_size)
        except ConstructionFailed as exc:
            assert not str(exc).startswith("construction built"), exc
            got = None
        want, base = _fresh_witnesses(cs, universe, ref, 3, window, max_size)
        assert rng.getstate() == ref.getstate()
        if len(want) == 3:
            assert got == want
        elif base is None:
            assert got is None
        elif got is not None:
            assert got[:len(want)] == want
            assert all(set(base) <= set(w) for w in got[len(want):])


def test_returned_witness_is_checked_against_every_constraint(monkeypatch, fresh_caches):
    # No repair meets a subset_bound, so only a faulty tally could claim
    # this snapshot; the check on return must refuse it.  min_size gives
    # the search a form to repair, so its run builds a tally.
    cs = [fineness(nat(0)), subset_bound([nat(0)], 1), min_size(1)]
    assert find_witness(cs, U) is None
    monkeypatch.setattr(filters._Tally, "satisfied", lambda self: True)
    clear_caches()
    with pytest.raises(ConstructionFailed, match="outside subset_bound"):
        find_witness(cs, U)


def test_touch_test_asks_each_ordinal_once():
    asked = []

    def member(v):
        asked.append(v.code)
        return v.ord_parts[1] % 2 == 0

    cls = ClassSpec("C", member, lambda: iter(()), CardinalityTier.infinite(0))
    touches = filters._touch_test([cls])
    assert [touches(0, b) for b in (2, 3, 2, 3)] == [True, False, True, False]
    assert asked == ["o0.2", "o0.3"]


# Witness codes, sorted and space-joined, as the seeded searches below
# produced them before the universe enumeration was memoized.  Speed-ups
# must leave every seeded witness as it is.
THEOREM_WITNESSES = (
    "o0.0 o0.1 o0.2 o0.3 o1.10 o1.11 o1.12 o1.13 o1.36 o1.37 o1.38 o1.39 p0 "
    "p13 p15 p16 p18 p20 p24 p25 p3 p30 p34 p38 p4 p40 p42 p45 p50 p52 p53 p6 "
    "p61 p63 p64 p66 p7 p72",
    "o0.0 o0.1 o0.2 o0.3 o1.42 o1.43 o1.44 o1.45 o1.60 o1.61 o1.62 o1.63 p0 "
    "p11 p13 p14 p15 p16 p21 p25 p26 p3 p34 p36 p4 p40 p41 p5 p50 p52 p56 p57 "
    "p58 p61 p62 p68 p73 p74 p75",
    "o0.0 o0.1 o0.2 o0.3 o1.26 o1.27 o1.28 o1.29 o1.44 o1.45 o1.46 o1.47 p0 "
    "p12 p13 p14 p18 p23 p27 p31 p35 p38 p4 p42 p43 p45 p47 p49 p50 p51 p55 "
    "p59 p64 p7 p71 p72 p74",
    "o0.0 o0.1 o0.2 o0.3 o1.48 o1.49 o1.50 o1.51 o1.54 o1.55 o1.56 o1.57 p0 "
    "p10 p11 p13 p14 p18 p20 p21 p26 p27 p29 p37 p39 p41 p43 p44 p53 p54 p55 "
    "p59 p6 p60 p61 p63 p68 p69 p9",
    "o0.0 o0.1 o0.2 o0.3 o1.0 o1.1 o1.2 o1.3 o1.56 o1.57 o1.58 o1.59 p0 p11 "
    "p12 p13 p15 p17 p2 p20 p21 p22 p23 p30 p31 p40 p45 p47 p48 p49 p5 p58 "
    "p59 p62 p64 p69 p70 p71 p8 p9",
    "o0.0 o0.1 o0.2 o0.3 o1.38 o1.39 o1.40 o1.41 o1.58 o1.59 o1.60 o1.61 p0 "
    "p10 p14 p16 p18 p19 p23 p25 p27 p3 p34 p38 p39 p4 p41 p43 p47 p51 p52 "
    "p58 p60 p62 p7 p71 p8 p9",
    "o0.0 o0.1 o0.2 o0.3 o1.10 o1.11 o1.12 o1.13 o1.56 o1.57 o1.58 o1.59 p0 "
    "p12 p16 p18 p19 p2 p23 p28 p3 p33 p36 p38 p41 p47 p48 p5 p56 p57 p6 p62 "
    "p63 p66 p67 p68 p7 p70",
    "o0.0 o0.1 o0.2 o0.3 o1.34 o1.35 o1.36 o1.37 o1.56 o1.57 o1.58 o1.59 p0 "
    "p1 p10 p14 p15 p18 p21 p23 p25 p26 p28 p29 p30 p32 p36 p37 p38 p44 p46 "
    "p53 p56 p57 p6 p61 p71 p73",
    "o0.0 o0.1 o0.2 o0.3 o1.40 o1.41 o1.42 o1.43 o1.6 o1.7 o1.8 o1.9 p0 p10 "
    "p11 p15 p16 p18 p20 p21 p23 p27 p29 p3 p30 p31 p35 p36 p37 p39 p40 p41 "
    "p51 p53 p54 p58 p62 p66",
    "o0.0 o0.1 o0.2 o0.3 o1.16 o1.17 o1.18 o1.19 o1.4 o1.5 o1.6 o1.7 p0 p14 "
    "p17 p19 p2 p22 p23 p24 p26 p3 p32 p33 p37 p38 p39 p41 p43 p47 p51 p52 "
    "p56 p57 p64 p66 p68 p7 p72",
    "o0.0 o0.1 o0.2 o0.3 o1.48 o1.49 o1.50 o1.51 o1.54 o1.55 o1.56 o1.57 p0 "
    "p15 p16 p17 p21 p24 p27 p30 p33 p38 p4 p46 p47 p48 p49 p5 p51 p54 p55 "
    "p57 p65 p72 p73 p74 p9",
    "o0.0 o0.1 o0.2 o0.3 o1.32 o1.33 o1.34 o1.35 o1.62 o1.63 o1.64 o1.65 p0 "
    "p1 p15 p16 p18 p25 p29 p31 p32 p34 p35 p40 p41 p44 p48 p50 p54 p6 p60 "
    "p61 p62 p64 p65 p67 p72",
    "o0.0 o0.1 o0.2 o0.3 o1.44 o1.45 o1.46 o1.47 o1.48 p0 p13 p16 p17 p18 p25 "
    "p26 p3 p37 p38 p39 p40 p41 p42 p45 p54 p55 p56 p57 p6 p60 p67",
    "o0.0 o0.1 o0.2 o0.3 o1.28 o1.29 o1.30 o1.31 o1.46 o1.47 o1.48 o1.49 p0 "
    "p1 p12 p18 p19 p2 p23 p27 p3 p33 p34 p35 p39 p40 p45 p47 p52 p53 p55 p60 "
    "p64 p67 p69 p7 p73",
    "o0.0 o0.1 o0.2 o0.3 o1.34 o1.35 o1.36 o1.37 o1.58 o1.59 o1.60 o1.61 p0 "
    "p1 p10 p12 p13 p14 p16 p17 p20 p21 p22 p23 p24 p26 p30 p31 p34 p38 p39 "
    "p4 p42 p48 p5 p58 p6 p66 p7 p72",
    "o0.0 o0.1 o0.2 o0.3 o1.28 o1.29 o1.30 o1.31 o1.48 o1.49 o1.50 o1.51 p0 "
    "p14 p18 p2 p26 p31 p34 p37 p38 p39 p44 p45 p46 p47 p48 p5 p51 p54 p57 "
    "p63 p67 p68 p72 p73",
    "o0.0 o0.1 o0.2 o0.3 o1.22 o1.23 o1.24 o1.25 o1.56 o1.57 o1.58 o1.59 p0 "
    "p10 p14 p15 p16 p2 p22 p25 p27 p31 p32 p33 p38 p4 p40 p44 p45 p46 p50 "
    "p52 p56 p63 p7 p71 p73 p8",
    "o0.0 o0.1 o0.2 o0.3 o1.54 o1.55 o1.56 o1.57 o1.62 o1.63 o1.64 o1.65 p0 "
    "p1 p10 p11 p12 p13 p17 p23 p25 p27 p28 p3 p31 p35 p36 p41 p47 p49 p52 "
    "p56 p61 p63 p64 p66 p68 p70 p74 p8",
    "o0.0 o0.1 o0.2 o0.3 o1.10 o1.11 o1.12 o1.13 o1.54 o1.55 o1.56 o1.57 p0 "
    "p10 p11 p15 p2 p20 p22 p23 p26 p3 p32 p37 p41 p45 p49 p5 p52 p56 p60 p63 "
    "p64 p66 p70 p75 p9",
    "o0.0 o0.1 o0.2 o0.3 o1.50 o1.51 o1.52 o1.53 o1.6 o1.7 o1.8 o1.9 p0 p1 "
    "p11 p12 p13 p2 p20 p22 p24 p26 p27 p28 p29 p34 p43 p44 p47 p53 p54 p58 "
    "p61 p62 p64 p66 p67 p74",
)
FINENESS_WITNESS = "o0.0 o0.1 o1.25 o2.15 p0 p15 p25"
PADDED_ORDER_WITNESS = "o0.1 o0.20 o0.3 o1.0 o2.0 o2.4 p13 p15 p23 p25 p3 p46 p49 p6"
HF_ORDER_WITNESS = (
    "{{{{},{{}}}}} {{{},{{}},{{{}}},{{},{{}}}}} {{{},{{}}}} "
    "{{{}},{{{}},{{{}}},{{},{{}}}}} {{{}},{{},{{}},{{{}}}}} {{},{{}}}")


# Searches with no grown or padded form, whose seeded attempts start
# from one settled tally: the pin and its run closure, then decoration.
# Each witness list ends with the generator's next getrandbits(32).
INTERVAL_WITNESSES = (
    "o0.0 o0.1 o0.2 o0.3 p11 p20", "o0.0 o0.1 o0.2 o0.3 p19 p9",
    "o0.0 o0.1 o0.2 o0.3 p1 p13 p4 p6", "o0.0 o0.1 o0.2 o0.3 p10 p11 p23",
    "o0.0 o0.1 o0.2 o0.3 p7", "o0.0 o0.1 o0.2 o0.3",
    "o0.0 o0.1 o0.2 o0.3 p18 p6", "o0.0 o0.1 o0.2 o0.3 p2 p26 p8",
    "o0.0 o0.1 o0.2 o0.3 p18 p23", "o0.0 o0.1 o0.2 o0.3 p24",
    "o0.0 o0.1 o0.2 o0.3 p25 p8", "o0.0 o0.1 o0.2 o0.3 p11 p8",
    "o0.0 o0.1 o0.2 o0.3 p21 p23 p27", "o0.0 o0.1 o0.2 o0.3 p14 p27 p28 p4",
    "o0.0 o0.1 o0.2 o0.3 p1 p10 p13 p21", "o0.0 o0.1 o0.2 o0.3 p4",
    "o0.0 o0.1 o0.2 o0.3 p1 p7", "o0.0 o0.1 o0.2 o0.3 o0.4 p17 p2 p20",
    "o0.0 o0.1 o0.2 o0.3 p1 p15 p6", "o0.0 o0.1 o0.2 o0.3 p11 p4 p9",
    3468106383,
)
LONE_PIN_WITNESS = ("o1.2 o1.23 p10 p18 p21", 4208579497)
INTERVAL_PIN = (interval(3), fineness(nat(0)))


def witness_codes(t):
    return " ".join(sorted(s.code for s in t))


def _drawless_witnesses():
    rng = random.Random(7)
    ts = generate_witnesses(INTERVAL_PIN, U, rng, 20)
    interval_run = (*(witness_codes(t) for t in ts), rng.getrandbits(32))
    rng = random.Random(3)
    t = find_witness([fineness(ord_value(1, 2))], U, rng=rng, decorate=4)
    return interval_run, (witness_codes(t), rng.getrandbits(32))


def test_drawless_seeded_witnesses_are_pinned(fresh_caches):
    for _ in range(2):  # prepared, then kept
        assert _drawless_witnesses() == (INTERVAL_WITNESSES, LONE_PIN_WITNESS)


def test_seeded_runs_leave_the_settled_tally_as_it_was():
    search = filters._Search(INTERVAL_PIN, U, None, None, filters.SCAN_CAP)
    settled = search.settled
    run = {nat(b) for b in range(4)}
    want = (run, {0: {0, 1, 2, 3}}, {None: 0, frozenset(["o0.0"]): 1}, 0)
    assert _tally_parts(settled) == want
    rng = random.Random(7)
    found = [search.run(rng, 4) for _ in range(30)]
    assert all(run <= set(t) for t in found)
    assert any(len(t) > len(run) for t in found)
    assert search.settled is settled and _tally_parts(settled) == want


@pytest.mark.parametrize("cs, found", [
    (INTERVAL_PIN, snapshot(*(nat(b) for b in range(4)))),
    ((subset_bound([nat(0)], 1),), snapshot(pad(0))),
], ids=["pinned", "empty"])
def test_runs_with_no_rng_leave_the_settled_tally_as_it_was(cs, found):
    # A run with no rng reads a non-empty settled tally in place; from an
    # empty one it seeds a state, so it takes a copy.
    search = filters._Search(cs, U, None, None, filters.SCAN_CAP)
    settled = search.settled
    want = _tally_parts(settled)
    assert [search.run(None, 4) for _ in range(3)] == [found] * 3
    assert search.settled is settled and _tally_parts(settled) == want


def test_a_drawless_search_at_max_size_makes_one_attempt(counted_searches, monkeypatch):
    # The pins fill the size cap, so an attempt ends with nothing, and
    # with no rng another would repeat it.
    u = make_universe(ORDINAL_MODE, 2)
    xs = list(islice(u.enumerate_universe(), 4))
    repairs, copies = [], []
    repair, copy = filters._Search._repair, filters._Tally.copy
    monkeypatch.setattr(filters._Search, "_repair",
                        lambda self, rng: repairs.append(rng) or repair(self, rng))
    monkeypatch.setattr(filters._Tally, "copy",
                        lambda self: copies.append(self) or copy(self))
    pins = [fineness(xs[0]), fineness(xs[1])]
    assert find_witness(pins, u, window=xs, max_size=2) is None
    assert (len(repairs), len(copies)) == (0, 0)  # decided from the pins
    repairs.clear()
    assert find_witness(pins + [min_size(1)], u, window=xs, max_size=2) is None
    assert (len(repairs), len(copies)) == (1, 0)  # nothing settled: one repair


def test_a_drawless_repair_ends_at_its_fixed_point(monkeypatch):
    # The pins break the bound and no round adds a state, so the first
    # round is the last.
    a, b = nat(0), nat(1)
    search = filters._Search((fineness(a), fineness(b), subset_bound((a, b), 2)),
                             U, None, None, filters.SCAN_CAP)
    assert search.settled.states == {a, b} and search.run(None, 0) is None
    calls = []
    satisfied = filters._Tally.satisfied
    monkeypatch.setattr(filters._Tally, "satisfied",
                        lambda self: calls.append(self) or satisfied(self))
    assert search._repair(None).states == {a, b}
    assert len(calls) == 1


# Lists of fineness pins and subset caps over the first 12 states of an
# ordinal and an HF universe: a pin may lie outside the window or repeat.
_CAPPED_STATES = {u: list(islice(u.enumerate_universe(), 12))
                  for u in (make_universe(ORDINAL_MODE, 2), HF)}


@st.composite
def pins_and_caps(draw):
    u = draw(st.sampled_from(list(_CAPPED_STATES)))
    state = st.sampled_from(_CAPPED_STATES[u])
    cap = st.builds(subset_bound, st.lists(state, min_size=1, max_size=4),
                    st.integers(0, 3))
    cs = draw(st.lists(state.map(fineness) | cap, min_size=1, max_size=5))
    window = draw(st.none() | st.lists(state, min_size=3, max_size=10, unique=True))
    return cs, u, window, draw(st.none() | st.integers(1, 4))


def _tally_answer(search):
    """The run with no rng as a tally gives it: the repair loop's tally
    from the pins, one state seeded if it is empty and the empty set
    satisfies every constraint, and its Snapshot if satisfied and below
    max_size."""
    if search.barred:
        return None
    tally = search._repair(None)
    placed = tally.states
    if not placed and tally.satisfied():
        for cand in islice(search._pad_stream(tally, None), search.scan_cap):
            if tally.admit(cand):
                break
    if placed and tally.satisfied() and \
            (search.max_size is None or len(placed) < search.max_size):
        return Snapshot(placed)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pins_and_caps())
def test_pins_and_caps_are_decided_as_a_tally_decides_them(problem):
    cs, u, window, max_size = problem
    got = find_witness(cs, u, window=window, max_size=max_size)
    search = filters._Search(tuple(cs), u, None if window is None else tuple(window),
                             max_size, filters.SCAN_CAP)
    assert got == _tally_answer(search)
    pins = [c.x for c in cs if c.tag == filters.TAG_FINENESS]
    assert search.decided == bool(pins)  # a pin-free list seeds a state
    if pins:
        t = snapshot(*pins)
        fits = (window is None or all(p in window for p in pins)) and \
            (max_size is None or len(t) < max_size) and \
            all(constraint_membership(c, t, u.mode) for c in cs)
        assert got == (t if fits else None)


def test_a_seeded_repair_goes_on_after_a_round_that_adds_nothing(monkeypatch):
    # A repair that may scan one candidate adds nothing in a round that
    # draws an Even state; the next round draws again.
    cs = (fineness(nat(0)), ratio(U.builtin_class("Even"), U.builtin_class("On"), 2))
    search = filters._Search(cs, U, None, None, 1)
    added = []
    grow = filters._Search._grow

    def counted(self, states, form, need, rng):
        size = len(states.states)
        grow(self, states, form, need, rng)
        added.append(len(states.states) - size)

    monkeypatch.setattr(filters._Search, "_grow", counted)
    assert search._repair(random.Random(1)).states == {nat(0), ord_value(1, 7)}
    assert added == [0, 0, 0, 1]


@pytest.mark.parametrize("cs", [
    [fineness(nat(0)), interval(3), subset_bound([nat(5), nat(6)], 1)],
    [fineness(nat(1)), ratio(U.builtin_class("Even"), U.builtin_class("Odd"), 1),
     min_size(4)],
], ids=["drawless", "grown"])
def test_a_repeated_constraint_changes_no_witness_found_with_no_rng(cs):
    want = find_witness(cs, U)
    assert want is not None
    for c in cs:
        assert find_witness(cs + [c], U) == want


def test_a_settled_tally_at_max_size_finds_nothing_and_draws_nothing():
    # the pin's run closure already has 4 states, the size cap
    rng = random.Random(1)
    state = rng.getstate()
    assert find_witness(INTERVAL_PIN, U, rng=rng, max_size=4, decorate=4) is None
    assert rng.getstate() == state
    t = find_witness(INTERVAL_PIN, U, rng=rng, max_size=5, decorate=4)
    assert witness_codes(t) == "o0.0 o0.1 o0.2 o0.3"


def test_seeded_witnesses_are_pinned():
    base = expand_base(ordinal_theorem_base(U, [(M4, E1)]))
    ts = generate_witnesses(base, U, random.Random(7), 20)
    assert tuple(witness_codes(t) for t in ts) == THEOREM_WITNESSES
    t = find_witness(expand_base(fineness_base(U)), U, rng=random.Random(3),
                     decorate=4)
    assert witness_codes(t) == FINENESS_WITNESS
    r2 = list(HF.level_members(2))
    c = order_lt(class_of_set(hf_set(r2[:1])), class_of_set(hf_set(r2[:2])))
    t = find_witness([c, power_lift(c)], HF, rng=random.Random(3), decorate=4)
    assert witness_codes(t) == HF_ORDER_WITNESS
    # order_ge repair, then weight and min_size padding, then decoration
    cs = [fineness(nat(1)), fineness(nat(3)), order_ge(REG["Even"], REG["Odd"]),
          weight(2), min_size(10)]
    t = find_witness(cs, U, rng=random.Random(3), decorate=4)
    assert witness_codes(t) == PADDED_ORDER_WITNESS


def test_a_kept_search_draws_as_a_fresh_one(counted_searches):
    # the search of these inputs is kept, has run with no rng and with
    # another seed, and still makes the pinned draws
    prepared, _ = counted_searches
    base = expand_base(ordinal_theorem_base(U, [(M4, E1)]))
    find_witness(base, U)
    find_witness(base, U, rng=random.Random(0), decorate=4)
    ts = generate_witnesses(base, U, random.Random(7), 20)
    assert tuple(witness_codes(t) for t in ts) == THEOREM_WITNESSES
    assert len(prepared) == 1


def test_shuffle_replays_random_shuffle():
    # the seeded witnesses rest on these draws: the same permutation, and
    # the generator left where `Random.shuffle` leaves it
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        # the bit widths come from a table; longer lists read their own
        last = len(filters._WIDTHS)
        for n in [*range(131), last - 1, last, last + 1] if seed < 20 else range(131):
            x, y = list(range(n)), list(range(n))
            filters._shuffle(ours, x)
            theirs.shuffle(y)
            assert x == y, (seed, n)
            assert ours.getrandbits(32) == theirs.getrandbits(32), (seed, n)


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


def test_ordinal_witness_pads_past_a_pinned_pad():
    w = ordinal_witness(U, [pad(0)], k=1, l=1, m=2)
    assert pad(0) in w and pad(1) in w
    assert constraint_membership(weight(2), w, U.mode)


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
@settings(max_examples=25, deadline=None, derandomize=True)
def test_ordinal_witness_property(k, l, m, pinset):
    pins = [nat(i) for i in sorted(pinset)]
    w = ordinal_witness(U, pins, k=k, l=l, m=m)
    for p in pins:
        assert p in w
    assert constraint_membership(interval(l), w, U.mode)
    assert constraint_membership(weight(m), w, U.mode)


# ordinal_witness over a grid of pins, k, l, m and tier-ordered class
# pairs, recorded before its states moved onto a `_Tally`: each row is
# the witness's codes with consecutive ones written as a range (o0.3-6
# is o0.3 o0.4 o0.5 o0.6), or the text of the construction's refusal.
_GRID_PINS = {"-": [], "o0.3": [nat(3)], "o0.1+o1.2": [nat(1), ord_value(1, 2)]}
_GRID_PAIRS = {"-": [], "m4:e1": [(M4, E1)], "m4:e1,e1:o2": [(M4, E1), (E1, O2)]}
ORDINAL_WITNESS_TABLE = {
    "- k1l1m1 -": "o0.0-1 p0-1",
    "- k1l1m1 m4:e1": "o0.0-1 p0-1",
    "- k1l1m1 m4:e1,e1:o2": "o0.0-1 p0-1",
    "- k1l1m2 -": "o0.0-1 p0-3",
    "- k1l1m2 m4:e1": "o0.0-1 p0-3",
    "- k1l1m2 m4:e1,e1:o2": "o0.0-1 p0-3",
    "- k1l1m3 -": "o0.0-1 p0-5",
    "- k1l1m3 m4:e1": "o0.0-1 p0-5",
    "- k1l1m3 m4:e1,e1:o2": "o0.0-1 p0-5",
    "- k1l2m1 -": "o0.0-2 p0-2",
    "- k1l2m1 m4:e1": "o0.0-2 p0-2",
    "- k1l2m1 m4:e1,e1:o2": "o0.0-2 p0-2",
    "- k1l2m2 -": "o0.0-2 p0-5",
    "- k1l2m2 m4:e1": "o0.0-2 p0-5",
    "- k1l2m2 m4:e1,e1:o2": "o0.0-2 p0-5",
    "- k1l2m3 -": "o0.0-2 p0-8",
    "- k1l2m3 m4:e1": "o0.0-2 p0-8",
    "- k1l2m3 m4:e1,e1:o2": "o0.0-2 p0-8",
    "- k1l3m1 -": "o0.0-3 p0-3",
    "- k1l3m1 m4:e1": "o0.0-3 p0-3",
    "- k1l3m1 m4:e1,e1:o2": "o0.0-3 p0-3",
    "- k1l3m2 -": "o0.0-3 p0-7",
    "- k1l3m2 m4:e1": "o0.0-3 p0-7",
    "- k1l3m2 m4:e1,e1:o2": "o0.0-3 p0-7",
    "- k1l3m3 -": "o0.0-3 p0-11",
    "- k1l3m3 m4:e1": "o0.0-3 p0-11",
    "- k1l3m3 m4:e1,e1:o2": "o0.0-3 p0-11",
    "- k2l1m1 -": "o0.0-1 p0-1",
    "- k2l1m1 m4:e1": "o0.0-1 o1.0-1 p0-3",
    "- k2l1m1 m4:e1,e1:o2": "o0.0-1 o1.0-1 p0-3",
    "- k2l1m2 -": "o0.0-1 p0-3",
    "- k2l1m2 m4:e1": "o0.0-1 o1.0-1 p0-7",
    "- k2l1m2 m4:e1,e1:o2": "o0.0-1 o1.0-1 p0-7",
    "- k2l1m3 -": "o0.0-1 p0-5",
    "- k2l1m3 m4:e1": "o0.0-1 o1.0-1 p0-11",
    "- k2l1m3 m4:e1,e1:o2": "o0.0-1 o1.0-1 p0-11",
    "- k2l2m1 -": "o0.0-2 p0-2",
    "- k2l2m1 m4:e1": "o0.0-2 p0-2",
    "- k2l2m1 m4:e1,e1:o2": "o0.0-2 o2.0-2 p0-5",
    "- k2l2m2 -": "o0.0-2 p0-5",
    "- k2l2m2 m4:e1": "o0.0-2 p0-5",
    "- k2l2m2 m4:e1,e1:o2": "o0.0-2 o2.0-2 p0-11",
    "- k2l2m3 -": "o0.0-2 p0-8",
    "- k2l2m3 m4:e1": "o0.0-2 p0-8",
    "- k2l2m3 m4:e1,e1:o2": "o0.0-2 o2.0-2 p0-17",
    "- k2l3m1 -": "o0.0-3 p0-3",
    "- k2l3m1 m4:e1": "o0.0-3 p0-3",
    "- k2l3m1 m4:e1,e1:o2": "o0.0-3 p0-3",
    "- k2l3m2 -": "o0.0-3 p0-7",
    "- k2l3m2 m4:e1": "o0.0-3 p0-7",
    "- k2l3m2 m4:e1,e1:o2": "o0.0-3 p0-7",
    "- k2l3m3 -": "o0.0-3 p0-11",
    "- k2l3m3 m4:e1": "o0.0-3 p0-11",
    "- k2l3m3 m4:e1,e1:o2": "o0.0-3 p0-11",
    "- k3l1m1 -": "o0.0-1 p0-1",
    "- k3l1m1 m4:e1": "o0.0-1 o1.0-2 p0-4",
    "- k3l1m1 m4:e1,e1:o2": "o0.0-1 o1.0-2 o2.0-3 p0-8",
    "- k3l1m2 -": "o0.0-1 p0-3",
    "- k3l1m2 m4:e1": "o0.0-1 o1.0-2 p0-9",
    "- k3l1m2 m4:e1,e1:o2": "o0.0-1 o1.0-2 o2.0-3 p0-17",
    "- k3l1m3 -": "o0.0-1 p0-5",
    "- k3l1m3 m4:e1": "o0.0-1 o1.0-2 p0-14",
    "- k3l1m3 m4:e1,e1:o2": "o0.0-1 o1.0-2 o2.0-3 p0-26",
    "- k3l2m1 -": "o0.0-2 p0-2",
    "- k3l2m1 m4:e1": "o0.0-2 o1.0-2 p0-5",
    "- k3l2m1 m4:e1,e1:o2": "o0.0-2 o1.0-2 o2.0-5 p0-11",
    "- k3l2m2 -": "o0.0-2 p0-5",
    "- k3l2m2 m4:e1": "o0.0-2 o1.0-2 p0-11",
    "- k3l2m2 m4:e1,e1:o2": "o0.0-2 o1.0-2 o2.0-5 p0-23",
    "- k3l2m3 -": "o0.0-2 p0-8",
    "- k3l2m3 m4:e1": "o0.0-2 o1.0-2 p0-17",
    "- k3l2m3 m4:e1,e1:o2": "o0.0-2 o1.0-2 o2.0-5 p0-35",
    "- k3l3m1 -": "o0.0-3 p0-3",
    "- k3l3m1 m4:e1": "o0.0-3 o1.0-3 p0-7",
    "- k3l3m1 m4:e1,e1:o2": "o0.0-3 o1.0-3 o2.0-3 p0-11",
    "- k3l3m2 -": "o0.0-3 p0-7",
    "- k3l3m2 m4:e1": "o0.0-3 o1.0-3 p0-15",
    "- k3l3m2 m4:e1,e1:o2": "o0.0-3 o1.0-3 o2.0-3 p0-23",
    "- k3l3m3 -": "o0.0-3 p0-11",
    "- k3l3m3 m4:e1": "o0.0-3 o1.0-3 p0-23",
    "- k3l3m3 m4:e1,e1:o2": "o0.0-3 o1.0-3 o2.0-3 p0-35",
    "o0.3 k1l1m1 -": "o0.3-4 p0-1",
    "o0.3 k1l1m1 m4:e1": "o0.3-4 o1.0-1 p0-3",
    "o0.3 k1l1m1 m4:e1,e1:o2": "o0.3-4 o1.0-1 o2.0-1 p0-5",
    "o0.3 k1l1m2 -": "o0.3-4 p0-3",
    "o0.3 k1l1m2 m4:e1": "o0.3-4 o1.0-1 p0-7",
    "o0.3 k1l1m2 m4:e1,e1:o2": "o0.3-4 o1.0-1 o2.0-1 p0-11",
    "o0.3 k1l1m3 -": "o0.3-4 p0-5",
    "o0.3 k1l1m3 m4:e1": "o0.3-4 o1.0-1 p0-11",
    "o0.3 k1l1m3 m4:e1,e1:o2": "o0.3-4 o1.0-1 o2.0-1 p0-17",
    "o0.3 k1l2m1 -": "o0.3-5 p0-2",
    "o0.3 k1l2m1 m4:e1": "o0.3-5 o1.0-2 p0-5",
    "o0.3 k1l2m1 m4:e1,e1:o2": "o0.3-5 o1.0-2 o2.0-2 p0-8",
    "o0.3 k1l2m2 -": "o0.3-5 p0-5",
    "o0.3 k1l2m2 m4:e1": "o0.3-5 o1.0-2 p0-11",
    "o0.3 k1l2m2 m4:e1,e1:o2": "o0.3-5 o1.0-2 o2.0-2 p0-17",
    "o0.3 k1l2m3 -": "o0.3-5 p0-8",
    "o0.3 k1l2m3 m4:e1": "o0.3-5 o1.0-2 p0-17",
    "o0.3 k1l2m3 m4:e1,e1:o2": "o0.3-5 o1.0-2 o2.0-2 p0-26",
    "o0.3 k1l3m1 -": "o0.3-6 p0-3",
    "o0.3 k1l3m1 m4:e1": "o0.3-6 o1.0-3 p0-7",
    "o0.3 k1l3m1 m4:e1,e1:o2": "o0.3-6 o1.0-3 o2.0-3 p0-11",
    "o0.3 k1l3m2 -": "o0.3-6 p0-7",
    "o0.3 k1l3m2 m4:e1": "o0.3-6 o1.0-3 p0-15",
    "o0.3 k1l3m2 m4:e1,e1:o2": "o0.3-6 o1.0-3 o2.0-3 p0-23",
    "o0.3 k1l3m3 -": "o0.3-6 p0-11",
    "o0.3 k1l3m3 m4:e1": "o0.3-6 o1.0-3 p0-23",
    "o0.3 k1l3m3 m4:e1,e1:o2": "o0.3-6 o1.0-3 o2.0-3 p0-35",
    "o0.3 k2l1m1 -": "o0.3-4 p0-1",
    "o0.3 k2l1m1 m4:e1": "o0.3-4 o1.0-2 p0-4",
    "o0.3 k2l1m1 m4:e1,e1:o2": "o0.3-4 o1.0-2 o2.0-1 p0-6",
    "o0.3 k2l1m2 -": "o0.3-4 p0-3",
    "o0.3 k2l1m2 m4:e1": "o0.3-4 o1.0-2 p0-9",
    "o0.3 k2l1m2 m4:e1,e1:o2": "o0.3-4 o1.0-2 o2.0-1 p0-13",
    "o0.3 k2l1m3 -": "o0.3-4 p0-5",
    "o0.3 k2l1m3 m4:e1": "o0.3-4 o1.0-2 p0-14",
    "o0.3 k2l1m3 m4:e1,e1:o2": "o0.3-4 o1.0-2 o2.0-1 p0-20",
    "o0.3 k2l2m1 -": "o0.3-5 p0-2",
    "o0.3 k2l2m1 m4:e1": "o0.3-5 o1.0-2 p0-5",
    "o0.3 k2l2m1 m4:e1,e1:o2": "o0.3-5 o1.0-2 o2.0-2 p0-8",
    "o0.3 k2l2m2 -": "o0.3-5 p0-5",
    "o0.3 k2l2m2 m4:e1": "o0.3-5 o1.0-2 p0-11",
    "o0.3 k2l2m2 m4:e1,e1:o2": "o0.3-5 o1.0-2 o2.0-2 p0-17",
    "o0.3 k2l2m3 -": "o0.3-5 p0-8",
    "o0.3 k2l2m3 m4:e1": "o0.3-5 o1.0-2 p0-17",
    "o0.3 k2l2m3 m4:e1,e1:o2": "o0.3-5 o1.0-2 o2.0-2 p0-26",
    "o0.3 k2l3m1 -": "o0.3-6 p0-3",
    "o0.3 k2l3m1 m4:e1": "o0.3-6 o1.0-3 p0-7",
    "o0.3 k2l3m1 m4:e1,e1:o2": "o0.3-6 o1.0-3 o2.0-3 p0-11",
    "o0.3 k2l3m2 -": "o0.3-6 p0-7",
    "o0.3 k2l3m2 m4:e1": "o0.3-6 o1.0-3 p0-15",
    "o0.3 k2l3m2 m4:e1,e1:o2": "o0.3-6 o1.0-3 o2.0-3 p0-23",
    "o0.3 k2l3m3 -": "o0.3-6 p0-11",
    "o0.3 k2l3m3 m4:e1": "o0.3-6 o1.0-3 p0-23",
    "o0.3 k2l3m3 m4:e1,e1:o2": "o0.3-6 o1.0-3 o2.0-3 p0-35",
    "o0.3 k3l1m1 -": "o0.3-4 p0-1",
    "o0.3 k3l1m1 m4:e1": "o0.3-4 o1.0-2 o1.4-5 p0-6",
    "o0.3 k3l1m1 m4:e1,e1:o2": "o0.3-4 o1.0-2 o1.4-5 o2.0-4 p0-11",
    "o0.3 k3l1m2 -": "o0.3-4 p0-3",
    "o0.3 k3l1m2 m4:e1": "o0.3-4 o1.0-2 o1.4-5 p0-13",
    "o0.3 k3l1m2 m4:e1,e1:o2": "o0.3-4 o1.0-2 o1.4-5 o2.0-4 p0-23",
    "o0.3 k3l1m3 -": "o0.3-4 p0-5",
    "o0.3 k3l1m3 m4:e1": "o0.3-4 o1.0-2 o1.4-5 p0-20",
    "o0.3 k3l1m3 m4:e1,e1:o2": "o0.3-4 o1.0-2 o1.4-5 o2.0-4 p0-35",
    "o0.3 k3l2m1 -": "o0.3-5 p0-2",
    "o0.3 k3l2m1 m4:e1": "o0.3-5 o1.0-2 o1.4-6 p0-8",
    "o0.3 k3l2m1 m4:e1,e1:o2": "o0.3-5 o1.0-2 o1.4-6 o2.0-5 p0-14",
    "o0.3 k3l2m2 -": "o0.3-5 p0-5",
    "o0.3 k3l2m2 m4:e1": "o0.3-5 o1.0-2 o1.4-6 p0-17",
    "o0.3 k3l2m2 m4:e1,e1:o2": "o0.3-5 o1.0-2 o1.4-6 o2.0-5 p0-29",
    "o0.3 k3l2m3 -": "o0.3-5 p0-8",
    "o0.3 k3l2m3 m4:e1": "o0.3-5 o1.0-2 o1.4-6 p0-26",
    "o0.3 k3l2m3 m4:e1,e1:o2": "o0.3-5 o1.0-2 o1.4-6 o2.0-5 p0-44",
    "o0.3 k3l3m1 -": "o0.3-6 p0-3",
    "o0.3 k3l3m1 m4:e1": "o0.3-6 o1.0-4 p0-8",
    "o0.3 k3l3m1 m4:e1,e1:o2": "o0.3-6 o1.0-4 o2.0-5 p0-14",
    "o0.3 k3l3m2 -": "o0.3-6 p0-7",
    "o0.3 k3l3m2 m4:e1": "o0.3-6 o1.0-4 p0-17",
    "o0.3 k3l3m2 m4:e1,e1:o2": "o0.3-6 o1.0-4 o2.0-5 p0-29",
    "o0.3 k3l3m3 -": "o0.3-6 p0-11",
    "o0.3 k3l3m3 m4:e1": "o0.3-6 o1.0-4 p0-26",
    "o0.3 k3l3m3 m4:e1,e1:o2": "o0.3-6 o1.0-4 o2.0-5 p0-44",
    "o0.1+o1.2 k1l1m1 -": "o0.1-2 o1.2-3 p0-3",
    "o0.1+o1.2 k1l1m1 m4:e1": "o0.1-2 o0.6-7 o1.0-3 p0-7",
    "o0.1+o1.2 k1l1m1 m4:e1,e1:o2": "o0.1-2 o0.6-7 o1.0-3 o2.0-1 p0-9",
    "o0.1+o1.2 k1l1m2 -": "o0.1-2 o1.2-3 p0-7",
    "o0.1+o1.2 k1l1m2 m4:e1": "o0.1-2 o0.6-7 o1.0-3 p0-15",
    "o0.1+o1.2 k1l1m2 m4:e1,e1:o2": "o0.1-2 o0.6-7 o1.0-3 o2.0-1 p0-19",
    "o0.1+o1.2 k1l1m3 -": "o0.1-2 o1.2-3 p0-11",
    "o0.1+o1.2 k1l1m3 m4:e1": "o0.1-2 o0.6-7 o1.0-3 p0-23",
    "o0.1+o1.2 k1l1m3 m4:e1,e1:o2": "o0.1-2 o0.6-7 o1.0-3 o2.0-1 p0-29",
    "o0.1+o1.2 k1l2m1 -": "o0.1-3 o1.2-4 p0-5",
    "o0.1+o1.2 k1l2m1 m4:e1": "o0.1-3 o1.2-4 o1.8-10 p0-8",
    "o0.1+o1.2 k1l2m1 m4:e1,e1:o2": "o0.1-3 o1.2-4 o1.8-10 o2.0-2 p0-11",
    "o0.1+o1.2 k1l2m2 -": "o0.1-3 o1.2-4 p0-11",
    "o0.1+o1.2 k1l2m2 m4:e1": "o0.1-3 o1.2-4 o1.8-10 p0-17",
    "o0.1+o1.2 k1l2m2 m4:e1,e1:o2": "o0.1-3 o1.2-4 o1.8-10 o2.0-2 p0-23",
    "o0.1+o1.2 k1l2m3 -": "o0.1-3 o1.2-4 p0-17",
    "o0.1+o1.2 k1l2m3 m4:e1": "o0.1-3 o1.2-4 o1.8-10 p0-26",
    "o0.1+o1.2 k1l2m3 m4:e1,e1:o2": "o0.1-3 o1.2-4 o1.8-10 o2.0-2 p0-35",
    "o0.1+o1.2 k1l3m1 -": "o0.1-4 o1.2-5 p0-7",
    "o0.1+o1.2 k1l3m1 m4:e1": "o0.1-4 o1.2-5 o1.10-13 p0-11",
    "o0.1+o1.2 k1l3m1 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-13 o2.0-3 p0-15",
    "o0.1+o1.2 k1l3m2 -": "o0.1-4 o1.2-5 p0-15",
    "o0.1+o1.2 k1l3m2 m4:e1": "o0.1-4 o1.2-5 o1.10-13 p0-23",
    "o0.1+o1.2 k1l3m2 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-13 o2.0-3 p0-31",
    "o0.1+o1.2 k1l3m3 -": "o0.1-4 o1.2-5 p0-23",
    "o0.1+o1.2 k1l3m3 m4:e1": "o0.1-4 o1.2-5 o1.10-13 p0-35",
    "o0.1+o1.2 k1l3m3 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-13 o2.0-3 p0-47",
    "o0.1+o1.2 k2l1m1 -": "o0.1-2 o1.2-3 p0-3",
    "o0.1+o1.2 k2l1m1 m4:e1": "o0.1-2 o0.6-7 o1.0-3 o1.6-8 p0-10",
    "o0.1+o1.2 k2l1m1 m4:e1,e1:o2": "o0.1-2 o0.6-7 o1.0-3 o1.6-8 o2.0-3 p0-14",
    "o0.1+o1.2 k2l1m2 -": "o0.1-2 o1.2-3 p0-7",
    "o0.1+o1.2 k2l1m2 m4:e1": "o0.1-2 o0.6-7 o1.0-3 o1.6-8 p0-21",
    "o0.1+o1.2 k2l1m2 m4:e1,e1:o2": "o0.1-2 o0.6-7 o1.0-3 o1.6-8 o2.0-3 p0-29",
    "o0.1+o1.2 k2l1m3 -": "o0.1-2 o1.2-3 p0-11",
    "o0.1+o1.2 k2l1m3 m4:e1": "o0.1-2 o0.6-7 o1.0-3 o1.6-8 p0-32",
    "o0.1+o1.2 k2l1m3 m4:e1,e1:o2": "o0.1-2 o0.6-7 o1.0-3 o1.6-8 o2.0-3 p0-44",
    "o0.1+o1.2 k2l2m1 -": "o0.1-3 o1.2-4 p0-5",
    "o0.1+o1.2 k2l2m1 m4:e1": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 p0-11",
    "o0.1+o1.2 k2l2m1 m4:e1,e1:o2": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o2.0-3 p0-15",
    "o0.1+o1.2 k2l2m2 -": "o0.1-3 o1.2-4 p0-11",
    "o0.1+o1.2 k2l2m2 m4:e1": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 p0-23",
    "o0.1+o1.2 k2l2m2 m4:e1,e1:o2": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o2.0-3 p0-31",
    "o0.1+o1.2 k2l2m3 -": "o0.1-3 o1.2-4 p0-17",
    "o0.1+o1.2 k2l2m3 m4:e1": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 p0-35",
    "o0.1+o1.2 k2l2m3 m4:e1,e1:o2": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o2.0-3 p0-47",
    "o0.1+o1.2 k2l3m1 -": "o0.1-4 o1.2-5 p0-7",
    "o0.1+o1.2 k2l3m1 m4:e1": "o0.1-4 o1.2-5 o1.10-14 o1.16-19 p0-16",
    "o0.1+o1.2 k2l3m1 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-14 o1.16-19 o2.0-3 p0-20",
    "o0.1+o1.2 k2l3m2 -": "o0.1-4 o1.2-5 p0-15",
    "o0.1+o1.2 k2l3m2 m4:e1": "o0.1-4 o1.2-5 o1.10-14 o1.16-19 p0-33",
    "o0.1+o1.2 k2l3m2 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-14 o1.16-19 o2.0-3 p0-41",
    "o0.1+o1.2 k2l3m3 -": "o0.1-4 o1.2-5 p0-23",
    "o0.1+o1.2 k2l3m3 m4:e1": "o0.1-4 o1.2-5 o1.10-14 o1.16-19 p0-50",
    "o0.1+o1.2 k2l3m3 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-14 o1.16-19 o2.0-3 p0-62",
    "o0.1+o1.2 k3l1m1 -": "o0.1-2 o1.2-3 p0-3",
    "o0.1+o1.2 k3l1m1 m4:e1": "o0.1-2 o0.6-7 o0.10-11 o1.0-3 o1.6-8 o1.10-11 p0-14",
    "o0.1+o1.2 k3l1m1 m4:e1,e1:o2":
        "o0.1-2 o0.6-7 o0.10-11 o1.0-3 o1.6-8 o1.10-11 o2.0-8 p0-23",
    "o0.1+o1.2 k3l1m2 -": "o0.1-2 o1.2-3 p0-7",
    "o0.1+o1.2 k3l1m2 m4:e1": "o0.1-2 o0.6-7 o0.10-11 o1.0-3 o1.6-8 o1.10-11 p0-29",
    "o0.1+o1.2 k3l1m2 m4:e1,e1:o2":
        "o0.1-2 o0.6-7 o0.10-11 o1.0-3 o1.6-8 o1.10-11 o2.0-8 p0-47",
    "o0.1+o1.2 k3l1m3 -": "o0.1-2 o1.2-3 p0-11",
    "o0.1+o1.2 k3l1m3 m4:e1": "o0.1-2 o0.6-7 o0.10-11 o1.0-3 o1.6-8 o1.10-11 p0-44",
    "o0.1+o1.2 k3l1m3 m4:e1,e1:o2":
        "o0.1-2 o0.6-7 o0.10-11 o1.0-3 o1.6-8 o1.10-11 o2.0-8 p0-71",
    "o0.1+o1.2 k3l2m1 -": "o0.1-3 o1.2-4 p0-5",
    "o0.1+o1.2 k3l2m1 m4:e1": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o1.16-18 p0-14",
    "o0.1+o1.2 k3l2m1 m4:e1,e1:o2":
        "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o1.16-18 o2.0-11 p0-26",
    "o0.1+o1.2 k3l2m2 -": "o0.1-3 o1.2-4 p0-11",
    "o0.1+o1.2 k3l2m2 m4:e1": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o1.16-18 p0-29",
    "o0.1+o1.2 k3l2m2 m4:e1,e1:o2":
        "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o1.16-18 o2.0-11 p0-53",
    "o0.1+o1.2 k3l2m3 -": "o0.1-3 o1.2-4 p0-17",
    "o0.1+o1.2 k3l2m3 m4:e1": "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o1.16-18 p0-44",
    "o0.1+o1.2 k3l2m3 m4:e1,e1:o2":
        "o0.1-3 o1.2-4 o1.8-10 o1.12-14 o1.16-18 o2.0-11 p0-80",
    "o0.1+o1.2 k3l3m1 -": "o0.1-4 o1.2-5 p0-7",
    "o0.1+o1.2 k3l3m1 m4:e1": "o0.1-4 o1.2-5 o1.10-14 o1.16-20 p0-17",
    "o0.1+o1.2 k3l3m1 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-14 o1.16-20 o2.0-11 p0-29",
    "o0.1+o1.2 k3l3m2 -": "o0.1-4 o1.2-5 p0-15",
    "o0.1+o1.2 k3l3m2 m4:e1": "o0.1-4 o1.2-5 o1.10-14 o1.16-20 p0-35",
    "o0.1+o1.2 k3l3m2 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-14 o1.16-20 o2.0-11 p0-59",
    "o0.1+o1.2 k3l3m3 -": "o0.1-4 o1.2-5 p0-23",
    "o0.1+o1.2 k3l3m3 m4:e1": "o0.1-4 o1.2-5 o1.10-14 o1.16-20 p0-53",
    "o0.1+o1.2 k3l3m3 m4:e1,e1:o2": "o0.1-4 o1.2-5 o1.10-14 o1.16-20 o2.0-11 p0-89",
}


def _code_ranges(t):
    """The codes of t, sorted by head then number, with consecutive runs
    collapsed to first-last."""
    groups = {}
    for s in t:
        head = f"o{s.ord_parts[0]}." if s.is_ordinal else "p"
        groups.setdefault(head, []).append(int(s.code.removeprefix(head)))
    out = []
    for head in sorted(groups):
        ns = sorted(groups[head])
        starts = [n for n in ns if n - 1 not in ns]
        ends = [n for n in ns if n + 1 not in ns]
        out.extend(f"{head}{i}" if i == j else f"{head}{i}-{j}"
                   for i, j in zip(starts, ends))
    return " ".join(out)


def test_ordinal_witness_table_is_pinned():
    rows = {}
    for (pn, pins), k, l, m, (qn, pairs) in product(
            _GRID_PINS.items(), (1, 2, 3), (1, 2, 3), (1, 2, 3), _GRID_PAIRS.items()):
        try:
            row = _code_ranges(ordinal_witness(U, pins, k=k, l=l, m=m, pairs=pairs))
        except (ConstructionFailed, EnumerationExhausted) as e:
            row = f"{type(e).__name__}: {e}"
        rows[f"{pn} k{k}l{l}m{m} {qn}"] = row
    assert rows == ORDINAL_WITNESS_TABLE


def _feasible_by_scanning_states(cand, l, protected, states):
    """_run_feasible as first written: the run is read off all states."""
    a, b = cand.ord_parts
    present = {s.ord_parts[1] for s in states
               if s.is_ordinal and s.ord_parts[0] == a} | {b}
    r0 = r1 = b
    while r0 - 1 in present:
        r0 -= 1
    while r1 + 1 in present:
        r1 += 1
    if r1 - r0 + 1 >= l + 1:
        return True
    return any(all(nb in present
                   or not any(p.membership(ord_value(a, nb)) for p in protected)
                   for nb in range(start, start + l + 1))
               for start in range(max(0, r1 - l), r0 + 1))


@given(st.integers(0, 1), st.integers(0, 30), st.integers(1, 4),
       st.sets(st.tuples(st.integers(0, 1), st.integers(0, 30)), max_size=20),
       st.sampled_from([(), ("Even",), ("Odd", "Lim")]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_run_feasible_reads_only_the_candidate_block(a, b, l, placed, names):
    protected = [U.builtin_class(n) for n in names]
    states = [ord_value(pa, pb) for pa, pb in placed]
    present = {pb for pa, pb in placed if pa == a}
    touches = filters._touch_test(protected)
    assert filters._run_feasible(ord_value(a, b), l, touches, present) == \
        _feasible_by_scanning_states(ord_value(a, b), l, protected, states)


def _close_by_rebuilding_blocks(states, l, protected):
    """_close_intervals as first written: the blocks are rebuilt from a
    set of states, and a window's cost is asked of the classes."""
    added = []
    blocks = {}
    for s in states:
        if s.is_ordinal:
            blocks.setdefault(s.ord_parts[0], set()).add(s.ord_parts[1])
    for a, bs in blocks.items():
        for b in sorted(bs):
            run_start = b
            while run_start - 1 in bs:
                run_start -= 1
            if run_start != b:
                continue
            run_end = b
            while run_end + 1 in bs:
                run_end += 1
            if run_end - run_start + 1 >= l + 1:
                continue

            def cost(start):
                return sum(1 for nb in range(start, start + l + 1)
                           if nb not in bs
                           and any(p.membership(ord_value(a, nb)) for p in protected))

            best = run_start
            if protected:
                lo = max(0, run_end - l)
                best = min(range(lo, run_start + 1),
                           key=lambda s0: (cost(s0), run_start - s0))
            for nb in range(best, best + l + 1):
                if nb not in bs:
                    added.append(ord_value(a, nb))
                    bs.add(nb)
    states.update(added)
    return added


def _isolated_by_scanning_states(cand, l, avoid_classes, occupied):
    """_isolation_ok as first written: every placed state is read."""
    a, b = cand.ord_parts
    for d in range(-l, l + 1):
        if b + d >= 0 and any(cls.membership(ord_value(a, b + d))
                              for cls in avoid_classes):
            return False
    return not any(s.is_ordinal and s.ord_parts[0] == a
                   and abs(s.ord_parts[1] - b) <= l for s in occupied)


_PLACED = st.sets(st.tuples(st.integers(0, 1), st.integers(0, 30)), max_size=20)
_PROTECTED = st.sampled_from([(), ("Even",), ("Odd", "Lim"), ("mult4_t0",)])


def _classes(names):
    return [REG[n] if n in REG else U.builtin_class(n) for n in names]


@given(st.integers(1, 4), _PLACED, _PROTECTED, st.sampled_from([(), (pad(0), pad(3))]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_close_intervals_on_a_tally_matches_the_set_closure(l, placed, names, pads):
    protected = _classes(names)
    states = {ord_value(a, b) for a, b in placed} | set(pads)
    tally = filters._Tally(filters._Sides([interval(l)]), states)
    touches = filters._touch_test(protected) if protected else None
    added = filters._close_intervals(tally, l, touches)
    expected = _close_by_rebuilding_blocks(states, l, protected)
    assert sorted(v.code for v in added) == sorted(v.code for v in expected)
    assert tally.states == states and tally.satisfied()


@given(st.integers(0, 1), st.integers(0, 30), st.integers(1, 4), _PLACED, _PROTECTED)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_isolation_reads_only_the_candidate_block(a, b, l, placed, names):
    guard = _classes(names)
    tally = filters._Tally(filters._Sides([interval(l)]), [ord_value(pa, pb) for pa, pb in placed])
    assert filters._isolation_ok(ord_value(a, b), l, filters._touch_test(guard),
                                 tally.blocks.get(a, ())) == \
        _isolated_by_scanning_states(ord_value(a, b), l, guard, tally.states)


@given(st.integers(0, 1), st.integers(0, 30), st.integers(1, 4), _PLACED,
       _PROTECTED.filter(bool))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_feasible_run_closes_clear_of_the_protected_classes(a, b, l, placed, names):
    # grow's strict pass keeps only candidates whose run can close clear
    # of the classes; the closure after it must then find such a window.
    touches = filters._touch_test(_classes(names))
    tally = filters._Tally(filters._Sides([interval(l)]), [ord_value(pa, pb) for pa, pb in placed])
    filters._close_intervals(tally, l, touches)  # every run but cand's is long
    cand = ord_value(a, b)
    if cand in tally.states or not filters._run_feasible(cand, l, touches,
                                                  tally.blocks.get(a, ())):
        return
    tally.add(cand)
    added = filters._close_intervals(tally, l, touches)
    assert not any(touches(*v.ord_parts) for v in added)
    assert tally.satisfied()


@given(st.integers(1, 4), _PLACED, _PLACED.filter(bool),
       st.sets(st.tuples(st.integers(0, 1), st.integers(0, 30)), max_size=6))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_isolated_states_close_as_plain_successor_closure(l, placed, guard, cands):
    # ordinal_witness adds states that pass _isolation_ok against its
    # guard classes, all judged before any is added, then closes the runs
    # without the guard: the guarded closure would add the same states.
    touches = filters._touch_test(
        [class_from_values("G", [ord_value(a, b) for a, b in guard])])

    def closed_tally():
        tally = filters._Tally(filters._Sides([interval(l)]), [ord_value(a, b) for a, b in placed])
        filters._close_intervals(tally, l)  # every run but the new ones is long
        return tally

    guarded, plain = closed_tally(), closed_tally()
    chosen = [ord_value(a, b) for a, b in sorted(cands)
              if filters._isolation_ok(ord_value(a, b), l, touches,
                                       guarded.blocks.get(a, ()))]
    for tally in (guarded, plain):
        for v in chosen:
            tally.add(v)
    added = filters._close_intervals(guarded, l, touches)
    assert added == filters._close_intervals(plain, l)
    assert not any(touches(*v.ord_parts) for v in added)
    assert guarded.satisfied()


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


X, YZ = class_from_values("x", [nat(0)]), class_from_values("y,z", [nat(1)])


def test_constraint_text_round_trip():
    classes = {"mult4_t0": M4, "even_t1": E1}
    cases = [fineness(ord_value(1, 2)), ratio(M4, E1, 3), order_lt(M4, E1),
             order_ge(E1, M4), interval(2), weight(4),
             subset_bound([nat(0), pad(1)], 3), min_size(2),
             parametric_fineness(), parametric_ratio(M4, E1),
             parametric_interval(), parametric_weight()]
    # a class name may hold a comma
    comma = {"x": X, "y,z": YZ}
    comma_cases = [ratio(X, YZ, 2), ratio(YZ, X, 2), order_lt(X, YZ),
                   order_ge(YZ, X), parametric_ratio(X, YZ), parametric_ratio(YZ, X)]
    for c, known in [(c, classes) for c in cases] + [(c, comma) for c in comma_cases]:
        text = constraint_to_text(c)
        back = constraint_from_text(text, known)
        assert constraint_to_text(back) == text
        assert (back.cls_a, back.cls_b) == (c.cls_a, c.cls_b)
    fb = FilterBase((weight(4), ratio(M4, E1, 3)), universe=U,
                    window=(nat(0), pad(1)), max_size=5, provenance="test")
    assert filter_base_to_text(fb).splitlines() == [
        "provenance: test", "window: o0.0;p1", "max_size: 5",
        "ratio(mult4_t0,even_t1,k=3)", "weight(m=4)"]


def test_constraint_from_text_unknown_class():
    with pytest.raises(KeyError):
        constraint_from_text("ratio(nosuch,even_t1,k=2)", {"even_t1": E1})
    with pytest.raises(KeyError, match="'x,y'"):
        constraint_from_text("order_lt(x,y,z)", {"x": X})


def test_constraint_from_text_ambiguous_class_pair():
    # "x,y,z" splits as x | y,z and as x,y | z
    classes = {"x": X, "y,z": YZ, "x,y": X, "z": YZ}
    for text in ("ratio(x,y,z,k=2)", "order_ge(x,y,z)", "parametric(ratio,x,y,z)"):
        with pytest.raises(ValueError, match="ambiguous class pair"):
            constraint_from_text(text, classes)
