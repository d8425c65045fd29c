"""Universe layer: value codes, classes, tiers, variables, translation."""

import copy
import itertools
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setprob import (
    CardinalityTier,
    EMPTY_SET,
    HF_MODE,
    ORDINAL_MODE,
    UniverseHandle,
    class_from_values,
    class_of_set,
    even_shift_permutation,
    find_witness,
    fineness,
    finite_subsets_class,
    hf_set,
    identity_rv,
    image_class,
    level_size,
    make_universe,
    nat,
    ord_value,
    ordinal_add,
    pad,
    parse_code,
    power_class,
    rank,
    table_rv,
    translate_class,
)
from setprob import filters, universe
from setprob.errors import BoundTooSmall, EnumerationExhausted, WrongMode
from setprob.universe import _RANK_CACHE, KIND_ORD, PREFIX_MEMO_CAP, SetValue

S1 = hf_set([EMPTY_SET])          # {{}}
S2 = hf_set([EMPTY_SET, S1])      # {{},{{}}}


# ---------------------------------------------------------------------------
# Values and codes


def test_hf_set_children_dedupe_and_sort():
    assert hf_set([S1, EMPTY_SET]) == S2
    assert hf_set([EMPTY_SET, EMPTY_SET]) == S1
    assert hf_set([]) == EMPTY_SET


def test_value_kind_flags():
    assert EMPTY_SET.is_set and not EMPTY_SET.is_ordinal
    assert nat(3).is_ordinal and not nat(3).is_set
    assert pad(0).is_pad and not pad(0).is_ordinal
    with pytest.raises(ValueError):
        ord_value(-1, 0)
    with pytest.raises(ValueError):
        pad(-1)


def test_ordinals_and_pads_are_interned(fresh_caches):
    # one object per code, however the value is reached, while no table
    # has evicted it (the tables evict apart, so other tests' values go)
    assert ord_value(2, 5) is ord_value(2, 5)
    assert nat(4) is ord_value(0, 4)
    assert pad(3) is pad(3)
    assert parse_code("o0.3") is ord_value(0, 3)
    assert parse_code("p7") is pad(7)
    assert parse_code("{o0.3}").children[0] is ord_value(0, 3)
    assert hf_set([EMPTY_SET]) is parse_code("{{}}")
    # a non-canonical code parses to the canonical set's object
    s2 = parse_code("{{},{{}}}")
    for code in ("{{{}},{}}", "{{},{},{{}}}"):
        assert parse_code(code) is s2 and parse_code(code).code == "{{},{{}}}"
    with pytest.raises(ValueError):  # test_value_kind_flags: ord_value(-1, 0), pad(-1)
        ord_value(0, -1)


def test_threads_sharing_the_set_table_build_equal_sets(monkeypatch, fresh_caches):
    # a small cap empties the table while other threads read and fill it;
    # the table starts empty, so the sets built here fill it past the cap
    # whatever earlier tests left in it
    monkeypatch.setattr(universe, "INTERN_CAP", 8)
    states = list(make_universe(HF_MODE, 4).enumerate_universe())
    errors = []

    def build():
        try:
            for _ in range(300):
                for v in states:
                    got = hf_set(v.children)
                    if got != v or got.children != v.children:
                        errors.append(got)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(universe._SETS) <= 8 + len(threads)


def test_values_hash_to_their_code():
    twin = SetValue(KIND_ORD, (0, 3), "o0.3", (0, 0, 3))  # built past ord_value
    for v in (ord_value(1, 2), pad(5), parse_code("{{},{o0.1,{p2}}}"), twin):
        assert hash(v) == hash(v.code)
    assert twin == nat(3) and twin is not nat(3)
    assert twin in {nat(3)} and {twin: 1}[nat(3)] == 1


def test_ordinal_parts():
    assert nat(7).ord_parts == (0, 7)
    assert ord_value(2, 5).ord_parts == (2, 5)
    with pytest.raises(WrongMode):
        EMPTY_SET.ord_parts


@pytest.mark.parametrize("code", ["{}", "{{}}", "{{},{{}}}", "o0.0", "o1.2", "p3",
                                  "{o0.1}", "{o0.1,p2}", "{o1.0,{p0}}"])
def test_parse_code_round_trip(code):
    assert parse_code(code).code == code


@settings(derandomize=True)
@given(st.integers(0, 5), st.integers(0, 40))
def test_ordinal_code_round_trip(a, b):
    v = ord_value(a, b)
    assert parse_code(v.code) == v


def _values(depth):
    atoms = st.one_of(st.builds(ord_value, st.integers(0, 3), st.integers(0, 20)),
                      st.builds(pad, st.integers(0, 20)))
    if depth == 0:
        return atoms
    return st.one_of(atoms, st.lists(_values(depth - 1), max_size=3).map(hf_set))


@settings(derandomize=True)
@given(_values(3))
def test_codes_round_trip_through_cleared_tables(v):
    # an evicted value is rebuilt equal to its twin, with the same code
    for clear in (False, True):
        if clear:
            universe.clear_caches()
        got = parse_code(v.code)
        assert got == v and got.code == v.code


def test_parse_code_rejects_garbage():
    for bad in ("", "o1", "{", "els{}", "q7", "i(1,3#Nat,c0(),s1(3#Nat),n0())"):
        with pytest.raises(ValueError):
            parse_code(bad)
    # integers are plain ASCII decimals: no sign, space, underscore,
    # leading zero or other script's digits; a field too long for int()
    # is refused the same way, not by int()'s own error
    for bad in ("o01.2", "o+1.2", "o 1.2", "o-0.1", "o0.01", "p1_0", "p\u0663",
                "{o0.1 }", "p00", "o.1", "p", "o" + "0" * 5000 + ".1",
                "o1." + "9" * 5000):
        with pytest.raises(ValueError, match="not a plain integer"):
            parse_code(bad)
    # the exact texts; a code that failed fails again, since no error is kept
    for bad, message in (("{{}", "bad code at 3: expected '}'"),
                         ("o1", "bad code at 2: expected '.'"),
                         ("{o0.1,q}", "bad code at 6: '{o0.1,q}'"),
                         ("{{},", "bad code at 4: '{{},'"),
                         ("{{}}x", "trailing garbage in code: '{{}}x'")):
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                parse_code(bad)
            assert str(info.value) == message


@pytest.mark.parametrize("bad, message", [
    ("o0.1" + "}" * 5000, "trailing garbage in code: 'o0.1}}}"),
    ("q" * 5000, "bad code at 0: 'qqq"),
    ("o" + "0" * 3000 + ".1", "bad code at 1: '000"),
], ids=["trailing", "unknown-head", "leading-zeros"])
def test_parse_errors_quote_a_long_code_in_part(bad, message):
    with pytest.raises(ValueError) as info:
        parse_code(bad)
    text = str(info.value)
    assert text.startswith(message)
    assert len(text) < 120 and "characters)" in text


def test_rank_small_sets(monkeypatch):
    assert rank(EMPTY_SET) == 0
    assert rank(S1) == 1
    assert rank(S2) == 2
    assert rank(hf_set([S2])) == 3
    # a second call reads the cached rank, which the first one stored
    assert _RANK_CACHE[S2.code] == 2
    monkeypatch.setitem(_RANK_CACHE, S2.code, 7)
    assert rank(S2) == 7


def test_rank_cache_is_bounded():
    def slow_rank(x):
        return 0 if not x.children else 1 + max(map(slow_rank, x.children))

    sets = list(itertools.islice(make_universe(HF_MODE, 5).level_members(4),
                                 2 * universe.INTERN_CAP))
    sets += [hf_set(s.children[:1]) for s in sets]  # of lower ranks too
    assert all(rank(s) == slow_rank(s) for s in sets)
    assert len(_RANK_CACHE) <= universe.INTERN_CAP


def test_rank_rejects_non_hf():
    with pytest.raises(WrongMode):
        rank(nat(2))
    with pytest.raises(WrongMode):
        rank(pad(0))


# ---------------------------------------------------------------------------
# Universe handles


def test_level_size_tower():
    assert [level_size(k) for k in range(7)] == [0, 1, 2, 4, 16, 65536, 2 ** 65536]
    with pytest.raises(EnumerationExhausted):
        level_size(7)  # 2**(2**65536): refused, not computed


def test_make_universe_bounds():
    with pytest.raises(BoundTooSmall):
        make_universe(HF_MODE, 2)
    with pytest.raises(BoundTooSmall):
        make_universe(ORDINAL_MODE, 0)
    with pytest.raises(ValueError):
        make_universe("surreal", 3)
    assert make_universe(ORDINAL_MODE, 1).bound == 1


def test_hf_enumeration_matches_level_sizes(hf_universe):
    u = make_universe(HF_MODE, 4)
    everything = list(u.enumerate_universe())
    assert len(everything) == level_size(4) == 16
    assert len({v.code for v in everything}) == 16
    counts = [sum(1 for _ in hf_universe.level_members(k)) for k in range(4)]
    assert counts == [1, 1, 2, 12]


def test_level_members_are_exact_rank(hf_universe):
    for k in range(4):
        for v in hf_universe.level_members(k):
            assert rank(v) == k


def test_ordinal_universe_bound_one_has_no_limits():
    u = make_universe(ORDINAL_MODE, 1)
    lim = u.builtin_class("Lim")
    head = list(itertools.islice(u.enumerate_universe(), 200))
    assert not any(lim.membership(v) for v in head)


def test_builtin_even_parity(ord_universe):
    even = ord_universe.builtin_class("Even")
    assert even.membership(nat(4))
    assert not even.membership(nat(3))
    assert even.membership(ord_value(1, 0))       # limit ordinals count even
    assert even.membership(ord_value(2, 6))
    assert not even.membership(pad(2))


def test_lim_members_below_three_blocks(ord_universe):
    lim = ord_universe.builtin_class("Lim")
    head = itertools.islice(ord_universe.enumerate_universe(), 300)
    assert [v for v in head if lim.membership(v)] == [ord_value(1, 0), ord_value(2, 0)]


def codes(states):
    return [v.code for v in states]


@pytest.mark.parametrize("mode,bound", [(HF_MODE, 3), (HF_MODE, 4), (HF_MODE, 5),
                                        (ORDINAL_MODE, 1), (ORDINAL_MODE, 3)])
def test_memoized_enumeration_matches_a_fresh_handle(mode, bound, fresh_caches):
    used = make_universe(mode, bound)
    list(itertools.islice(used.enumerate_universe(), 100))
    list(itertools.islice(used.enumerate_universe(), 5000))
    head = codes(itertools.islice(used.enumerate_universe(), 5000))
    universe.clear_caches()
    fresh = make_universe(mode, bound)
    assert head == codes(itertools.islice(fresh.enumerate_universe(), 5000))
    assert len(head) == (min(5000, level_size(bound)) if mode == HF_MODE else 5000)


def test_interleaved_enumerations_agree(fresh_caches):
    u = make_universe(ORDINAL_MODE, 3)
    first, second = u.enumerate_universe(), u.enumerate_universe()
    a, b = [], []
    for _ in range(5000):
        a.append(next(first).code)
        b.append(next(second).code)
        b.append(next(second).code)
        a.append(next(first).code)
    assert a == b
    universe.clear_caches()
    fresh = make_universe(ORDINAL_MODE, 3)
    assert a == codes(itertools.islice(fresh.enumerate_universe(), 10000))


def test_threads_sharing_a_handle_see_one_enumeration(fresh_caches):
    u = make_universe(HF_MODE, 5)
    universe.clear_caches()  # u's memo stays empty until the threads walk it
    fresh = make_universe(HF_MODE, 5)
    expected = codes(itertools.islice(fresh.enumerate_universe(), 5000))
    results, errors = [], []

    def walk():
        try:
            results.append(codes(itertools.islice(u.enumerate_universe(), 5000)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * 4
    assert len(u._states.items) == PREFIX_MEMO_CAP


def test_copies_of_a_used_handle_start_without_its_memo():
    u = make_universe(ORDINAL_MODE, 3)
    head = codes(itertools.islice(u.enumerate_universe(), 50))
    for twin in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u)):
        assert (twin.mode, twin.bound, twin._states.items) == (u.mode, u.bound, [])
        assert codes(itertools.islice(twin.enumerate_universe(), 50)) == head


def test_memo_stops_at_its_cap():
    u = make_universe(ORDINAL_MODE, 3)
    assert len(list(itertools.islice(u.enumerate_universe(), 6000))) == 6000
    assert len(u._states.items) == PREFIX_MEMO_CAP


def test_every_walk_past_the_cap_reaches_exhaustion():
    u = make_universe(HF_MODE, 6)
    for _ in range(2):
        seen = 0
        with pytest.raises(EnumerationExhausted):
            for _ in u.enumerate_universe():
                seen += 1
        assert seen == level_size(5) == 65536


class _FailingHandle(UniverseHandle):
    """A universe whose walk gives out after ten states."""

    def _walk(self):
        yield from itertools.islice(super()._walk(), 10)
        raise EnumerationExhausted("walk gave out")


def test_a_walk_that_raises_inside_the_cap_raises_for_every_caller():
    u = _FailingHandle(ORDINAL_MODE, 3)
    for _ in range(2):
        with pytest.raises(EnumerationExhausted):
            list(u.enumerate_universe())
    assert len(u._states.items) == 10


def _memo_classes():
    """Fresh classes of every kind whose stream a memo keeps, by name:
    (class, number of members to read, whether the stream ends first)."""
    u = make_universe(ORDINAL_MODE, 3)
    even = u.builtin_class("Even")
    swap = table_rv({nat(0): nat(1), nat(1): nat(0)}, "swap")
    few = class_from_values("few", [ord_value(0, 1), ord_value(0, 3),
                                    ord_value(1, 2), ord_value(1, 5)])
    return {
        "builtin": (even, 40, False),
        "residue": (u.residue_class("R", 3, 1, 2, CardinalityTier.infinite(0)), 40, False),
        "values": (few, 10, True),
        "translate": (translate_class(even, nat(3)), 40, False),
        # a limit shift absorbs finite parts, so the stream repeats values
        "translate-limit": (translate_class(few, ord_value(1, 0)), 10, True),
        "image": (image_class(swap, even), 40, False),
        "rank-level": (make_universe(HF_MODE, 4).rank_level_class(3), 20, True),
    }


def _fresh_distinct(cls, excl, n):
    """The first n distinct members of a fresh walk of the class's
    stream, by code, outside `excl`."""
    skip, seen, out = {x.code for x in excl}, set(), []
    for v in cls._stream():
        if v.code not in seen:
            seen.add(v.code)
            if v.code not in skip:
                out.append(v.code)
                if len(out) == n:
                    break
    return out


@pytest.mark.parametrize("cap", [PREFIX_MEMO_CAP, 8, 3])
@pytest.mark.parametrize("kind", sorted(_memo_classes()))
def test_class_enumeration_is_a_fresh_distinct_walk(kind, cap, monkeypatch, fresh_caches):
    cls, n, ends = _memo_classes()[kind]
    head = _fresh_distinct(cls, (), n + 2)
    excl = [parse_code(head[1]), parse_code(head[-1]), pad(0)]
    for step in range(3):
        if step == 1:  # the memo grew under the default cap
            monkeypatch.setattr(universe, "PREFIX_MEMO_CAP", cap)
        assert codes(itertools.islice(cls.enumerate(), n)) == head[:n]
        assert codes(itertools.islice(cls.enumerate(excl), n)) == \
            _fresh_distinct(cls, excl, n)
        take = cls.memo.reader()
        assert codes(take(2) + take(n)) == head
    # the memo keeps what was read, and no more
    assert codes(cls.memo.items) == head
    # a class first read under the small cap keeps no more than the cap
    universe.clear_caches()  # a new handle, with new builtins
    fresh = _memo_classes()[kind][0]
    assert codes(itertools.islice(fresh.enumerate(), n)) == head[:n]
    assert codes(fresh.memo.reader()(n + 2)) == head
    assert len(fresh.memo.items) == (len(head) if kind == "values" else min(cap, len(head)))
    if ends:  # a finite class: past its end, nothing more
        assert len(head) < n and codes(cls.enumerate()) == head
        assert cls.memo.reader()(n) == list(cls.enumerate())


def test_a_class_memo_is_made_once_and_kept(fresh_caches):
    u = make_universe(ORDINAL_MODE, 3)
    cls = u.builtin_class("Odd")
    assert cls._memo is None  # nothing read yet
    memo = cls.memo
    list(itertools.islice(cls.enumerate(), 5))
    assert cls.memo is memo and codes(memo.items) == _fresh_distinct(cls, (), 5)
    values = class_from_values("V2", [nat(2), nat(0)])
    assert codes(values.memo.items) == ["o0.0", "o0.2"]  # a value list starts full


def test_threads_sharing_a_class_see_one_enumeration():
    def make():
        u = make_universe(ORDINAL_MODE, 3)
        return u.residue_class("R", 2, 1, 1, CardinalityTier.infinite(0))

    cls = make()
    expected = codes(itertools.islice(make().enumerate(), 5000))
    results, errors = [], []

    def walk():
        try:
            results.append(codes(itertools.islice(cls.enumerate(), 5000)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [expected] * 4
    assert codes(cls.memo.items) == expected[:PREFIX_MEMO_CAP]


def test_builtin_on_and_nat(ord_universe):
    on = ord_universe.builtin_class("On")
    natcls = ord_universe.builtin_class("Nat")
    assert on.membership(ord_value(2, 9)) and not on.membership(pad(1))
    assert natcls.membership(nat(12)) and not natcls.membership(ord_value(1, 0))


def test_builtin_wrong_mode(hf_universe, ord_universe):
    with pytest.raises(WrongMode):
        hf_universe.builtin_class("On")
    with pytest.raises(WrongMode):
        ord_universe.rank_level_class(1)
    with pytest.raises(KeyError):
        ord_universe.builtin_class("Surreal")


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("name", ["On", "Even", "Odd", "Lim", "Nat"])
def test_builtin_stream_lists_what_its_membership_accepts(name, bound):
    u = make_universe(ORDINAL_MODE, bound)
    cls = u.builtin_class(name)
    accepted = [v for v in itertools.islice(u.enumerate_universe(), 300)
                if cls.membership(v)]
    assert list(itertools.islice(cls.enumerate(), len(accepted))) == accepted


def test_rank_level_class(hf_universe):
    r2 = hf_universe.rank_level_class(2)
    assert r2.tier == CardinalityTier.finite(2)
    members = r2.members()
    assert len(members) == 2 and all(rank(v) == 2 for v in members)
    with pytest.raises(BoundTooSmall):
        hf_universe.rank_level_class(7)
    # |V_7| cannot be computed, so rank level 6 is refused at once
    with pytest.raises(EnumerationExhausted):
        make_universe(HF_MODE, 7).rank_level_class(6)


def test_pads_stream(ord_universe):
    first = list(itertools.islice(ord_universe.pads(), 3))
    assert first == [pad(0), pad(1), pad(2)]


# ---------------------------------------------------------------------------
# Tiers


def test_tier_order_chain():
    chain = [
        CardinalityTier.finite(0),
        CardinalityTier.finite(3),
        CardinalityTier.infinite(0),
        CardinalityTier.infinite(2),
        CardinalityTier.proper(),
    ]
    for small, big in zip(chain, chain[1:]):
        assert small < big and big > small and small <= big and big >= small
        assert not (big < small or small > big or big <= small or small >= big)
    for t in chain:
        assert t <= t and t >= t and not (t < t or t > t)


@settings(derandomize=True)
@given(
    st.sampled_from(["finite", "tier", "proper"]),
    st.integers(0, 9),
    st.sampled_from(["finite", "tier", "proper"]),
    st.integers(0, 9),
)
def test_tier_total_order(kind_a, idx_a, kind_b, idx_b):
    a = CardinalityTier(kind_a, 0 if kind_a == "proper" else idx_a)
    b = CardinalityTier(kind_b, 0 if kind_b == "proper" else idx_b)
    assert (a < b) + (b < a) + (a == b) == 1
    ka = (["finite", "tier", "proper"].index(kind_a), a.index)
    kb = (["finite", "tier", "proper"].index(kind_b), b.index)
    assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)


def test_tier_successor():
    assert CardinalityTier.finite(3).successor() == CardinalityTier.finite(8)
    assert CardinalityTier.infinite(1).successor() == CardinalityTier.infinite(2)
    assert CardinalityTier.proper().successor() == CardinalityTier.proper()


# ---------------------------------------------------------------------------
# Classes


def test_class_from_values_dedupes():
    cls = class_from_values("pair", [nat(1), nat(1), nat(2)])
    assert cls.tier == CardinalityTier.finite(2)
    assert cls.members() == [nat(1), nat(2)]
    assert cls.membership(nat(2)) and not cls.membership(nat(3))


def test_class_enumerate_skips_exclusions():
    cls = class_from_values("trip", [nat(1), nat(2), nat(3)])
    assert list(cls.enumerate(exclusions=[nat(2)])) == [nat(1), nat(3)]


def test_take_fresh_exhaustion():
    cls = class_from_values("pair", [nat(1), nat(2)])
    assert cls.take_fresh(1, exclusions=[nat(1)]) == [nat(2)]
    with pytest.raises(EnumerationExhausted):
        cls.take_fresh(2, exclusions=[nat(1)])


@pytest.mark.parametrize("count", [0, -1])
def test_take_fresh_of_no_members_is_empty(count, ord_universe):
    assert ord_universe.builtin_class("On").take_fresh(count) == []


def test_members_refuses_infinite_tier(ord_universe):
    with pytest.raises(EnumerationExhausted):
        ord_universe.builtin_class("On").members()


def test_members_checks_a_declared_finite_tier(ord_universe):
    # A stream that goes on past the declared size is not cut short.
    lying = ord_universe.residue_class("R", 2, 0, 0, CardinalityTier.finite(1))
    with pytest.raises(EnumerationExhausted,
                       match=r"class R has more members than its tier finite\(1\)"):
        lying.members()
    assert lying.is_subset_of(class_from_values("zero", [nat(0)])) is None
    roomy = class_from_values("pair", [nat(1), nat(2)], tier=CardinalityTier.finite(5))
    assert roomy.members() == [nat(1), nat(2)]


def test_is_subset_of_finite_exact(ord_universe):
    even = ord_universe.builtin_class("Even")
    small = class_from_values("small", [nat(0), nat(2)])
    mixed = class_from_values("mixed", [nat(0), nat(3)])
    assert small.is_subset_of(even) is True
    assert mixed.is_subset_of(even) is False
    assert even.is_subset_of(ord_universe.builtin_class("On")) is True  # tag
    assert even.is_subset_of(small) is None  # infinite vs finite: unknown


def test_a_class_lies_inside_itself_not_inside_its_namesake(ord_universe):
    # Two infinite classes named A: containment read by name called each
    # inside the other.
    tier = CardinalityTier.infinite(0)
    a = ord_universe.residue_class("A", 3, 0, 0, tier)
    twin = ord_universe.residue_class("A", 5, 0, 0, tier)
    assert a.is_subset_of(a) is True
    assert a.is_subset_of(twin) is None and twin.is_subset_of(a) is None
    assert a != twin and len({a, twin}) == 2


def test_shared_variables_and_builtins_are_one_object(ord_universe, hf_universe,
                                                      fresh_caches):
    assert identity_rv() is identity_rv()
    assert even_shift_permutation() is even_shift_permutation()
    even = ord_universe.builtin_class("Even")
    assert ord_universe.builtin_class("Even") is even
    assert ord_universe.builtin_class("V") is ord_universe.universe_class()
    assert hf_universe.builtin_class("RankLevel", k=1) is hf_universe.rank_level_class(1)
    assert hf_universe.rank_level_class(1) is not hf_universe.rank_level_class(2)
    # one handle per (mode, bound), so one builtin, until the caches are
    # emptied; the handle built after that builds its own
    even = make_universe(ORDINAL_MODE, 3).builtin_class("Even")
    assert make_universe(ORDINAL_MODE, 3).builtin_class("Even") is even
    universe.clear_caches()
    assert make_universe(ORDINAL_MODE, 3).builtin_class("Even") is not even


def test_one_handle_per_universe_until_the_caches_are_emptied(fresh_caches):
    u = make_universe(HF_MODE, 4)
    assert make_universe(HF_MODE, 4) is u
    assert make_universe(HF_MODE, 5) is not u and make_universe(ORDINAL_MODE, 4) is not u
    level, whole = u.rank_level_class(3), u.universe_class()
    # fill every table clear_caches empties
    parse_code("{o0.1,p2}")  # ord_value, pad, parse_code and _SETS
    assert rank(parse_code("{{},{{}}}")) == 2
    assert find_witness([fineness(nat(1))], make_universe(ORDINAL_MODE, 3)) is not None
    tables = (ord_value, pad, parse_code, make_universe, filters._prepared)
    assert all(t.cache_info().currsize > 0 for t in tables)
    assert universe._SETS and _RANK_CACHE
    universe.clear_caches()
    assert [t.cache_info().currsize for t in tables] == [0] * len(tables)
    assert len(universe._SETS) == len(_RANK_CACHE) == 0
    fresh = make_universe(HF_MODE, 4)
    assert fresh is not u and make_universe(HF_MODE, 4) is fresh
    assert fresh.rank_level_class(3) is not level and fresh.universe_class() is not whole
    assert fresh._states.items == [] and codes(fresh.enumerate_universe()) == \
        codes(u.enumerate_universe())


def test_threads_sharing_a_handle_get_one_builtin():
    u = make_universe(ORDINAL_MODE, 3)
    start = threading.Barrier(8)
    got = []

    def build():
        start.wait(timeout=60)
        got.append(u.builtin_class("Odd"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(c is u.builtin_class("Odd") for c in got)


def test_class_of_set():
    cls = class_of_set(S2)
    assert cls.membership(EMPTY_SET) and cls.membership(S1)
    assert not cls.membership(S2)
    assert len(cls.members()) == 2


def test_power_class_finite_enumeration():
    base = class_from_values("pair", [EMPTY_SET, S1])
    p = power_class(base)
    subsets = list(p.enumerate())
    assert len(subsets) == 4
    assert subsets[0] == EMPTY_SET                      # size-then-lex
    assert p.membership(hf_set([S1]))
    assert not p.membership(hf_set([S2]))
    assert p.tier == CardinalityTier.finite(4)


def test_power_class_of_infinite_base(ord_universe):
    natcls = ord_universe.builtin_class("Nat")
    p = power_class(natcls)
    assert p.tier == CardinalityTier.infinite(1)
    head = list(itertools.islice(p.enumerate(), 8))
    assert head[0] == EMPTY_SET
    assert all(p.membership(v) for v in head)
    assert not p.membership(hf_set([pad(0)]))


def test_finite_subsets_class(ord_universe):
    natcls = ord_universe.builtin_class("Nat")
    fin = finite_subsets_class(natcls)
    assert fin.tier == natcls.tier
    assert fin.membership(hf_set([nat(1), nat(5)]))
    power = power_class(natcls)
    sample = [EMPTY_SET, hf_set([nat(1), nat(5)]), hf_set([nat(2), pad(0)]),
              hf_set([ord_value(1, 0)]), nat(3), pad(0)]
    assert [fin.membership(v) for v in sample] == \
        [power.membership(v) for v in sample] == \
        [True, True, False, False, False, False]


# ---------------------------------------------------------------------------
# Random variables


def test_identity_rv_is_diagonal():
    ident = identity_rv()
    assert ident.diagonal
    assert ident(nat(3)) == nat(3)
    assert ident.preimage(S1) == S1


def test_table_rv_permutation():
    swap = table_rv({nat(1): nat(2), nat(2): nat(1)}, "swap12")
    assert swap.diagonal
    assert swap(nat(1)) == nat(2) and swap(nat(7)) == nat(7)
    assert swap.preimage(nat(2)) == nat(1)


def test_table_rv_non_permutation_has_no_preimage():
    squash = table_rv({nat(1): nat(2)}, "squash")
    assert not squash.diagonal
    with pytest.raises(WrongMode):
        squash.preimage(nat(2))


def test_even_shift_values():
    pi = even_shift_permutation()
    assert pi(nat(0)) == nat(2)
    assert pi(nat(1)) == nat(0)
    assert pi(nat(7)) == nat(5)
    assert pi(ord_value(1, 0)) == ord_value(1, 0)   # fixed off the naturals
    assert pi(pad(3)) == pad(3)


@settings(derandomize=True)
@given(st.integers(0, 6))
def test_even_shift_injective_on_windows(m):
    # Window {0..2m+1}: the image is pairwise distinct and preimage
    # inverts the map exactly.
    pi = even_shift_permutation()
    window = [nat(i) for i in range(2 * m + 2)]
    image = [pi(v) for v in window]
    assert len({v.code for v in image}) == len(window)
    for v in window:
        assert pi.preimage(pi(v)) == v


def test_image_class_shifts_the_evens(ord_universe):
    pi = even_shift_permutation()
    even = ord_universe.builtin_class("Even")
    shifted = image_class(pi, even)
    assert not shifted.membership(nat(0))     # 0 = pi(1), and 1 is odd
    assert shifted.membership(nat(2))
    assert shifted.membership(nat(4))
    assert shifted.membership(ord_value(1, 0))
    head = list(itertools.islice(shifted.enumerate(), 20))
    assert all(even.membership(v) for v in head)


def test_image_class_needs_diagonal():
    squash = table_rv({nat(1): nat(2)}, "squash")
    with pytest.raises(WrongMode):
        image_class(squash, class_from_values("x", [nat(1)]))


# ---------------------------------------------------------------------------
# Ordinal arithmetic and translation


def test_ordinal_add():
    assert ordinal_add(nat(1), nat(2)) == nat(3)
    assert ordinal_add(ord_value(1, 0), nat(2)) == ord_value(1, 2)
    assert ordinal_add(nat(5), ord_value(1, 0)) == ord_value(1, 0)  # absorption
    assert ordinal_add(ord_value(1, 0), ord_value(1, 0)) == ord_value(2, 0)


def test_translate_nat_by_one_drops_zero(ord_universe):
    natcls = ord_universe.builtin_class("Nat")
    shifted = translate_class(natcls, nat(1))
    assert not shifted.membership(nat(0))
    assert all(shifted.membership(nat(k)) for k in range(1, 8))
    assert not shifted.membership(ord_value(1, 0))
    assert list(itertools.islice(shifted.enumerate(), 4)) == [nat(k) for k in (1, 2, 3, 4)]


def test_translate_by_zero_is_identity(ord_universe):
    natcls = ord_universe.builtin_class("Nat")
    same = translate_class(natcls, nat(0))
    for v in (nat(0), nat(5), ord_value(1, 1), pad(0)):
        assert same.membership(v) == natcls.membership(v)


def test_translate_singleton_by_two():
    w = class_from_values("w_only", [ord_value(1, 0)])
    moved = translate_class(w, nat(2))
    assert moved.membership(ord_value(1, 2))
    assert not moved.membership(ord_value(1, 0))
    assert list(moved.enumerate()) == [ord_value(1, 2)]


def test_translate_by_a_limit_over_a_finite_base():
    # {3, w} + (w+2) = {w+2, w2+2}: the block of the sum is read off
    # the finite base's members
    moved = translate_class(class_from_values("F", [nat(3), ord_value(1, 0)]),
                            ord_value(1, 2))
    assert moved.membership(ord_value(1, 2)) and moved.membership(ord_value(2, 2))
    assert not moved.membership(ord_value(3, 2))
    assert not moved.membership(ord_value(2, 3))


def test_translate_by_limit_collapses_finite_part(ord_universe):
    natcls = ord_universe.builtin_class("Nat")
    moved = translate_class(natcls, ord_value(1, 0))
    assert moved.membership(ord_value(1, 0))     # every n + w equals w
    assert not moved.membership(nat(3))
    assert not moved.membership(ord_value(2, 0))
    assert not moved.subset_tags
    assert moved.is_subset_of(ord_universe.universe_class()) is True
    assert list(itertools.islice(moved.enumerate(), 1)) == [ord_value(1, 0)]
    # o0.0, o1.0, o0.2, o2.0 of Even go to w, w2, w, w3: each value once,
    # at its first occurrence
    evens = translate_class(ord_universe.builtin_class("Even"), ord_value(1, 0))
    assert list(itertools.islice(evens.enumerate(), 3)) == [
        ord_value(1, 0), ord_value(2, 0), ord_value(3, 0)]
