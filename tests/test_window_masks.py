"""Window enumeration on membership bitmasks, checked against snapshots.

`_window_exhaustive` treats a subset of the window as an int mask: each
constraint is a bit-count test (`constraint_mask_test`) and each germ is
compiled once (`compile_germ`).  These tests hold both equal, on every
subset of random windows, to the snapshot-level definitions:
`constraint_membership` on the built Snapshot, and a germ evaluator
written here from the public `snapshot_prob`, `joint_snapshot_prob` and
`conditional_snapshot_prob`.

`compare` evaluates one subset per count vector over the window's atoms
and weights it by the number of subsets it stands for.  Its evidence is
checked against a subset-by-subset count on windows of up to 14 states
with few classes, where atoms are large, and on a base whose interval
constraint makes every state an atom.
"""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import setprob.germs as germs
import setprob.snapshots as snapshots
from setprob import (
    FORCED,
    FORCED_NOT,
    HF_MODE,
    ORDINAL_MODE,
    UNDETERMINED,
    FilterBase,
    Snapshot,
    class_from_values,
    compare,
    conditional_germ,
    conditional_snapshot_prob,
    const_germ,
    even_shift_permutation,
    fineness,
    germ_arith,
    germ_of_event,
    identity_rv,
    interval,
    joint_germ,
    joint_snapshot_prob,
    make_universe,
    min_size,
    order_ge,
    order_lt,
    parse_code,
    ratio,
    snapshot_prob,
    star_sum,
    subset_bound,
    table_rv,
    weight,
)
from setprob.errors import ConditionNull, DivisionUndefined, EmptySnapshot, WrongMode
from setprob.filters import constraint_mask_test, constraint_membership
from setprob.germs import compile_germ

VACUOUS = (ConditionNull, DivisionUndefined, EmptySnapshot)

OU = make_universe(ORDINAL_MODE, 3)
HU = make_universe(HF_MODE, 4)
POOLS = {
    ORDINAL_MODE: list(itertools.islice(OU.enumerate_universe(), 24)),
    HF_MODE: list(HU.enumerate_universe()),
}
BUILTINS = {
    ORDINAL_MODE: [OU.builtin_class(n) for n in ("On", "Even", "Odd", "Nat", "Lim")],
    HF_MODE: [HU.rank_level_class(k) for k in (1, 2, 3)],
}

RELATIONS = {
    "eq": operator.eq, "ne": operator.ne, "le": operator.le, "lt": operator.lt,
    "ge": operator.ge, "gt": operator.gt, "abs_le": lambda a, b: abs(a) <= b,
}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def reference_value(g, t: Snapshot) -> Fraction:
    """The germ's value at t, node by node from the snapshot functions."""
    if g.node == "const":
        return g.value
    if g.node == "event":
        return snapshot_prob(g.rv, g.cls, t)
    if g.node == "joint":
        return joint_snapshot_prob(g.rv, g.cls, g.rv2, g.cls2, t)
    if g.node == "cond":
        return conditional_snapshot_prob(g.rv, g.cls, g.rv2, g.cls2, t)
    if g.node == "binop":
        a = reference_value(g.left, t)
        b = reference_value(g.right, t)
        if g.op == "/":
            if b == 0:
                raise DivisionUndefined(f"denominator {g.right.key()} vanishes at {t!r}")
            return a / b
        return OPS[g.op](a, b)
    if g.indices:
        return sum((reference_value(term, t)
                    for term, idx in zip(g.terms, g.indices) if idx in t), Fraction(0))
    return sum((reference_value(term, t) for term in g.terms), Fraction(0))


def outcome(fn, *args):
    """A value, or the type and text of the vacuous or WrongMode error
    raised."""
    try:
        return fn(*args)
    except (*VACUOUS, WrongMode) as exc:
        return type(exc), str(exc)


@st.composite
def problems(draw):
    mode = draw(st.sampled_from((ORDINAL_MODE, HF_MODE)))
    pool = POOLS[mode]
    state = st.sampled_from(pool)
    # duplicates on purpose: a window is a list, a snapshot a set
    window = draw(st.lists(state, min_size=1, max_size=8))
    # mostly inside the window, where a class, pin or bound has an effect
    near = st.one_of(st.sampled_from(window), st.sampled_from(window), state)
    outside = st.sampled_from([v for v in pool if v not in window])
    classes = list(BUILTINS[mode])
    for name in ("A", "B", "C"):
        classes.append(class_from_values(name, draw(st.lists(near, max_size=6))))
    # a class with no member in the window
    classes.append(class_from_values("Z", draw(st.lists(outside, max_size=3))))
    a, b = draw(st.lists(state, min_size=2, max_size=2, unique_by=lambda v: v.code))
    rvs = [identity_rv(), table_rv({a: b, b: a}, "swap")]
    if mode == ORDINAL_MODE:
        rvs.append(even_shift_permutation())
    cls, rv = st.sampled_from(classes), st.sampled_from(rvs)

    # every count tag in both modes; weight raises WrongMode in HF mode
    tags = ["fineness", "ratio", "order_lt", "order_ge", "subset_bound", "min_size",
            "weight"]
    if mode == ORDINAL_MODE:
        tags.append("interval")
    constraints = []
    for tag in draw(st.lists(st.sampled_from(tags), max_size=3)):
        if tag == "fineness":
            # sometimes outside the window, sometimes pinned twice
            pin = fineness(draw(st.one_of(near, outside)))
            constraints.extend([pin] * draw(st.integers(1, 2)))
        elif tag == "ratio":
            constraints.append(ratio(draw(cls), draw(cls), draw(st.integers(1, 3))))
        elif tag in ("order_lt", "order_ge"):
            maker = order_lt if tag == "order_lt" else order_ge
            constraints.append(maker(draw(cls), draw(cls)))
        elif tag == "subset_bound":
            # partly outside the window, where its states count nothing
            constraints.append(subset_bound(draw(st.lists(st.one_of(near, outside),
                                                          max_size=6)),
                                            draw(st.integers(0, 4))))
        elif tag == "min_size":
            constraints.append(min_size(draw(st.integers(0, 4))))
        elif tag == "interval":
            constraints.append(interval(draw(st.integers(1, 3))))
        else:
            constraints.append(weight(draw(st.integers(1, 3))))

    rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    leaves = st.one_of(
        rationals.map(const_germ),
        st.builds(germ_of_event, rv, cls),
        st.builds(joint_germ, rv, cls, rv, cls),
        st.builds(conditional_germ, rv, cls, rv, cls),
    )

    def branches(children):
        indexed = st.lists(st.tuples(children, near), min_size=1, max_size=3).map(
            lambda pairs: star_sum([g for g, _ in pairs], [x for _, x in pairs]))
        return st.one_of(
            st.builds(germ_arith, st.sampled_from(("+", "-", "*", "/")), children, children),
            st.lists(children, min_size=1, max_size=3).map(star_sum),
            indexed,
        )

    germ = st.recursive(leaves, branches, max_leaves=5)
    max_size = draw(st.one_of(st.none(), st.integers(1, 9)))
    fb = FilterBase(tuple(constraints), universe=OU if mode == ORDINAL_MODE else HU,
                    window=tuple(window), max_size=max_size)
    return fb, draw(germ), draw(st.sampled_from(sorted(RELATIONS))), draw(germ)


def subsets(fb: FilterBase):
    """Every (mask, Snapshot) pair of the window's distinct states, smallest
    first, below the base's size bound."""
    win = Snapshot(fb.window)
    n = len(win)
    top = n if fb.max_size is None else min(n, fb.max_size - 1)
    for size in range(1, top + 1):
        for combo in itertools.combinations(range(n), size):
            yield sum(1 << i for i in combo), Snapshot(win.states[i] for i in combo)


def subset_counts(fb: FilterBase, lg, rel: str, rg) -> tuple[int, int, int]:
    """(holds, fails, vacuous) over every subset of the window that the
    base admits, from Snapshots and the node-by-node evaluator alone."""
    mode = fb.universe.mode
    holds = fails = vacuous = 0
    for _, t in subsets(fb):
        if not all(constraint_membership(c, t, mode) for c in fb.constraints):
            continue
        a, b = outcome(reference_value, lg, t), outcome(reference_value, rg, t)
        if isinstance(a, tuple) or isinstance(b, tuple):
            vacuous += 1
        elif RELATIONS[rel](a, b):
            holds += 1
        else:
            fails += 1
    return holds, fails, vacuous


def assert_window_evidence(v, holds: int, fails: int, vacuous: int) -> None:
    """A window-exhaustive verdict agrees with the subset counts; a
    sampled one means no subset settled anything."""
    if v.rule == "window-exhaustive":
        status = FORCED if not fails else FORCED_NOT if not holds else UNDETERMINED
        assert v.status == status
        expected = {"holds": holds, "fails": fails, "vacuous": vacuous}
        assert {k: v.evidence.get(k, 0) for k in expected} == expected
    elif v.rule == "sampled":
        assert holds == fails == 0


def every_count_tag(mode: str, *first) -> tuple:
    """A problem whose base has every count tag after `first`, with part
    of a subset_bound window outside the window, and min_size(0)."""
    pool, universe = POOLS[mode], OU if mode == ORDINAL_MODE else HU
    window = tuple(pool[:8])
    a, b, c = BUILTINS[mode][:3]
    base = (*first, fineness(window[1]), subset_bound(window[2:5] + (pool[10],), 2),
            min_size(0), ratio(a, b, 1), order_lt(c, b), order_ge(b, a), weight(2))
    fb = FilterBase(base, universe=universe, window=window)
    return fb, germ_of_event(identity_rv(), a), "le", germ_of_event(identity_rv(), c)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(problems())
@example(every_count_tag(ORDINAL_MODE))
@example(every_count_tag(HF_MODE, fineness(POOLS[HF_MODE][10])))  # a pin outside
@example(every_count_tag(HF_MODE, weight(3)))  # the window raises WrongMode
def test_masks_match_snapshots_on_every_subset(problem):
    fb, lg, rel, rg = problem
    win = Snapshot(fb.window)
    mode = fb.universe.mode
    tests = [constraint_mask_test(c, win, mode) for c in fb.constraints]
    left, right = compile_germ(lg, win), compile_germ(rg, win)
    for m, t in subsets(fb):
        assert win.subset(m) == t.states
        admitted = [outcome(constraint_membership, c, t, mode) for c in fb.constraints]
        assert [outcome(test, m) for test in tests] == admitted
        for g, compiled in ((lg, left), (rg, right)):
            expected = outcome(reference_value, g, t)
            assert outcome(compiled, m) == expected
            assert outcome(g.eval_at, t) == expected
    try:
        counts = subset_counts(fb, lg, rel, rg)
    except WrongMode as exc:
        # an HF weight constraint was reached: the window raises as well,
        # so only a rule that reads no constraint answers
        v = outcome(compare, lg, rel, rg, fb, 0)
        assert v == (WrongMode, str(exc)) or v.rule not in ("window-exhaustive", "sampled")
        return
    v = compare(lg, rel, rg, fb, sample_count=0)
    assert_window_evidence(v, *counts)


def test_empty_snapshot_errors_match():
    g = germ_arith("+", const_germ(1), germ_of_event(identity_rv(), OU.builtin_class("On")))
    t = Snapshot(())
    assert outcome(g.eval_at, t) == outcome(reference_value, g, t) == \
        (EmptySnapshot, "probability over an empty snapshot")


def test_division_error_names_the_subset():
    even = OU.builtin_class("Even")
    q = germ_arith("/", const_germ(1), germ_of_event(identity_rv(), even))
    t = Snapshot(parse_code(c) for c in ("o0.3", "o0.1"))
    assert outcome(q.eval_at, t) == (
        DivisionUndefined, "denominator ev(identity:Even) vanishes at Snapshot{1,3}")


def test_operands_fail_left_to_right():
    even, odd, lim = (OU.builtin_class(n) for n in ("Even", "Odd", "Lim"))
    first = conditional_germ(identity_rv(), even, identity_rv(), lim)
    second = conditional_germ(identity_rv(), even, identity_rv(), odd)
    t = Snapshot([parse_code("o0.2")])
    expected = (ConditionNull, "condition Lim has no states in the snapshot")
    for g in [germ_arith(op, first, second) for op in "+-*/"] + \
            [star_sum([first, second]), star_sum([first, second], t.states * 2)]:
        assert outcome(g.eval_at, t) == outcome(reference_value, g, t) == expected


def test_window_compare_builds_no_snapshot_per_subset(monkeypatch):
    built = []
    init = snapshots.Snapshot.__init__

    def counting(self, states):
        built.append(1)
        init(self, states)

    monkeypatch.setattr(snapshots.Snapshot, "__init__", counting)
    window = tuple(POOLS[ORDINAL_MODE][:12])
    even, on = OU.builtin_class("Even"), OU.builtin_class("On")
    g = conditional_germ(identity_rv(), even, identity_rv(), on)
    fb = FilterBase((fineness(window[0]), ratio(even, on, 1), min_size(2),
                     weight(2), subset_bound(window[:6], 4)),
                    universe=OU, window=window)
    v = compare(g, "le", Fraction(1, 2), fb, sample_count=0)
    assert v.rule == "window-exhaustive"
    assert len(built) == 1  # the window's own, which the masks index
    # interval needs the subset's ordinal runs, so it alone builds states
    v = compare(g, "le", Fraction(1, 2), fb.with_constraints([interval(1)]),
                sample_count=0)
    assert v.rule == "window-exhaustive" and len(built) > 2


@st.composite
def large_atom_problems(draw):
    """Windows of up to 14 distinct states cut by at most three classes,
    so that atoms hold many states and a count vector stands for many
    subsets."""
    mode = draw(st.sampled_from((ORDINAL_MODE, HF_MODE)))
    pool = POOLS[mode]
    state = st.sampled_from(pool)
    size = draw(st.integers(4, 14))
    window = draw(st.lists(state, min_size=size, max_size=size,
                           unique_by=lambda v: v.code))
    near = st.sampled_from(window)
    offered = list(BUILTINS[mode]) + [
        class_from_values("A", draw(st.lists(near, max_size=7)))]
    classes = draw(st.lists(st.sampled_from(offered), max_size=3))
    a, b = draw(st.lists(state, min_size=2, max_size=2, unique_by=lambda v: v.code))
    rvs = [identity_rv(), table_rv({a: b, b: a}, "swap")]
    if mode == ORDINAL_MODE:
        rvs.append(even_shift_permutation())
    rv = st.sampled_from(rvs)

    tags = ["fineness", "subset_bound", "min_size"]
    if classes:
        tags += ["ratio", "order_ge"]
    if mode == ORDINAL_MODE:
        tags.append("weight")
    constraints = []
    for tag in draw(st.lists(st.sampled_from(tags), min_size=1, max_size=3)):
        if tag == "fineness":
            constraints.append(fineness(draw(near)))
        elif tag == "subset_bound":
            constraints.append(subset_bound(draw(st.lists(st.one_of(near, state),
                                                          max_size=10)),
                                            draw(st.integers(1, 8))))
        elif tag == "min_size":
            constraints.append(min_size(draw(st.integers(0, 6))))
        elif tag == "ratio":
            cls = st.sampled_from(classes)
            constraints.append(ratio(draw(cls), draw(cls), draw(st.integers(1, 2))))
        elif tag == "order_ge":
            cls = st.sampled_from(classes)
            constraints.append(order_ge(draw(cls), draw(cls)))
        else:
            constraints.append(weight(draw(st.integers(2, 4))))

    leaves = [st.fractions(min_value=-1, max_value=1, max_denominator=3).map(const_germ)]
    if classes:
        cls = st.sampled_from(classes)
        leaves += [st.builds(germ_of_event, rv, cls),
                   st.builds(joint_germ, rv, cls, rv, cls),
                   st.builds(conditional_germ, rv, cls, rv, cls)]

    def branches(children):
        indexed = st.lists(st.tuples(children, near), min_size=1, max_size=3).map(
            lambda pairs: star_sum([g for g, _ in pairs], [x for _, x in pairs]))
        return st.one_of(
            st.builds(germ_arith, st.sampled_from(("+", "-", "*", "/")), children, children),
            indexed,
        )

    germ = st.recursive(st.one_of(*leaves), branches, max_leaves=4)
    lg, rg = draw(germ.filter(lambda g: g.node != "const")), draw(germ)
    assume(lg.key() != rg.key())
    max_size = draw(st.one_of(st.none(), st.integers(2, 15)))
    fb = FilterBase(tuple(constraints), universe=OU if mode == ORDINAL_MODE else HU,
                    window=tuple(window), max_size=max_size)
    return fb, lg, draw(st.sampled_from(sorted(RELATIONS))), rg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(large_atom_problems())
def test_count_vectors_match_subset_counts(problem):
    fb, lg, rel, rg = problem
    v = compare(lg, rel, rg, fb, sample_count=0)
    assert_window_evidence(v, *subset_counts(fb, lg, rel, rg))


def test_interval_counts_subset_by_subset():
    window = tuple(POOLS[ORDINAL_MODE][:12])
    even, on = OU.builtin_class("Even"), OU.builtin_class("On")
    g = conditional_germ(identity_rv(), even, identity_rv(), on)
    fb = FilterBase((interval(1), min_size(2)), universe=OU, window=window)
    v = compare(g, "le", Fraction(1, 2), fb, sample_count=0)
    assert v.rule == "window-exhaustive"
    assert_window_evidence(v, *subset_counts(fb, g, "le", const_germ(Fraction(1, 2))))


def test_weight_in_hf_mode_still_raises():
    rank2 = HU.rank_level_class(2)
    fb = FilterBase((weight(2),), universe=HU, window=tuple(POOLS[HF_MODE][:10]))
    with pytest.raises(WrongMode, match="weight constraint is meaningless in HF mode"):
        compare(germ_of_event(identity_rv(), rank2), "le", Fraction(1, 2), fb,
                sample_count=0)


def calls_of(g, monkeypatch) -> list[int]:
    """The masks at which compare calls the compiled germ g from now on."""
    calls = []
    compile_germ = germs.compile_germ

    def counting(germ, ix):
        f = compile_germ(germ, ix)
        if germ is not g:
            return f

        def counted(m):
            calls.append(m)
            return f(m)
        return counted

    monkeypatch.setattr(germs, "compile_germ", counting)
    return calls


def test_window_evaluates_one_subset_per_count_vector(monkeypatch):
    naturals = tuple(parse_code(f"o0.{i}") for i in range(14))
    g = germ_of_event(identity_rv(), OU.builtin_class("Even"))
    calls = calls_of(g, monkeypatch)
    v = compare(g, "le", 1, FilterBase((), universe=OU, window=naturals), sample_count=0)
    assert (v.rule, v.status, v.evidence["holds"]) == ("window-exhaustive", FORCED, 16383)
    # 7 even and 7 odd naturals: one call per (evens, odds) count pair
    assert len(calls) <= (7 + 1) * (7 + 1)


def test_mixed_base_keeps_its_count_vectors(monkeypatch):
    # Each side of a constraint's form is one recorded mask: the pin, the
    # subset_bound window (one of its states outside the window), the
    # ratio classes and the ordinal states of weight.  The atoms they
    # leave give 33 calls of the compiled germ for 81 admitted subsets.
    window = tuple(POOLS[ORDINAL_MODE][:13])
    even, odd, nat = (OU.builtin_class(n) for n in ("Even", "Odd", "Nat"))
    g, h = germ_of_event(identity_rv(), even), germ_of_event(identity_rv(), nat)
    calls = calls_of(g, monkeypatch)
    fb = FilterBase((fineness(window[2]),
                     subset_bound(window[4:9] + (parse_code("o0.9"),), 3),
                     ratio(odd, even, 1), weight(2)), universe=OU, window=window)
    v = compare(g, "le", h, fb, sample_count=0)
    assert v.rule == "window-exhaustive"
    assert (v.evidence["holds"], v.evidence["fails"], len(calls)) == (70, 11, 33)
    assert_window_evidence(v, *subset_counts(fb, g, "le", h))


def test_compare_repeats_after_evaluations_on_the_window(monkeypatch):
    # Each compare indexes its own Snapshot of the window, so the masks
    # that eval_at, or another compare, records over the same states
    # (Lim, the bit of each indexed state) do not split its atoms.
    window = tuple(POOLS[ORDINAL_MODE][:13])
    even, odd, lim, on = (OU.builtin_class(n) for n in ("Even", "Odd", "Lim", "On"))
    g = germ_of_event(identity_rv(), even)
    calls = calls_of(g, monkeypatch)
    fb = FilterBase((fineness(window[2]), ratio(odd, on, 1)), universe=OU, window=window)
    first = compare(g, "le", Fraction(1, 2), fb, sample_count=0)
    first_calls = len(calls)
    indexed = star_sum([germ_of_event(identity_rv(), lim)] * 3, window[:3])
    t = Snapshot(window)
    for h in (germ_of_event(identity_rv(), lim), indexed, g):
        h.eval_at(t)
    compare(indexed, "le", const_germ(1), fb, sample_count=0)
    between = len(calls)
    second = compare(g, "le", Fraction(1, 2), fb, sample_count=0)
    assert first.rule == second.rule == "window-exhaustive"
    assert first.evidence == second.evidence
    assert len(calls) - between == first_calls
