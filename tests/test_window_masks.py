"""Window enumeration on membership bitmasks, checked against snapshots.

A window compare treats a subset of the window as an int mask: each
constraint is a count form on bit counts (`constraint_count_form`), or
a per-mask test (`constraint_mask_test`) when it has none, and each germ
is compiled once (`compile_germ`) into a function returning an exact
(numerator, denominator) int pair.  These tests hold all three equal, on
every subset of random windows, to the snapshot-level definitions:
`constraint_membership` on the built Snapshot, and a germ evaluator
written here from the public `snapshot_prob` and the state-by-state
`joint_snapshot_prob` and `conditional_snapshot_prob` of `oracle.py`,
whose `Fraction` relations the pair relations of `germs._RELATIONS`
must match.

`admissible_vectors` lists one subset per admissible count vector over
the window's atoms, with the number of subsets it stands for; the count
of the last, largest atom is taken only inside the range the count
forms leave it, and a form that misses the last atom is checked on the
partial vectors once the last atom it reads is counted.  Its listing is
checked on its own, with and without the germs compiled: every listed
subset is admitted, and together they stand for every admitted subset.
`compare` evaluates each listed subset once, and its evidence is
checked against a subset-by-subset count on windows of up to 14 states
with few classes, where atoms are large, on windows whose last atom the
forms bound from above (below 0, too) and from below, on windows whose
pins, small-class ratios and subset bounds settle before the last atom
(and `docs/examples/window_pinned.json`), and on bases whose interval
constraint makes every state an atom.
"""

import itertools
import operator
from fractions import Fraction
from pathlib import Path

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
    const_germ,
    even_shift_permutation,
    fineness,
    germ_arith,
    germ_of_event,
    identity_rv,
    interval,
    joint_germ,
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
from setprob.filters import (
    admissible_vectors,
    constraint_count_form,
    constraint_mask_test,
    constraint_membership,
)
from setprob.germs import compile_germ
from setprob.scenario import build_context, build_germ, load_scenario, run_scenario_data

from oracle import conditional_snapshot_prob, joint_snapshot_prob

VACUOUS = (ConditionNull, DivisionUndefined, EmptySnapshot)
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

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


def pair_value(compiled, m: int) -> Fraction:
    """The compiled germ's pair at m as a Fraction; its denominator must
    be positive."""
    num, den = compiled(m)
    assert den > 0
    return Fraction(num, den)


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


def assert_listed_subsets(fb: FilterBase, compiled: tuple, admitted) -> None:
    """`admissible_vectors` over a fresh Snapshot of the window, once with
    no germ compiled and once after compiling the germs `compiled`: every
    subset it lists lies in every constraint, and the subsets they stand
    for number `admitted`, the subset-by-subset count of admitted
    subsets, or it raises `admitted`, the WrongMode that count raised."""
    mode = fb.universe.mode
    for germs_compiled in ((), compiled):
        win = Snapshot(fb.window)
        for g in germs_compiled:
            compile_germ(g, win)
        listed = outcome(admissible_vectors, win, fb.constraints, mode, fb.max_size)
        if isinstance(admitted, tuple):
            assert listed == admitted
            continue
        assert isinstance(listed, list)
        total = 0
        for m0, w0, ends in listed:
            for f, ways in ends:
                t = Snapshot(win.subset(m0 | f))
                assert all(constraint_membership(c, t, mode) for c in fb.constraints)
                total += w0 * ways
        assert total == admitted


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


@settings(max_examples=120, deadline=None)
@given(problems())
@example(every_count_tag(ORDINAL_MODE))
@example(every_count_tag(HF_MODE, fineness(POOLS[HF_MODE][10])))  # a pin outside
@example(every_count_tag(HF_MODE, weight(3)))  # the window raises WrongMode
def test_masks_match_snapshots_on_every_subset(problem):
    fb, lg, rel, rg = problem
    win = Snapshot(fb.window)
    mode = fb.universe.mode
    tests = [constraint_mask_test(c, win, mode) for c in fb.constraints]
    forms = [constraint_count_form(c, win, mode) for c in fb.constraints]
    for c, form in zip(fb.constraints, forms):
        # only a test that reads states by position, or raises, has none
        opaque = c.tag == "interval" or (mode == HF_MODE and c.tag == "weight")
        assert (form is None) == opaque
    left, right = compile_germ(lg, win), compile_germ(rg, win)
    for m, t in subsets(fb):
        assert win.subset(m) == t.states
        admitted = [outcome(constraint_membership, c, t, mode) for c in fb.constraints]
        assert [outcome(test, m) for test in tests] == admitted
        for form, got in zip(forms, admitted):
            if form is not None:
                k, slack, small, big = form
                assert (k * (m & small).bit_count() + slack <= (m & big).bit_count()) is got
        for g, compiled in ((lg, left), (rg, right)):
            expected = outcome(reference_value, g, t)
            assert outcome(pair_value, compiled, m) == expected
            assert outcome(g.eval_at, t) == expected
    try:
        counts = subset_counts(fb, lg, rel, rg)
    except WrongMode as exc:
        # an HF weight constraint was reached: the window raises as well,
        # so only a rule that reads no constraint answers
        assert_listed_subsets(fb, (lg, rg), (WrongMode, str(exc)))
        v = outcome(compare, lg, rel, rg, fb, 0)
        assert v == (WrongMode, str(exc)) or v.rule not in ("window-exhaustive", "sampled")
        return
    assert_listed_subsets(fb, (lg, rg), sum(counts))
    v = compare(lg, rel, rg, fb, sample_count=0)
    assert_window_evidence(v, *counts)


@st.composite
def pair_problems(draw):
    """A window of up to 6 distinct states and two germs over it, built
    with every operation, negative constants, quotients by a difference
    that changes sign, and plain and indexed star_sums."""
    mode = draw(st.sampled_from((ORDINAL_MODE, HF_MODE)))
    pool = POOLS[mode]
    window = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                           unique_by=lambda v: v.code))
    near = st.sampled_from(window)
    classes = list(BUILTINS[mode]) + [
        class_from_values("A", draw(st.lists(near, max_size=4)))]
    a, b = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2,
                         unique_by=lambda v: v.code))
    rv = st.sampled_from([identity_rv(), table_rv({a: b, b: a}, "swap")])
    cls = st.sampled_from(classes)
    leaves = st.one_of(
        st.fractions(min_value=-3, max_value=3, max_denominator=5).map(const_germ),
        st.builds(germ_of_event, rv, cls),
        st.builds(joint_germ, rv, cls, rv, cls),
        st.builds(conditional_germ, rv, cls, rv, cls),
    )

    def branches(children):
        difference = st.builds(germ_arith, st.just("-"), children, children)
        indexed = st.lists(st.tuples(children, near), min_size=1, max_size=3).map(
            lambda pairs: star_sum([g for g, _ in pairs], [x for _, x in pairs]))
        return st.one_of(
            st.builds(germ_arith, st.sampled_from(("+", "-", "*", "/")), children, children),
            st.builds(germ_arith, st.just("/"), children, difference),
            st.lists(children, max_size=3).map(star_sum),
            indexed,
        )

    germ = st.recursive(leaves, branches, max_leaves=6)
    return tuple(window), draw(germ), draw(germ)


def _parity_gap():
    """Pr[Even] - Pr[Odd] - 1/2, negative on most subsets, beside Pr[Lim]."""
    ident = identity_rv()
    even, odd, lim = (OU.builtin_class(n) for n in ("Even", "Odd", "Lim"))
    gap = germ_arith("-", germ_arith("-", germ_of_event(ident, even),
                                     germ_of_event(ident, odd)), Fraction(1, 2))
    return tuple(POOLS[ORDINAL_MODE][:6]), gap, germ_of_event(ident, lim)


@settings(max_examples=150, deadline=None)
@given(pair_problems())
@example(_parity_gap())
def test_pair_relations_match_fraction_relations(problem):
    # Every relation on the compiled pairs, which are never reduced, gives
    # what the Fraction relation gives on the node-by-node values, and a
    # subset with no value raises the same error, with the same text.
    window, lg, rg = problem
    assert sorted(germs._RELATIONS) == sorted(RELATIONS)
    win = Snapshot(window)
    left, right = compile_germ(lg, win), compile_germ(rg, win)
    for m in range(1 << len(win)):
        t = Snapshot(win.subset(m))
        sides = []
        for g, compiled in ((lg, left), (rg, right)):
            expected = outcome(reference_value, g, t)
            got = outcome(compiled, m)
            if isinstance(expected, tuple):  # no value: the same error
                assert got == expected
            else:
                assert got[1] > 0 and Fraction(*got) == expected
            sides.append((expected, got))
        (lv, lp), (rv, rp) = sides
        for rel, relation in germs._RELATIONS.items():
            judged = germs._judge(relation, left, right, m)
            if isinstance(lv, tuple) or isinstance(rv, tuple):
                assert judged is None
            else:
                assert judged == relation(lp, rp) == RELATIONS[rel](lv, rv)


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


@settings(max_examples=40, deadline=None)
@given(large_atom_problems())
def test_count_vectors_match_subset_counts(problem):
    fb, lg, rel, rg = problem
    counts = subset_counts(fb, lg, rel, rg)
    assert_listed_subsets(fb, (lg, rg), sum(counts))
    v = compare(lg, rel, rg, fb, sample_count=0)
    assert_window_evidence(v, *counts)


@st.composite
def cut_last_atom_problems(draw):
    """Windows whose largest atom L, the one `admissible_vectors` solves
    for, is cut from above and below.  The atom is more than half the
    window and no class splits it.  A ratio at k in {2, 3} has L on its
    small side only, and its small side reaches past L, so the bound
    falls below 0 (a floor).  min_size, or an order_ge with L on its big
    side only, gives a lower bound (a ceiling).  A ratio with L on both
    sides has coef k - 1, and a max_size cap bounds the size."""
    mode = draw(st.sampled_from((ORDINAL_MODE, HF_MODE)))
    size = draw(st.integers(7, 14))
    window = draw(st.lists(st.sampled_from(POOLS[mode]), min_size=size, max_size=size,
                           unique_by=lambda v: v.code))
    cut = draw(st.integers(size // 2 + 1, size - 2))
    last, rest = window[:cut], window[cut:]
    part = st.lists(st.sampled_from(rest), max_size=len(rest), unique_by=lambda v: v.code)
    whole = class_from_values("L", last)
    small = class_from_values("S", last + draw(part))
    big = class_from_values("B", draw(part))
    both = class_from_values("C", last + draw(part))
    constraints = [ratio(small, big, draw(st.integers(2, 3)))]
    extras = {
        "min_size": st.integers(2, 6).map(min_size),
        "order_ge": st.just(order_ge(both, big)),
        "both": st.integers(1, 3).map(lambda k: ratio(both, small, k)),
        "pin": st.sampled_from(rest).map(fineness),
    }
    for name in draw(st.lists(st.sampled_from(sorted(extras)), max_size=3, unique=True)):
        constraints.append(draw(extras[name]))
    constraints = draw(st.permutations(constraints))
    ident = identity_rv()
    event = st.sampled_from((whole, small, big, both)).map(
        lambda cls: germ_of_event(ident, cls))
    lg = draw(st.builds(germ_arith, st.just("-"), event, event))
    rg = draw(st.fractions(min_value=-1, max_value=1, max_denominator=4).map(const_germ))
    max_size = draw(st.one_of(st.none(), st.integers(2, size)))
    fb = FilterBase(tuple(constraints), universe=OU if mode == ORDINAL_MODE else HU,
                    window=tuple(window), max_size=max_size)
    return fb, lg, draw(st.sampled_from(sorted(RELATIONS))), rg


@settings(max_examples=60, deadline=None)
@given(cut_last_atom_problems())
def test_last_atom_range_matches_subset_counts(problem):
    fb, lg, rel, rg = problem
    counts = subset_counts(fb, lg, rel, rg)
    assert_listed_subsets(fb, (lg, rg), sum(counts))
    v = compare(lg, rel, rg, fb, sample_count=0)
    assert_window_evidence(v, *counts)


@st.composite
def settled_form_problems(draw):
    """Windows of at most 12 states whose largest atom L, more than half
    the window, no class, pin or bound reads, so the forms whose sides
    lie in the rest of the window settle before L: fineness pins, ratio
    and order over small value classes, and subset bounds.  A subset
    bound whose window misses the window has no side and stays with the
    bounds on L's count, as do a ratio over L and min_size."""
    mode = draw(st.sampled_from((ORDINAL_MODE, HF_MODE)))
    pool = POOLS[mode]
    size = draw(st.integers(5, 12))
    window = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size,
                           unique_by=lambda v: v.code))
    cut = draw(st.integers(size // 2 + 1, size - 2))
    bulk, rest = window[:cut], window[cut:]
    near = st.sampled_from(rest)
    outside = st.sampled_from([v for v in pool if v not in window])
    classes = [class_from_values(name, draw(st.lists(near, max_size=len(rest))))
               for name in ("A", "B", "C")]
    cls = st.sampled_from(classes)
    whole = class_from_values("L", bulk)
    extras = {
        "pin": near.map(fineness),
        "ratio": st.builds(ratio, cls, cls, st.integers(1, 3)),
        "order_lt": st.builds(order_lt, cls, cls),
        "order_ge": st.builds(order_ge, cls, cls),
        "bound": st.builds(subset_bound, st.lists(st.one_of(near, outside), max_size=4),
                           st.integers(0, 3)),
        "bound_outside": st.builds(subset_bound, st.lists(outside, max_size=3),
                                   st.integers(0, 2)),
        "ratio_over_L": st.builds(ratio, cls, st.just(whole), st.integers(1, 2)),
        "min_size": st.integers(1, 4).map(min_size),
    }
    names = draw(st.lists(st.sampled_from(sorted(extras)), min_size=1, max_size=4))
    constraints = [draw(extras[name]) for name in names]
    ident = identity_rv()
    event = st.sampled_from([whole] + classes).map(lambda c: germ_of_event(ident, c))
    lg = draw(st.one_of(event, st.builds(germ_arith, st.sampled_from(("+", "-", "*")),
                                         event, event)))
    rg = draw(st.one_of(event, st.fractions(min_value=0, max_value=1,
                                            max_denominator=4).map(const_germ)))
    max_size = draw(st.one_of(st.none(), st.integers(2, size)))
    fb = FilterBase(tuple(constraints), universe=OU if mode == ORDINAL_MODE else HU,
                    window=tuple(window), max_size=max_size)
    return fb, lg, draw(st.sampled_from(sorted(RELATIONS))), rg


@settings(max_examples=80, deadline=None)
@given(settled_form_problems())
def test_forms_settled_before_the_last_atom_match_subset_counts(problem):
    fb, lg, rel, rg = problem
    counts = subset_counts(fb, lg, rel, rg)
    assert_listed_subsets(fb, (lg, rg), sum(counts))
    v = compare(lg, rel, rg, fb, sample_count=0)
    assert_window_evidence(v, *counts)


def test_pinned_window_example_matches_plain_enumeration():
    # Two pins and a ratio over value classes of 14 naturals read none
    # of the naturals 4-9, where the largest atom lies, so all three
    # settle before it.  Each compare's status, worked out here subset
    # by subset, is the one the example expects.
    data = load_scenario(str(EXAMPLES / "window_pinned.json"))
    ctx = build_context(data)
    report = run_scenario_data(data)
    assert report["ok"] is True
    for q, record in zip(data["queries"], report["queries"]):
        lg, rg = build_germ(ctx, q["lhs"]), build_germ(ctx, q["rhs"])
        holds, fails, vacuous = subset_counts(ctx.base, lg, q["rel"], rg)
        status = FORCED if not fails else FORCED_NOT if not holds else UNDETERMINED
        assert holds or fails
        assert status == q["expect_status"]
        assert (record["verdict"]["status"], record["verdict"]["rule"]) == \
            (status, "window-exhaustive")
        v = compare(lg, q["rel"], rg, ctx.base, sample_count=0)
        assert_window_evidence(v, holds, fails, vacuous)


def test_interval_counts_subset_by_subset():
    window = tuple(POOLS[ORDINAL_MODE][:12])
    even, on = OU.builtin_class("Even"), OU.builtin_class("On")
    g = conditional_germ(identity_rv(), even, identity_rv(), on)
    fb = FilterBase((interval(1), min_size(2)), universe=OU, window=window)
    v = compare(g, "le", Fraction(1, 2), fb, sample_count=0)
    assert v.rule == "window-exhaustive"
    assert_window_evidence(v, *subset_counts(fb, g, "le", const_germ(Fraction(1, 2))))


def test_lim_by_name_through_the_enumerator():
    # A class named Lim that holds 1, 2 and 3, not the limit ordinals,
    # under a base whose interval test takes every state's bit, so each
    # state is its own atom and each listed subset stands for itself.
    # The counts are pinned, not compare's verdict, which a rule matching
    # the name Lim decides.
    window = tuple(parse_code(f"o0.{i}") for i in range(14))
    lim = class_from_values("Lim", [parse_code(c) for c in ("o0.1", "o0.2", "o0.3")])
    fb = FilterBase((interval(3), fineness(window[0])), universe=OU, window=window)
    g = conditional_germ(identity_rv(), lim, identity_rv(), OU.builtin_class("On"))
    third = const_germ(Fraction(1, 3))
    win = Snapshot(window)
    left, right = compile_germ(g, win), compile_germ(third, win)
    listed = admissible_vectors(win, fb.constraints, ORDINAL_MODE, fb.max_size)
    assert len(win.atoms()) == len(window)
    tally = {True: 0, False: 0, None: 0}
    for m0, w0, ends in listed:
        for f, ways in ends:
            assert w0 * ways == 1
            tally[germs._judge(germs._RELATIONS["le"], left, right, m0 | f)] += 1
    assert (tally[True], tally[False], tally[None]) == \
        subset_counts(fb, g, "le", third) == (57, 11, 0)


def test_weight_in_hf_mode_still_raises():
    rank2 = HU.rank_level_class(2)
    fb = FilterBase((weight(2),), universe=HU, window=tuple(POOLS[HF_MODE][:10]))
    with pytest.raises(WrongMode, match="weight constraint is meaningless in HF mode"):
        compare(germ_of_event(identity_rv(), rank2), "le", Fraction(1, 2), fb,
                sample_count=0)


def test_weight_in_hf_mode_raises_only_where_the_base_reaches_it():
    # The constraints are asked in the base's order: weight raises at the
    # first subset it is asked about, and a min_size no subset of the
    # window meets is asked before it or after it.
    rank2 = HU.rank_level_class(2)
    g = germ_of_event(identity_rv(), rank2)
    window = tuple(POOLS[HF_MODE][:10])
    fb = FilterBase((weight(2), min_size(11)), universe=HU, window=window)
    with pytest.raises(WrongMode, match="weight constraint is meaningless in HF mode"):
        compare(g, "le", Fraction(1, 2), fb, sample_count=0)
    fb = FilterBase((min_size(11), weight(2)), universe=HU, window=window)
    assert compare(g, "le", Fraction(1, 2), fb, sample_count=0).rule == "sampled"


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
