"""Acceptance suite: ten criteria, exact arithmetic, pinned runtimes.

Each test registers a pass/fail line printed in the terminal summary.
Forced verdicts produced anywhere in this module are recorded and
re-audited wholesale by the final criterion.
"""

import functools
import random
import time
from fractions import Fraction
from itertools import combinations, islice, product

import pytest

from setprob import (
    FORCED,
    FilterBase,
    HF_MODE,
    ORDINAL_MODE,
    TierConfig,
    audit_verdict,
    check_fip,
    class_from_values,
    class_of_set,
    classify_infinitesimal,
    coherence_check,
    compare,
    conditional_germ,
    constraint_membership,
    fineness,
    fineness_base,
    find_witness,
    germ_arith,
    germ_of_event,
    hf_set,
    identity_rv,
    interval,
    make_universe,
    nat,
    ord_value,
    order_ge,
    order_lt,
    ordinal_theorem_base,
    ordinal_witness,
    parametric_fineness,
    power_class,
    power_lift,
    powerset_prefilter_stage,
    powerset_witness_extend,
    ratio,
    restrict_base,
    set_verdict_recorder,
    snapshot,
    star_sum,
    subset_bound,
    superreg_constraints,
    superreg_witness,
    table_rv,
    weight,
)
from setprob import CardinalityTier, ClassSpec, non_restriction_counterexample
from setprob.cli import (
    chain_sets,
    demo_hume_failure,
    demo_translation_failure,
    registry_classes,
)
from conftest import ACCEPTANCE_RESULTS

RECORDED: list = []


@pytest.fixture(scope="module", autouse=True)
def _capture_verdicts():
    RECORDED.clear()
    set_verdict_recorder(lambda v, fb: RECORDED.append((v, fb)))
    yield
    set_verdict_recorder(None)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_RESULTS[num] = (label, False)
                raise
            ACCEPTANCE_RESULTS[num] = (label, True)
        return wrapper
    return deco


def _residue(name, modulus, span, tier_index):
    def member(v, modulus=modulus, span=span):
        if not v.is_ordinal:
            return False
        a, b = v.ord_parts
        return a <= span and b % modulus == 0

    def stream(modulus=modulus, span=span):
        b = 0
        while True:
            for a in range(span + 1):
                yield ord_value(a, b)
            b += modulus

    return ClassSpec(name, member, stream, CardinalityTier.infinite(tier_index))


@criterion(1, "finite additivity and field laws, 1000 cases")
def test_criterion_1_additivity_and_field_laws():
    start = time.monotonic()
    rng = random.Random(101)
    hf = make_universe(HF_MODE, 5)
    ords = make_universe(ORDINAL_MODE, 3)
    pools = [list(islice(hf.enumerate_universe(), 150)),
             list(islice(ords.enumerate_universe(), 150))]
    ident = identity_rv()
    for case in range(1000):
        pool = pools[case % 2]
        picks = rng.sample(pool, 12)
        a_vals, b_vals = picks[:3], picks[3:7]
        ga = germ_of_event(ident, class_from_values("a", a_vals))
        gb = germ_of_event(ident, class_from_values("b", b_vals))
        gu = germ_of_event(ident, class_from_values("u", a_vals + b_vals))
        t = snapshot(*rng.sample(pool, rng.randint(1, 8)))
        # additivity of disjoint events
        assert gu.eval_at(t) == ga.eval_at(t) + gb.eval_at(t)
        # ordered-field identities on expression trees
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        gc = germ_arith("*", ga, gb)
        left = germ_arith("*", ga, germ_arith("+", gb, c))
        right = germ_arith("+", gc, germ_arith("*", ga, c))
        assert left.eval_at(t) == right.eval_at(t)
        assert germ_arith("-", gb, gb).eval_at(t) == 0
        assert germ_arith("+", ga, gb).eval_at(t) == \
            germ_arith("+", gb, ga).eval_at(t)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s"


@criterion(2, "regularity, uniformity, Euclidean order, 200 variables")
def test_criterion_2_euclidean_and_uniformity():
    rng = random.Random(202)
    U = make_universe(ORDINAL_MODE, 3)
    pool = list(islice(U.enumerate_universe(), 80))
    fb = fineness_base(U)
    for case in range(200):
        support = rng.sample(pool, 8)
        image = support[:]
        rng.shuffle(image)
        rv = table_rv(dict(zip(support, image)), f"perm{case}")
        assert rv.diagonal
        vals = rng.sample(image, 4)
        small = class_from_values("small", vals[:2])
        large = class_from_values("large", vals)
        v = compare(germ_of_event(rv, small), "lt",
                    germ_of_event(rv, large), fb)
        assert v.status == FORCED and v.rule == "subset-strict"
        # uniformity: two singleton events weigh the same on any snapshot
        # holding both preimages
        x, y = vals[0], vals[1]
        gx = germ_of_event(rv, class_from_values("sx", [x]))
        gy = germ_of_event(rv, class_from_values("sy", [y]))
        px, py = support[image.index(x)], support[image.index(y)]
        rest = [s for s in pool if s not in (px, py)]
        for _ in range(3):
            t = snapshot(px, py, *rng.sample(rest, rng.randint(0, 4)))
            assert gx.eval_at(t) == gy.eval_at(t) == Fraction(1, len(t))


@criterion(3, "perfect additivity over 100 finite partitions")
def test_criterion_3_perfect_additivity():
    rng = random.Random(303)
    U = make_universe(ORDINAL_MODE, 3)
    pool = list(islice(U.enumerate_universe(), 90))
    ident = identity_rv()
    for case in range(100):
        chunk = rng.sample(pool, rng.randint(2, 12))
        cuts = sorted(rng.sample(range(1, len(chunk)),
                                 min(rng.randint(0, 4), len(chunk) - 1)))
        parts, prev = [], 0
        for cut in cuts + [len(chunk)]:
            parts.append(chunk[prev:cut])
            prev = cut
        part_germs = [germ_of_event(ident, class_from_values(f"p{i}", vals))
                      for i, vals in enumerate(parts)]
        union_germ = germ_of_event(ident, class_from_values("u", chunk))
        summed = star_sum(part_germs)
        for _ in range(5):
            t = snapshot(*rng.sample(pool, rng.randint(1, 9)))
            assert summed.eval_at(t) == union_germ.eval_at(t)


@criterion(4, "Hume failure and translation failure, forced strictly")
def test_criterion_4_symmetry_failures():
    start = time.monotonic()
    for verdicts in (demo_hume_failure(), demo_translation_failure()):
        assert len(verdicts) == 1
        v = verdicts[0]
        assert v.status == FORCED
        assert v.relation == "lt"
        assert v.rule == "subset-strict"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s"


@criterion(5, "superregularity witnesses, 50 seeded instances")
def test_criterion_5_superregularity():
    start = time.monotonic()
    U = make_universe(ORDINAL_MODE, 4)
    pool = list(islice(U.enumerate_universe(), 100))
    ladder = [_residue("m8", 8, 0, 0), _residue("m4", 4, 1, 1),
              _residue("m2", 2, 2, 2), _residue("m1", 1, 3, 3)]
    rng = random.Random(505)
    tiered_pairs = list(combinations(range(4), 2))
    for case in range(50):
        chosen = rng.sample(tiered_pairs, rng.randint(1, 4))
        pairs = [(ladder[i], ladder[j], rng.randint(1, 5))
                 for i, j in sorted(chosen)]
        pins = rng.sample(pool, rng.randint(0, 6))
        w = superreg_witness(pins, pairs)
        for c in superreg_constraints(pairs, pins):
            assert constraint_membership(c, w, U.mode), c.describe()
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 5 took {elapsed:.2f}s"


@criterion(6, "power-set condition: staging, worked chain, iterated lift")
def test_criterion_6_powerset_condition():
    start = time.monotonic()
    HF = make_universe(HF_MODE, 5)
    a1, a2, a3, a4 = chain_sets()
    staged = powerset_prefilter_stage(
        HF, 4, fineness_base(HF), [(a1, a2), (a2, a3), (a3, a4)],
        rng=random.Random(6))
    assert check_fip(staged).witnessed

    els = [class_of_set(sv) for sv in (a1, a2, a3, a4)]
    powers = [power_class(c) for c in els]
    slice_cs = [
        order_lt(els[0], els[1]), order_lt(els[1], els[2]),
        order_lt(els[0], els[2]), order_lt(els[0], els[3]),
        order_lt(els[1], els[3]),
        order_ge(els[2], els[3]), order_ge(els[3], els[2]),
    ]
    judgements = FilterBase(
        tuple(slice_cs + [power_lift(c) for c in slice_cs]), universe=HF)
    ground = find_witness(slice_cs, HF, rng=random.Random(0))
    assert ground is not None
    extended = powerset_witness_extend(
        HF, ground, [[powers[0]], [powers[1]], [powers[2], powers[3]]],
        judgements)
    counts = [sum(1 for s in extended if p.membership(s)) for p in powers]
    assert counts[0] < counts[1] < counts[2] == counts[3]

    r2 = list(HF.level_members(2))
    current = order_lt(class_of_set(hf_set(r2[:1])),
                       class_of_set(hf_set(r2[:2])))
    for n in range(4):
        w = find_witness([current], HF, rng=random.Random(60 + n))
        assert w is not None and constraint_membership(current, w, HF.mode)
        if n < 3:
            current = power_lift(current)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s"


@criterion(7, "ordinal theorem: four memberships, vanishing masses, parity gap")
def test_criterion_7_ordinal_theorem():
    U = make_universe(ORDINAL_MODE, 3)
    reg = registry_classes(U)
    m4, e1 = reg["mult4_t0"], reg["even_t1"]
    rng = random.Random(707)
    produced = []
    for k, l, m in product((1, 2, 3, 5), repeat=3):
        pins = [nat(rng.randrange(0, 40)) for _ in range(rng.randint(0, 4))]
        w = ordinal_witness(U, pins, k=k, l=l, m=m, pairs=[(m4, e1)])
        checks = [fineness(p) for p in pins]
        checks += [ratio(m4, e1, k), interval(l), weight(m)]
        for c in checks:
            assert constraint_membership(c, w, U.mode), (k, l, m, c.describe())
        produced.append((l, w))

    fb = ordinal_theorem_base(U, [(m4, e1), (e1, reg["ord_t2"])])
    ident = identity_rv()
    on, lim = reg["On"], reg["Lim"]
    mass_on = classify_infinitesimal(germ_of_event(ident, on), fb)
    assert mass_on.approx_zero
    mass_lim = classify_infinitesimal(conditional_germ(ident, lim, ident, on), fb)
    assert mass_lim.approx_zero

    even, odd = reg["Even"], reg["Odd"]
    for l, w in produced:
        on_count = sum(1 for s in w if on.membership(s))
        assert on_count > 0
        even_share = Fraction(sum(1 for s in w if even.membership(s)), on_count)
        odd_share = Fraction(sum(1 for s in w if odd.membership(s)), on_count)
        assert abs(even_share - odd_share) <= Fraction(1, l), (l, w)


@criterion(8, "restriction coherence on a 16-element 3-tier lattice")
def test_criterion_8_restriction_and_coherence():
    start = time.monotonic()
    U = make_universe(HF_MODE, 4)
    win = list(U.enumerate_universe())
    tc = TierConfig((4, 9, 17))
    mids = [win[:9], win[:12], win[2:14]]
    lows = [win[:4], win[2:8], win[4:10]]
    chains = [(sp, t) for sp in mids for t in lows
              if {v.code for v in t} < {v.code for v in sp}]
    assert chains
    for sp, t in chains:
        fb = FilterBase(
            (parametric_fineness(), subset_bound(sp, 9), subset_bound(t, 4)),
            universe=U, window=tuple(win), provenance="fineness")
        once, audit_once = restrict_base(fb, t, 4)
        step, audit_mid = restrict_base(fb, sp, 9)
        twice, audit_twice = restrict_base(step, t, 4)
        assert twice.constraints == once.constraints
        assert twice.window == once.window
        for audit in (audit_once, audit_mid, audit_twice):
            assert audit.passed, audit.summary()

    ident = identity_rv()
    rng = random.Random(808)
    for _ in range(12):
        t = snapshot(*rng.sample(win, rng.randint(4, 8)))  # tier 1
        cls = class_from_values("ev", rng.sample(win, rng.randint(1, 8)))
        inside = [s for s in win if s in t]
        outside = [s for s in win if s not in t]
        for meet_size in (1, 2, 3):
            probe = rng.sample(inside, meet_size) + rng.sample(outside, 3)
            report = coherence_check(tc, ident, cls, t, probe)
            assert report.ok, report.summary()
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.2f}s"


@criterion(9, "non-restriction counterexample and its repair")
def test_criterion_9_non_restriction():
    U = make_universe(HF_MODE, 4)
    win = list(U.enumerate_universe())
    tc = TierConfig((4, 9, 17))
    cx = non_restriction_counterexample(U, tc, win)
    assert cx.demonstrates_failure
    assert cx.bad_top_check.witnessed
    assert not cx.bad_restricted_audit.exclusion_ok
    assert cx.repair_top_check.witnessed
    assert cx.repair_restricted_audit.passed
    again = non_restriction_counterexample(U, tc, win)
    assert again.narrative() == cx.narrative()


@criterion(10, "soundness audit of every forced verdict, 100 witnesses each")
def test_criterion_10_verdict_audit():
    if not RECORDED:  # lone-test invocation: regenerate a nonempty sample
        demo_hume_failure()
        demo_translation_failure()
    forced = [(v, fb) for v, fb in RECORDED if v.forced]
    assert forced, "expected forced verdicts from the earlier criteria"
    rng = random.Random(1010)
    for v, fb in forced:
        report = audit_verdict(v, fb, rng, witness_count=100)
        assert report.clean, v.claim()
        assert report.failures == ()
