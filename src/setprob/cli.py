"""Command-line interface.

Subcommands: `run` executes a scenario file; `query` evaluates one
event or conditional germ against a base; `witness` drives the three
witness constructions; `check` runs the structural checks (FIP,
coherence, restriction, the non-restriction counterexample); `demo`
replays the canned demonstrations; `audit` re-verifies forced verdicts
on fresh witnesses.

Exit codes: 0 success, 1 a query or check failed, 2 input validation
failed, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .bootstrap import TierConfig, TieredProb, coherence_check, \
    non_restriction_counterexample
from .errors import EngineError, ScenarioError
from .filters import (
    SCAN_CAP,
    FilterBase,
    check_fip,
    expand_base,
    find_witness,
    order_ge,
    order_lt,
    power_lift,
    powerset_prefilter_stage,
    powerset_witness_extend,
)
from .germs import (
    APPROX_ZERO,
    FORCED,
    Verdict,
    audit_verdict,
    classify_infinitesimal,
    compare,
    set_verdict_recorder,
)
from .scenario import (
    ScenarioContext,
    build_base,
    build_germ,
    builtin_classes,
    canonical_report_text,
    rational_str,
    report_csv,
    report_json,
    run_scenario,
    run_witness,
)
from .snapshots import Snapshot
from .universe import (
    CardinalityTier,
    ClassSpec,
    HF_MODE,
    ORDINAL_MODE,
    UniverseHandle,
    class_of_set,
    even_shift_permutation,
    hf_set,
    identity_rv,
    image_class,
    make_universe,
    nat,
    power_class,
    translate_class,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


def registry_classes(universe: UniverseHandle) -> dict[str, ClassSpec]:
    """Named classes available to CLI queries and demos.

    The residue chain carries declared tiers that order it strictly:
    multiples of four in the first block, below the evens of the first
    two blocks, below all ordinals of the first three.
    """
    classes = builtin_classes(universe)
    if universe.mode == ORDINAL_MODE:
        classes["mult4_t0"] = universe.residue_class(
            "mult4_t0", 4, 0, 0, CardinalityTier.infinite(0),
            ("even_t1", "ord_t2", "Nat", "Even", "On", "V"))
        classes["even_t1"] = universe.residue_class(
            "even_t1", 2, 0, 1, CardinalityTier.infinite(1),
            ("ord_t2", "Even", "On", "V"))
        classes["ord_t2"] = universe.residue_class(
            "ord_t2", 1, 0, 2, CardinalityTier.infinite(2), ("On", "V"))
        classes["Nat_shift1"] = translate_class(
            classes["Nat"], nat(1), name="Nat_shift1",
            subset_tags=("Nat", "On", "V"))
        classes["pi_Even"] = image_class(
            even_shift_permutation(), classes["Even"], name="pi_Even",
            subset_tags=("Even", "On", "V"))
    else:
        for k in range(universe.bound - 1):
            classes[f"rank{k}"] = universe.rank_level_class(k)
    return classes


# Base specs, in the scenario schema's form, for `query --base`.
_BASES = {
    "fineness": {"builder": "fineness"},
    "ordinal_theorem": {"builder": "ordinal_theorem",
                        "pairs": [["mult4_t0", "even_t1"],
                                  ["even_t1", "ord_t2"]]},
}


def _build_universe(args) -> UniverseHandle:
    bound = args.rank if args.universe == HF_MODE else args.omega_bound
    return make_universe(args.universe, bound)


def _context(universe: UniverseHandle, base: dict | None = None,
             seed: int = 0) -> ScenarioContext:
    """A scenario context over the registry classes and the variables
    `identity` and `even_shift`; `base` is a scenario base spec, and
    None means the fineness base."""
    ctx = ScenarioContext(
        universe=universe, seed=seed, rng=random.Random(seed), tiers=None,
        classes=registry_classes(universe),
        variables={"identity": identity_rv(),
                   "even_shift": even_shift_permutation()},
        base=FilterBase((), universe=universe))
    ctx.base = build_base(ctx, base)
    return ctx


def _event(name: str, rv: str | None = None) -> dict:
    return {"event": {"class": name, "rv": rv}}


# ---------------------------------------------------------------------------
# query


def _cmd_query(args) -> int:
    ctx = _context(_build_universe(args), _BASES[args.base], args.seed)
    if args.given is not None:
        germ = build_germ(ctx, {"cond": {"rv": args.rv, "class": args.event,
                                         "given": args.given}})
    else:
        germ = build_germ(ctx, _event(args.event, args.rv))
    concrete = expand_base(ctx.base)
    samples = []
    for _ in range(3):
        w = find_witness(concrete, ctx.universe, rng=ctx.rng,
                         window=ctx.base.window,
                         decorate=ctx.rng.randrange(0, 5))
        if w is None:
            break
        try:
            value = rational_str(germ.eval_at(w))
        except EngineError as exc:
            value = f"undefined ({type(exc).__name__})"
        samples.append({"snapshot": [s.code for s in w], "value": value})
    classification = classify_infinitesimal(germ, ctx.base)
    record = {
        "expression": germ.describe(),
        "universe": {"mode": ctx.universe.mode, "bound": ctx.universe.bound},
        "base": args.base,
        "seed": args.seed,
        "classification": classification.status,
        "classification_rule": classification.rule,
        "samples": samples,
    }
    if args.out == "json":
        print(json.dumps(record, indent=2))
    else:
        print("field,value")
        print(f"expression,{record['expression']}")
        print(f"classification,{record['classification']}")
        for i, s in enumerate(samples):
            print(f"sample{i},{s['value']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness


def _parse_pairs(text: str) -> list[list]:
    """`A:B:n,C:D` as scenario witness pairs; decimal fields become ints."""
    return [[int(f) if f.isdecimal() else f for f in part.split(":")]
            for part in text.split(",") if part]


def _cmd_witness(args) -> int:
    ctx = _context(_build_universe(args))
    if args.construction == "powerset":
        sets = [ctx.states(pair.split(":"))
                for pair in args.pairs.split(";") if pair]
        if any(len(codes) != 2 for codes in sets):
            raise ScenarioError("powerset --pairs takes code:code pairs")
        fb = powerset_prefilter_stage(ctx.universe, args.level, ctx.base,
                                      [(a, b) for a, b in sets],
                                      rng=random.Random(args.seed))
        kept = [c for c in fb.constraints
                if c.tag in ("order_lt", "order_ge")]
        print(f"judgements kept: {len(kept)}")
        for c in kept:
            print("  " + c.describe())
        result = check_fip(fb, rng=random.Random(args.seed))
        print(f"fip: {result.status}")
        return EXIT_OK if result.witnessed else EXIT_FAILURE

    record = run_witness(ctx, {
        "builder": args.construction,
        "pins": args.pins.split(",") if args.pins else [],
        "pairs": _parse_pairs(args.pairs),
        "k": args.k, "l": args.l, "m": args.m,
    })
    print(f"witness ({record['size']} states): " + " ".join(record["witness"]))
    for m in record["memberships"]:
        print(f"  {'ok  ' if m['holds'] else 'FAIL'} {m['constraint']}")
    return EXIT_OK if record["assertion"] == "pass" else EXIT_FAILURE


# ---------------------------------------------------------------------------
# check


def _hf_lattice(universe: UniverseHandle) -> list:
    states = []
    for k in range(4):
        states.extend(universe.level_members(k))
    return states


def _hf_fixture() -> tuple[UniverseHandle, TierConfig, list]:
    """The HF universe of bound 5, the tier thresholds 4, 9, 17 and the
    states of ranks 0-3: the setting of the tiered checks."""
    universe = make_universe(HF_MODE, 5)
    return universe, TierConfig((4, 9, 17)), _hf_lattice(universe)


def _cmd_check(args) -> int:
    if args.what == "fip":
        universe = _build_universe(args)
        if universe.mode == ORDINAL_MODE:
            base = _BASES["ordinal_theorem"]
        else:
            base = {"builder": "fineness",
                    "window": [s.code for s in _hf_lattice(universe)[:8]]}
        result = check_fip(_context(universe, base).base,
                           scan_cap=args.budget or SCAN_CAP)
        print(f"fip: {result.status} ({len(result.witnesses)} subsets witnessed)")
        return EXIT_OK if result.witnessed else EXIT_FAILURE

    universe, config, lattice = _hf_fixture()
    if args.what == "coherence":
        cls = ClassSpec(
            "low_rank", lambda v: v.is_set and len(v.children) <= 1,
            lambda: iter(()), CardinalityTier.proper())
        report = coherence_check(config, identity_rv(), cls,
                                 Snapshot(lattice[:12]), lattice[:8])
        print(report.summary())
        return EXIT_OK if report.ok else EXIT_FAILURE

    if args.what == "restriction":
        tower = TieredProb(universe, config, lattice)
        ok = True
        for tier in range(len(config.thresholds)):
            _, audit = tower.restricted(tier)
            print(f"tier {tier} (cap {tower.space_cap(tier)}): {audit.summary()}")
            ok = ok and audit.passed
        return EXIT_OK if ok else EXIT_FAILURE

    # counterexample
    demo = non_restriction_counterexample(universe, config, lattice)
    print(demo.narrative())
    return EXIT_OK if demo.demonstrates_failure else EXIT_FAILURE


# ---------------------------------------------------------------------------
# demos


def _compare_demo(smaller: str, larger: str) -> list[Verdict]:
    """Whether Pr[smaller] < Pr[larger] is forced over the fineness base
    of the ordinal universe of bound 3."""
    ctx = _context(make_universe(ORDINAL_MODE, 3))
    return [compare(build_germ(ctx, _event(smaller)), "lt",
                    build_germ(ctx, _event(larger)), ctx.base)]


def demo_euclidean(seed: int = 0) -> list[Verdict]:
    """Strict inclusion forces strictly smaller probability."""
    return _compare_demo("mult4_t0", "even_t1")


def demo_hume_failure(seed: int = 0) -> list[Verdict]:
    """A bijective shift of the evens has strictly smaller probability."""
    return _compare_demo("pi_Even", "Even")


def demo_translation_failure(seed: int = 0) -> list[Verdict]:
    """Shifting the naturals by one drops the first point, and with it
    a sliver of probability."""
    return _compare_demo("Nat_shift1", "Nat")


def chain_sets() -> list:
    """Four rank-4 sets realizing the worked pre-order chain: three in
    strict ascent, the last two equal in count but distinct as sets.

    Built from rank-3 elements only, so that no state of the ground
    witness is accidentally a subset of any of them, and each set
    difference is a singleton usable as a marker.
    """
    universe = make_universe(HF_MODE, 5)
    r3 = list(universe.level_members(3))
    a1 = hf_set(r3[0:2])
    a2 = hf_set(r3[0:3])
    a3 = hf_set(r3[0:5])
    a4 = hf_set(r3[0:4] + [r3[5]])
    return [a1, a2, a3, a4]


def demo_powerset_chain(seed: int = 0) -> tuple[bool, str]:
    """Reproduce the staged judgement chain P(A1)<P(A2)<P(A3)=P(A4)."""
    universe = make_universe(HF_MODE, 5)
    a1, a2, a3, a4 = chain_sets()
    els = [class_of_set(sv) for sv in (a1, a2, a3, a4)]
    slice_cs = [
        order_lt(els[0], els[1]), order_lt(els[1], els[2]),
        order_lt(els[0], els[2]), order_lt(els[0], els[3]),
        order_lt(els[1], els[3]),
        order_ge(els[2], els[3]), order_ge(els[3], els[2]),
    ]
    judgements = FilterBase(
        tuple(slice_cs + [power_lift(c) for c in slice_cs]),
        universe=universe, provenance="worked-chain")
    f_minus = find_witness(slice_cs, universe, rng=random.Random(seed))
    if f_minus is None:
        return False, "no ground witness for the judgement slice"
    powers = [power_class(c) for c in els]
    extended = powerset_witness_extend(
        universe, f_minus, [[powers[0]], [powers[1]], [powers[2], powers[3]]],
        judgements)
    counts = [sum(1 for s in extended if p.membership(s)) for p in powers]
    ok = counts[0] < counts[1] < counts[2] == counts[3]
    lines = [
        f"ground witness: {len(f_minus)} states",
        f"extended witness: {len(extended)} states",
        "power-class counts: " + ", ".join(
            f"P(A{i + 1})={c}" for i, c in enumerate(counts)),
        "chain realized: " + ("yes" if ok else "NO"),
    ]
    return ok, "\n".join(lines)


def demo_pn_iteration(seed: int = 0) -> tuple[bool, str]:
    """One strict judgement lifted through three power-class levels."""
    universe, _, low = _hf_fixture()
    a = hf_set([low[0], low[1]])
    b = hf_set([low[0], low[1], low[2]])
    cls_a, cls_b = class_of_set(a), class_of_set(b)
    lines = []
    ok = True
    current = order_lt(cls_a, cls_b)
    for n in range(4):
        w = find_witness([current], universe, rng=random.Random(seed + n))
        good = w is not None
        ok = ok and good
        label = "ground" if n == 0 else f"P^{n}"
        lines.append(f"{label}: {current.describe()} "
                     + (f"witnessed with {len(w)} states" if good else "NO WITNESS"))
        if n < 3:
            current = power_lift(current)
    return ok, "\n".join(lines)


_DEMOS = {
    "euclidean": demo_euclidean,
    "hume-failure": demo_hume_failure,
    "translation-failure": demo_translation_failure,
}


def _cmd_demo(args) -> int:
    if args.name in _DEMOS:
        verdicts = _DEMOS[args.name](args.seed)
        for v in verdicts:
            print(v.summary())
        return EXIT_OK if all(v.forced for v in verdicts) else EXIT_FAILURE
    if args.name == "powerset-chain":
        ok, text = demo_powerset_chain(args.seed)
    else:
        ok, text = demo_pn_iteration(args.seed)
    print(text)
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# audit


def _cmd_audit(args) -> int:
    recorded: list[tuple[Verdict, FilterBase]] = []
    set_verdict_recorder(lambda v, fb: recorded.append((v, fb)))
    try:
        for name, fn in _DEMOS.items():
            for v in fn(args.seed):
                if not v.forced:
                    print(f"{name}: expected a forced verdict, got {v.status}")
                    return EXIT_FAILURE
    finally:
        set_verdict_recorder(None)

    rng = random.Random(args.seed)
    all_clean = True
    for v, fb in recorded:
        if v.status != FORCED:
            continue
        report = audit_verdict(v, fb, rng, witness_count=args.budget)
        print(report.summary() + " :: " + v.claim())
        all_clean = all_clean and report.clean

    demo = non_restriction_counterexample(*_hf_fixture())
    print("counterexample: "
          + ("reproduced" if demo.demonstrates_failure else "FAILED"))
    all_clean = all_clean and demo.demonstrates_failure

    ctx = _context(make_universe(ORDINAL_MODE, 3), _BASES["ordinal_theorem"])
    cls_result = classify_infinitesimal(build_germ(ctx, _event("On")), ctx.base)
    print(f"Pr[On] classification: {cls_result.status}")
    all_clean = all_clean and cls_result.status == APPROX_ZERO

    print("audit: " + ("all clean" if all_clean else "FAILURES PRESENT"))
    return EXIT_OK if all_clean else EXIT_FAILURE


# ---------------------------------------------------------------------------
# entry point


def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def integer(text: str) -> int:
        n = int(text)  # argparse reports a ValueError as an invalid value
        if n < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {n}")
        return n
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setprob",
        description="Exact non-Archimedean probability engine over finite "
                    "snapshots of a set-theoretic universe.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("path")
    p_run.add_argument("--out", choices=["json", "csv"], default="json")
    p_run.add_argument("--canonical", action="store_true",
                       help="strip timing fields from the report")

    universe_opts = argparse.ArgumentParser(add_help=False)
    universe_opts.add_argument("--universe", choices=[HF_MODE, ORDINAL_MODE],
                               default=ORDINAL_MODE)
    universe_opts.add_argument("--rank", type=int, default=5,
                               help="HF universe bound")
    universe_opts.add_argument("--omega-bound", type=int, dest="omega_bound",
                               default=3, help="ordinal universe block count")

    p_query = sub.add_parser("query", help="evaluate one event germ",
                             parents=[universe_opts])
    p_query.add_argument("--event", required=True)
    p_query.add_argument("--given")
    p_query.add_argument("--rv", default="identity")
    p_query.add_argument("--base", default="fineness", choices=list(_BASES))
    p_query.add_argument("--seed", type=int, default=0)
    p_query.add_argument("--out", choices=["json", "csv"], default="json")

    p_wit = sub.add_parser("witness", help="run a witness construction",
                           parents=[universe_opts])
    p_wit.add_argument("construction", choices=["superreg", "powerset", "ordinal"])
    p_wit.add_argument("--pins", default="")
    p_wit.add_argument("--pairs", default="")
    p_wit.add_argument("--k", type=int, default=1)
    p_wit.add_argument("--l", type=int, default=1)
    p_wit.add_argument("--m", type=int, default=1)
    p_wit.add_argument("--level", type=int, default=4)
    p_wit.add_argument("--seed", type=int, default=0)

    p_check = sub.add_parser("check", help="structural checks",
                             parents=[universe_opts])
    p_check.add_argument("what", choices=["fip", "coherence", "restriction",
                                          "counterexample"])
    p_check.add_argument("--budget", type=_at_least(0),
                         help="candidates each scan of a witness search may "
                              f"read, for fip only (0 or default {SCAN_CAP})")

    p_demo = sub.add_parser("demo", help="canned demonstrations")
    p_demo.add_argument("name", choices=["euclidean", "hume-failure",
                                         "translation-failure",
                                         "powerset-chain", "pn-iteration"])
    p_demo.add_argument("--seed", type=int, default=0)

    p_audit = sub.add_parser("audit", help="re-verify forced verdicts")
    p_audit.add_argument("--budget", type=_at_least(1), default=40,
                         help="witnesses per verdict")
    p_audit.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            report = run_scenario(args.path)
            if args.out == "csv":
                print(report_csv(report), end="")
            elif args.canonical:
                print(canonical_report_text(report))
            else:
                print(report_json(report))
            return EXIT_OK if report["ok"] else EXIT_FAILURE
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "witness":
            return _cmd_witness(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "demo":
            return _cmd_demo(args)
        if args.command == "audit":
            return _cmd_audit(args)
        parser.error(f"unknown command {args.command!r}")
    except ScenarioError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EngineError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:  # noqa: BLE001 - the contract wants exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
