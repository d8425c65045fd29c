"""Scenario files: declarative batch runs with machine-readable reports.

A scenario is a JSON document naming a universe, optional tier
thresholds, class and variable definitions, a filter-base recipe, and a
query list.  Validation happens against `SCENARIO_SCHEMA`, loaded from
the package's `scenario.schema.json`, before anything executes; unknown
fields are rejected so that typos fail loud.  A predicate compiled once
per process from that schema (`schema_predicate`) accepts valid
documents.  `jsonschema` is imported only to explain a rejection: on the
first rejected document the schema is checked against its metaschema and
jsonschema's validator is built, once per process.

Reports render every rational as an exact "p/q" string and are
deterministic for a fixed scenario and seed, except for the timing
fields.  `canonical_report_text` strips those, which is what the
determinism tests compare.
"""

from __future__ import annotations

import functools
import json
import numbers
import random
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from .bootstrap import TierConfig, coherence_check
from .errors import (
    EngineError,
    EnumerationExhausted,
    ScenarioParseError,
    ScenarioValidationError,
    WrongMode,
)
from .filters import (
    FilterBase,
    check_fip,
    constraint_from_text,
    constraint_membership,
    fineness_base,
    ordinal_constraints,
    ordinal_theorem_base,
    ordinal_witness,
    superreg_constraints,
    superreg_witness,
)
from .germs import (
    Germ,
    Verdict,
    classify_infinitesimal,
    compare,
    conditional_germ,
    const_germ,
    germ_arith,
    germ_of_event,
    joint_germ,
    star_sum,
)
from .snapshots import Snapshot
from .universe import (
    CardinalityTier,
    ClassSpec,
    ORDINAL_BUILTINS,
    ORDINAL_MODE,
    RandomVariable,
    SetValue,
    UniverseHandle,
    canonical,
    class_from_values,
    even_shift_permutation,
    excerpt,
    finite_subsets_class,
    identity_rv,
    image_class,
    make_universe,
    parse_code,
    power_class,
    table_rv,
    translate_class,
)

SCENARIO_SCHEMA: dict = json.loads(
    Path(__file__).with_name("scenario.schema.json").read_text(encoding="utf-8"))


def rational_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Scenario context: resolved objects


@dataclass
class ScenarioContext:
    universe: UniverseHandle
    seed: int
    rng: random.Random
    tiers: TierConfig | None
    classes: dict[str, ClassSpec]
    variables: dict[str, RandomVariable]
    base: FilterBase

    def cls(self, name: str) -> ClassSpec:
        if name not in self.classes:
            raise ScenarioValidationError(
                f"unknown class {name!r}; known: {sorted(self.classes)}")
        return self.classes[name]

    def rv(self, name: str | None) -> RandomVariable:
        if name is None:
            return self.variables["identity"]
        if name not in self.variables:
            raise ScenarioValidationError(
                f"unknown variable {name!r}; known: {sorted(self.variables)}")
        return self.variables[name]

    def states(self, codes: list[str]) -> list[SetValue]:
        return [_parse(parse_code, code, "state code") for code in codes]


def _parse(parse, text: str, what: str):
    """`parse(text)` for outside input: malformed text is a validation error."""
    try:
        return parse(text)
    except (KeyError, ValueError, ZeroDivisionError, RecursionError) as exc:
        raise ScenarioValidationError(
            f"bad {what} {excerpt(text)}: {exc.args[0]}") from exc


def builtin_classes(universe: UniverseHandle) -> dict[str, ClassSpec]:
    """The builtin classes every context starts with: V, and in ordinal
    mode the ORDINAL_BUILTINS."""
    names = ("V", *ORDINAL_BUILTINS) if universe.mode == ORDINAL_MODE else ("V",)
    return {name: universe.builtin_class(name) for name in names}


def _tier_from_spec(spec: Any) -> CardinalityTier | None:
    if spec is None:
        return None
    if spec == "proper":
        return CardinalityTier.proper()
    if "finite" in spec:
        return CardinalityTier.finite(spec["finite"])
    return CardinalityTier.infinite(spec["infinite"])


def _build_class(ctx: ScenarioContext, spec: dict) -> ClassSpec:
    name = spec["name"]
    kind = spec["kind"]
    tags = tuple(spec.get("subset_tags", ()))
    tier = _tier_from_spec(spec.get("tier"))

    def need(key: str) -> Any:
        if key not in spec:
            raise ScenarioValidationError(
                f"class {name!r} of kind {kind!r} needs {key!r}")
        return spec[key]

    if kind == "values":
        vals = ctx.states(spec.get("values", []))
        cls = class_from_values(name, vals, tier=tier, subset_tags=tags)
        if cls.tier.is_finite:
            cls.members()  # raises if the tier is below the value count
        return cls
    if kind == "residue":
        # Residue classes live in omega-block 0 by default; a span of s
        # widens them to blocks 0..s.
        return ctx.universe.residue_class(
            name, need("modulus"), spec.get("residue", 0), spec.get("span", 0),
            tier or CardinalityTier.infinite(0), tags)
    if kind == "translate":
        [shift] = ctx.states([need("shift")])
        return translate_class(ctx.cls(need("base")), shift, name=name,
                               subset_tags=tags)
    if kind == "image":
        return image_class(ctx.rv(need("rv")), ctx.cls(need("base")),
                           name=name, subset_tags=tags)
    if kind == "power":
        return power_class(ctx.cls(need("base")), name=name)
    if kind == "finite_subsets":
        return finite_subsets_class(ctx.cls(need("base")), name=name)
    if kind == "builtin":
        target = spec.get("builtin", name)
        if target == "RankLevel":
            return ctx.universe.builtin_class(target, k=need("level"))
        try:
            return ctx.universe.builtin_class(target)
        except KeyError as exc:
            raise ScenarioValidationError(f"unknown builtin class {target!r}") from exc
    raise ScenarioValidationError(f"unknown class kind {kind!r}")


def _build_variable(ctx: ScenarioContext, spec: dict) -> RandomVariable:
    kind = spec["kind"]
    if kind == "even_shift":
        return even_shift_permutation()
    if kind == "table":
        table = spec.get("mapping", {})
        mapping = dict(zip(ctx.states(table), ctx.states(table.values())))
        return table_rv(mapping, spec["name"])
    raise ScenarioValidationError(f"unknown variable kind {kind!r}")


def build_base(ctx: ScenarioContext, spec: dict | None) -> FilterBase:
    """The filter base of a scenario `base` spec; None is the fineness
    base over the whole universe."""
    if spec is None:
        return fineness_base(ctx.universe)
    builder = spec.get("builder", "fineness")
    window = ctx.states(spec["window"]) if "window" in spec else None
    if builder == "fineness":
        fb = fineness_base(ctx.universe, window)
    elif builder == "ordinal_theorem":
        pairs = [(ctx.cls(a), ctx.cls(b)) for a, b in spec.get("pairs", [])]
        fb = ordinal_theorem_base(ctx.universe, pairs)
    elif builder == "empty":
        fb = FilterBase((), universe=ctx.universe,
                        window=None if window is None else canonical(window))
    else:
        raise ScenarioValidationError(f"unknown base builder {builder!r}")
    extra = [_parse(lambda t: constraint_from_text(t, ctx.classes), text,
                    "constraint")
             for text in spec.get("constraints", [])]
    if extra:
        fb = fb.with_constraints(extra)
    if "max_size" in spec:
        from dataclasses import replace
        fb = replace(fb, max_size=spec["max_size"])
    return fb


def build_germ(ctx: ScenarioContext, spec: dict) -> Germ:
    if "const" in spec:
        return const_germ(_parse(Fraction, spec["const"], "constant"))
    if "event" in spec:
        e = spec["event"]
        return germ_of_event(ctx.rv(e.get("rv")), ctx.cls(e["class"]))
    if "joint" in spec:
        e = spec["joint"]
        return joint_germ(ctx.rv(e.get("rv")), ctx.cls(e["class"]),
                          ctx.rv(e.get("rv2")), ctx.cls(e["class2"]))
    if "cond" in spec:
        e = spec["cond"]
        return conditional_germ(ctx.rv(e.get("rv")), ctx.cls(e["class"]),
                                ctx.rv(e.get("rv2")), ctx.cls(e["given"]))
    if "op" in spec:
        e = spec["op"]
        return germ_arith(e["op"], build_germ(ctx, e["left"]),
                          build_germ(ctx, e["right"]))
    if "sum" in spec:
        return star_sum([build_germ(ctx, g) for g in spec["sum"]])
    raise ScenarioValidationError(f"unrecognized germ spec: {sorted(spec)}")


# ---------------------------------------------------------------------------
# Query execution


def _verdict_record(v: Verdict) -> dict:
    return {
        "status": v.status,
        "relation": v.relation,
        "claim": v.claim(),
        "rule": v.rule,
        "citations": [c.describe() for c in v.citations],
        "note": v.note,
    }


# The germ spec key each point-evaluation query kind reads its fields under.
_GERM_KEYS = {"event": "event", "joint": "joint", "conditional": "cond"}


def _run_query(ctx: ScenarioContext, q: dict) -> dict:
    kind = q["kind"]
    record: dict = {"kind": kind}
    status = None  # what `expect_status` is checked against
    started = time.perf_counter()
    if kind in _GERM_KEYS:
        snap = Snapshot(ctx.states(q["snapshot"]))
        germ = build_germ(ctx, {_GERM_KEYS[kind]: q})
        value = germ.eval_at(snap)
        record["expression"] = germ.describe()
        record["value"] = rational_str(value)
        if "expect" in q:
            expect = _parse(Fraction, q["expect"], "expected value")
            record["assertion"] = "pass" if expect == value else "fail"
    elif kind == "compare":
        lhs = build_germ(ctx, q["lhs"])
        rhs = build_germ(ctx, q["rhs"])
        verdict = compare(lhs, q["rel"], rhs, ctx.base)
        record["verdict"] = _verdict_record(verdict)
        status = verdict.status
    elif kind == "classify":
        germ = build_germ(ctx, q["germ"])
        result = classify_infinitesimal(germ, ctx.base)
        record["expression"] = germ.describe()
        record["status"] = status = result.status
        record["rule"] = result.rule
        record["citations"] = [c.describe() for c in result.sample_citations]
    elif kind == "witness":
        record.update(run_witness(ctx, q))
    elif kind == "coherence":
        if ctx.tiers is None:
            raise ScenarioValidationError("coherence queries need tier thresholds")
        snap = Snapshot(ctx.states(q["snapshot"]))
        rv, cls, probe = ctx.rv(q.get("rv")), ctx.cls(q["class"]), ctx.states(q["probe"])
        try:
            report = coherence_check(ctx.tiers, rv, cls, snap, probe)
        except ValueError as exc:  # the probe is inadmissible for the snapshot
            raise ScenarioValidationError(str(exc)) from exc
        record["levels"] = [
            {"snapshot_size": lv.snapshot_size, "probe_size": lv.probe_size,
             "tier": lv.tier, "value": rational_str(lv.direct),
             "equal": lv.equal}
            for lv in report.levels
        ]
        record["assertion"] = "pass" if report.ok else "fail"
    elif kind == "fip":
        result = check_fip(ctx.base, ctx.rng)
        record["status"] = status = result.status
        record["checked_subsets"] = len(result.witnesses)
    else:
        raise ScenarioValidationError(f"unknown query kind {kind!r}")
    if "expect_status" in q:  # compare, classify and fip queries
        record["assertion"] = "pass" if status == q["expect_status"] else "fail"
    record["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return record


def _witness_pairs(ctx: ScenarioContext, pairs: list, counted: bool) -> list:
    """Resolve witness pairs: `[A, B, n]` with an integer n >= 1 if
    counted, else `[A, B]`."""
    shape = "[A, B, n] with an integer n >= 1" if counted else "[A, B]"
    for pair in pairs:
        if len(pair) != 2 + counted or (
                counted and not (type(pair[2]) is int and pair[2] >= 1)):
            raise ScenarioValidationError(f"witness pair {pair!r} is not {shape}")
    return [(ctx.cls(a), ctx.cls(b), *count) for a, b, *count in pairs]


def run_witness(ctx: ScenarioContext, q: dict) -> dict:
    """Build a witness and check it against the constraints it certifies."""
    builder = q.get("builder", "superreg")
    out: dict = {"builder": builder}
    if builder not in ("superreg", "ordinal"):
        raise ScenarioValidationError(f"unknown witness builder {builder!r}")
    pins = ctx.states(q.get("pins", []))
    pairs = _witness_pairs(ctx, q.get("pairs", []), builder == "superreg")
    if builder == "superreg":
        w = superreg_witness(pins, pairs)
        checks = superreg_constraints(pairs, pins)
    else:
        k, l, m = (q.get(key, 1) for key in "klm")
        if min(k, l, m) < 1:
            raise ScenarioValidationError("k, l and m must all be >= 1")
        w = ordinal_witness(ctx.universe, pins, k, l, m, pairs)
        checks = ordinal_constraints(pins, k, l, m, pairs)
    memberships = [
        {"constraint": c.describe(),
         "holds": constraint_membership(c, w, ctx.universe.mode)}
        for c in checks
    ]
    out["witness"] = [s.code for s in w]
    out["size"] = len(w)
    out["memberships"] = memberships
    out["assertion"] = ("pass" if all(m["holds"] for m in memberships)
                        else "fail")
    return out


# ---------------------------------------------------------------------------
# Scenario entry points


# The most digits a document's number may have before its point: as many
# as int reads from text by default, so that a report can write it back.
_MAX_DIGITS = 4300


def _out_of_range(text: str) -> ScenarioParseError:
    return ScenarioParseError(f"scenario number {excerpt(text)} is out of range")


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > _MAX_DIGITS:
        raise _out_of_range(text)
    return int(text)


def _json_number(text: str) -> int | float | Decimal:
    # JSON Schema counts an integral number such as 2.0 as an integer: read
    # it exactly, as `_json_int` reads 2.  A fraction that a float would
    # round to an integer, such as 1e-400, stays an exact Decimal, which the
    # schema refuses as it refuses 2.5.
    try:
        d = Decimal(text)
    except InvalidOperation:  # an exponent past what a Decimal holds
        raise _out_of_range(text) from None
    if d.adjusted() >= _MAX_DIGITS:
        raise _out_of_range(text)
    if d == d.to_integral_value():
        return int(d)
    x = float(text)
    return d if x.is_integer() else x


def load_scenario(path: str) -> dict:
    """The document at `path`, read and validated.  Every number is read
    exactly (`_json_number`), or refused as a `ScenarioParseError` when it
    has more than `_MAX_DIGITS` digits before its point or an exponent
    past a Decimal's."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_json_number, parse_int=_json_int)
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"scenario is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"scenario is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioParseError(f"scenario nests too deeply: {exc}") from exc
    validate_scenario(data)
    return data


_DIALECT = "https://json-schema.org/draft/2020-12/schema"
_OBJECT_KEYWORDS = {"required", "properties", "additionalProperties",
                    "minProperties", "maxProperties"}
_ARRAY_KEYWORDS = {"items", "minItems", "maxItems"}
_KEYWORDS = {"type", "const", "enum", "minimum", "oneOf", "$ref", "$schema",
             "$defs", *_OBJECT_KEYWORDS, *_ARRAY_KEYWORDS}


def _is_number(x: Any) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


# JSON Schema types as jsonschema checks them: a bool is no integer, 1.0 is.
_TYPES: dict[str, Callable[[Any], bool]] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}


def _json_equal(x: Any, const: Any) -> bool:
    """`x == const` for a scalar `const`, where a bool equals only a bool."""
    if isinstance(x, bool) or isinstance(const, bool):
        return x is const
    return x == const


def _discriminator(alternatives: list) -> tuple[str, list[str]] | None:
    """A property every alternative requires and pins to its own string
    `const`, with those constants in order; None when there is none."""
    keys = None
    for alt in alternatives:
        if not isinstance(alt, dict):
            return None
        props = alt.get("properties", {})
        pinned = {k for k in alt.get("required", ()) if isinstance(props.get(k), dict)
                  and isinstance(props[k].get("const"), str)}
        keys = pinned if keys is None else keys & pinned
    for key in sorted(keys or ()):
        consts = [alt["properties"][key]["const"] for alt in alternatives]
        if len(set(consts)) == len(consts):
            return key, consts
    return None


def schema_predicate(schema: Any) -> Callable[[Any], bool]:
    """Compile a draft 2020-12 JSON Schema into a yes/no predicate.

    The predicate answers what jsonschema's `is_valid` answers, for the
    keywords the scenario schema uses.  Any other keyword, a `$ref`
    outside the root's `$defs`, a non-scalar `const`/`enum` value or
    another dialect raises ValueError, so a schema edit cannot skip a
    check silently.  A `oneOf` with a `_discriminator` runs only the
    alternative that the discriminating property names.
    """
    root = schema if isinstance(schema, dict) else {}
    if root.get("$schema", _DIALECT) != _DIALECT:
        raise ValueError(f"schema dialect {root['$schema']!r} is not compiled")
    defs: dict[str, Callable[[Any], bool]] = {}

    def compile_(s: Any) -> Callable[[Any], bool]:
        if isinstance(s, bool):
            return lambda x: s
        unknown = s.keys() - _KEYWORDS
        if unknown:
            raise ValueError(f"schema keyword {sorted(unknown)[0]!r} is not compiled")
        types = [s["type"]] if isinstance(s.get("type"), str) else s.get("type", [])
        checks = []
        if "type" in s and types not in (["object"], ["array"]):  # see object_check
            tests = [_TYPES[t] for t in types]
            checks.append(lambda x: any(t(x) for t in tests))
        for values in ([s["const"]] if "const" in s else None, s.get("enum")):
            if values is not None:
                if any(isinstance(v, (list, dict)) for v in values):
                    raise ValueError(f"non-scalar const/enum in {values!r} is not compiled")
                checks.append(lambda x, vs=values: any(_json_equal(x, v) for v in vs))
        if "minimum" in s:
            low = s["minimum"]
            checks.append(lambda x: not (_is_number(x) and x < low))
        if types == ["object"] or s.keys() & _OBJECT_KEYWORDS:
            checks.append(object_check(s, typed=types == ["object"]))
        if types == ["array"] or s.keys() & _ARRAY_KEYWORDS:
            checks.append(array_check(s, typed=types == ["array"]))
        if "oneOf" in s:
            checks.append(one_of(s["oneOf"]))
        if "$ref" in s:
            name = s["$ref"].removeprefix("#/$defs/")
            if name == s["$ref"] or name not in root.get("$defs", {}):
                raise ValueError(f"$ref {s['$ref']!r} is not compiled")
            checks.append(lambda x: defs[name](x))
        if len(checks) == 1:
            return checks[0]
        return lambda x: all(check(x) for check in checks)

    # One closure per object or array schema, type included, keeps the
    # stack shallow for nested germs.
    def object_check(s: dict, typed: bool) -> Callable[[Any], bool]:
        required = s.get("required", ())
        props = {k: compile_(v) for k, v in s.get("properties", {}).items()}
        extra = compile_(s.get("additionalProperties", True))
        low, high = s.get("minProperties", 0), s.get("maxProperties", float("inf"))

        def check(x: Any) -> bool:
            if not isinstance(x, dict):
                return not typed
            if not low <= len(x) <= high or any(k not in x for k in required):
                return False
            for k, v in x.items():
                if not props.get(k, extra)(v):
                    return False
            return True
        return check

    def array_check(s: dict, typed: bool) -> Callable[[Any], bool]:
        item = compile_(s.get("items", True))
        low, high = s.get("minItems", 0), s.get("maxItems", float("inf"))
        return lambda x: (low <= len(x) <= high and all(map(item, x))
                          if isinstance(x, list) else not typed)

    def one_of(alternatives: list) -> Callable[[Any], bool]:
        alts = [compile_(a) for a in alternatives]

        def exactly_one(x: Any) -> bool:
            return sum(1 for alt in alts if alt(x)) == 1
        found = _discriminator(alternatives)
        if found is None:
            return exactly_one
        key, consts = found
        by_const = dict(zip(consts, alts))

        def discriminated(x: Any) -> bool:
            # on an object only the alternative named by its key can match
            if not isinstance(x, dict):
                return exactly_one(x)
            value = x.get(key)
            return isinstance(value, str) and value in by_const and by_const[value](x)
        return discriminated

    for name, sub in root.get("$defs", {}).items():
        defs[name] = compile_(sub)
    return compile_(schema)


@functools.cache
def _scenario_predicate() -> Callable[[Any], bool]:
    return schema_predicate(SCENARIO_SCHEMA)


@functools.cache
def _validator():
    """The schema's validator, built after checking the schema once."""
    from jsonschema.validators import validator_for

    cls = validator_for(SCENARIO_SCHEMA)
    cls.check_schema(SCENARIO_SCHEMA)
    return cls(SCENARIO_SCHEMA)


def validate_scenario(data: dict) -> None:
    """Raise `ScenarioValidationError` unless `data` matches the schema.

    A valid document is accepted by the compiled `schema_predicate` alone.
    A rejected one, or one nested too deeply for the predicate, goes to
    jsonschema, so the error reported is the one `jsonschema.validate`
    would raise; a document too deeply nested for jsonschema as well
    raises `ScenarioParseError`.
    """
    try:
        if _scenario_predicate()(data):
            return
    except RecursionError:
        pass  # jsonschema decides
    from jsonschema.exceptions import best_match

    try:
        error = best_match(_validator().iter_errors(data))
    except RecursionError as exc:
        raise ScenarioParseError(f"scenario nests too deeply: {exc}") from exc
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(root)"
        raise ScenarioValidationError(
            f"scenario rejected at {where}: {error.message}") from error


def build_context(data: dict) -> ScenarioContext:
    """Resolve a validated document's universe, classes, variables and
    base.  A class or base the universe's mode cannot build, or a value
    list with more values than its finite tier, makes the document
    invalid: its WrongMode or EnumerationExhausted becomes a
    ScenarioValidationError.  So does a variable or class whose name is
    already defined, the builtins included; a `builtin` entry that names
    its own builtin re-declares it, since the handle gives it one
    object."""
    uni = make_universe(data["universe"]["mode"], data["universe"]["bound"])
    seed = data.get("seed", 0)
    tiers = (_parse(lambda t: TierConfig(tuple(t)), data["tiers"], "tiers")
             if "tiers" in data else None)
    ctx = ScenarioContext(
        universe=uni, seed=seed, rng=random.Random(seed), tiers=tiers,
        classes=builtin_classes(uni), variables={"identity": identity_rv()},
        base=FilterBase((), universe=uni),
    )
    try:
        # Variables use no classes, while image classes use variables.
        for spec in data.get("variables", []):
            if spec["name"] in ctx.variables:
                raise ScenarioValidationError(
                    f"variable {spec['name']!r} is already defined")
            ctx.variables[spec["name"]] = _build_variable(ctx, spec)
        for spec in data.get("classes", []):
            cls = _build_class(ctx, spec)
            if ctx.classes.setdefault(spec["name"], cls) is not cls:
                raise ScenarioValidationError(
                    f"class {spec['name']!r} is already defined")
        ctx.base = build_base(ctx, data.get("base"))
    except (WrongMode, EnumerationExhausted) as exc:
        raise ScenarioValidationError(str(exc)) from exc
    return ctx


def run_scenario_data(data: dict) -> dict:
    """Execute an already-validated scenario document."""
    started = time.perf_counter()
    ctx = build_context(data)
    records = []
    ok = True
    for q in data.get("queries", []):
        try:
            record = _run_query(ctx, q)
        except EngineError as exc:
            record = {"kind": q.get("kind"), "error": f"{type(exc).__name__}: {exc}"}
            ok = False
        if record.get("assertion") == "fail":
            ok = False
        records.append(record)
    return {
        "universe": dict(data["universe"]),
        "seed": ctx.seed,
        "query_count": len(records),
        "queries": records,
        "ok": ok,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
    }


def run_scenario(path: str) -> dict:
    return run_scenario_data(load_scenario(path))


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False)


def canonical_report_text(report: dict) -> str:
    """Report JSON with timing fields removed, for determinism checks."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "timing_ms"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(strip(report), indent=2, sort_keys=False)


def report_csv(report: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "kind", "value", "status", "assertion", "error"])
    for i, rec in enumerate(report["queries"]):
        status = rec.get("status") or rec.get("verdict", {}).get("status", "")
        writer.writerow([
            i, rec.get("kind", ""), rec.get("value", ""), status,
            rec.get("assertion", ""), rec.get("error", ""),
        ])
    return buf.getvalue()
