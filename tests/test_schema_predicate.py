"""The compiled schema predicate answers what jsonschema answers."""

import copy
import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setprob.scenario import SCENARIO_SCHEMA, schema_predicate

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

# Every class, variable, base, query and germ kind of the schema.
FULL = {
    "universe": {"mode": "ordinal", "bound": 3},
    "seed": 7,
    "tiers": [2, 4],
    "classes": [
        {"name": "P", "kind": "values", "values": ["o0.1", "p0"],
         "subset_tags": ["On"], "tier": {"finite": 2}},
        {"name": "R", "kind": "residue", "modulus": 3, "residue": 1,
         "span": 1, "tier": {"infinite": 0}},
        {"name": "T", "kind": "translate", "base": "Even", "shift": "o0.1"},
        {"name": "I", "kind": "image", "base": "Even", "rv": "shift"},
        {"name": "W", "kind": "power", "base": "Nat", "tier": "proper"},
        {"name": "F", "kind": "finite_subsets", "base": "Nat"},
        {"name": "L", "kind": "builtin", "builtin": "RankLevel", "level": 1},
    ],
    "variables": [
        {"name": "shift", "kind": "even_shift"},
        {"name": "tab", "kind": "table", "mapping": {"o0.1": "o0.2"}},
    ],
    "base": {"builder": "ordinal_theorem", "window": ["o0.0", "o0.1"],
             "max_size": 9, "pairs": [["Even", "Odd"]],
             "constraints": ["min_size(2)"]},
    "queries": [
        {"kind": "event", "rv": "shift", "class": "Even",
         "snapshot": ["o0.1"], "expect": "1/1"},
        {"kind": "joint", "class": "Even", "class2": "Odd", "rv2": "tab",
         "snapshot": ["o0.1"]},
        {"kind": "conditional", "class": "Even", "given": "On",
         "snapshot": ["o0.1"], "expect": "0/1"},
        {"kind": "compare", "rel": "abs_le", "expect_status": "forced",
         "lhs": {"op": {"op": "-",
                        "left": {"cond": {"class": "Even", "given": "On"}},
                        "right": {"sum": [{"event": {"class": "Odd"}},
                                          {"joint": {"class": "P", "class2": "R",
                                                     "rv2": "shift"}}]}}},
         "rhs": {"const": "1/3"}},
        {"kind": "classify", "germ": {"event": {"rv": "tab", "class": "Lim"}},
         "expect_status": "approx_zero"},
        {"kind": "witness", "builder": "superreg", "pins": ["o0.0"],
         "pairs": [["Even", "Odd", 2]], "k": 2, "l": 1, "m": 3},
        {"kind": "coherence", "class": "Even", "snapshot": ["o0.1"],
         "probe": ["o0.2"]},
        {"kind": "fip", "expect_status": "witnessed"},
    ],
}
DOCUMENTS = [FULL, {"universe": {"mode": "hf", "bound": 4}}] + \
    [json.loads(p.read_text()) for p in sorted(EXAMPLES.glob("*.json"))]
VALUES = [True, False, None, 0, 1, -1, 1.0, 2.5, "", "x", "event", "compare",
          "proper", "ordinal", "+", [], ["o0.1"], [["Even", "Odd"]], {},
          {"kind": "nope"}, {"const": "1/2"}, {"finite": 1}]
KEYS = ["surprise", "kind", "seed", "class", "given", "op", "tier", "mapping",
        "builder", "finite", "infinite", "const", "event", "expect"]

IS_VALID = jsonschema.Draft202012Validator(SCENARIO_SCHEMA).is_valid
PREDICATE = schema_predicate(SCENARIO_SCHEMA)


def _places(doc, path=()):
    """Every (path, value) in doc, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _mutate(doc, op, pick, value, key):
    places = list(_places(doc))
    if op in ("add", "append_copy"):
        places = [p for p in places if isinstance(p[1], (dict, list))]
    elif op == "drop":
        places = places[1:]
    if not places:
        return doc
    path, target = places[pick % len(places)]
    if op == "retype" and not path:
        return copy.deepcopy(value)
    if op == "add" and isinstance(target, dict):
        target[key] = copy.deepcopy(value)
    elif op == "add":
        target.append(copy.deepcopy(value))
    elif op == "append_copy" and isinstance(target, list) and target:
        target.append(copy.deepcopy(target[pick % len(target)]))
    elif op == "append_copy" and isinstance(target, dict):
        target[key] = copy.deepcopy(target)
    else:
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if op == "drop":
            del parent[path[-1]]
        elif op == "retype":
            parent[path[-1]] = copy.deepcopy(value)
    return doc


MUTATION = st.tuples(st.sampled_from(["drop", "add", "append_copy", "retype"]),
                     st.integers(0, 10_000), st.sampled_from(VALUES),
                     st.sampled_from(KEYS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(DOCUMENTS))), st.lists(MUTATION, max_size=3))
def test_predicate_matches_jsonschema_on_mutated_documents(which, mutations):
    doc = copy.deepcopy(DOCUMENTS[which])
    for mutation in mutations:
        doc = _mutate(doc, *mutation)
    assert PREDICATE(doc) == IS_VALID(doc), doc


def test_seed_documents_are_valid():
    assert all(PREDICATE(doc) and IS_VALID(doc) for doc in DOCUMENTS)


_DISCRIMINATED = {"oneOf": [
    {"required": ["k"], "properties": {"k": {"const": "a"}}},
    {"required": ["k"], "properties": {"k": {"const": "b"}, "n": {"type": "integer"}}},
]}
# (schema, instances): JSON Schema corners jsonschema decides one way and a
# plain-Python reading might decide the other.
CORNERS = [
    ({"type": "integer"}, [1, 1.0, 1.5, True, False, "1", None]),
    ({"type": ["string", "null"]}, ["a", None, 0]),
    ({"type": []}, ["a", None]),
    ({"type": "boolean"}, [True, 0, "true"]),
    ({"minimum": 1}, [0, 1, 0.5, True, False, "0", float("nan"), None]),
    ({"const": 1}, [1, 1.0, True, "1", [1]]),
    ({"const": False}, [False, 0, 0.0, None]),
    ({"enum": [0, "a", None]}, [0, 0.0, False, "a", None, [0], {}]),
    ({"oneOf": [{"type": "integer"}, {"minimum": 0}]}, [1, -1, 0.5, "a", True, -0.5]),
    (_DISCRIMINATED, [{"k": "a"}, {"k": "b", "n": 1}, {"k": "b", "n": "1"},
                      {"k": "c"}, {}, {"k": True}, {"k": ["a"]}, 5, "a", []]),
    ({"type": "object", "required": ["a"], "maxProperties": 2,
      "properties": {"a": {"type": "string"}},
      "additionalProperties": {"type": "integer"}},
     [{"a": "x"}, {"a": "x", "b": 1}, {"a": "x", "b": "y"}, {"a": "x", "b": 1, "c": 2},
      {"b": 1}, {"a": 1}, [], "a"]),
    ({"required": ["a"], "minProperties": 2, "properties": {"b": False}},
     [{"a": 1}, {"a": 1, "c": 1}, {"a": 1, "b": 1}, 3, []]),
    ({"type": "array", "items": {"type": "string"}, "minItems": 1, "maxItems": 2},
     [[], ["a"], ["a", "b", "c"], [1], "ab", {}]),
    ({"minItems": 1}, [[], [0], "", {}]),
    ({"$defs": {"n": {"type": "array", "items": {"$ref": "#/$defs/n"}, "maxItems": 2}},
      "$ref": "#/$defs/n"},
     [[], [[]], [[], [], []], [[[1]]], [[[]], []], {}]),
    (True, [1, None]),
    (False, [1, None]),
]


@pytest.mark.parametrize("schema, instance", [
    (schema, instance) for schema, instances in CORNERS for instance in instances])
def test_predicate_matches_jsonschema_on_corner_cases(schema, instance):
    expected = jsonschema.Draft202012Validator(schema).is_valid(instance)
    assert schema_predicate(schema)(instance) == expected


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"$defs": {"n": {"maximum": 3}}},
    {"properties": {"a": {"anyOf": [True]}}},
    {"$ref": "#/properties/a"},
    {"$ref": "#/$defs/missing"},
    {"const": [1]},
    {"enum": ["a", {"b": 1}]},
    {"$schema": "http://json-schema.org/draft-07/schema#"},
])
def test_schema_outside_the_compiled_keywords_fails_to_compile(schema):
    with pytest.raises(ValueError, match="not compiled"):
        schema_predicate(schema)
