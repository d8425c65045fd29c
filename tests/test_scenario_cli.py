"""Scenario files, report formats, command-line entry points."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from setprob import cli, errors, scenario
from setprob.errors import ScenarioParseError, ScenarioValidationError
from setprob.scenario import (
    build_context,
    canonical_report_text,
    rational_str,
    report_csv,
    report_json,
    run_scenario,
    run_scenario_data,
    SCENARIO_SCHEMA,
    validate_scenario,
)
from setprob import (check_fip, constraint_from_text, constraint_membership,
                     parse_code, rank as rank_of, snapshot)

EXAMPLE = Path(__file__).resolve().parent.parent / "docs" / "examples" / \
    "ordinal_theorem.json"
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = Path(__file__).resolve().parent.parent / "src"

MINIMAL = {"universe": {"mode": "ordinal", "bound": 2}}


# ---------------------------------------------------------------------------
# Validation


def test_schema_ships_as_package_data():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads(PYPROJECT.read_text())
    package_data = config["tool"]["setuptools"]["package-data"]["setprob"]
    assert "scenario.schema.json" in package_data


def test_minimal_scenario_validates():
    validate_scenario(MINIMAL)


def test_unknown_top_level_field_rejected():
    with pytest.raises(ScenarioValidationError):
        validate_scenario({**MINIMAL, "surprise": 1})


def test_unknown_query_field_rejected():
    bad = {**MINIMAL,
           "queries": [{"kind": "classify",
                        "germ": {"event": {"class": "On"}},
                        "bonus": True}]}
    with pytest.raises(ScenarioValidationError):
        validate_scenario(bad)


def test_missing_universe_rejected():
    with pytest.raises(ScenarioValidationError):
        validate_scenario({"seed": 3})


def test_output_decimals_rejected(tmp_path, capsys):
    doc = {**MINIMAL, "output": {"format": "json", "decimals": True}}
    with pytest.raises(ScenarioValidationError):
        validate_scenario(doc)
    path = tmp_path / "decimals.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    capsys.readouterr()


REJECTED = {
    "unknown top-level field": {**MINIMAL, "surprise": 1},
    "unknown query field": {**MINIMAL, "queries": [
        {"kind": "classify", "germ": {"event": {"class": "On"}},
         "bonus": True}]},
    "missing universe": {"seed": 3},
    "output.decimals": {**MINIMAL,
                        "output": {"format": "json", "decimals": True}},
    "bound 0": {"universe": {"mode": "ordinal", "bound": 0}},
    "bad mode": {"universe": {"mode": "cardinal", "bound": 2}},
    "unknown query kind": {**MINIMAL, "queries": [{"kind": "nope"}]},
    "non-object top level": [],
}
ACCEPTED = {
    "minimal": MINIMAL,
    "ordinal theorem example": json.loads(EXAMPLE.read_text()),
}


@pytest.mark.parametrize("doc", [*REJECTED.values(), *ACCEPTED.values()],
                         ids=[*REJECTED, *ACCEPTED])
def test_validation_matches_jsonschema_validate(doc):
    import jsonschema

    try:
        jsonschema.validate(doc, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as expected:
        with pytest.raises(ScenarioValidationError) as raised:
            validate_scenario(doc)
        cause = raised.value.__cause__
        assert list(cause.absolute_path) == list(expected.absolute_path)
        assert cause.message == expected.message
    else:
        validate_scenario(doc)


@pytest.mark.parametrize("name, where", [
    ("missing universe", "(root)"),
    ("non-object top level", "(root)"),
    ("bound 0", "universe/bound"),
])
def test_rejection_names_its_path(name, where):
    with pytest.raises(ScenarioValidationError,
                       match=f"^scenario rejected at {re.escape(where)}: "):
        validate_scenario(REJECTED[name])


def test_shipped_schema_passes_its_metaschema():
    from jsonschema.validators import validator_for

    validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


def test_validator_is_built_once():
    assert scenario._validator() is scenario._validator()


def test_jsonschema_imported_on_first_rejection():
    probe = (
        "import sys, setprob, setprob.cli\n"
        "from setprob.errors import ScenarioValidationError\n"
        f"setprob.validate_scenario({MINIMAL!r})\n"
        "assert 'jsonschema' not in sys.modules\n"
        "try:\n"
        f"    setprob.validate_scenario({REJECTED['bound 0']!r})\n"
        "except ScenarioValidationError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('bound 0 accepted')\n"
        "assert 'jsonschema' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("extra", [{"span": 1}, {"span": 5}])
def test_residue_class_stays_inside_universe(extra):
    # An ordinal universe of bound 2 holds the blocks 0 and 1 only.
    ctx = build_context({
        **MINIMAL,
        "classes": [{"name": "R", "kind": "residue", "modulus": 2, **extra}]})
    members = list(islice(ctx.cls("R").enumerate(), 50))
    assert len(members) == 50
    assert all(v.ord_parts[0] < 2 for v in members)
    assert {v.ord_parts[0] for v in members} == {0, 1}
    assert not ctx.cls("R").membership(parse_code("o2.0"))


@pytest.mark.parametrize("builder", ["empty", "fineness"])
def test_base_window_is_canonical(builder):
    # a window as written, out of order and with a repeat, is kept as the
    # distinct states in canonical order by every builder
    ctx = build_context({**MINIMAL, "base": {
        "builder": builder, "window": ["o0.2", "o0.1", "o0.1"]}})
    assert ctx.base.window == (parse_code("o0.1"), parse_code("o0.2"))


def test_empty_query_list_runs_clean():
    report = run_scenario_data({**MINIMAL, "queries": []})
    assert report["ok"]
    assert report["queries"] == []


# ---------------------------------------------------------------------------
# The shipped example


def test_example_scenario_passes():
    report = run_scenario(str(EXAMPLE))
    assert report["ok"]
    kinds = [q["kind"] for q in report["queries"]]
    assert kinds == ["witness", "classify", "classify", "compare"]
    assert all(q.get("assertion") == "pass" for q in report["queries"])


def test_example_scenario_deterministic():
    a = canonical_report_text(run_scenario(str(EXAMPLE)))
    b = canonical_report_text(run_scenario(str(EXAMPLE)))
    assert a == b
    assert "timing" not in a


def test_witness_round_trip_reverifies():
    data = json.loads(EXAMPLE.read_text())
    report = run_scenario_data(data)
    ctx = build_context(data)
    record = report["queries"][0]
    reparsed = snapshot(*[parse_code(code) for code in record["witness"]])
    assert len(reparsed) == record["size"]
    for item in record["memberships"]:
        c = constraint_from_text(item["constraint"], ctx.classes)
        assert constraint_membership(c, reparsed, ctx.universe.mode) \
            == item["holds"]


def test_compare_record_carries_citations():
    report = run_scenario(str(EXAMPLE))
    verdict = report["queries"][3]["verdict"]
    assert verdict["status"] == "forced"
    assert verdict["rule"] == "interval-parity"
    assert isinstance(verdict["citations"], list) and verdict["citations"]


# ---------------------------------------------------------------------------
# Report formats


def test_rational_strings_are_exact():
    assert rational_str(Fraction(1, 3)) == "1/3"
    assert rational_str(Fraction(2)) == "2/1"
    assert rational_str(Fraction(0)) == "0/1"


def test_report_json_round_trips():
    report = run_scenario_data({**MINIMAL, "queries": []})
    assert json.loads(report_json(report)) == report


def test_report_csv_shape():
    report = run_scenario(str(EXAMPLE))
    lines = report_csv(report).splitlines()
    assert lines[0] == "index,kind,value,status,assertion,error"
    assert len(lines) == 1 + len(report["queries"])


def test_failed_assertion_flips_exit(tmp_path):
    data = json.loads(EXAMPLE.read_text())
    data["queries"] = [{"kind": "classify",
                        "germ": {"event": {"class": "On"}},
                        "expect_status": "not_approx_zero"}]
    report = run_scenario_data(data)
    assert not report["ok"]
    assert report["queries"][0]["assertion"] == "fail"


# ---------------------------------------------------------------------------
# CLI entry points (in-process)


def test_cli_run_example_exit_zero(capsys):
    assert cli.main(["run", str(EXAMPLE)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out)["ok"]


def test_cli_run_csv_and_canonical(capsys):
    assert cli.main(["run", str(EXAMPLE), "--out", "csv", "--canonical"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("index,kind,")


def test_cli_validation_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unexpected": 1}))
    assert cli.main(["run", str(bad)]) == cli.EXIT_VALIDATION
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["run", str(broken)]) == cli.EXIT_VALIDATION


def test_cli_non_utf8_scenario_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert cli.main(["run", str(bad)]) == cli.EXIT_VALIDATION
    assert "scenario is not UTF-8 text" in capsys.readouterr().err


def test_cli_deeply_nested_scenario_exit_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert cli.main(["run", str(deep)]) == cli.EXIT_VALIDATION
    assert "scenario nests too deeply" in capsys.readouterr().err


def _nested_germ_doc(depth: int) -> dict:
    germ = {"const": "1/2"}
    for _ in range(depth):
        germ = {"op": {"op": "+", "left": germ, "right": {"const": "0"}}}
    return {**MINIMAL, "queries": [{"kind": "classify", "germ": germ}]}


def test_germ_nested_150_deep_validates():
    validate_scenario(_nested_germ_doc(150))


def test_cli_germ_nested_400_deep_exit_two(tmp_path, capsys):
    # The JSON parses; it is the schema check that runs out of stack.
    doc = _nested_germ_doc(400)
    with pytest.raises(ScenarioParseError, match="^scenario nests too deeply: "):
        validate_scenario(doc)
    deep = tmp_path / "deep_germ.json"
    deep.write_text(json.dumps(doc))
    assert cli.main(["run", str(deep)]) == cli.EXIT_VALIDATION
    assert "scenario nests too deeply" in capsys.readouterr().err


def test_cli_engine_error_exit_one(capsys):
    # superregularity demands strictly increasing tiers
    code = cli.main(["witness", "superreg", "--pins", "o0.0",
                     "--pairs", "Even:Even:2"])
    assert code == cli.EXIT_FAILURE
    capsys.readouterr()


def test_cli_internal_error_exit_three(monkeypatch, capsys):
    def boom(path):
        raise RuntimeError("synthetic")
    monkeypatch.setattr(cli, "run_scenario", boom)
    assert cli.main(["run", str(EXAMPLE)]) == cli.EXIT_INTERNAL


def test_cli_query_event(capsys):
    code = cli.main(["query", "--universe", "ordinal", "--omega-bound", "3",
                     "--event", "Even", "--out", "json"])
    assert code == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["expression"] == "Pr[identity in Even]"
    assert all("/" in s["value"] for s in payload["samples"])


def test_cli_demo_names(capsys):
    for name in ("euclidean", "hume-failure", "translation-failure",
                 "powerset-chain", "pn-iteration"):
        assert cli.main(["demo", name]) == cli.EXIT_OK, name
    capsys.readouterr()


def test_cli_check_commands(capsys):
    assert cli.main(["check", "fip", "--universe", "ordinal"]) == 0
    assert cli.main(["check", "coherence"]) == 0
    assert cli.main(["check", "restriction"]) == 0
    assert cli.main(["check", "counterexample"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("rank, size", [(3, 4), (4, 8), (5, 8)])
def test_cli_check_fip_windows_states_of_the_universe(rank, size, capsys, monkeypatch):
    # the window is the first 8 states of V_rank: all 4 of V_3 at rank 3,
    # and the states of ranks 0-3 from rank 4 up
    windows = []

    def spy(fb, **kwargs):
        windows.append(fb.window)
        return check_fip(fb, **kwargs)

    monkeypatch.setattr(cli, "check_fip", spy)
    assert cli.main(["check", "fip", "--universe", "hf", "--rank", str(rank)]) == cli.EXIT_OK
    assert capsys.readouterr().out == "fip: witnessed (7 subsets witnessed)\n"
    [window] = windows
    assert len(window) == size
    assert sorted(rank_of(s) for s in window) == [0, 1, 2, 2, 3, 3, 3, 3][:size]


def test_cli_audit(capsys):
    assert cli.main(["audit"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "clean" in out


@pytest.mark.parametrize("command, message", [
    ("check fip --budget -1", "argument --budget: expected an integer >= 0, got -1"),
    ("check fip --budget x", "argument --budget: invalid integer value: 'x'"),
    ("audit --budget 0", "argument --budget: expected an integer >= 1, got 0"),
    ("audit --budget -5", "argument --budget: expected an integer >= 1, got -5"),
])
def test_cli_rejects_bad_budgets(command, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split())
    assert exc.value.code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith("error: " + message)


def test_cli_fip_budget_zero_means_the_default(capsys):
    assert cli.main(["check", "fip"]) == cli.EXIT_OK
    default = capsys.readouterr().out
    assert cli.main(["check", "fip", "--budget", "0"]) == cli.EXIT_OK
    assert capsys.readouterr().out == default


def test_finite_tier_is_checked_in_a_scenario(tmp_path, capsys):
    # R, the even naturals, declares one member; B = {0}.  At {o0.2} the
    # two sides are 1 and 0, so equality must not be forced.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "universe": {"mode": "ordinal", "bound": 2},
        "classes": [{"name": "R", "kind": "residue", "modulus": 2,
                     "tier": {"finite": 1}},
                    {"name": "B", "kind": "values", "values": ["o0.0"]}],
        "queries": [{"kind": "compare", "lhs": {"event": {"class": "R"}},
                     "rel": "eq", "rhs": {"event": {"class": "B"}}}]}))
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    [record] = json.loads(capsys.readouterr().out)["queries"]
    assert (record["verdict"]["status"], record["verdict"]["rule"]) == \
        ("forced_not", "subset-strict")


# Even and Odd split every snapshot of the window {o0.0, o0.1}; the size
# bound 2 leaves its two singletons, where Pr[Even] is 1 or 0.
@pytest.mark.parametrize("base, lhs, rhs, status", [
    ({}, {"sum": [{"event": {"class": "Even"}}, {"event": {"class": "Odd"}}]},
     "1", "forced"),
    ({"max_size": 2}, {"event": {"class": "Even"}}, "1/2", "forced_not"),
    ({}, {"event": {"class": "Even"}}, "1/2", "undetermined"),
], ids=["sum", "max_size", "no-max_size"])
def test_a_window_compare_counts_its_admissible_snapshots(base, lhs, rhs, status):
    report = run_scenario_data({
        "universe": {"mode": "ordinal", "bound": 2},
        "base": {"builder": "fineness", "window": ["o0.0", "o0.1"], **base},
        "queries": [{"kind": "compare", "lhs": lhs, "rel": "eq",
                     "rhs": {"const": rhs}}]})
    [record] = report["queries"]
    assert (record["verdict"]["status"], record["verdict"]["rule"]) == \
        (status, "window-exhaustive")


# Stdout (as sha256) and exit code of each command, recorded at the commit
# before the CLI resolved its names through the scenario engine; the same
# under PYTHONHASHSEED 0-3.
PINNED_CLI = [
    ("query --event Even --given On",
     0, "1569bd5322dbcbc2260a5a7fe159f3d0c8da6e40dd9addfe2bb28b99a9f459b3"),
    ("query --event Even --given On --base ordinal_theorem --out csv",
     0, "6181bdf4029094e6e0ccb7931c2179cea7e46e6dd81f237934fa1a7797ad437f"),
    ("query --omega-bound 2 --event Lim --rv even_shift",
     0, "d5b9e9a3b9abc721d5cb9d89e6ae7d5bb5023db1b9012ccea4ef8d093150c26e"),
    ("query --universe hf --event rank2",
     0, "32e4162f59b75354f1390e1afb0cc84be193f8fd9a6fa86c0b910015dcbba6ee"),
    ("witness superreg --pins o0.0,o0.4 --pairs mult4_t0:even_t1:2",
     0, "e1f9a0e5a6cf2c3154e141ad630d1598ab5142075eece6a40ba3520205117fa2"),
    ("witness superreg --pins o0.0 --pairs Even:Even:2",
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("witness ordinal --pins o0.3 --pairs mult4_t0:even_t1 --k 2 --l 2 --m 2",
     0, "f03357cfd38220a143da9788428a036048641d2d2c5d7caa7fed66ac57a54ccc"),
    ("witness ordinal --pins o0.1 --k 3 --l 3 --m 3",
     0, "648ce303fdeaf257a8a75ca5a0afe0f8bc2a5386aea2632e42d2cb91173578d9"),
    ("witness powerset --universe hf",
     0, "682ef8077240c614006bb3ea3261d7197f010f9c5a604b4c6bbe9164d15c976c"),
    ("check fip",
     0, "f6e1bdb0e5a5de152e493bfd157ec527ea2dd3ec9f39c01319604baf4976a2cc"),
    ("check fip --budget 50",
     0, "f6e1bdb0e5a5de152e493bfd157ec527ea2dd3ec9f39c01319604baf4976a2cc"),
    ("check fip --universe hf",
     0, "7502f499473565ae4f620f4f31c31420746b66ff83b2b5728a10783c54e184fc"),
    ("check coherence",
     0, "56beee83cb007e41202468298f5379d511e31466efe83fdc7e5bc1569a0556d0"),
    ("check restriction",
     0, "89d2a49ef7dbb2b522c5713d6e573a820ef05e3aa74750af02e9e2358e89f318"),
    ("check counterexample",
     0, "43d8b7ab6688f752cb036b7c993e2eb3c354ba8a14c2e79d4b771e42eb6af3f4"),
    ("demo euclidean",
     0, "f05b7ff53f01fd9353fe4220ff2df5eed8bd4b17dc9c89c553693607b39ce086"),
    ("demo hume-failure",
     0, "464682d0b215fe704732e1ffccd1693710b0b55eeccb3bad329e5818b6794d39"),
    ("demo translation-failure",
     0, "101b011c7b8aed68813712db679f30a737ab35bb3433327c506fa15fa325d705"),
    ("demo powerset-chain",
     0, "a3538b080bf4c071723d7d65b52fc5090aeb705dde9395e08b2057f73a7a3d68"),
    ("demo pn-iteration",
     0, "04a4dfae89d61437a1abb61303ba42652bb78ab14c5292146363894a3ac5311a"),
    ("audit --budget 20",
     0, "8c2b2d555e5380f557326fcfca48948b9ff873a6aa2e73dbe969ee9011d326c6"),
    ("run docs/examples/ordinal_theorem.json --canonical",
     0, "a6e73d9c86b27bb61bc0f01fe17b21cefe6181de4361249ab18909ecaa532b24"),
    ("run docs/examples/hf_lattice.json --canonical",
     0, "327b56faca68f1b476f01123e789b265135dbc110a6737ff5d072ec751c3b45d"),
    ("run docs/examples/window_even.json --canonical",
     0, "a8f341bdbeceac620a904060ea95934f879247d8048b9142393c3ff1ef70638a"),
    ("run docs/examples/window_arith.json --canonical",
     0, "6e5339f57a089795c94350739178f736308b503e8641a4609205fdf4ae69dbf2"),
    ("witness powerset --universe hf --level 2 --pairs {{},{{}}}:{{{}}}",
     0, "d8f2a0e48e3280711ba815df57a20ccad6652a972aa98437d273938fceb94fc6"),
]


@pytest.mark.parametrize("command, code, digest", PINNED_CLI,
                         ids=[c for c, _, _ in PINNED_CLI])
def test_cli_stdout_and_exit_are_pinned(command, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(SRC.parent)  # `run` rows name their documents from the root
    assert cli.main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, code, message", [
    # ordinal_theorem names residue classes an HF universe does not have
    ("query --universe hf --rank 4 --event rank1 --base ordinal_theorem",
     cli.EXIT_VALIDATION,
     "validation error: unknown class 'mult4_t0'; "
     "known: ['V', 'rank0', 'rank1', 'rank2']"),
    # zero bounds are used as given, not replaced by the defaults 5 and 3
    ("query --universe hf --rank 0 --event V",
     cli.EXIT_FAILURE, "BoundTooSmall: HF universe needs bound >= 3, got 0"),
    ("query --omega-bound 0 --event On",
     cli.EXIT_FAILURE, "BoundTooSmall: ordinal universe needs bound >= 1"),
    # rank level 6 would need |V_7| = 2**(2**65536): refused, not computed
    ("query --universe hf --rank 8 --event V",
     cli.EXIT_FAILURE, "EnumerationExhausted: |V_7| is too large to compute"),
    ("check fip --universe hf --rank 0", cli.EXIT_FAILURE, "BoundTooSmall"),
    ("query --event Foo", cli.EXIT_VALIDATION,
     "validation error: unknown class 'Foo'; known: ['Even', 'Lim', "),
    ("query --event Even --rv Foo", cli.EXIT_VALIDATION,
     "validation error: unknown variable 'Foo'; "
     "known: ['even_shift', 'identity']"),
    ("witness superreg --pins zz --pairs Even:Odd:2", cli.EXIT_VALIDATION,
     "validation error: bad state code 'zz'"),
    ("witness superreg --pins o0.0 --pairs Even:Odd", cli.EXIT_VALIDATION,
     "validation error: witness pair ['Even', 'Odd'] is not [A, B, n]"),
    ("witness superreg --pins o0.0 --pairs Even:Odd:x", cli.EXIT_VALIDATION,
     "validation error: witness pair ['Even', 'Odd', 'x'] is not [A, B, n]"),
    ("witness superreg --pins o0.0 --pairs mult4_t0:even_t1:0",
     cli.EXIT_VALIDATION, "validation error: witness pair "
     "['mult4_t0', 'even_t1', 0] is not [A, B, n] with an integer n >= 1"),
    ("witness ordinal --pins o0.1 --pairs Even:Odd:3", cli.EXIT_VALIDATION,
     "validation error: witness pair ['Even', 'Odd', 3] is not [A, B]"),
    ("witness ordinal --pins o0.1 --k 0", cli.EXIT_VALIDATION,
     "validation error: k, l and m must all be >= 1"),
    ("witness powerset --universe hf --pairs zz:{}", cli.EXIT_VALIDATION,
     "validation error: bad state code 'zz'"),
    ("witness powerset --universe hf --pairs {}:{}:{}", cli.EXIT_VALIDATION,
     "validation error: powerset --pairs takes code:code pairs"),
])
def test_cli_rejects_bad_input_by_exit_code(command, code, message, capsys):
    assert cli.main(command.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


ORDINAL = {"universe": {"mode": "ordinal", "bound": 3}}


@pytest.mark.parametrize("base, message", [
    ({"window": ["o0.1", "bad"]}, "bad state code 'bad': "),
    ({"constraints": ["garbage"]}, "bad constraint 'garbage': "),
    ({"constraints": ["ratio(Foo,Even,k=2)"]},
     "bad constraint 'ratio(Foo,Even,k=2)': "
     "constraint references unknown class 'Foo'"),
    ({"constraints": ["ratio(Even,Odd,k=x)"]},
     "bad constraint 'ratio(Even,Odd,k=x)': invalid literal"),
    ({"constraints": ["parametric(foo)"]},
     "bad constraint 'parametric(foo)': unknown parametric family 'foo'"),
    ({"constraints": ["parametric(ratio,Even)"]},
     "bad constraint 'parametric(ratio,Even)': not enough values to unpack"),
])
def test_malformed_base_is_a_validation_error(base, message, tmp_path, capsys):
    doc = {**ORDINAL, "base": base}
    validate_scenario(doc)
    with pytest.raises(ScenarioValidationError, match=re.escape(message)):
        build_context(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: " + message)


@pytest.mark.parametrize("query, error", [
    ({"kind": "event", "class": "Even", "snapshot": ["o0.1", "zz"]},
     "bad state code 'zz': "),
    ({"kind": "event", "class": "Foo", "snapshot": ["o0.1"]},
     "unknown class 'Foo'; known: ['Even', 'Lim', 'Nat', 'Odd', 'On', 'PN', 'V']"),
    ({"kind": "conditional", "class": "Even", "given": "On", "rv": "Foo",
      "snapshot": ["o0.1"]},
     "unknown variable 'Foo'; known: ['identity']"),
    ({"kind": "witness", "builder": "superreg", "pairs": [["Even", "Odd"]]},
     "witness pair ['Even', 'Odd'] is not [A, B, n] with an integer n >= 1"),
    ({"kind": "witness", "builder": "superreg",
      "pairs": [["mult4_t0", "even_t1", True]]},
     "witness pair ['mult4_t0', 'even_t1', True] is not [A, B, n]"),
    ({"kind": "witness", "builder": "ordinal", "pairs": [["Even", 3, 4]]},
     "witness pair ['Even', 3, 4] is not [A, B]"),
    ({"kind": "event", "class": "PN",
      "snapshot": ["i(1,3#Nat,c1(p0),s1(3#Nat),n0())", "o0.1"]},
     "bad state code 'i(1,3#Nat,c1(p0),s1(3#Nat),n0())': "),
])
def test_malformed_query_is_recorded_as_its_error(query, error):
    doc = {**ORDINAL, "classes": [{"name": "PN", "kind": "power", "base": "Nat"}],
           "queries": [query, {"kind": "fip"}]}
    validate_scenario(doc)
    report = run_scenario_data(doc)
    assert not report["ok"]
    first, second = report["queries"]
    assert first["error"].startswith("ScenarioValidationError: " + error)
    assert "error" not in second


@pytest.mark.parametrize("doc, code, message", [
    ({"queries": [{"kind": "classify", "germ": {"const": "abc"}}]},
     cli.EXIT_FAILURE, "bad constant 'abc': "),
    ({"queries": [{"kind": "classify", "germ": {"const": "1/0"}}]},
     cli.EXIT_FAILURE, "bad constant '1/0': "),
    ({"queries": [{"kind": "event", "class": "Even", "snapshot": ["o0.1"],
                   "expect": "x/y"}]},
     cli.EXIT_FAILURE, "bad expected value 'x/y': "),
    ({"classes": [{"name": "R", "kind": "residue"}]},
     cli.EXIT_VALIDATION, "class 'R' of kind 'residue' needs 'modulus'"),
    ({"classes": [{"name": "T", "kind": "translate", "base": "Nat"}]},
     cli.EXIT_VALIDATION, "class 'T' of kind 'translate' needs 'shift'"),
    ({"classes": [{"name": "I", "kind": "image", "base": "Even"}]},
     cli.EXIT_VALIDATION, "class 'I' of kind 'image' needs 'rv'"),
    ({"classes": [{"name": "P", "kind": "power"}]},
     cli.EXIT_VALIDATION, "class 'P' of kind 'power' needs 'base'"),
    ({"classes": [{"name": "L", "kind": "builtin", "builtin": "RankLevel"}]},
     cli.EXIT_VALIDATION, "class 'L' of kind 'builtin' needs 'level'"),
    ({"classes": [{"name": "P", "kind": "builtin", "builtin": "PowerClass"}]},
     cli.EXIT_VALIDATION, "unknown builtin class 'PowerClass'"),
    ({"classes": [{"name": "Foo", "kind": "builtin"}]},
     cli.EXIT_VALIDATION, "unknown builtin class 'Foo'"),
    ({"tiers": [4, 3]},
     cli.EXIT_VALIDATION, "bad tiers [4, 3]: thresholds must increase strictly"),
    ({"tiers": [2], "queries": [{"kind": "coherence", "class": "Even",
                                 "snapshot": ["o0.1", "o0.2"],
                                 "probe": ["o0.1", "o0.2"]}]},
     cli.EXIT_FAILURE, "inadmissible probe: meets 2 states"),
    ({"classes": [{"name": "W", "kind": "values",
                   "values": ["i(1,3#Nat,c0(),s1(3#Nat),n0())"]}]},
     cli.EXIT_VALIDATION, "bad state code 'i("),
    ({"classes": [{"name": "A", "kind": "values", "values": ["o0.1", "o0.3"],
                   "tier": {"finite": 1}}]},
     cli.EXIT_VALIDATION, "class A has more members than its tier finite(1) declares"),
    ({"classes": [{"name": "Z", "kind": "values", "values": ["o01.2"]}]},
     cli.EXIT_VALIDATION, "bad state code 'o01.2': "),
    # parsed by recursion, so nesting past the stack is a bad code too
    ({"classes": [{"name": "N", "kind": "values", "values": ["{" * 3000 + "}" * 3000]}]},
     cli.EXIT_VALIDATION, "bad state code '{{{"),
    ({"queries": [{"kind": "coherence", "class": "Even",
                   "snapshot": ["o0.1"], "probe": ["o0.1"]}]},
     cli.EXIT_FAILURE, "coherence queries need tier thresholds"),
    # an integer written with a decimal point is an integer, 2.5 is not
    ({"universe": {"mode": "ordinal", "bound": 2.5}}, cli.EXIT_VALIDATION,
     "scenario rejected at universe/bound: 2.5 is not of type 'integer'"),
    # the report format is --out's alone; a document cannot ask for one
    ({"output": {"format": "csv"}}, cli.EXIT_VALIDATION,
     "scenario rejected at (root): Additional properties are not allowed "
     "('output' was unexpected)"),
    # each setting has one spelling: span, kind power or finite_subsets,
    # and the builtin identity
    ({"classes": [{"name": "R", "kind": "residue", "modulus": 2, "nat_only": False}]},
     cli.EXIT_VALIDATION, "scenario rejected at classes/0: Additional properties "
     "are not allowed ('nat_only' was unexpected)"),
    ({"classes": [{"name": "F", "kind": "builtin", "builtin": "FiniteSubsets",
                   "base": "Nat"}]},
     cli.EXIT_VALIDATION, "unknown builtin class 'FiniteSubsets'"),
    ({"variables": [{"name": "id2", "kind": "identity"}]}, cli.EXIT_VALIDATION,
     "scenario rejected at variables/0/kind: 'identity' is not one of "),
    # a number is read exactly or refused; "#N" is the number N, unquoted
    ({"seed": "#" + "1" * 5000}, cli.EXIT_VALIDATION,
     "scenario number '1111111111"),
    ({"universe": {"mode": "ordinal", "bound": "#1e9999999999999999999"}},
     cli.EXIT_VALIDATION, "scenario number '1e9999999999999999999' is out of range"),
    ({"seed": "#12345678901234567.5"}, cli.EXIT_VALIDATION,
     "scenario rejected at seed: 12345678901234567.5 is not of type 'integer'"),
    ({"classes": [{"name": "R", "kind": "residue", "modulus": 2, "residue": "#1e-400"}]},
     cli.EXIT_VALIDATION,
     "scenario rejected at classes/0/residue: 1E-400 is not of type 'integer'"),
])
def test_outside_input_is_a_validation_error(doc, code, message, tmp_path, capsys):
    # Exit 2 while the context is built; inside a query, the query's error.
    path = tmp_path / "doc.json"
    path.write_text(re.sub(r'"#([^"]*)"', r"\1", json.dumps({**ORDINAL, **doc})))
    assert cli.main(["run", str(path)]) == code
    captured = capsys.readouterr()
    if code == cli.EXIT_VALIDATION:
        assert captured.err.startswith("validation error: " + message)
    else:
        [record] = json.loads(captured.out)["queries"]
        assert record["error"].startswith("ScenarioValidationError: " + message)


def test_a_repeated_probe_state_is_counted_once():
    # probe_size is the number of the probe's distinct states
    def levels(probe):
        doc = {**ORDINAL, "tiers": [3], "queries": [
            {"kind": "coherence", "class": "Even", "probe": probe,
             "snapshot": [f"o0.{b}" for b in range(1, 7)]}]}
        [record] = run_scenario_data(doc)["queries"]
        return record["levels"]

    assert levels(["o0.1", "o0.1", "o0.2"]) == levels(["o0.1", "o0.2"])
    assert [lv["probe_size"] for lv in levels(["o0.1", "o0.2"])] == [2]


@pytest.mark.parametrize("doc, number", [
    ({"base": {"builder": "empty", "window": ["o0.0", "o0.1", "o0.2", "o0.3"],
               "max_size": "N"},
      "queries": [{"kind": "compare", "lhs": {"event": {"class": "Even"}},
                   "rel": "le", "rhs": {"const": "1"}}]}, "2"),
    ({"queries": [{"kind": "witness", "builder": "ordinal", "pins": ["o0.1"],
                   "l": "N"}]}, "2"),
    ({"queries": [{"kind": "witness", "builder": "superreg", "pins": ["o0.1"],
                   "pairs": [["Even", "V", "N"]]}]}, "2"),
    # past 2**53, where a float would round it to 12345678901234568
    ({"seed": "N"}, "12345678901234567"),
], ids=["max_size", "ordinal-l", "superreg-n", "seed-past-2**53"])
def test_an_integer_written_with_a_decimal_point_runs_as_an_integer(doc, number, tmp_path, capsys):
    # JSON Schema accepts 2.0 as an integer, so the engine must get 2.
    text = json.dumps({**ORDINAL, **doc})
    outs = []
    for name, literal in (("point", number + ".0"), ("plain", number)):
        path = tmp_path / f"{name}.json"
        path.write_text(text.replace('"N"', literal))
        assert cli.main(["run", str(path), "--canonical"]) == cli.EXIT_OK
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]


def _put(doc, value):
    """doc with each "N" replaced by value."""
    if isinstance(doc, dict):
        return {k: _put(v, value) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_put(v, value) for v in doc]
    return value if doc == "N" else doc


@pytest.mark.parametrize("doc", [
    {"base": {"builder": "empty", "window": ["o0.0", "o0.1", "o0.2", "o0.3"],
              "max_size": "N"},
     "queries": [{"kind": "compare", "lhs": {"event": {"class": "Even"}},
                  "rel": "le", "rhs": {"const": "1"}}]},
    {"queries": [{"kind": "witness", "builder": "ordinal", "pins": ["o0.1"],
                  "l": "N"}]},
    {"queries": [{"kind": "witness", "builder": "superreg", "pins": ["o0.1"],
                  "pairs": [["Even", "V", "N"]]}]},
    {"seed": "N", "universe": {"mode": "ordinal", "bound": "N"}},
    {"tiers": ["N"],
     "classes": [{"name": "R", "kind": "residue", "modulus": "N", "span": "N",
                  "tier": {"infinite": "N"}},
                 {"name": "F", "kind": "values", "values": ["o0.1"],
                  "tier": {"finite": "N"}}],
     "queries": [{"kind": "event", "class": "R", "snapshot": ["o0.0", "o0.1", "o2.0"]},
                 {"kind": "coherence", "class": "F", "snapshot": ["o0.1", "o0.2"],
                  "probe": ["o0.1"]}]},
    {"universe": {"mode": "hf", "bound": 3},
     "classes": [{"name": "L", "kind": "builtin", "builtin": "RankLevel", "level": "N"}],
     "queries": [{"kind": "event", "class": "L", "snapshot": ["{}", "{{}}"]}]},
], ids=["max_size", "ordinal-l", "superreg-n", "seed-and-bound", "classes-and-tiers",
        "rank-level"])
def test_an_integral_float_built_in_python_runs_as_an_integer(doc):
    # a document handed to run_scenario_data reads 2.0 as a file's does
    as_float, as_int = _put({**ORDINAL, **doc}, 2.0), _put({**ORDINAL, **doc}, 2)
    validate_scenario(as_float)
    assert canonical_report_text(run_scenario_data(as_float)) == \
        canonical_report_text(run_scenario_data(as_int))
    assert as_float == _put({**ORDINAL, **doc}, 2.0)  # the caller's copy is kept


def test_a_fractional_float_built_in_python_keeps_the_schema_rejection():
    with pytest.raises(ScenarioValidationError,
                       match=r"^scenario rejected at base/max_size: 2\.5 is not of type 'integer'$"):
        validate_scenario({**ORDINAL, "base": {"builder": "empty", "max_size": 2.5}})


@pytest.mark.parametrize("text, message", [
    ("{" * 3000 + "}" * 3000, "bad state code '{{{"),
    ("o0.1" + "}" * 5000, "bad state code 'o0.1}}}"),
    ("o1." + "9" * 5000, "bad state code 'o1.999"),
], ids=["nested", "trailing", "long-integer"])
def test_a_long_state_code_is_quoted_in_part(text, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**ORDINAL, "classes": [
        {"name": "N", "kind": "values", "values": [text]}]}))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("validation error: " + message)
    assert f"... ({len(text)} characters)" in line and len(line) < 300


HF_SMALL = {"universe": {"mode": "hf", "bound": 3}}


@pytest.mark.parametrize("doc, message", [
    ({**HF_SMALL, "classes": [{"name": "On", "kind": "builtin"}]},
     "builtin On needs an ordinal-mode universe"),
    ({**ORDINAL, "classes": [{"name": "T", "kind": "translate", "base": "Nat",
                              "shift": "p0"}]},
     "not an ordinal: #0"),
    ({**ORDINAL, "classes": [{"name": "L", "kind": "builtin",
                              "builtin": "RankLevel", "level": 2}]},
     "rank levels exist in HF mode only"),
    ({"universe": {"mode": "hf", "bound": 7},
      "classes": [{"name": "R6", "kind": "builtin", "builtin": "RankLevel",
                   "level": 6}]},
     "|V_7| is too large to compute"),
    ({**HF_SMALL, "base": {"builder": "ordinal_theorem"}},
     "the interval/weight families need an ordinal universe"),
    ({**ORDINAL, "variables": [{"name": "t", "kind": "table",
                                "mapping": {"o0.0": "o0.1"}}],
      "classes": [{"name": "I", "kind": "image", "base": "Even", "rv": "t"}]},
     "image_class needs a diagonal variable"),
], ids=["On-in-hf", "translate-by-pad", "RankLevel-in-ordinal",
        "RankLevel-6", "ordinal-theorem-in-hf", "image-by-non-diagonal-table"])
def test_mode_mismatch_in_the_context_exits_two(doc, message, tmp_path, capsys):
    # A class or base the universe's mode cannot build makes the document
    # invalid, like any other validation error.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {message}\n"


# A table named `identity` that swaps p0, p1, p2 with o0.0, o0.1, o0.2:
# before names were checked it replaced the builtin, and `weight` forced
# Pr[identity in On] le 1/3 for it.
_SWAP = {f"{a}{i}": f"{b}{i}" for i in range(3) for a, b in (("p", "o0."), ("o0.", "p"))}


@pytest.mark.parametrize("variables", [
    [{"name": "identity", "kind": "table", "mapping": _SWAP}],
    [{"name": "identity", "kind": "even_shift"}],
    [{"name": "pi", "kind": "even_shift"}, {"name": "pi", "kind": "table"}],
], ids=["identity-table", "identity-kind", "twice"])
def test_a_variable_name_is_defined_once(variables, tmp_path, capsys):
    name = variables[-1]["name"]
    doc = {**ORDINAL, "variables": variables,
           "base": {"builder": "fineness", "constraints": ["weight(m=3)"]},
           "queries": [{"kind": "compare", "lhs": {"event": {"rv": name, "class": "On"}},
                        "rel": "le", "rhs": {"const": "1/3"}}]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"validation error: variable {name!r} is already defined\n"


# A class named `On`: the image of Even under a table that swaps p0 and
# o0.0, so it holds p0 and not o0.0.  While a class could replace the
# builtin, `weight` forced Pr[On] le 1/4 for it, and the audit (seed 0,
# 50 witnesses) found 2 failures.
ON_REDEFINED = {
    "universe": {"mode": "ordinal", "bound": 2},
    "variables": [{"name": "sw", "kind": "table", "mapping": {"p0": "o0.0", "o0.0": "p0"}}],
    "classes": [{"name": "On", "kind": "image", "rv": "sw", "base": "Even"}],
    "base": {"builder": "fineness", "constraints": ["weight(m=4)"]},
    "queries": [{"kind": "compare", "lhs": {"event": {"class": "On"}},
                 "rel": "le", "rhs": {"const": "1/4"}}]}

# The scenario forms of two name-keyed rules: `interval-limit` forced
# Pr[Lim|On] le 1/3 for a value class named Lim, and `interval-parity`
# forced |Pr[Even|On] - Pr[Odd|On]| le 1/3 for value classes named Even
# and Odd.
_COND = {"kind": "compare", "rel": "le", "rhs": {"const": "1/3"},
         "lhs": {"cond": {"class": "Lim", "given": "On"}}}
_PARITY = {"kind": "compare", "rel": "abs_le", "rhs": {"const": "1/3"},
           "lhs": {"op": {"op": "-", "left": {"cond": {"class": "Even", "given": "On"}},
                          "right": {"cond": {"class": "Odd", "given": "On"}}}}}
LIM_REDEFINED = {
    **ORDINAL, "base": {"builder": "ordinal_theorem"}, "queries": [_COND],
    "classes": [{"name": "Lim", "kind": "values", "values": ["o0.1", "o0.2", "o0.3"]}]}
EVEN_ODD_REDEFINED = {
    **ORDINAL, "base": {"builder": "ordinal_theorem"}, "queries": [_PARITY],
    "classes": [{"name": "Even", "kind": "values",
                 "values": [f"o0.{b}" for b in range(1, 12, 2)]},
                {"name": "Odd", "kind": "values", "values": ["o0.0"]}]}


@pytest.mark.parametrize("doc, name", [
    (ON_REDEFINED, "On"),
    (LIM_REDEFINED, "Lim"),
    (EVEN_ODD_REDEFINED, "Even"),
    ({**ORDINAL, "classes": [{"name": "Odd", "kind": "builtin", "builtin": "Even"}]},
     "Odd"),
    ({**ORDINAL, "classes": [{"name": "A", "kind": "values", "values": ["o0.1"]},
                             {"name": "A", "kind": "values", "values": ["o0.2"]}]},
     "A"),
], ids=["On-image", "Lim-values", "Even-Odd-values", "other-builtin", "twice"])
def test_a_class_name_is_defined_once(doc, name, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == \
        f"validation error: class {name!r} is already defined\n"


def test_a_builtin_entry_redeclares_its_own_builtin():
    ctx = build_context({**ORDINAL, "classes": [
        {"name": "On", "kind": "builtin"}, {"name": "V", "kind": "builtin"},
        {"name": "Even", "kind": "builtin", "builtin": "Even"},
        {"name": "On", "kind": "builtin"}]})
    for name in ("On", "V", "Even"):
        assert ctx.classes[name] is ctx.universe.builtin_class(name)


def test_residue_class_is_refused_in_an_hf_universe(tmp_path, capsys):
    # A residue class enumerates ordinals, none of which an HF universe holds.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        **HF_SMALL, "classes": [{"name": "R", "kind": "residue", "modulus": 3}],
        "queries": [{"kind": "compare", "lhs": {"event": {"class": "R"}},
                     "rel": "le", "rhs": {"const": "1/2"}}]}))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == \
        "validation error: residue class R needs an ordinal-mode universe\n"


def test_image_class_may_use_a_declared_variable():
    report = run_scenario_data({
        **ORDINAL,
        "classes": [{"name": "I", "kind": "image", "base": "Even", "rv": "shift"}],
        "variables": [{"name": "shift", "kind": "even_shift"}],
        "queries": [{"kind": "event", "class": "I", "snapshot": ["o0.0", "o0.2"],
                     "expect": "1/2"}]})
    assert report["ok"], report


def test_finite_subsets_class_keeps_its_declared_name():
    report = run_scenario_data({
        **ORDINAL, "classes": [{"name": "F", "kind": "finite_subsets", "base": "Nat"}],
        "queries": [{"kind": "event", "class": "F", "snapshot": ["o0.1"]}]})
    assert report["queries"][0]["expression"] == "Pr[identity in F]"


@pytest.mark.parametrize("germ, where, message", [
    ({"foo": 1}, "queries/0/germ",
     "Additional properties are not allowed ('foo' was unexpected)"),
    ({"op": {"op": "+", "left": {"const": "1"}, "right": {"foo": 1}}},
     "queries/0/germ/op/right",
     "Additional properties are not allowed ('foo' was unexpected)"),
    ({"event": {"class": "On"}, "foo": 1}, "queries/0",
     "{'kind': 'classify', 'germ': {'event': {'class': 'On'}, 'foo': 1}} "
     "is not valid under any of the given schemas"),
])
def test_unknown_germ_key_is_rejected(germ, where, message, tmp_path, capsys):
    doc = {**MINIMAL, "queries": [{"kind": "classify", "germ": germ}]}
    expected = f"scenario rejected at {where}: {message}"
    with pytest.raises(ScenarioValidationError, match=f"^{re.escape(expected)}$"):
        validate_scenario(doc)
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {expected}\n"


def test_run_query_builds_point_germs_through_build_germ(monkeypatch):
    built = []
    real = scenario.build_germ

    def spy(ctx, spec):
        built.append(sorted(spec))
        return real(ctx, spec)

    monkeypatch.setattr(scenario, "build_germ", spy)
    snap = ["o0.0", "o0.1", "o0.2"]
    report = run_scenario_data({**ORDINAL, "queries": [
        {"kind": "event", "class": "Even", "snapshot": snap, "expect": "2/3"},
        {"kind": "joint", "class": "Even", "class2": "Nat", "snapshot": snap,
         "expect": "2/3"},
        {"kind": "conditional", "class": "Odd", "given": "Nat",
         "snapshot": snap, "expect": "1/3"},
    ]})
    assert report["ok"], report
    assert built == [["event"], ["joint"], ["cond"]]


# ---------------------------------------------------------------------------
# CLI entry points (subprocess, console script)


def test_console_script_demo():
    # Run what the wrapper generated by `pip install` runs for the declared
    # console script, so an uninstalled checkout checks the same entry point.
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    config = tomllib.loads(PYPROJECT.read_text())
    module, attr = config["project"]["scripts"]["setprob"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "demo", "euclidean"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "forced" in proc.stdout


@pytest.mark.skipif(shutil.which("setprob") is None,
                    reason="setprob console script not installed")
def test_installed_console_script_demo():
    proc = subprocess.run(["setprob", "demo", "euclidean"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "forced" in proc.stdout


def test_module_invocation_run():
    proc = subprocess.run(
        [sys.executable, "-m", "setprob.cli", "run", str(EXAMPLE)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"]


@pytest.mark.parametrize("bound", [1, 2])
def test_fip_search_ends_once_lim_is_used_up(bound, tmp_path):
    # Lim holds only w*1 .. w*(bound-1), so its stream must end there
    # rather than leave the witness search waiting on it.
    path = tmp_path / "lim.json"
    path.write_text(json.dumps({
        "universe": {"mode": "ordinal", "bound": bound},
        "base": {"builder": "fineness", "constraints": ["order_lt(Nat,Lim)"]},
        "queries": [{"kind": "fip"}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "setprob.cli", "run", str(path), "--canonical"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["queries"][0]["status"] == "unknown"


@pytest.mark.parametrize("constraints", [
    ["ratio(V,Even,k=1)"],
    ["order_ge(A,V)"],
    ["fineness(o0.1)", "ratio(Even,V,k=1)", "weight(m=2)"],
])
def test_fip_search_ends_when_no_pad_fits(constraints, tmp_path):
    # Ordinal pads never run out, and none fits: in the first two bases
    # no single state meets what the empty set meets; in the third every
    # pad lies in V, which padding must avoid.  The search must stop at
    # the scan budget rather than read pads forever.
    path = tmp_path / "pads.json"
    path.write_text(json.dumps({
        "universe": {"mode": "ordinal", "bound": 2},
        "classes": [{"name": "A", "kind": "values", "values": ["o0.1", "o0.2"]}],
        "base": {"builder": "empty", "constraints": constraints},
        "queries": [{"kind": "fip"}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "setprob.cli", "run", str(path), "--canonical"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["queries"][0]["status"] == "unknown"


def test_cli_query_gives_up_within_budget():
    # At omega-bound 1 the ratio and interval families of the
    # ordinal-theorem base have no common witness, so the sampling loop
    # must give up instead of growing the candidate snapshot forever.
    proc = subprocess.run(
        [sys.executable, "-m", "setprob.cli", "query", "--omega-bound", "1",
         "--event", "Even", "--base", "ordinal_theorem"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        assert len(json.loads(proc.stdout)["samples"]) < 3
    else:
        assert proc.returncode == 1, proc.stderr
        name = proc.stderr.split(":", 1)[0]
        assert issubclass(getattr(errors, name), errors.EngineError), proc.stderr
