"""Scenario files, report formats, command-line entry points."""

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

from setprob import cli, scenario
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
from setprob import constraint_from_text, constraint_membership, parse_code, snapshot

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


def test_jsonschema_imported_on_first_validation():
    probe = (
        "import sys, setprob, setprob.cli\n"
        "assert 'jsonschema' not in sys.modules\n"
        f"setprob.validate_scenario({MINIMAL!r})\n"
        "assert 'jsonschema' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("extra", [{"nat_only": False}, {"span": 5}])
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


def test_cli_audit(capsys):
    assert cli.main(["audit"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "clean" in out


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
