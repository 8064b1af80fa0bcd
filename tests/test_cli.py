"""Exit codes, stream separation, and the four subcommands."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import accesslint
from accesslint.cli import main
from accesslint.fixtures import fixture_text
from accesslint.goals import (
    GoalGraph,
    Permission,
    PolicyStatement,
    Refinement,
    check_goal_structure,
    trace,
)
from accesslint.model import AccessNeed, check_structure
from accesslint.modelio import ParseError, parse_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_pyramid_exits_one_with_eight_warnings(self, capsys, pyramid_path):
        code, out, err = run(capsys, "validate", pyramid_path)
        assert code == 1
        assert err == ""
        warning_lines = [line for line in out.splitlines() if "-->" in line]
        assert len(warning_lines) == 8

    def test_works_diary_reports_two_undefined(self, capsys, works_diary_path):
        code, out, _ = run(capsys, "validate", works_diary_path)
        assert code == 1
        assert out.count("undefined_access:") == 2

    def test_json_format_is_parseable(self, capsys, pyramid_path):
        code, out, _ = run(capsys, "validate", pyramid_path, "--format", "json")
        assert code == 1
        assert len(json.loads(out)["warnings"]) == 8

    def test_json_parseable_with_zero_warnings(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"version": 1}', encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["warnings"] == []

    def test_structural_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "version": 1,
            "assets": [{"name": "A", "kind": "system"}],
            "associations": [{"source": "A", "target": "Ghost"}],
        }), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "UnknownAsset" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")
        # The OSError text quotes its file name through repr: one line.
        path = str(tmp_path / "no\\pe\n.json")
        code, _, err = run(capsys, "validate", path)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"

    def test_out_flag_writes_file_and_keeps_stdout_clean(
            self, capsys, pyramid_path, tmp_path):
        out_path = tmp_path / "report.txt"
        code, out, _ = run(capsys, "validate", pyramid_path, "--out", str(out_path))
        assert code == 1
        assert out == ""
        assert "no_read_up" in out_path.read_text(encoding="utf-8")

    def test_unwritable_out_exits_two(self, capsys, pyramid_path, tmp_path):
        code, _, err = run(capsys, "validate", pyramid_path,
                           "--out", str(tmp_path / "no" / "dir" / "x.txt"))
        assert code == 2
        assert err.startswith("error:")

    def test_deeply_nested_document_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: $: document is nested too deeply\n"

    def test_unexpected_exception_exits_two_with_one_line(
            self, capsys, monkeypatch, pyramid_path):
        def crash(model, graph):
            raise RuntimeError("boom")

        monkeypatch.setattr("accesslint.cli.validate_access", crash)
        code, out, err = run(capsys, "validate", pyramid_path)
        assert code == 2
        assert out == ""
        assert err == "error: internal error: RuntimeError('boom')\n"

    def test_expand_inheritance_flag(self, capsys, data_dir):
        chain = str(data_dir / "chain.json")
        code, out, _ = run(capsys, "validate", chain)
        assert code == 1
        assert out.count("undefined_access:") == 1
        code, out, _ = run(capsys, "validate", chain, "--expand-inheritance")
        assert code == 1
        assert out.count("undefined_access:") == 3


class TestCheck:
    def test_pyramid_is_clean(self, capsys, pyramid_path):
        code, out, err = run(capsys, "check", pyramid_path)
        assert code == 0
        assert out == "" and err == ""

    def test_conflicting_permissions_printed(self, capsys, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps({
            "version": 1,
            "assets": [
                {"name": "S", "kind": "system"},
                {"name": "T", "kind": "system"},
            ],
            "goals": [{"name": "R", "kind": "requirement"}],
            "policy": [
                {"requirement": "R", "subject": "S", "access": "read",
                 "resource": "T", "permission": "allow"},
                {"requirement": "R", "subject": "S", "access": "read",
                 "resource": "T", "permission": "deny"},
            ],
        }), encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert "ConflictingPermission" in err

    def test_warnings_print_but_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "warn.json"
        path.write_text(json.dumps({
            "version": 1,
            "goals": [{"name": "R", "kind": "requirement"}],
        }), encoding="utf-8")
        code, _, err = run(capsys, "check", str(path))
        assert code == 0
        assert "warning: RequirementWithoutPolicy" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")
        path = str(tmp_path / "no\\pe\n.json")
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"

    def test_over_long_integer_literal_exits_two(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"version": ' + "1" * 5000 + "}", encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: $: integer literal is too long\n"

    @pytest.mark.parametrize("version, shown", [
        ('[{"a": 1, "a": 2}]', "(a list)"), ('{"a": 1, "a": 2}', "(an object)")])
    def test_container_version_named_by_its_type(self, capsys, tmp_path, version, shown):
        path = tmp_path / "version.json"
        path.write_text(f'{{"version": {version}}}', encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: $.version: unsupported document version {shown}, expected 1\n"

    def test_each_finding_on_its_own_line(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "version": 1,
            "assets": [
                {"name": "A", "kind": "system"},
                {"name": "A", "kind": "system"},
                {"name": "B", "kind": "information", "parent": "Ghost"},
            ],
        }), encoding="utf-8")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("DuplicateAssetName")
        assert lines[1].startswith("UnknownParent")


class TestExport:
    def test_asset_view_to_stdout(self, capsys, pyramid_path):
        code, out, _ = run(capsys, "export", pyramid_path, "--view", "asset")
        assert code == 0
        assert out.startswith("digraph assets {")
        assert out.count("[label=") == 7

    def test_goal_view_to_file(self, capsys, pyramid_path, tmp_path):
        out_path = tmp_path / "goals.dot"
        code, out, _ = run(capsys, "export", pyramid_path,
                           "--view", "goal", "--out", str(out_path))
        assert code == 0
        assert out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.count(" -> ") == 7

    def test_empty_model_exports_valid_dot(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"version": 1}', encoding="utf-8")
        code, out, _ = run(capsys, "export", str(path), "--view", "asset")
        assert code == 0
        assert out == "digraph assets {\n  node [shape=box];\n}\n"

    def test_invalid_model_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 1, "assets": "oops"}', encoding="utf-8")
        code, _, err = run(capsys, "export", str(path), "--view", "asset")
        assert code == 2
        assert "$.assets" in err

    def test_unknown_view_is_a_usage_error(self, capsys, pyramid_path):
        with pytest.raises(SystemExit) as info:
            main(["export", pyramid_path, "--view", "swimlane"])
        assert info.value.code == 2


class TestFixture:
    def test_pyramid_fixture_to_stdout(self, capsys):
        code, out, err = run(capsys, "fixture", "--name", "pyramid")
        assert code == 0
        assert err == ""
        assert out == fixture_text("pyramid")
        assert len(json.loads(out)["policy"]) == 7

    def test_works_diary_fixture(self, capsys):
        code, out, _ = run(capsys, "fixture", "--name", "works-diary")
        assert code == 0
        assert len(json.loads(out)["assets"]) == 2

    def test_unknown_name_exits_two(self, capsys):
        code, out, err = run(capsys, "fixture", "--name", "bogus")
        assert code == 2
        assert out == ""
        assert "bogus" in err
        with pytest.raises(KeyError):
            fixture_text("nope")

    def test_fixture_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "fixture", "--name", "works-diary",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == fixture_text("works-diary")


@pytest.mark.parametrize("command", [
    ["check"], ["validate"], ["validate", "--format", "json"],
    ["export", "--view", "asset"],
])
def test_unpaired_surrogate_escape_exits_two(capsys, data_dir, command):
    code, out, err = run(capsys, *command, str(data_dir / "surrogate.json"))
    assert code == 2
    assert out == ""
    assert err == "error: line 1, column 34: unpaired surrogate escape \\ud800\n"


# One name holding a quote, a backslash, a newline and an escape character;
# a diagnostic shows it bare as SHOWN and quoted as QUOTED, escaped once.
HOSTILE = "it's\\\n\x1b"
SHOWN = r"it's\\\n\x1b"
QUOTED = r"'it\'s\\\n\x1b'"
SYSTEM = {"name": "A", "kind": "system"}
INFORMATION = {"name": "B", "kind": "information"}


def _policy(subject=HOSTILE, permission="allow", requirement="R"):
    return {"requirement": requirement, "subject": subject, "access": "read",
            "resource": "B", "permission": permission}


# (document, code, where, message): each document yields this one finding.
_FINDINGS = [
    ({"assets": [{"name": HOSTILE, "kind": "system"}] * 2}, "DuplicateAssetName",
     SHOWN, f"asset name {QUOTED} is declared more than once"),
    ({"assets": [{"name": HOSTILE, "kind": "system", "parent": "Ghost"}]}, "UnknownParent",
     SHOWN, f"asset {QUOTED} names unknown parent 'Ghost'"),
    ({"assets": [SYSTEM, {"name": HOSTILE, "kind": "information", "parent": "A"}]},
     "ParentKindMismatch", SHOWN,
     f"asset {QUOTED} (information) cannot inherit from 'A' (system)"),
    ({"assets": [{"name": HOSTILE, "kind": "system", "parent": HOSTILE}]},
     "CyclicInheritance", SHOWN, f"inheritance cycle: {SHOWN} -> {SHOWN}"),
    ({"assets": [SYSTEM], "associations": [{"source": "A", "target": HOSTILE}]},
     "UnknownAsset", f"association 'A' - {QUOTED}",
     f"association end references unknown asset {QUOTED}"),
    ({"assets": [{"name": HOSTILE, "kind": "system"}],
      "associations": [{"source": HOSTILE, "target": HOSTILE}]},
     "SelfAssociation", f"association {QUOTED} - {QUOTED}",
     f"asset {QUOTED} cannot be associated with itself"),
    ({"assets": [SYSTEM, {"name": HOSTILE, "kind": "system"}],
      "associations": [{"source": HOSTILE, "target": "A"}, {"source": "A", "target": HOSTILE}]},
     "DuplicateAssociation", f"association 'A' - {QUOTED}",
     f"more than one association between 'A' and {QUOTED}"),
    ({"assets": [{"name": HOSTILE, "kind": "system"}, {"name": "P", "kind": "people"}],
      "associations": [{"source": HOSTILE, "target": "P", "sourceNeeds": ["read"]}]},
     "MatrixViolation", f"association {QUOTED} - 'P'",
     f"system asset {QUOTED} may not hold access needs upon people asset 'P'"),
    ({"goals": [{"name": HOSTILE, "kind": "goal"}] * 2}, "DuplicateGoalName",
     SHOWN, f"goal name {QUOTED} is declared more than once"),
    ({"goals": [{"name": "G", "kind": "goal"}],
      "refinements": [{"parent": "G", "child": HOSTILE}]},
     "UnknownGoal", f"refinement 'G' <- {QUOTED}", f"refinement references unknown goal {QUOTED}"),
    ({"goals": [{"name": HOSTILE, "kind": "goal"}, {"name": "G", "kind": "goal"}],
      "refinements": [{"parent": HOSTILE, "child": "G"}] * 2},
     "DuplicateRefinement", f"refinement {QUOTED} <- 'G'",
     f"refinement {QUOTED} <- 'G' appears more than once"),
    ({"goals": [{"name": HOSTILE, "kind": "requirement"}, {"name": "G", "kind": "goal"}],
      "refinements": [{"parent": HOSTILE, "child": "G"}]},
     "RequirementAboveGoal", f"refinement {QUOTED} <- 'G'",
     f"requirement {QUOTED} cannot be refined by goal 'G'"),
    ({"goals": [{"name": HOSTILE, "kind": "goal"}],
      "refinements": [{"parent": HOSTILE, "child": HOSTILE}]},
     "CyclicRefinement", SHOWN, f"refinement cycle: {SHOWN} -> {SHOWN}"),
    ({"assets": [SYSTEM, INFORMATION], "policy": [_policy("A", requirement=HOSTILE)]},
     "UnknownRequirement", "policy 'A' read 'B' allow",
     f"policy statement references unknown requirement {QUOTED}"),
    ({"assets": [SYSTEM, INFORMATION], "goals": [{"name": HOSTILE, "kind": "goal"}],
      "policy": [_policy("A", requirement=HOSTILE)]},
     "NotARequirement", "policy 'A' read 'B' allow",
     f"policy statement is owned by {QUOTED}, which is a goal, not a requirement"),
    ({"assets": [INFORMATION], "goals": [{"name": "R", "kind": "requirement"}],
      "policy": [_policy()]},
     "UnknownAsset", f"policy {QUOTED} read 'B' allow",
     f"policy statement references unknown asset {QUOTED}"),
    ({"assets": [{"name": HOSTILE, "kind": "system"}, INFORMATION],
      "goals": [{"name": "R", "kind": "requirement"}], "policy": [_policy()] * 2},
     "DuplicateStatement", f"policy {QUOTED} read 'B' allow",
     f"statement ({QUOTED}, read, 'B', allow) is declared more than once"),
    ({"assets": [{"name": HOSTILE, "kind": "system"}, INFORMATION],
      "goals": [{"name": "R", "kind": "requirement"}],
      "policy": [_policy(), _policy(permission="deny")]},
     "ConflictingPermission", f"policy {QUOTED} read 'B' deny",
     f"({QUOTED}, read, 'B') is both allowed and denied"),
    ({"goals": [{"name": HOSTILE, "kind": "requirement"}]}, "RequirementWithoutPolicy",
     SHOWN, f"requirement {QUOTED} owns no policy statement"),
]

# (document text, location, reason) of a ParseError.
_PARSE_ERRORS = [
    pytest.param(json.dumps({"version": 1, HOSTILE: 1}),
                 f"$.{SHOWN}", f"unknown key {QUOTED}", id="unknown-key"),
    pytest.param(json.dumps({"version": 1, "assets": [{**SYSTEM, HOSTILE: 1}]}),
                 f"$.assets[0].{SHOWN}", f"unknown key {QUOTED}", id="unknown-record-key"),
    pytest.param('{"version": 1, %s: 1, %s: 2}' % ((json.dumps(HOSTILE),) * 2),
                 f"$.{SHOWN}", f"duplicate key {QUOTED}", id="duplicate-key"),
    pytest.param(json.dumps({"version": 1, "assets": [{"name": HOSTILE}]}),
                 "$.assets[0]", "missing required key 'kind'", id="missing-key"),
    pytest.param(json.dumps({"version": 1, "assets": [{"name": "A", "kind": HOSTILE}]}),
                 "$.assets[0].kind",
                 f"invalid asset kind {QUOTED}, expected one of: information, people, system",
                 id="asset-kind"),
    pytest.param(json.dumps({"version": 1, "associations": [
                     {"source": "A", "target": "B", "sourceMultiplicity": HOSTILE}]}),
                 "$.associations[0].sourceMultiplicity",
                 f"invalid multiplicity {QUOTED}, expected one of: '1', '0..1', '1..*', '*'",
                 id="multiplicity"),
    pytest.param(json.dumps({"version": 1, "assets": [
                     {**SYSTEM, "extraProperties": {HOSTILE: "bogus"}}]}),
                 f"$.assets[0].extraProperties.{SHOWN}",
                 "invalid security level 'bogus', expected one of: high, low, medium, none",
                 id="extra-property"),
    # json's own text names no document string; its backslash is printed as is.
    pytest.param('{"version": 1, "a\\q": 1}', "line 1, column 18", "Invalid \\escape",
                 id="json-message"),
]


class TestOneLinePerDiagnostic:
    """Names reach diagnostics as written; a backslash or non-printable character is escaped."""

    @staticmethod
    def _write(tmp_path, document) -> str:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_unknown_key_with_a_newline(self, capsys, tmp_path):
        path = self._write(tmp_path, {"version": 1, "bogus\nkey": 1})
        code, out, err = run(capsys, "check", path)
        assert code == 2
        assert out == ""
        assert err == "error: $.bogus\\nkey: unknown key 'bogus\\nkey'\n"

    @pytest.mark.parametrize("document, code, where, message", _FINDINGS,
                             ids=[case[1] for case in _FINDINGS])
    def test_finding_escapes_each_name_once(self, capsys, tmp_path,
                                            document, code, where, message):
        model, graph = parse_model(json.dumps({"version": 1, **document}), check=False)
        findings = check_structure(model) + check_goal_structure(graph, model)
        assert [(f.code, f.where, f.message) for f in findings] == [(code, where, message)]
        assert str(findings[0]) == f"{code}: {message}"
        path = self._write(tmp_path, {"version": 1, **document})
        if findings[0].severity == "warning":
            assert run(capsys, "check", path) == (0, "", f"warning: {code}: {message}\n")
            assert run(capsys, "validate", path)[0] == 0
        else:
            assert run(capsys, "check", path) == (2, "", f"{code}: {message}\n")
            assert run(capsys, "validate", path) == (
                2, "", f"error: {where}: 1 structural error(s), first: {code}: {message}\n")

    @pytest.mark.parametrize("text, location, reason", _PARSE_ERRORS)
    def test_parse_error_escapes_each_name_once(self, capsys, tmp_path,
                                                text, location, reason):
        with pytest.raises(ParseError) as info:
            parse_model(text)
        assert (info.value.location, info.value.reason) == (location, reason)
        assert str(info.value) == f"{location}: {reason}"
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        for command in ("check", "validate"):
            assert run(capsys, command, str(path)) == (2, "", f"error: {location}: {reason}\n")

    def test_trace_limit_escapes_the_requirement_once(self):
        # Fourteen stacked diamonds above the requirement: 2**14 paths.
        tops = [f"T{i}" for i in range(14)] + [HOSTILE]
        graph = GoalGraph(refinements=tuple(
            Refinement(*edge) for i in range(14) for side in (f"L{i}", f"R{i}")
            for edge in ((tops[i], side), (side, tops[i + 1]))))
        statement = PolicyStatement(HOSTILE, "A", AccessNeed.READ, "B", Permission.ALLOW)
        with pytest.raises(ValueError) as info:
            trace(graph, statement)
        assert str(info.value) == f"more than 10000 refinement paths from requirement {QUOTED}"

    def test_unknown_fixture_name_is_escaped_once(self, capsys):
        assert run(capsys, "fixture", "--name", HOSTILE) == (
            2, "", f"error: unknown fixture {QUOTED}, expected one of: pyramid, works-diary\n")

    def test_forged_cycle_finding(self, capsys, tmp_path):
        path = self._write(tmp_path, {
            "version": 1,
            "goals": [{"name": "G\nerror: forged", "kind": "goal"},
                      {"name": "H", "kind": "goal"}],
            "refinements": [{"parent": "G\nerror: forged", "child": "H"},
                            {"parent": "H", "child": "G\nerror: forged"}],
        })
        cycle = ("CyclicRefinement: refinement cycle: "
                 "G\\nerror: forged -> H -> G\\nerror: forged")
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err == cycle + "\n"
        code, out, err = run(capsys, "validate", path)
        assert code == 2
        assert out == ""
        assert err == f"error: G\\nerror: forged: 1 structural error(s), first: {cycle}\n"

    def test_inheritance_cycle_with_control_characters(self, capsys, tmp_path):
        path = self._write(tmp_path, {"version": 1, "assets": [
            {"name": "A\r\u001b[2K\u2028", "kind": "system", "parent": "B"},
            {"name": "B", "kind": "system", "parent": "A\r\u001b[2K\u2028"}]})
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err == ("CyclicInheritance: inheritance cycle: "
                       "A\\r\\x1b[2K\\u2028 -> B -> A\\r\\x1b[2K\\u2028\n")

    def test_report_warning_cannot_forge_summary_rows(self, capsys, tmp_path):
        name = "Mission Data\nSimple Security Property  N\n*-Property  N"
        path = self._write(tmp_path, {
            "version": 1,
            "assets": [{"name": name, "kind": "information"},
                       {"name": "Log", "kind": "information"}],
            "associations": [{"source": name, "target": "Log", "sourceNeeds": ["read"]}],
        })
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1 + 1 + 5
        assert lines[0] == ("undefined_access: Mission Data\\nSimple Security Property  N"
                            "\\n*-Property  N --read--> Log")

    @pytest.mark.parametrize("subject, resource, line", [
        ("Back\\slash", "Log", "undefined_access: Back\\\\slash --read--> Log"),
        ("Zed", "Log\a", "undefined_access: Zed --read--> Log\\x07"),
        # DEL is the one ASCII character above 0x1F that str.isprintable() rejects.
        ("Zed", "Log\x7f", "undefined_access: Zed --read--> Log\\x7f"),
        ("Tab\there", "Log", "undefined_access: Tab\\there --read--> Log"),
        ("Zed", "Log\xa0", "undefined_access: Zed --read--> Log\\xa0"),
        ("Zed", "Log\u2028", "undefined_access: Zed --read--> Log\\u2028"),
    ])
    def test_report_escapes_a_line_after_plain_ones(self, capsys, tmp_path,
                                                     subject, resource, line):
        path = self._write(tmp_path, {
            "version": 1,
            "assets": [{"name": name, "kind": "information"}
                       for name in ("Able", "Dog", subject, resource)],
            "associations": [{"source": "Able", "target": "Dog", "sourceNeeds": ["read"]},
                             {"source": subject, "target": resource, "sourceNeeds": ["read"]}],
        })
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        lines = out.splitlines()
        assert lines[:3] == ["undefined_access: Able --read--> Dog", line, ""]
        assert len(lines) == 2 + 1 + 5

    def test_backslash_is_told_from_an_escape(self, capsys, tmp_path):
        newline, backslash = "G\nH", "G\\nH"
        path = self._write(tmp_path, {
            "version": 1,
            "goals": [{"name": newline, "kind": "goal"},
                      {"name": backslash, "kind": "goal"}],
            "refinements": [{"parent": newline, "child": newline},
                            {"parent": backslash, "child": backslash}],
        })
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert err == ("CyclicRefinement: refinement cycle: G\\nH -> G\\nH\n"
                       "CyclicRefinement: refinement cycle: G\\\\nH -> G\\\\nH\n")

    def test_printable_names_pass_unchanged(self, capsys, tmp_path):
        path = self._write(tmp_path, {
            "version": 1,
            "assets": [{"name": "Café", "kind": "information"},
                       {"name": "Menu", "kind": "information"}],
            "associations": [{"source": "Café", "target": "Menu", "sourceNeeds": ["read"]}],
            "goals": [{"name": "Crème", "kind": "requirement"}],
        })
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert out.splitlines()[0] == "undefined_access: Café --read--> Menu"
        code, _, err = run(capsys, "check", path)
        assert code == 0
        assert err == ("warning: RequirementWithoutPolicy: requirement 'Crème' "
                       "owns no policy statement\n")


def test_unknown_flag_is_a_usage_error(capsys, pyramid_path):
    with pytest.raises(SystemExit) as info:
        main(["validate", pyramid_path, "--frobnicate"])
    assert info.value.code == 2


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize("document", ["pyramid", "works-diary", "chain"])
def test_output_bytes_do_not_depend_on_the_process(tmp_path, data_dir, document):
    """Enum members hash by identity, so need sets iterate in an order that moves
    with memory layout; the hash seed and the allocator move it between processes."""
    if document == "chain":
        path = str(data_dir / "chain.json")
    else:
        path = str(tmp_path / f"{document}.json")
        pathlib.Path(path).write_text(fixture_text(document), encoding="utf-8")
    src = str(pathlib.Path(accesslint.__file__).parent.parent)
    commands = (["validate"], ["validate", "--format", "json"],
                ["validate", "--expand-inheritance"],
                ["export", "--view", "asset"], ["export", "--view", "goal"])
    first, second = (
        [subprocess.run([sys.executable, "-m", "accesslint.cli", *command, path],
                        capture_output=True, env=dict(os.environ, PYTHONPATH=src, **env),
                        check=False)
         for command in commands]
        for env in ({"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "1", "PYTHONMALLOC": "malloc"}))
    for one, other in zip(first, second):
        assert one.stdout and one.stdout == other.stdout
        assert one.stderr == other.stderr == b""
        assert one.returncode == other.returncode
