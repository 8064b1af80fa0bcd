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

    def test_over_long_integer_literal_exits_two(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"version": ' + "1" * 5000 + "}", encoding="utf-8")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: $: integer literal is too long\n"

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
    assert err == "error: line 1, column 34: unpaired surrogate escape \\\\ud800\n"


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
        assert err == "error: $.bogus\\nkey: unknown key 'bogus\\\\nkey'\n"

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
