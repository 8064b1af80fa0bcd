"""Exit codes, stream separation, and the four subcommands."""

import json

import pytest

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

    def test_fixture_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, out, _ = run(capsys, "fixture", "--name", "works-diary",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text(encoding="utf-8") == fixture_text("works-diary")


def test_unknown_flag_is_a_usage_error(capsys, pyramid_path):
    with pytest.raises(SystemExit) as info:
        main(["validate", pyramid_path, "--frobnicate"])
    assert info.value.code == 2


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
