"""Command-line front end.

Four subcommands: validate (run the full access check and print a
report), check (structural checks only), export (DOT renderings), and
fixture (write a bundled example document).  Exit codes are stable for
pipeline use: 0 clean, 1 validation produced warnings, 2 the input
could not be processed.  Diagnostics go to stderr, one line each, as the
library built them, names already escaped; payloads go to stdout or --out.
"""

from __future__ import annotations

import argparse
import sys

from .dot import VIEWS, export_dot
from .fixtures import FIXTURE_NAMES, fixture_text
from .goals import check_goal_structure
from .model import check_structure, quote
from .modelio import ParseError, parse_model, render_report
from .validation import expand_hierarchy, validate_access

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_ERROR = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)


def _cmd_validate(args: argparse.Namespace) -> int:
    model, graph = parse_model(_read(args.model))
    if args.expand_inheritance:
        model = expand_hierarchy(model)
    report = validate_access(model, graph)
    _write(render_report(report, args.format), args.out)
    return EXIT_WARNINGS if report.warnings else EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    model, graph = parse_model(_read(args.model), check=False)
    findings = check_structure(model) + check_goal_structure(graph, model)
    failed = False
    for finding in findings:
        if finding.severity == "error":
            failed = True
            print(finding, file=sys.stderr)
        else:
            print(f"warning: {finding}", file=sys.stderr)
    return EXIT_ERROR if failed else EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    model, graph = parse_model(_read(args.model))
    _write(export_dot(model, graph, args.view), args.out)
    return EXIT_OK


def _cmd_fixture(args: argparse.Namespace) -> int:
    if args.name not in FIXTURE_NAMES:
        known = ", ".join(FIXTURE_NAMES)
        return _fail(f"unknown fixture {quote(args.name)}, expected one of: {known}")
    _write(fixture_text(args.name), args.out)
    return EXIT_OK


_parser = argparse.ArgumentParser(
    prog="accesslint",
    description="Validate access-control needs in early-design models.",
)
_commands = _parser.add_subparsers(dest="command", required=True)

_validate = _commands.add_parser(
    "validate", help="run the access validation check and print a report")
_validate.add_argument("model", help="path to a model document")
_validate.add_argument("--format", choices=("text", "json"), default="text")
_validate.add_argument(
    "--expand-inheritance", action="store_true",
    help="copy inherited access needs down parent chains before validating")
_validate.add_argument("--out", help="write the report here instead of stdout")
_validate.set_defaults(func=_cmd_validate)

_check = _commands.add_parser(
    "check", help="run structural checks only, one finding per line")
_check.add_argument("model", help="path to a model document")
_check.set_defaults(func=_cmd_check)

_export = _commands.add_parser("export", help="render a DOT view of the model")
_export.add_argument("model", help="path to a model document")
_export.add_argument("--view", choices=VIEWS, required=True)
_export.add_argument("--out", help="write the DOT here instead of stdout")
_export.set_defaults(func=_cmd_export)

_fixture = _commands.add_parser(
    "fixture", help="write a bundled example model document")
_fixture.add_argument("--name", required=True,
                      help="fixture name: " + ", ".join(FIXTURE_NAMES))
_fixture.add_argument("--out", help="write the document here instead of stdout")
_fixture.set_defaults(func=_cmd_fixture)


def main(argv: list[str] | None = None) -> int:
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError) as exc:
        return _fail(str(exc))
    except Exception as exc:  # a crash must not read as exit 1, "warnings"
        return _fail(f"internal error: {exc!r}")


if __name__ == "__main__":
    sys.exit(main())
