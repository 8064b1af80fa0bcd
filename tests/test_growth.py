"""No public stage does more Python-level work per unit than the document grows.

Each stage runs on generated documents at sizes n, 2n, 4n and 8n (see
documents.py) under sys.settrace, which counts the line events executed in
accesslint's own source.  Each stage's unit of work is an item of what it is
given: a document byte for parse_model and serialize_model, a record for the
structure checks and the DOT views, a record or gained triple for
expand_hierarchy, a triple or warning for validate_access on the parsed
model, a triple for validate_access on the expanded model, which carries
its triples, a warning (or the rule summary) for the renders, and a path
node returned (or the call) for trace, which traces every policy statement.
Inheritance can make the triples grow as the square of the document, so a
unit shared by all stages would rise for a linear stage as the mix shifts.
A stage whose events per unit grow by more than GROWTH from n to 8n has a
loop that is superlinear in its input.

The count is deterministic, so the test does not depend on the host's speed.
It sees only Python lines: work done inside one C call, such as a list.index
or an `in` test on a list inside a loop, is not counted, and a loop hidden
that way stays invisible here; tests/growth_cpu.py times the same stages in
CPU time to see it.  trace is not run on the diamonds shape, whose
path count is exponential by design and passes MAX_TRACE_PATHS already at
n = 40.

A second test spoils the last record of each shape's largest section, so
that parse_model must locate the fault; its unit is a document byte too.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

import accesslint
from accesslint import (
    check_goal_structure,
    check_structure,
    expand_hierarchy,
    expand_needs,
    export_dot,
    parse_model,
    render_report,
    serialize_model,
    trace,
    validate_access,
)
from accesslint.modelio import SchemaError

import documents

SOURCE = str(pathlib.Path(accesslint.__file__).parent)
# The most events per unit may grow from n to 8n: a stage quadratic in its
# input grows by about 8 there, a linear one by about 1.
GROWTH = 1.5
# Shapes whose refinement paths outgrow MAX_TRACE_PATHS, so trace is not run.
UNTRACED = {"diamonds"}


def _line_events(stage, *args, **kwargs) -> tuple[int, object]:
    """Line events executed in accesslint's source while stage runs, and its result."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SOURCE) else None

    before = sys.gettrace()
    sys.settrace(call)
    try:
        result = stage(*args, **kwargs)
    finally:
        sys.settrace(before)
    return count, result


def _trace_all(graph) -> list[list[list[str]]]:
    """trace's paths for every policy statement, in policy order."""
    return [trace(graph, statement) for statement in graph.policy]


def _per_unit(text: str, traced: bool, measure=_line_events) -> dict[str, float]:
    """Each stage's cost on one document, as measure gives it (line events unless
    told otherwise), per unit of the work it was given."""
    events = {}
    events["parse_model"], (model, graph) = measure(parse_model, text, check=False)
    events["check_structure"], _ = measure(check_structure, model)
    events["check_goal_structure"], _ = measure(check_goal_structure, graph, model)
    # Sound, and now recorded so, as parse_model's check records it: the stages
    # below do not pay check_structure again.
    assert model._fault is None
    events["expand_hierarchy"], expanded = measure(expand_hierarchy, model)
    events["validate_access"], plain = measure(validate_access, model, graph)
    events["validate_access carried"], report = measure(validate_access, expanded, graph)
    events["render_report text"], _ = measure(render_report, report, "text")
    events["render_report json"], _ = measure(render_report, report, "json")
    events["serialize_model"], _ = measure(serialize_model, model, graph)
    events["export_dot asset"], _ = measure(export_dot, model, graph, "asset")
    events["export_dot goal"], _ = measure(export_dot, model, graph, "goal")
    if traced:
        events["trace"], traces = measure(_trace_all, graph)
    size = len(text.encode("utf-8"))
    records = sum(map(len, (model.assets, model.associations, graph.nodes,
                            graph.refinements, graph.policy)))
    triples = len(expand_needs(expanded))
    gained = triples - len(expand_needs(model))
    warnings = len(report.warnings)
    units = {
        "parse_model": size, "serialize_model": size,
        "check_structure": records, "check_goal_structure": records,
        "export_dot asset": records, "export_dot goal": records,
        "expand_hierarchy": records + gained,
        "validate_access": len(expand_needs(model)) + len(plain.warnings),
        "validate_access carried": triples,
        # A report's rule summary is one unit, each warning another.
        "render_report text": 1 + warnings, "render_report json": 1 + warnings,
    }
    if traced:  # each path node returned is one unit, each call another
        units["trace"] = len(traces) + sum(len(path) for paths in traces for path in paths)
    return {stage: count / units[stage] for stage, count in events.items()}


@pytest.mark.parametrize("shape", documents.SHAPES)
def test_events_per_unit_of_work_stay_flat(shape):
    build, n = documents.SHAPES[shape]
    per_unit = {}  # stage -> events per unit at n, 2n, 4n, 8n
    for size in (n, 2 * n, 4 * n, 8 * n):
        for stage, ratio in _per_unit(json.dumps(build(size)), shape not in UNTRACED).items():
            per_unit.setdefault(stage, []).append(ratio)
    grown = {stage: ratios for stage, ratios in per_unit.items()
             if max(ratios) > GROWTH * ratios[0]}
    assert not grown, {stage: [round(r, 4) for r in ratios] for stage, ratios in grown.items()}


def _schema_error(text: str) -> SchemaError:
    try:
        parse_model(text, check=False)
    except SchemaError as error:
        return error
    raise AssertionError("the document parsed")


@pytest.mark.parametrize("shape", documents.SHAPES)
def test_locating_a_fault_in_the_last_record_stays_flat(shape):
    """parse_model names a fault in the last record with work linear in the document."""
    build, n = documents.SHAPES[shape]
    per_byte = []
    for size in (n, 2 * n, 4 * n, 8 * n):
        document = build(size)
        section = max((key for key, value in document.items() if type(value) is list),
                      key=lambda key: len(document[key]))
        last = document[section][-1]  # records may be shared: spoil a copy
        document[section][-1] = {**last, next(iter(last)): 7}  # each opens with a string
        text = json.dumps(document)
        count, error = _line_events(_schema_error, text)
        assert error.location.startswith(f"$.{section}[{len(document[section]) - 1}].")
        per_byte.append(count / len(text.encode("utf-8")))
    assert max(per_byte) <= GROWTH * per_byte[0], [round(r, 4) for r in per_byte]
