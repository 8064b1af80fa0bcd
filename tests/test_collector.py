"""The bulk builders run with the cyclic garbage collector paused, and restore it."""

import gc
import inspect
import json

import pytest

from accesslint.model import Asset, AssetKind, AssetModel, Association
from accesslint.modelio import SchemaError, SemanticError, parse_model
from accesslint.validation import expand_hierarchy, validate_access

import documents

WIDE = json.dumps(documents.wide(400))
BUILDERS = pytest.mark.parametrize("fn", [parse_model, expand_hierarchy, validate_access],
                                   ids=lambda fn: fn.__name__)
# Two assets of one name: check_structure finds a DuplicateAssetName.
UNSOUND = AssetModel(assets=(Asset("A", AssetKind.SYSTEM), Asset("A", AssetKind.SYSTEM)),
                     associations=(Association("A", "B"),))
FAULTS = {
    "parse_model-schema": (lambda: parse_model('{"version": 2}'), SchemaError),
    "parse_model-semantic": (lambda: parse_model(json.dumps(
        {"version": 1, "assets": [{"name": "A", "kind": "system"}] * 2})), SemanticError),
    "expand_hierarchy": (lambda: expand_hierarchy(UNSOUND), ValueError),
    "validate_access": (lambda: validate_access(UNSOUND, parse_model(WIDE)[1]), ValueError),
}


def _arguments(fn) -> tuple:
    """fn's arguments for the wide(400) document, parsed afresh."""
    if fn is parse_model:
        return (WIDE,)
    model, graph = parse_model(WIDE)
    return (model,) if fn is expand_hierarchy else (model, graph)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector's state before each call; restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@BUILDERS
def test_collector_state_survives_a_return(collector, fn):
    fn(*_arguments(fn))
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name", FAULTS)
def test_collector_state_survives_a_raise(collector, name):
    call, error = FAULTS[name]
    with pytest.raises(error):
        call()
    assert gc.isenabled() is collector


def _collections(call, *args) -> int:
    """How many collections call(*args) starts, the collector on and just emptied."""
    starts, was = [], gc.isenabled()

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        call(*args)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    return len(starts)


@BUILDERS
def test_bulk_builders_start_no_collection(fn):
    arguments = _arguments(fn)
    assert _collections(fn, *arguments) == 0
    # The same protocol sees the collections the undecorated builder starts.
    assert _collections(fn.__wrapped__, *arguments) > 0


@pytest.mark.parametrize("fn, parameters, doc", [
    (parse_model, ["document", "check"], "Parse a model document"),
    (expand_hierarchy, ["model"], "Copy each ancestor's subject-side needs"),
    (validate_access, ["model", "graph"], "Resolve every expanded need"),
])
def test_pause_keeps_name_signature_and_doc(fn, parameters, doc):
    assert fn.__name__ == fn.__wrapped__.__name__ != "call"
    assert list(inspect.signature(fn).parameters) == parameters
    assert fn.__doc__ == fn.__wrapped__.__doc__ and fn.__doc__.startswith(doc)
