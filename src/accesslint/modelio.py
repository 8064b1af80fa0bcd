"""Model document format: strict parsing, canonical serialization, reports.

A model document is UTF-8 JSON with top-level keys
{version, assets, associations, goals, refinements, policy, matrixOverride}.
The parser is deliberately strict: unknown and repeated keys anywhere are
hard errors with the offending path named, because a silently ignored typo
in a security model is worse than a parse failure.  The per-record schema,
_RECORDS, is read in one C pass per key; a count proves the values taken are
all of a section's members; at a fault the list is halved, and each failing
half again, down to the first bad record, whose first fault is named.  A key is
required where its record class gives the field no default.  A schema fault
is located by its path below $, as in $.assets[2].kind.

A document is decoded once, by json.loads without a hook, and read; then a
count proves that no key repeated.  Each colon outside a string separates one
member.  So the text's colons, less the members of the root, the records and
the extraProperties maps (once read, its only objects), are the members that
a repeat dropped plus the colons inside strings.  None was dropped when that
surplus is the colons of the free-text strings, the only ones a read accepts
with a colon, less the \\u003a escapes, each a colon decoded that the text
does not count.  Otherwise, and at a fault, the text is decoded and read
again, _pairs marking each repeated key, to name the first fault.

Serialization is canonical, exactly json.dumps(document, indent=2,
sort_keys=True) plus a newline (non-ASCII escaped as \\uXXXX), so re-saving
a parsed document is byte-stable.  _RECORDS writes it too, one writer beside
each reader, so a new field is declared once for both read and write: each
section's value columns and the member texts between them are interleaved
in C for one join of the whole document.  Of a record's members, by sorted
key, the first that every record writes anchors the commas: those before
it end with one and those after it begin with one.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import MISSING, fields as class_fields
from functools import partial
from itertools import chain, islice, permutations, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, is_not, itemgetter
from typing import Any, NamedTuple

from .goals import (
    Goal,
    GoalGraph,
    GoalKind,
    Permission,
    PolicyStatement,
    Refinement,
    check_goal_structure,
)
from .model import (
    AccessNeed,
    Asset,
    AssetKind,
    AssetModel,
    Association,
    ModelError,
    MULTIPLICITIES,
    NEED_ORDER,
    SecurityValue,
    acyclic,
    check_structure,
    default_matrix,
    printable,
    quote,
)
from .validation import _MESSAGE_PREFIX, RULE_RESULTS, TEXT, ValidationReport

DOCUMENT_VERSION = 1

_LEVEL_NAMES = {level.name.lower(): level for level in SecurityValue}
_KIND_NAMES = {kind.value: kind for kind in AssetKind}
_NEED_NAMES = {need.value: need for need in AccessNeed}
_GOAL_KIND_NAMES = {kind.value: kind for kind in GoalKind}
_PERMISSION_NAMES = {perm.value: perm for perm in Permission}


class ParseError(Exception):
    """A document could not be turned into a model.

    location is a document path ("$.assets[2].kind"), a line reference
    ("line 4, column 7") or a byte ("byte 12"); every failure carries one.
    """

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


class DocumentSyntaxError(ParseError):
    """The input is not well-formed JSON (or not UTF-8)."""


class SchemaError(ParseError):
    """The JSON is well-formed but violates the document schema."""


class SemanticError(ParseError):
    """The document parsed but fails structural validation."""

    def __init__(self, errors: list[ModelError]):
        self.errors = errors
        first = errors[0]
        super().__init__(first.where, f"{len(errors)} structural error(s), first: {first}")


class _Bad(Exception):
    """A value failed the schema; suffix is its path below what was read, in the end below $."""

    def __init__(self, suffix: str, reason: str):
        self.suffix = suffix
        self.reason = reason


# _pairs stores an object's first repeated key under this key, which no JSON
# text can spell; the reader of the object reports it before any other fault.
_REPEATED = object()


def _pairs(pairs: list[tuple[str, Any]]) -> dict:
    """json's object_pairs_hook: a dict, marked under _REPEATED if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                obj[_REPEATED] = key
                break
            seen.add(key)
    return obj


def _repeated(obj: dict) -> None:
    if _REPEATED in obj:
        key = obj[_REPEATED]
        raise _Bad(f".{printable(key)}", f"duplicate key {quote(key)}")


# Readers take one field's values, from one record or a whole section, and
# return them read; at a bad value they raise _Bad, exact for a lone value.
_EXPECTED = {str: "expected a string, got {}", list: "expected a list, got {}",
             dict: "expected an object, got {}", bool: "expected a boolean"}


def _typed(values: list, kind: type) -> list:
    for value in values:
        if type(value) is not kind:
            raise _Bad("", _EXPECTED[kind].format(type(value).__name__))
    return values


def _object_keys(obj: Any, keys: frozenset[str]) -> None:
    _typed([obj], dict)
    if not keys.issuperset(obj):
        _repeated(obj)
        key = next(key for key in obj if key not in keys)
        raise _Bad(f".{printable(key)}", f"unknown key {quote(key)}")


_strings, _booleans = partial(_typed, kind=str), partial(_typed, kind=bool)


def _names(values: list) -> list:
    if not all(_strings(values)):
        raise _Bad("", "asset name must be nonempty")
    return values


def _choice(table: dict, what: str, expected: str | None = None):
    """Reader for strings that must be keys of table, and its writer's table."""
    expected = expected or ", ".join(sorted(table))

    def read(values: list) -> list:
        try:
            return list(map(table.__getitem__, values))
        except (KeyError, TypeError):
            value = next(value for value in _strings(values) if value not in table)
            raise _Bad("", f"invalid {what} {quote(value)}, expected one of: {expected}") from None
    return read, {value: _quote(key) for key, value in table.items()}


_level, _level_text = _choice(_LEVEL_NAMES, "security level")
_asset_kind, _kind_text = _choice(_KIND_NAMES, "asset kind")
_need, _need_text = _choice(_NEED_NAMES, "access need")
_multiplicity, _multiplicity_text = _choice({m: m for m in MULTIPLICITIES}, "multiplicity",
                                            ", ".join(map(quote, MULTIPLICITIES)))


def _levels(values: list) -> list:
    for value in _typed(values, dict):
        _repeated(value)
        for prop, raw in value.items():
            try:
                _level([raw])
            except _Bad as bad:
                raise _Bad(f".{printable(prop)}", bad.reason) from None
    return [{prop: _LEVEL_NAMES[raw] for prop, raw in value.items()} for value in values]


# Each need list the reader accepts, in any order, as its set (a repeat is not a
# key); the writer lists a nonempty set in declaration order.
_NEED_SETS = {tuple(need.value for need in names): needs
              for needs, order in NEED_ORDER.items() for names in permutations(order)}
_NEED_LISTS = {needs: "[" + ",".join(f"\n        {_need_text[n]}" for n in order) + "\n      ]"
               for needs, order in NEED_ORDER.items() if order}


def _needs(values: list) -> list:
    try:
        return [_NEED_SETS[tuple(value)] for value in _typed(values, list)]
    except (KeyError, TypeError):
        for value in values:
            for i, item in enumerate(value):
                try:
                    _need([item])
                except _Bad as bad:
                    raise _Bad(f"[{i}]", bad.reason) from None
        raise _Bad("", "access needs listed more than once") from None


# Writers give a field's canonical JSON text at record depth (members six spaces in),
# as a function or a table of each value's text.
_json_bool = {False: "false", True: "true"}
# The ASCII bytes a text report writes as they stand: str.isprintable() holds for 0x20-0x7E.
_PLAIN_ASCII = bytes(range(0x20, 0x7F)).replace(b"\\", b"")
_ROW_HEADS = {(k, a): (f',\n    {{\n      "access": {_quote(TEXT[a])},\n      "kind": '
                       f'{_quote(TEXT[k])},\n      "message": {_quote(p + ": ")[:-1]}',
                       _quote(f" --{TEXT[a]}--> ")[1:-1])  # row texts to subject, then to resource
              for k, p in _MESSAGE_PREFIX.items() for a in AccessNeed}


def _object(members, indent: str) -> str:
    """A JSON object from (key, value text) pairs, keys sorted, closing at indent."""
    text = ",".join(f"\n{indent}  {_quote(key)}: {value}" for key, value in sorted(members))
    return f"{{{text}\n{indent}}}" if text else "{}"


def _level_map(levels: dict) -> str:
    return _object([(prop, _level_text[level]) for prop, level in levels.items()], "      ")


def _defaults(cls: type) -> dict[str, Any]:
    """Field -> default() of a NamedTuple or dataclass, in class order; MISSING if required."""
    if issubclass(cls, tuple):
        return {name: repeat(cls._field_defaults[name]).__next__
                if name in cls._field_defaults else MISSING for name in cls._fields}
    return {spec.name: spec.default_factory if spec.default is MISSING
            else repeat(spec.default).__next__ for spec in class_fields(cls)}


class _Override(NamedTuple):  # a matrixOverride entry: one matrix cell and its value
    subject: AssetKind
    resource: AssetKind
    allowed: bool


# The per-record schema: section -> (class, (json key, attribute, reader, writer)), its
# values read field by field in this order.  A key whose field has no class default is required.
_RECORDS = {
    "assets": (Asset, (
        ("name", "name", _names, _quote),
        ("kind", "kind", _asset_kind, _kind_text),
        ("confidentiality", "confidentiality", _level, _level_text),
        ("integrity", "integrity", _level, _level_text),
        ("extraProperties", "extra_properties", _levels, _level_map),
        ("parent", "parent", _strings, _quote))),
    "associations": (Association, (
        ("sourceMultiplicity", "source_multiplicity", _multiplicity, _multiplicity_text),
        ("targetMultiplicity", "target_multiplicity", _multiplicity, _multiplicity_text),
        ("source", "source", _strings, _quote),
        ("target", "target", _strings, _quote),
        ("sourceNeeds", "source_needs", _needs, _NEED_LISTS),
        ("targetNeeds", "target_needs", _needs, _NEED_LISTS))),
    "goals": (Goal, (
        ("definition", "definition", _strings, _quote),
        ("name", "name", _strings, _quote),
        ("kind", "kind", *_choice(_GOAL_KIND_NAMES, "goal kind")))),
    "refinements": (Refinement, (
        ("parent", "parent", _strings, _quote),
        ("child", "child", _strings, _quote))),
    "policy": (PolicyStatement, (
        ("requirement", "requirement", _strings, _quote),
        ("subject", "subject", _strings, _quote),
        ("access", "access", _need, _need_text),
        ("resource", "resource", _strings, _quote),
        ("permission", "permission", *_choice(_PERMISSION_NAMES, "permission")))),
    "matrixOverride": (_Override, (
        ("subject", "subject", _asset_kind, _kind_text),
        ("resource", "resource", _asset_kind, _kind_text),
        ("allowed", "allowed", _booleans, _json_bool))),
}
_TOP_KEYS = frozenset(("version", *_RECORDS))
_CONTAINERS = {list: "(a list)", dict: "(an object)"}
_RECORD_KEYS = {section: frozenset(key for key, *_ in fields)
                for section, (_, fields) in _RECORDS.items()}
# Sections by column: (json key, default() or MISSING if required, slot setter) in class order.
_COLUMNS = {section: [(key, default, vars(cls)[name].__set__)  # frozen guards __setattr__ only
                      for name, default in _defaults(cls).items()
                      for key, attribute, *_ in fields if attribute == name]
            for section, (cls, fields) in _RECORDS.items()}
# Sections as a record's texts: (constant, None) or (column writer, attribute getter).  A member
# omitted at its class default, unless a table writes that, is one column of whole texts or "".
def _layout(section: str, fields: tuple) -> tuple:
    defaults, layout, comma = {k: d for k, d, _ in _COLUMNS[section]}, [(",\n    {", None)], ""
    for key, attribute, _, write in sorted(fields):
        table, get, default = type(write) is dict, attrgetter(attribute), defaults[key]
        text, lead = write.__getitem__ if table else write, f"{comma}\n      {_quote(key)}: "
        if default is not MISSING and default() not in (write if table else ()):
            member = partial(_member, lead, "," * (not comma), text, default())
            layout.append(({value: member(value) for value in (default(), *write)}.__getitem__
                           if table else member, get))
        else:  # the anchor, the first member every record writes, or a member after it
            layout += [(lead, None), (text, get)]
            comma = ","
    return (*layout, ("\n    }", None))


def _member(lead: str, trail: str, text, default, value) -> str:
    """A member's whole text, or "" where value is the default at which it is omitted."""
    return "" if value == default else lead + text(value) + trail


_LAYOUTS = {section: _layout(section, fields) for section, (_, fields) in _RECORDS.items()}


def _read(items: list, section: str):
    """The records of a list, read and built a column at a time; at a fault, _Bad.

    For a one-record list the fault is exact, the first of: the record's keys,
    then its required keys in class order, then its values in _RECORDS order.
    A longer list whose member count is off raises at once, naming nothing.
    """
    cls, fields = _RECORDS[section]
    columns, raw = {}, {}  # json key -> the values present / each record's, MISSING if it omits it
    try:  # a record that is no object fails len, itemgetter or dict.get
        members = sum(map(len, items))
        for key, default, _ in _COLUMNS[section]:
            if default is MISSING:
                columns[key] = [*map(itemgetter(key), items)]  # a KeyError if one omits it
            else:
                raw[key] = [*map(dict.get, items, repeat(key), repeat(MISSING))]
                columns[key] = [*filter(partial(is_not, MISSING), raw[key])]
    except (KeyError, TypeError):
        members = None
    if members != sum(map(len, columns.values())):  # a record holds another key, or a fault raised
        if len(items) > 1:
            raise _Bad("", "")  # _records halves the list down to the bad record
        _object_keys(items[0], _RECORD_KEYS[section])
        for key, default, _ in _COLUMNS[section]:
            if default is MISSING and key not in items[0]:
                raise _Bad("", f"missing required key {quote(key)}")
    try:
        for key, _, read, _ in fields:
            columns[key] = read(columns[key])
    except _Bad as bad:
        raise _Bad(f".{key}{bad.suffix}", bad.reason) from None
    for key, default, _ in _COLUMNS[section]:
        if len(columns[key]) < len(items):  # one pass: a default where a record omits the key
            values = iter(columns[key])
            columns[key] = [default() if value is MISSING else next(values) for value in raw[key]]
    if issubclass(cls, tuple):
        return map(partial(tuple.__new__, cls), zip(*columns.values()))  # a NamedTuple, in C
    records = [*map(object.__new__, repeat(cls, len(items)))]  # a slotted dataclass, set in C
    for key, _, setter in _COLUMNS[section]:
        deque(map(setter, records, columns[key]), 0)
    return records


def _records(items: Any, section: str, start: int = 0):
    """The records of a section's list, its first being record start; at a fault, _Bad at
    the first bad record, found by halving: a failing list's left half is read, then its
    right half once the records before are taken, as _read_root checks the overrides."""
    if type(items) is not list:
        raise _Bad(f".{section}", f"expected a list, got {type(items).__name__}")
    try:
        return _read(items, section)
    except _Bad as bad:
        if len(items) == 1:
            raise _Bad(f".{section}[{start}]{bad.suffix}", bad.reason) from None
    half = len(items) // 2
    return chain(_records(items[:half], section, start), chain.from_iterable(
        map(_records, [items[half:]], [section], [start + half])))


def _read_root(root: Any) -> tuple[AssetModel, GoalGraph]:
    """The model and goal graph of a decoded document; at the first fault, _Bad."""
    _object_keys(root, _TOP_KEYS)
    if "version" not in root:
        raise _Bad(".version", "missing required key 'version'")
    version = root["version"]
    if type(version) is not int or version != DOCUMENT_VERSION:
        # A list or an object is named, not shown: it may be large, or hold _REPEATED.
        shown = _CONTAINERS.get(type(version)) or repr(version)
        raise _Bad(".version", f"unsupported document version {shown}, "
                               f"expected {DOCUMENT_VERSION}")
    assets = tuple(_records(root.get("assets", []), "assets"))
    associations = tuple(_records(root.get("associations", []), "associations"))
    goals = tuple(_records(root.get("goals", []), "goals"))
    refinements = tuple(_records(root.get("refinements", []), "refinements"))
    policy = tuple(_records(root.get("policy", []), "policy"))
    overrides, cells = {}, _records(root.get("matrixOverride", []), "matrixOverride")
    for i, (subject, resource, allowed) in enumerate(cells):
        if (subject, resource) in overrides:
            raise _Bad(f".matrixOverride[{i}]",
                       f"duplicate override for ({subject.value}, {resource.value})")
        overrides[subject, resource] = allowed
    return (AssetModel(assets=assets, associations=associations,
                       matrix={**default_matrix(), **overrides}),
            GoalGraph(nodes=goals, refinements=refinements, policy=policy))


# (section, key) of each free-text string; the read accepts no other string with a colon.
_FREE_TEXT = [(section, key) for section, (_, fields) in _RECORDS.items()
              for key, _, read, _ in fields if read in (_strings, _names)]
# A \u003a or \u003A escape: its u follows an odd run of backslashes.
_COLON_ESCAPE = re.compile(r"(?<!\\)(?:\\\\)*\\u003[aA]")


def _kept_every_member(document: str, root: dict) -> bool:
    """Whether json.loads kept every member of a document _read_root accepted.

    The colons beyond the members decoded must be the free-text ones, less
    those the text spells as \\u003a escapes, which it does not count.
    """
    extras = [*map(dict.get, root.get("assets", ()), repeat("extraProperties"), repeat({}))]
    records = chain.from_iterable(map(root.get, _RECORDS, repeat(())))
    surplus = document.count(":") - len(root) - sum(map(len, chain(records, extras)))
    if not surplus:
        return True
    texts = chain(*extras, *(map(dict.get, root.get(section, ()), repeat(key), repeat(""))
                             for section, key in _FREE_TEXT))
    escapes = len(_COLON_ESCAPE.findall(document)) if "\\u003" in document else 0
    return surplus == "".join(texts).count(":") - escapes


# One escape sequence: a surrogate pair, an unpaired half (group 1), or any other.
_ESCAPE = re.compile(r"\\(?:u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
                     r"|(u[dD][89a-fA-F][0-9a-fA-F]{2})|.)")


def _reject_unpaired_surrogates(document: str) -> None:
    """Raise at the first \\uXXXX escape of half a surrogate pair.

    json.loads lets one through as a lone surrogate, which has no UTF-8
    encoding.  json.loads has also accepted the document, so every
    backslash in it starts an escape inside a string.
    """
    for match in _ESCAPE.finditer(document):
        if match[1]:
            raise json.JSONDecodeError(f"unpaired surrogate escape \\{match[1]}",
                                       document, match.start())


@acyclic
def parse_model(document: bytes | str, *, check: bool = True) -> tuple[AssetModel, GoalGraph]:
    """Parse a model document into an asset model and goal graph.

    With check=True (the default) the structural checks run as part of
    parsing and any error-severity finding raises SemanticError; a
    successfully returned pair therefore satisfies every invariant, and its
    model is recorded sound, so expansion and validation do not check again.
    Pass check=False to obtain the raw structures and run the checks
    yourself (the CLI's check command does this to report all findings).
    """
    try:  # a fault at a place in the text is a JSONDecodeError, for its line and column
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        elif not document.isascii():
            try:  # a raw surrogate, which only a str can hold, has no UTF-8 encoding
                document.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise json.JSONDecodeError(f"unpaired surrogate U+{ord(document[exc.start]):04X}",
                                           document, exc.start) from None
        root = json.loads(document)
        # Most documents hold no backslash, and a one-character test is far
        # cheaper than a longer one.
        if "\\" in document and ("\\ud" in document or "\\uD" in document):
            _reject_unpaired_surrogates(document)
    except UnicodeDecodeError as exc:
        raise DocumentSyntaxError(f"byte {exc.start}", "document is not valid UTF-8") from exc
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"line {exc.lineno}, column {exc.colno}", exc.msg) from exc
    except ValueError as exc:  # an int literal past the interpreter's digit limit
        raise DocumentSyntaxError("$", "integer literal is too long") from exc
    except RecursionError as exc:
        raise DocumentSyntaxError("$", "document is nested too deeply") from exc

    try:
        model, graph = _read_root(root)
        kept = _kept_every_member(document, root)
    except _Bad:
        kept = False
    if not kept:  # decode again, marking repeated keys, and read again to name the first fault
        try:
            model, graph = _read_root(json.loads(document, object_pairs_hook=_pairs))
        except _Bad as bad:
            raise SchemaError("$" + bad.suffix, bad.reason) from None

    if check:
        findings = check_structure(model) + check_goal_structure(graph, model)
        errors = [f for f in findings if f.severity == "error"]
        if errors:
            raise SemanticError(errors)
        vars(model)["_fault"] = None

    return model, graph


def serialize_model(model: AssetModel, graph: GoalGraph) -> str:
    """Render a model and goal graph as canonical document text.

    parse_model(serialize_model(m, g)) is structurally identical to
    (m, g); serializing what parse_model returned reproduces the
    canonical bytes exactly.
    """
    sections = {
        "assets": model.assets, "associations": model.associations,
        "goals": graph.nodes, "refinements": graph.refinements, "policy": graph.policy,
        "matrixOverride": [
            _Override(*cell, model.matrix[cell]) for cell, default in default_matrix().items()
            if model.matrix[cell] != default
        ],
    }
    texts = ["{"]  # "version", written always, sorts last: the members before it end with ","
    for section, records in sorted(sections.items()):
        if records:  # the records' constants and value columns; the first opens with no comma
            columns = [repeat(text) if get is None else map(text, map(get, records))
                       for text, get in _LAYOUTS[section]]
            texts += (f"\n  {_quote(section)}: [\n    {{",
                      *islice(chain.from_iterable(zip(*columns)), 1, None), "\n  ],")
    return "".join([*texts, f'\n  "version": {DOCUMENT_VERSION}\n}}\n'])


def render_report(report: ValidationReport, format: str = "text") -> str:
    """Render a validation report as human-readable text or as JSON.

    The text form lists one warning per line followed by a five-row
    security-rule summary with Y/N flags, read from the set of kinds; the
    JSON form carries the warnings, per-kind counts, and rule flags, and
    counts the summary once.  Both write each warning from its kind and
    triple alone.  Text that one C pass finds to be plain ASCII, printable
    and without a backslash, is written as it stands; else each line goes
    through printable.
    """
    if format == "json":
        counts = report.summary
        # An AccessWarning's members by sorted key, each name quoted once, after a comma.
        rows = [f'{head}{s}{arrow}{r}",\n      "resource": "{r}",\n      "subject": "{s}"\n    }}'
                for kind, (subject, access, resource) in report.warnings for (head, arrow), s, r
                in [(_ROW_HEADS[kind, access], _quote(subject)[1:-1], _quote(resource)[1:-1])]]
        if rows:  # the first row has no row before it
            rows[0] = rows[0][1:]
        return "".join([
            '{\n  "ruleResults": ',
            _object([(key, _json_bool[counts[kind] > 0]) for key, _, kind in RULE_RESULTS], "  "),
            ',\n  "summary": ',
            _object([(TEXT[kind], str(n)) for kind, n in counts.items()], "  "),
            ',\n  "warnings": [', *rows, "\n  ]\n}\n" if rows else "]\n}\n"])
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")

    # Each line is f"{kind}: {triple}", with AccessTriple.__str__ spelled out.
    lines = [f"{TEXT[kind]}: {subject} --{TEXT[access]}--> {resource}"
             for kind, (subject, access, resource) in report.warnings]
    joined = "".join(lines)
    if (joined.encode().translate(None, _PLAIN_ASCII) if joined.isascii()
            else not joined.isprintable() or "\\" in joined):
        lines = list(map(printable, lines))
    if lines:
        lines.append("")
    kinds = {*map(itemgetter(0), report.warnings)}
    width = max(len(label) for _, label, _ in RULE_RESULTS)
    for _, label, kind in RULE_RESULTS:
        lines.append(f"{label:<{width}} {'Y' if kind in kinds else 'N'}")
    lines.append("")
    return "\n".join(lines)
