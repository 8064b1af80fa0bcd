"""expand_hierarchy's pairing in two passes over a dict, for cross-checking.

accesslint.validation places each gained (subject, resource) pair in one
pass over the subjects.  This keeps the two-pass form it replaced: every
gained pair goes into a dict in order of subject then resource
declaration; each association pops its two pairs, and each pair left
over pops its reverse and becomes one new association.  The entry map
of the needs each asset and its ancestors hold is accesslint's own, and
each asset gains its parent's entry, so tests compare the pairing alone.
"""

from __future__ import annotations

from dataclasses import replace

from accesslint.model import AssetModel, Association
from accesslint.validation import _HELD_NOTHING, _Needs, _association, _lineage_needs


def expand_hierarchy(model: AssetModel) -> AssetModel:
    """The model with each ancestor's subject-side needs copied to its descendants."""
    doc_order = {a.name: i for i, a in enumerate(model.assets)}

    subject_needs: dict[str, _Needs] = {}
    for source, target, source_needs, target_needs, _, _ in model.associations:
        for subject, resource, needs in ((source, target, source_needs),
                                         (target, source, target_needs)):
            if needs:
                by_resource = subject_needs.setdefault(subject, {})
                by_resource[resource] = by_resource.get(resource, frozenset()) | needs

    entries = _lineage_needs(model, subject_needs)
    # In order of subject then resource declaration, the order new associations take;
    # sorted here, so the order _lineage_needs hands out is checked, not trusted.
    gained = {(name, resource): held[resource]
              for name in doc_order
              for held in (entries.get(model.index[name].parent, _HELD_NOTHING).by_resource,)
              for resource in sorted(held, key=doc_order.__getitem__) if resource != name}

    associations: list[Association] = []
    for assoc in model.associations:
        extra_source = gained.pop((assoc.source, assoc.target), frozenset())
        extra_target = gained.pop((assoc.target, assoc.source), frozenset())
        if extra_source or extra_target:
            assoc = assoc._replace(source_needs=assoc.source_needs | extra_source,
                                   target_needs=assoc.target_needs | extra_target)
        associations.append(assoc)

    for subject, resource in list(gained):
        needs = gained.pop((subject, resource), None)
        if needs is not None:  # None once taken as the reverse of an earlier pair
            reverse = gained.pop((resource, subject), frozenset())
            associations.append(_association((subject, resource, needs, reverse, None, None)))

    return replace(model, associations=tuple(associations))
