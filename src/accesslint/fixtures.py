"""Bundled example model documents.

Two documents ship with the package, in canonical serialized form:

* works-diary: the smallest useful model, two information assets with a
  read/write adornment on one association end and no policy at all, so
  validation reports both expanded needs as undefined.

* pyramid: a data-distribution component modelled for validation
  against a seven-requirement policy.  Six of the seven allowed
  interactions appear as needs in the asset model; six further needs
  (Distribution Capability reading Delivery Items, both directions of
  Delivery Interaction on Delivery Resource, Participant interacting
  with the Distribution Capability, Delivery Item writing Delivery
  Resource, Formatting Rule reading Delivery Resource) have no policy
  statement at all and exist to exercise the undefined-access branch.
  Validating it yields exactly eight warnings: one potential read-up
  (Formatting Rule reads Data Item), one potential write-up
  (Participant writes Delivery Interaction), and six undefined
  accesses.
"""

from __future__ import annotations

import os

from .goals import GoalGraph
from .model import AssetModel
from .modelio import parse_model

FIXTURE_NAMES = ("pyramid", "works-diary")


def fixture_text(name: str) -> str:
    """Canonical document text for a bundled fixture, read from its installed file."""
    if name not in FIXTURE_NAMES:
        raise KeyError(name)
    with open(f"{os.path.dirname(__file__)}/data/{name}.json", encoding="utf-8") as handle:
        return handle.read()


def load_fixture(name: str) -> tuple[AssetModel, GoalGraph]:
    return parse_model(fixture_text(name))
