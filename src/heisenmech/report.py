"""Invariant reports: deterministic JSON records validated against a schema.

A report is a list of check records plus the environment data needed to
reproduce it (seed and finite-difference steps). Serialization sorts keys
and carries no timestamps, so a fixed seed yields byte-identical files.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import jsonschema

from . import __version__, fd
from .reduction import CheckRecord

SCHEMA_RESOURCE = "report.schema.json"


def load_schema() -> dict:
    with resources.files(__package__).joinpath(SCHEMA_RESOURCE).open() as handle:
        return json.load(handle)


@functools.cache
def _validator():
    """Validator of the report schema, checked and built on first use."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@dataclass
class InvariantReport:
    """Outcome of a command: named residual records plus run metadata."""

    seed: int
    checks: list[CheckRecord] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)

    def extend(self, records) -> None:
        self.checks.extend(records)

    @property
    def passed(self) -> bool:
        return all(record.passed for record in self.checks)

    def as_dict(self) -> dict:
        return {
            "checks": [record.as_dict() for record in self.checks],
            "environment": {
                "seed": int(self.seed),
                "gradient_step": fd.GRADIENT_STEP,
                "tangent_step": fd.TANGENT_STEP,
                "version": __version__,
            },
            "artifacts": dict(sorted(self.artifacts.items())),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        payload = self.as_dict()
        _validator().validate(payload)
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
