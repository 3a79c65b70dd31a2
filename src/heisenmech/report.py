"""Invariant reports: deterministic JSON records that satisfy a bundled schema.

A report is a list of check records plus the environment data needed to
reproduce it (seed and finite-difference steps). Serialization sorts keys
and carries no timestamps, so a fixed seed yields byte-identical files.

report.schema.json is the contract for the file. The library enforces it
where the data is built: CheckRecord checks its fields at construction, and
InvariantReport.to_json checks the seed, the artifacts and the entries, so
no validator runs when a report is written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from . import __version__, fd
from .reduction import CheckRecord, _is_count

SCHEMA_RESOURCE = "report.schema.json"


def load_schema() -> dict:
    with resources.files(__package__).joinpath(SCHEMA_RESOURCE).open() as handle:
        return json.load(handle)


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
        """The report as sorted, indented JSON.

        A seed that is not an integer >= 0 (a bool or a float is not), an
        artifact name or value that is not a string, or an entry that is not
        a CheckRecord raises ValueError before anything is serialized.
        """
        if not _is_count(self.seed):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        for key, value in self.artifacts.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise ValueError(f"artifact names and values must be strings, "
                                 f"got {key!r}: {value!r}")
        for record in self.checks:
            if not isinstance(record, CheckRecord):
                raise ValueError(f"report entries must be CheckRecord values, "
                                 f"got {record!r}")
        return json.dumps(self.as_dict(), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
