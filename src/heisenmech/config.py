"""Flat dotted-key experiment configuration.

The on-disk format is one `section.key = value` assignment per line, with
blank lines and `#` comments ignored. Values are scalars: integers, reals,
booleans, or bare strings (comma-separated where a list is wanted). The
format is deliberately trivial to parse and to diff; nesting lives in the
key names, not the syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

# Every assignable key. Unknown keys are rejected by name so that a typo in
# a config file fails loudly instead of silently using a default.
KNOWN_KEYS = frozenset([
    "system.mass", "system.charge", "system.light_speed", "system.metric",
    "system.k",
    "field.kind", "field.b12", "field.b13", "field.b23",
    "field.a1", "field.a2", "field.a3",
    "field.m11", "field.m12", "field.m13",
    "field.m21", "field.m22", "field.m23",
    "field.m31", "field.m32", "field.m33",
    "field2.kind", "field2.b12", "field2.b13", "field2.b23",
    "field2.a1", "field2.a2", "field2.a3",
    "force.kind", "force.factor", "force.lambda_factor",
    "force2.kind", "force2.factor", "force2.lambda_factor",
    "control.kind", "control.p1", "control.p2", "control.p3",
    "control.subset",
    "run.t_end", "run.step", "run.method", "run.seed",
    "state.q1", "state.q2", "state.q3", "state.p1", "state.p2", "state.p3",
    "level.mu1", "level.mu2", "level.nu",
    "level2.mu1", "level2.mu2", "level2.nu",
    "check.names", "check.samples",
    "mr.check", "mr.samples",
    "diffeo.kind", "diffeo.u1", "diffeo.u2", "diffeo.alpha",
    "kk.mu", "kk.t_end", "kk.step",
    "output.trajectory", "output.report",
])


def _parse_scalar(raw: str):
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_lines(text: str, source: str) -> tuple[dict, dict]:
    """The values of a config text and the line number of each key."""
    values: dict = {}
    lines: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown config field {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate config field {key!r}")
        values[key] = _parse_scalar(raw)
        lines[key] = lineno
    return values, lines


@dataclass
class ExperimentConfig:
    """Typed access to a flat config mapping, with named-field diagnostics."""

    values: dict = field(default_factory=dict)
    source: str = "<config>"
    lines: dict = field(default_factory=dict)

    @classmethod
    def from_path(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values, lines = _parse_lines(text, str(path))
        return cls(values, str(path), lines)

    def has(self, key: str) -> bool:
        return key in self.values

    def where(self, key: str) -> str:
        """file:line of key's assignment; the file alone for a default."""
        line = self.lines.get(key)
        return self.source if line is None else f"{self.source}:{line}"

    def string(self, key: str, default: str | None = None,
               choices: tuple[str, ...] | None = None) -> str:
        value = self.values.get(key, default)
        if value is None:
            raise ConfigError(f"{self.where(key)}: missing required field {key!r}")
        value = str(value)
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{self.where(key)}: field {key!r} must be one of {sorted(choices)}, "
                f"got {value!r}")
        return value

    def real(self, key: str, default: float | None = None,
             positive: bool = False) -> float:
        value = self.values.get(key, default)
        if value is None:
            raise ConfigError(f"{self.where(key)}: missing required field {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self.where(key)}: field {key!r} must be a real "
                              f"number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer literal past the float range
            value = float("inf")
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigError(f"{self.where(key)}: field {key!r} must be finite")
        if positive and value <= 0:
            raise ConfigError(
                f"{self.where(key)}: field {key!r} must be positive, got {value}")
        return value

    def integer(self, key: str, default: int | None = None,
                minimum: int | None = None) -> int:
        value = self.values.get(key, default)
        if value is None:
            raise ConfigError(f"{self.where(key)}: missing required field {key!r}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"{self.where(key)}: field {key!r} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(
                f"{self.where(key)}: field {key!r} must be at least {minimum}")
        return int(value)

    def names(self, key: str) -> list[str]:
        """Comma-separated identifiers; an absent key means an empty list."""
        if key not in self.values:
            return []
        raw = str(self.values[key])
        return [part.strip() for part in raw.split(",") if part.strip()]
