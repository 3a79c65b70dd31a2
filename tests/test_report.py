"""The report contract: every payload that report.schema.json or strict JSON
rejects is refused before serialization, and every report the library writes
validates."""

import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisenmech import __version__, fd
from heisenmech.reduction import CheckRecord
from heisenmech.report import InvariantReport, load_schema

SCHEMA = load_schema()
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
RECORD = {"name": "group.inverse", "samples": 3, "max_residual": 0.5,
          "threshold": 1.0}


def unchecked_payload(seed, entries, artifacts):
    """The payload as_dict would give for these raw values if nothing were
    checked: record field dicts become schema records, other entries stay."""
    checks = [dict(entry, passed=False) if isinstance(entry, dict) else entry
              for entry in entries]
    return {"checks": checks,
            "environment": {"seed": seed, "gradient_step": fd.GRADIENT_STEP,
                            "tangent_step": fd.TANGENT_STEP,
                            "version": __version__},
            "artifacts": artifacts, "passed": False}


def written_and_valid(payload):
    """Whether strict JSON (no nan or inf) carries the payload and the schema
    accepts what it carries."""
    try:
        VALIDATOR.validate(json.loads(json.dumps(payload, allow_nan=False)))
    except (ValueError, jsonschema.ValidationError):
        return False
    return True


def record(**changes):
    return dict(RECORD, **changes)


# (seed, entries, artifacts): each entry is either CheckRecord fields or a
# value put into checks as it is.
REJECTED = {
    "negative_residual": (0, [record(max_residual=-1e-3)], {}),
    "nan_residual": (0, [record(max_residual=math.nan)], {}),
    "inf_residual": (0, [record(max_residual=math.inf)], {}),
    "empty_name": (0, [record(name="")], {}),
    "non_str_name": (0, [record(name=7)], {}),
    "bool_samples": (0, [record(samples=True)], {}),
    "float_samples": (0, [record(samples=2.7)], {}),
    "negative_samples": (0, [record(samples=-1)], {}),
    "zero_threshold": (0, [record(threshold=0.0)], {}),
    "negative_threshold": (0, [record(threshold=-1e-8)], {}),
    "inf_threshold": (0, [record(threshold=math.inf)], {}),
    "bool_seed": (True, [record()], {}),
    "float_seed": (1.5, [record()], {}),
    "negative_seed": (-1, [record()], {}),
    "non_str_artifact": (0, [record()], {"trajectory": 3}),
    "non_record_entry": (0, [record(), "group.identity"], {}),
}
REFUSED_BY_THE_REPORT = {"bool_seed", "float_seed", "negative_seed",
                         "non_str_artifact", "non_record_entry"}


def test_shipped_schema_is_a_valid_schema():
    type(VALIDATOR).check_schema(SCHEMA)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_library_refuses_what_the_schema_rejects(case, tmp_path):
    seed, entries, artifacts = REJECTED[case]
    assert not written_and_valid(unchecked_payload(seed, entries, artifacts))
    path = tmp_path / "report.json"
    with pytest.raises((ValueError, FloatingPointError)):
        checks = [CheckRecord(**entry) if isinstance(entry, dict) else entry
                  for entry in entries]
        report = InvariantReport(seed, checks, artifacts)
        assert case in REFUSED_BY_THE_REPORT, "a record refuses a bad field"
        path.write_text(report.to_json())
    assert not path.exists()


def test_non_finite_residual_is_a_floating_point_error():
    for residual in (math.nan, math.inf, np.float64(-np.inf)):
        with pytest.raises(FloatingPointError):
            CheckRecord("x", 1, residual, 1.0)


def test_numpy_counts_and_scalars_serialize_as_native_numbers():
    rec = CheckRecord("x", np.int64(4), np.float64(0.25), np.float32(0.5))
    text = InvariantReport(np.uint32(9), [rec], {"a": "b"}).to_json()
    payload = json.loads(text)
    VALIDATOR.validate(payload)
    assert payload["environment"]["seed"] == 9
    assert payload["checks"][0] == {"name": "x", "samples": 4,
                                    "max_residual": 0.25, "threshold": 0.5,
                                    "passed": True}


_counts = st.one_of(st.integers(0, 2 ** 70),
                   st.integers(0, 2 ** 63 - 1).map(np.int64))
_records = st.fixed_dictionaries({
    "name": st.text(min_size=1, max_size=6),
    "samples": _counts,
    "max_residual": st.one_of(st.floats(0, allow_infinity=False),
                              st.floats(0, 1).map(np.float64)),
    "threshold": st.floats(0, exclude_min=True, allow_infinity=False),
})
_anything = st.one_of(st.integers(-3, 2 ** 70), st.floats(), st.booleans(),
                      st.text(max_size=3), st.none())


@st.composite
def _reports(draw):
    """A valid (seed, record fields, artifacts) with at most one place set to
    an arbitrary value."""
    seed = draw(_counts)
    entries = draw(st.lists(_records, max_size=3))
    artifacts = draw(st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                                     max_size=3))
    where = draw(st.sampled_from(["nowhere", "seed", "entry", "field",
                                  "artifact"]))
    if where == "seed":
        seed = draw(_anything)
    elif where == "entry":
        entries.append(draw(_anything))
    elif where == "field" and entries:
        entries[-1][draw(st.sampled_from(sorted(RECORD)))] = draw(_anything)
    elif where == "artifact":
        artifacts[draw(st.one_of(st.text(max_size=4), st.integers()))] = (
            draw(_anything))
    return seed, entries, artifacts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_reports())
def test_every_accepted_report_validates(report):
    seed, entries, artifacts = report
    try:
        checks = [CheckRecord(**entry) if isinstance(entry, dict) else entry
                  for entry in entries]
        text = InvariantReport(seed, checks, artifacts).to_json()
    except (ValueError, FloatingPointError):
        return
    VALIDATOR.validate(json.loads(text))
