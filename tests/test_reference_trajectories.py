"""Every run of make_reference_trajectories.runs() retraces its committed
reference: each record's values, each step's dt and iteration counts, and
the manifest's limits and run sections.  Values agree to 1e-10 (1 + |x|),
counts exactly, so a change that moves no number passes and one that moves
a Picard or CG count, or a value beyond solver noise, fails."""

import json
import math

import pytest

import make_reference_trajectories as ref

_REL = 1e-10


def _mismatches(got, want, path):
    """Paths at which got differs from want: numbers beyond _REL (1 + |want|),
    counts and every other value exactly."""
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key],
                                                       f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} entries != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in _mismatches(a, b, f"{path}[{i}]")]
    if isinstance(want, float) and not isinstance(got, bool):
        close = (got == want or (math.isnan(got) and math.isnan(want))
                 or abs(got - want) <= _REL * (1.0 + abs(want)))
        return [] if close else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else \
        [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def reference():
    return json.loads(ref.REFERENCE.read_text())


@pytest.fixture(scope="module")
def computed():
    return ref.trajectories()


def test_reference_covers_every_run(reference):
    assert reference["record_keys"] == list(ref.RECORD_KEYS)
    assert reference["step_keys"] == list(ref.STEP_KEYS)
    assert sorted(reference["runs"]) == sorted(ref.runs())


@pytest.mark.parametrize("name", sorted(ref.runs()))
def test_run_retraces_its_reference(reference, computed, name):
    want = reference["runs"][name]
    got = json.loads(json.dumps(computed[name]))  # the reference's types
    bad = _mismatches(got, want, name)
    assert not bad, f"{len(bad)} mismatches, first: " + "; ".join(bad[:5])
