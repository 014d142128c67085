"""The one JSON writer of reports and the DMD model, against the stdlib.

``series.json_text`` must write the bytes of ``json.dumps`` at
``sort_keys=True, indent=2`` on the payload with each non-finite float
replaced by its string, on random payloads and on the real payloads of the
CLI commands.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardyliou import acceptance, cli, dmd, write_trajectory_csv
from hardyliou.series import json_text


def _strict(value):
    # the reference: RFC 8259 has no NaN or Infinity, so they become strings
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "nan"
        return "infinite" if value > 0 else "-infinite"
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _stdlib(value):
    return json.dumps(_strict(value), sort_keys=True, indent=2, allow_nan=False) + "\n"


_EDGE_FLOATS = st.sampled_from(
    [-0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]
)
_FLOATS = st.floats() | _EDGE_FLOATS
_NUMBERS = _FLOATS | st.integers() | _FLOATS.map(np.float64)
_TEXT = st.text() | st.sampled_from(
    ['say "hi"', "back\\slash", "tab\t new\n line\x00\x1f\x7f", "é 漢字 😀"]
)
_LEAVES = st.none() | st.booleans() | _NUMBERS | _TEXT


def _nest(depth, leaves):
    # ragged, empty and one-element lists at every level
    if depth == 0:
        return leaves
    return st.lists(_nest(depth - 1, leaves), max_size=4)


def _regular(depth):
    # the shape of a coefficient vector or a matrix of [re, im] pairs
    def fill(dims):
        size = math.prod(dims)
        leaves = st.lists(_FLOATS | st.integers(), min_size=size, max_size=size)
        return leaves.map(lambda flat: np.array(flat, dtype=object).reshape(dims).tolist())

    return st.lists(st.integers(1, 4), min_size=depth, max_size=depth).flatmap(fill)


_NESTS = st.integers(1, 3).flatmap(
    lambda d: _nest(d, st.floats(allow_nan=False, allow_infinity=False))
    | _nest(d, _NUMBERS)
    | _regular(d)
)
_PAYLOADS = st.recursive(
    _LEAVES | _NESTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(deadline=None, max_examples=500)
@given(payload=_PAYLOADS)
def test_writer_matches_the_stdlib(payload):
    assert json_text(payload) == _stdlib(payload)


def test_writer_refuses_what_json_refuses():
    for value in (np.zeros(2), {1: 2.0}, complex(1, 2)):
        with pytest.raises(TypeError):
            json_text(value)


@pytest.fixture
def recorded(monkeypatch):
    # every payload that reaches the writer from a report or a model
    payloads = []

    def record(value):
        payloads.append(value)
        return json_text(value)

    monkeypatch.setattr(cli, "json_text", record)
    monkeypatch.setattr(dmd, "json_text", record)
    return payloads


def _standard_batch_config(tmp_path):
    paths = []
    for k, trajectory in enumerate(acceptance._standard_batch()):
        paths.append(str(tmp_path / f"orbit{k:02d}.csv"))
        write_trajectory_csv(trajectory, paths[-1])
    return {
        "N": 64,
        "trajectories": paths,
        "predict": {"z0": [0.3, 0.0], "times": [0.0, 0.25, 0.5, 1.0]},
    }


@pytest.mark.parametrize(
    "command, config",
    [
        ("spectrum", {"N": 128, "f": [0.1, 0.9]}),
        ("spectrum", {"N": 1024, "f": [0.1, 0.9]}),
        ("dmd", None),
        ("verify-all", {}),
    ],
    ids=["spectrum-128", "spectrum-1024", "dmd", "verify-all"],
)
def test_writer_matches_the_stdlib_on_command_payloads(
    tmp_path, capsys, recorded, command, config
):
    if config is None:
        config = _standard_batch_config(tmp_path)
    cli.run(command, config, tmp_path / "out")
    # the dmd command writes its model and then its report
    assert len(recorded) == (2 if command == "dmd" else 1)
    written = list((tmp_path / "out").iterdir())
    for payload in recorded:
        expected = _stdlib(payload)
        assert json_text(payload) == expected
        assert any(p.read_text() == expected for p in written)
