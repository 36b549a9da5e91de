"""The JSON report emitter: byte-identical to the stdlib's indented,
key-sorted encoder on every tree a report can hold, and refusing the rest."""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinsurf import cli
from steinsurf.certificates import Witness
from steinsurf.invariants import oriented_class
from steinsurf.surgery import PlanTarget, plan_cp2


class _Str(str):
    pass


class _Int(int):
    pass


INT64_EDGES = [2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64, -(2**100)]
FLOAT_EDGES = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308, 1e16, 1e-7,
]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(FLOAT_EDGES),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(INT64_EDGES),
    floats,
    floats.map(np.float64),
    st.text(),
    st.text().map(_Str),
    st.integers().map(_Int),
)
keys = st.one_of(st.text(), st.sampled_from(["", "é", "ключ", " ", "\x00", "😀", '"\\']))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6),
    ),
    max_leaves=40,
)


def _dumps(obj) -> str:
    pieces = []
    cli.dump(obj, pieces.append)
    return "".join(pieces)


@settings(max_examples=400, deadline=None)
@given(tree=trees)
def test_emitter_matches_the_stdlib_encoder(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(tree=trees)
def test_pieces_flushed_at_every_container_join_to_the_same_bytes(tree):
    with mock.patch.object(cli, "FLUSH_PIECES", 1):
        assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", object(), 1j, np.int64(3), {1: "int key"}, [{"a": {"b": {2.5: 0}}}]],
    ids=["set", "bytes", "object", "complex", "np.int64", "int-key", "nested-float-key"],
)
def test_emitter_refuses_what_a_report_cannot_hold(value):
    with pytest.raises(TypeError):
        _dumps(value)
    with pytest.raises(TypeError):
        _dumps({"report": [value]})


def test_witness_passes_plain_json_data_through():
    value = {"4detH": 1.5, "ok": True, "none": None, "pair": (1, "a")}
    assert Witness(("label", 2.5, -3), value).to_json() == {
        "point": ["label", 2.5, -3],
        "value": {"4detH": 1.5, "ok": True, "none": None, "pair": [1, "a"]},
    }


@pytest.mark.parametrize("value", [np.int64(1), 1j, object()], ids=["np.int64", "complex", "object"])
def test_witness_refuses_data_that_is_not_json(value):
    for witness in (Witness("label", value), Witness(["label", value], 0)):
        with pytest.raises(TypeError):
            witness.to_json()


def _drop_timing(report):
    for task in report["tasks"]:
        del task["seconds"]
    return report


def test_timing_report_is_the_default_report_plus_seconds(tmp_path, capsys):
    scenario = {
        "schema": 1,
        "surfaces": {"torus": oriented_class(1).to_json()},
        "tasks": [
            {"task": "check", "surface": "torus"},
            {"task": "plan", "target": {"orientable": True, "genus": 2,
                                        "delta_plus": 1, "degree": 2}},
            {"task": "verify-local", "suite": "windings", "params": {}},
        ],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = cli.main(["check", str(path)])
    default = capsys.readouterr().out
    assert cli.main(["--timing", "check", str(path)]) == code
    timed = json.loads(capsys.readouterr().out)
    assert all(task["seconds"] >= 0 for task in timed["tasks"])
    assert _dumps(_drop_timing(timed)) + "\n" == default


def test_dump_holds_a_bounded_buffer():
    """A ~10 MB report renders through a bounded buffer, not a joined copy."""
    step = {"kind": "AttachTorus", "note": "a resolved double point, " * 8}
    report = {"tasks": [{"steps": [step] * 1000, "label": f"task {i}"} for i in range(40)]}
    size = 0

    def count(piece):
        nonlocal size
        size += len(piece)

    tracemalloc.start()
    try:
        cli.dump(report, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 10_000_000
    assert peak < 2 * 1024 * 1024


def test_a_plan_shares_one_record_per_distinct_step():
    recipe = plan_cp2(PlanTarget(True, 5000, 7, 3))
    steps = recipe.to_json()["steps"]
    assert len(steps) == len(recipe.steps)
    assert len({id(record) for record in steps}) <= len(set(recipe.steps))
    assert steps == [step.to_json() for step in recipe.steps]
