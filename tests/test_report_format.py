"""The report encoder behind every CLI report, and the config hash in it.

`old_to_jsonable` is the converter the reports were written with before the
one-pass encoder, followed there by json.dumps(indent=2, sort_keys=True); it
is kept here as the oracle the encoder must match byte for byte.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vpa.cli import _json_text
from vpa.config import DEFAULT_CONFIG, RunConfig


def old_to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "+inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return old_to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [old_to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: old_to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): old_to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_to_jsonable(v) for v in obj]
    return str(obj)


def oracle(value) -> str:
    return json.dumps(old_to_jsonable(value), indent=2, sort_keys=True)


@dataclasses.dataclass(frozen=True)
class Pair:
    second: object
    first: object


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


class Opaque:
    """An object the encoder does not know: written as str(obj)."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text

    def __repr__(self):
        # the parametrized test id is repr(value); the default repr holds
        # the object's address and would name the case differently per run
        return f"Opaque({self.text!r})"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 0.1, 1 / 3,
               1.7976931348623157e308, math.nan, math.inf, -math.inf]
TEXT = st.text(st.characters(codec=None), max_size=12) | st.sampled_from(
    ["", "é", " ", "\x00\x1f\x7f", 'quote " and \\ backslash', "\U0001f600",
     "tab\tnew\nline"])
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, TEXT,
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                            max_side=3), elements=FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    TEXT.map(Opaque), st.just(Empty()),
)
KEYS = st.one_of(TEXT, st.integers(-3, 3), st.sampled_from([None, True, 1.5]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(VALUES)
def test_encoder_matches_the_old_two_pass_encoding(value):
    assert _json_text(value) == oracle(value)


@pytest.mark.parametrize("value", [
    *EDGE_FLOATS, {}, [], (), [[]], {"a": {}}, {1: "int key", "b": 2},
    {2: "two", 10: "ten"}, {1: "int", "1": "str"}, Empty(), Pair(Empty(), ()),
    np.array([]), np.zeros((2, 0)), np.arange(6).reshape(2, 3),
    np.float64(-0.0), np.float64(math.nan), np.float32(math.inf), np.int64(-7),
    "\x00é\U0001f600", Opaque("café"), 2 ** 70,
    {"deep": [{"x": (1.0, [Pair(first=math.inf, second=None)])}]},
], ids=repr)
def test_edge_values(value):
    assert _json_text(value) == oracle(value)


def test_numpy_booleans_are_json_booleans():
    # the old converter fell through to str() and wrote the strings "True"
    # and "False"
    value = {"flag": np.bool_(True), "flags": [np.bool_(False)],
             "array": np.array([True, False])}
    assert json.loads(_json_text(value)) == {
        "flag": True, "flags": [False], "array": [True, False]}
    assert json.loads(oracle(value))["flag"] == "True"


def test_zero_dimensional_array_is_its_scalar():
    # the old converter iterated over tolist()'s scalar and raised TypeError
    assert _json_text({"v": np.array(2.5)}) == oracle({"v": 2.5})
    with pytest.raises(TypeError):
        oracle(np.array(2.5))


class TestConfigHash:
    def test_hash_is_the_sha256_of_the_sorted_fields(self):
        for cfg in (DEFAULT_CONFIG, RunConfig(seed=3), RunConfig(radius_base=10)):
            blob = json.dumps(cfg.to_dict(), sort_keys=True).encode()
            assert cfg.config_hash() == hashlib.sha256(blob).hexdigest()

    def test_replace_gives_a_new_hash(self):
        cfg = RunConfig(seed=1)
        assert cfg.replace(seed=2).config_hash() != cfg.config_hash()
        assert cfg.replace(seed=1).config_hash() == cfg.config_hash()
