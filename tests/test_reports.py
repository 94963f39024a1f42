"""Canonical JSON writer tests.

`json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)` plus a
newline is the oracle for every payload, valid or not.
"""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from normfreq import reports


def oracle(payload):
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def same_as_oracle(payload):
    """The writer's text equals the oracle's, or both raise one TypeError."""
    try:
        want = oracle(payload)
    except TypeError as err:
        with pytest.raises(TypeError) as got:
            reports.canonical_json(payload)
        assert str(got.value) == str(err)
    else:
        assert reports.canonical_json(payload) == want


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-5, 0.1, 5e-324, 1.7976931348623157e308]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
texts = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", " ", "\U0001f600", "\ud800"]))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
    ),
    max_leaves=40,
)
flat_maps = st.one_of(
    st.dictionaries(texts, st.integers(), max_size=30),
    st.dictionaries(texts, st.one_of(st.integers(), st.booleans()), max_size=30),
    st.dictionaries(texts, floats, max_size=30),
    st.dictionaries(texts, st.floats(min_value=-1e9, max_value=1e9), max_size=30),
    st.dictionaries(texts, st.sampled_from([0.25, 0.5, -0.0, 0.0, 1e16, 1e-5]), max_size=30),
    st.dictionaries(texts, st.one_of(st.integers(), floats), max_size=30),
)
keys = st.one_of(
    texts,
    st.integers(),
    floats,
    st.booleans(),
    st.none(),
    st.tuples(st.integers()),
    st.frozensets(st.integers(), max_size=2),
)


@given(payloads)
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(payload):
    same_as_oracle({"payload": payload})


@given(st.dictionaries(texts, flat_maps, max_size=4))
@settings(max_examples=300, deadline=None)
@example({"counts": {"1": 2, "0": 1}, "flags": {"a": True, "b": 1}, "zeros": {"a": 0.0, "b": -0.0}})
@example({"freqs": {"a": math.nan, "b": math.inf, "c": -math.inf, "d": 1e16, "e": 1e-5}})
@example({"empty": {}, "list": [], "tuple": (), "nested": [{}, [[]], ({"x": ()},)]})
def test_writer_matches_json_dumps_on_flat_maps(payload):
    same_as_oracle(payload)


@given(st.dictionaries(keys, scalars, max_size=6), st.dictionaries(keys, scalars, max_size=3))
@settings(max_examples=300, deadline=None)
@example({1: "a", "b": 2}, {})
@example({(1,): 0}, {})
@example({True: 1, None: 2, 1.5: 3}, {math.nan: 0})
def test_writer_non_str_keys_match_json(top, nested):
    same_as_oracle(top)
    same_as_oracle({"nested": nested, "list": [nested]})


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", complex(1, 2)])
def test_writer_rejects_what_json_rejects(value):
    same_as_oracle({"a": [1, value]})


def test_writer_subclasses_follow_json():
    class Key(str):
        pass

    class Count(int):
        pass

    class Share(float):
        pass

    same_as_oracle({Key("b"): Count(3), "a": {Key("x"): Share(0.5), "y": Count(7)}})
    same_as_oracle({"m": {"a": Share(0.5), "b": Share(0.5)}})
