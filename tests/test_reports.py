"""Canonical JSON writer tests.

`json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True)` plus a
newline, with each `ArrayMap` turned into a dict, is the oracle for every
payload, valid or not.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from normfreq import reports, words


def as_dict(value):
    if isinstance(value, reports.ArrayMap):
        return dict(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def oracle(payload):
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True, default=as_dict) + "\n"


def array_map(values: dict, dtype) -> reports.ArrayMap:
    """The ArrayMap equal to `values`, built from its keys in dict order."""
    return reports.ArrayMap(np.array(list(values), dtype="S"), np.array(list(values.values()), dtype=dtype))


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
# the key text an ArrayMap may hold: what JSON writes unescaped
plain_texts = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), max_size=6
)
flat_maps = st.one_of(
    st.dictionaries(plain_texts, st.integers(-(2**63), 2**63 - 1), max_size=30).map(
        lambda d: array_map(d, np.int64)
    ),
    st.dictionaries(plain_texts, floats, max_size=30).map(lambda d: array_map(d, np.float64)),
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
@example({"nul": {"a\x00": 1}, "inner": {"a\x00b": 2}, "both": {"a": 1, "a\x00": 2}})
@example({"wide": {"a": 2**63, "b": 1}, "low": {"a": -(2**63) - 1}, "quoted": {'"': 1, "\\": 2}})
@example({"empty": {}, "list": [], "tuple": (), "nested": [{}, [[]], ({"x": ()},)]})
@example({"counts": array_map({"1.10": 3, "1.2": 2**63 - 1, "": -(2**63)}, np.int64)})
@example({"freqs": array_map({"b": 0.5, "a": -0.0, "c": math.inf}, np.float64), "e": array_map({}, np.float64)})
def test_writer_matches_json_dumps_on_flat_maps(payload):
    same_as_oracle(payload)


def test_array_map_is_a_read_only_mapping():
    # base-16 labels of codes 2, 18, 26, 32, 160: the dotted texts sort
    # apart from the codes ("1.10" < "1.2")
    labels = words.word_texts(np.array([2, 18, 26, 32, 160]), 16, 2)
    got = reports.ArrayMap(labels, np.array([5, 4, 3, 2, 1]))
    want = {"0.2": 5, "1.2": 4, "1.10": 3, "2.0": 2, "10.0": 1}
    assert got == want and want == got and not got != want
    assert got == reports.ArrayMap(labels[::-1], np.array([1, 2, 3, 4, 5]))
    assert got != {**want, "2.0": 3} and got != {} and got != [("0.2", 5)]
    assert list(got) == sorted(want) == ["0.2", "1.10", "1.2", "10.0", "2.0"]
    assert list(got.items()) == sorted(want.items())
    assert len(got) == 5
    assert got["1.10"] == 3 and type(got["1.10"]) is int
    assert got.get("2.0") == 2 and got.get("2.1") is None and got.get("2.1", 0) == 0
    assert "10.0" in got and "1.1" not in got and 2 not in got
    for missing in ("1.1", "1.100", "é", "", 3, None):
        with pytest.raises(KeyError):
            got[missing]
    share = reports.ArrayMap(labels, np.array([0.5, 0.25, 0.125, 0.0625, 0.03125]))
    assert share["1.2"] == 0.25 and type(share["1.2"]) is float
    assert reports.ArrayMap(np.array([], dtype="S1"), np.array([], dtype=np.int64)) == {}


@pytest.mark.parametrize(
    "keys,values,error",
    [
        ([b"a", b'"'], [1, 2], ValueError),
        ([b"a\\b"], [1], ValueError),
        ([b"\xc3\xa9"], [1], ValueError),
        ([b"\n"], [1], ValueError),
        ([b"a\x00b"], [1], ValueError),
        ([b"a", b"b", b"a"], [1, 2, 3], ValueError),
        ([b"a", b"b"], [1], ValueError),
        ([b"a"], [True], TypeError),
    ],
)
def test_array_map_checks_its_arrays(keys, values, error):
    with pytest.raises(error):
        reports.ArrayMap(np.array(keys, dtype="S"), np.array(values))


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
