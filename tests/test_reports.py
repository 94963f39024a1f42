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

from normfreq import arith, ngrams, reports, words


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


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_writer_rows_span_blocks(monkeypatch, block):
    # the row builder writes a map a block of rows at a time
    monkeypatch.setattr(reports, "_ROW_BLOCK", block)
    counts = {f"w{i:02d}": (i * 7919) % 23 - 5 for i in range(20)}
    freqs = {f"f{i}": 1 / (i + 1) for i in range(10)}
    same_as_oracle({"counts": counts, "freqs": array_map(freqs, np.float64), "one": {"a": 1}})
    payload = {
        "kind": "kgram-frequency-report",
        "windows": 40,
        "counts": {"0": 30, "1": 10},
        "complete_counts": {"0": 25},
        "boundary_counts": {"0": 5, "1": 8},
        "tail_counts": {"1": 2},
    }
    assert reports.to_csv(payload) == (
        "word,count,complete,boundary,tail,freq\n0,30,25,5,0,0.75\n1,10,0,8,2,0.25\n"
    )


def spy(monkeypatch, name):
    """The list of calls to numpy's `name` while the test runs."""
    calls = []
    real = getattr(np, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    return calls


def test_value_text_range_guard(monkeypatch):
    # int values whose range is below their count index a text table of
    # the whole range by their offset from the lowest, with no sort; any
    # others are sorted and index their distinct texts, with no table over
    # their range (2^62 entries for "wide")
    uniques = spy(monkeypatch, "unique")
    narrow = {"a": -5, "b": -3, "c": -5, "d": -4}
    same_as_oracle({"narrow": narrow})
    assert not uniques
    table, index = reports._value_text(np.array(list(narrow.values())))
    assert table.tolist() == [b"-5", b"-4", b"-3"] and index.tolist() == [0, 2, 0, 1]
    assert not uniques
    for values in ({"a": -5, "b": 0, "c": 3}, {"a": 1, "b": 2**62}):
        same_as_oracle({"wide": values})
        assert len(uniques) == 1
        table, index = reports._value_text(np.array(list(values.values())))
        assert table.tolist() == [b"%d" % v for v in values.values()]
        uniques.clear()


def ranged_values(rng, count, spread, low):
    """`count` int values from `low` whose range is count + spread: both
    ends occur, the rest lie between them."""
    top = low + count + spread
    inner = rng.integers(low, top, size=count - 2, endpoint=True).tolist()
    return [low, *inner, top]


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_writer_value_tables_match_json_dumps(monkeypatch, block):
    # every value-text route of the row builder: int ranges just below, at
    # and just above the count (a range table, then a sort), negative
    # values, a single entry, ranges past any table and repeated floats,
    # each as an ArrayMap and as a plain dict
    monkeypatch.setattr(reports, "_ROW_BLOCK", block)
    rng = np.random.default_rng(block)
    maps = {"single": {"w": -7}, "zero": {"w": 0}}
    for count in (2, 5, 13):
        for spread in (-1, 0, 1):
            for low in (-3 * count, 0, 10**12):
                values = ranged_values(rng, count, spread, low)
                maps[f"r{count}{spread:+d}@{low}"] = {f"w{i:02d}": v for i, v in enumerate(values)}
    maps["wide"] = {"a": -(2**63), "b": 2**63 - 1, "c": 0, "d": -1}
    maps["floats"] = {f"f{i:02d}": [0.5, 1e-5, -2.25, 1 / 3, 1e16][i % 5] for i in range(17)}
    payload = {name: m for name, m in maps.items()}
    payload |= {
        f"{name}-array": array_map(m, np.float64 if name == "floats" else np.int64)
        for name, m in maps.items()
    }
    same_as_oracle(payload)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize("g,k", [(10, 2), (16, 2)])
def test_freqs_texts_from_counts_match_a_float_dict(monkeypatch, block, g, k):
    # a k-gram report's freqs take their texts from the counts (g = 16
    # sorts its labels apart from their codes); the same floats in a plain
    # dict write the same bytes, in the JSON and in the CSV freq column
    monkeypatch.setattr(reports, "_ROW_BLOCK", block)
    spec = arith.CompositionSpec((arith.PHI,))
    rep = ngrams.count_stream(arith.ArithEngine(), spec, 3000, g=g, k=k)
    assert isinstance(rep["freqs"], reports.RatioMap) and len(rep["freqs"]) > 3 * block
    plain = {**rep, "freqs": {word: c / rep["windows"] for word, c in rep["counts"].items()}}
    assert rep["freqs"] == plain["freqs"] and rep["freqs"].value_array.dtype == np.float64
    assert reports.canonical_json(rep) == reports.canonical_json(plain) == oracle(plain)
    freq_column = [line.rsplit(",", 1)[1] for line in reports.to_csv(rep).splitlines()[1:]]
    assert freq_column == [repr(f) for f in plain["freqs"].values()]
