"""Canonical JSON emission and CSV projections for report payloads.

Every report in this package is its payload: a dict tagged with a "kind"
key, whose values are JSON scalars, lists, dicts and, for the k-gram
tallies, `ArrayMap`s.  This module owns the byte layout:
JSON is written with sorted keys, two-space indent, ASCII escapes and a
trailing newline, so equal payloads produce equal files.  One writer,
`canonical_json`, produces it: `json.dumps` writes everything except the
top-level flat maps, whose lines come from one array row builder, the
same one that writes the k-gram CSV rows.  CSV is a lossy projection of
the JSON (headers per kind below); round-tripping through a JSON file
and projecting gives the same bytes as projecting the live object.
"""

from __future__ import annotations

import json
import os
from collections.abc import ItemsView, Mapping
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterator

import numpy as np


class ArrayMap(Mapping):
    """A read-only str -> int or str -> float map held as two aligned arrays.

    `key_text` is an `S` array of keys made of bytes that JSON writes
    unescaped, unique and in increasing byte order (which is str order);
    `value_array` is int64 or float64.  Construction sorts keys that are
    not yet sorted.  At the top level of a payload, `canonical_json`
    writes the map from the arrays, without a Python object per entry.
    """

    __slots__ = ("key_text", "value_array")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        keys = np.ascontiguousarray(keys)
        values = np.asarray(values)
        if keys.dtype.kind != "S" or keys.ndim != 1 or keys.shape != values.shape:
            raise ValueError("keys must be a 1-d bytes array aligned with the values")
        if values.dtype != np.int64 and values.dtype != np.float64:
            raise TypeError(f"values must be int64 or float64, not {values.dtype}")
        # keys hold only the bytes JSON writes unescaped: printable ASCII
        # other than the quote and the backslash.  numpy pads short keys
        # with NUL, so a NUL may be followed only by NUL within a key.
        raw = keys.view(np.uint8)
        nul = raw == 0
        plain = (raw >= 0x20) & (raw < 0x7F) & (raw != 0x22) & (raw != 0x5C)
        inner_nul = nul[:-1] & ~nul[1:]
        inner_nul[keys.itemsize - 1 :: keys.itemsize] = False  # the next key's first byte
        if not (plain | nul).all() or inner_nul.any():
            raise ValueError("keys must be printable ASCII without quotes or backslashes")
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
            if not (keys[1:] > keys[:-1]).all():
                raise ValueError("keys must be unique")
        self.key_text = keys
        self.value_array = values

    def __getitem__(self, key: str) -> int | float:
        if isinstance(key, str) and key.isascii():
            text = key.encode("ascii")
            i = int(np.searchsorted(self.key_text, text))
            if i < len(self.key_text) and self.key_text[i] == text:
                return self.value_array[i].item()
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self.key_text.astype(str).tolist())

    def __len__(self) -> int:
        return len(self.key_text)

    def items(self) -> ItemsView[str, int | float]:
        # one pass over the arrays, not a search per key
        return dict(zip(self, self.value_array.tolist())).items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrayMap):
            return np.array_equal(self.key_text, other.key_text) and np.array_equal(
                self.value_array, other.value_array
            )
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"ArrayMap({dict(zip(self, self.value_array.tolist()))!r})"


def _payload(report: Any) -> dict:
    if not isinstance(report, dict):
        raise TypeError(f"not a report payload: {type(report).__name__}")
    return report


def canonical_json(report: dict) -> str:
    """Deterministic JSON text for a report payload dict.

    The bytes are those of `json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=True)` plus a newline, with each `ArrayMap` written as
    the dict it equals.  json writes everything except the top-level
    flat maps (str to int64 or to finite nonzero float, array-backed or
    plain), whose lines come from the array row builder.
    """
    payload = _payload(report)
    if not all(isinstance(key, str) for key in payload):
        return _dumps(payload) + "\n"
    out = []
    sep = "{"
    for key in sorted(payload):
        value = payload[key]
        out.append(f"{sep}\n  {_quote(key)}: ")
        sep = ","
        flat = _flat_arrays(value) if isinstance(value, (dict, ArrayMap)) and value else None
        if flat is not None:
            out += ["{", _item_lines(*flat, "\n    "), "\n  }"]
        else:
            # ASCII JSON holds no raw newline, so every one starts a line
            out.append(_dumps(value).replace("\n", "\n  "))
    out.append("\n}\n" if out else "{}\n")
    return "".join(out)


def _as_dict(value: Any) -> dict:
    if isinstance(value, ArrayMap):
        return dict(value.items())
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True, default=_as_dict)


def _flat_arrays(obj: dict | ArrayMap) -> tuple[np.ndarray, np.ndarray] | None:
    """Key bytes and int64 or float64 values, in key order, of an `ArrayMap`
    or of a plain str -> int (within int64) or str -> finite float dict
    whose keys an `ArrayMap` accepts; None for any other map.  A float
    map holding 0.0 or -0.0 is also None: the two are one distinct value
    with two texts."""
    if not isinstance(obj, ArrayMap):
        if set(map(type, obj)) != {str}:
            return None
        value_types = set(map(type, obj.values()))
        if value_types not in ({int}, {float}):
            return None
        # an `S` array drops a key's trailing NUL, so no key may hold one
        if "\0" in "".join(obj):
            return None
        try:
            obj = ArrayMap(
                np.array(list(obj), dtype="S"),
                np.array(list(obj.values()), dtype=np.int64 if int in value_types else np.float64),
            )
        except (ValueError, OverflowError):  # a key or a count ArrayMap cannot hold
            return None
    keys, values = obj.key_text, obj.value_array
    if values.dtype == np.float64 and not (values.all() and np.isfinite(values).all()):
        return None
    return keys, values


def _value_text(values: np.ndarray) -> np.ndarray:
    """The `S` text of each int64 or finite float64 value, as json writes
    it; each distinct value is formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = int.__repr__ if values.dtype == np.int64 else float.__repr__
    return np.array([text(value) for value in distinct.tolist()], dtype="S")[inverse]


def _rows(parts: list, count: int) -> str:
    """`count` rows, each the concatenation of `parts`: `S` arrays of
    `count` entries and byte constants.  The rows are built as one
    NUL-padded byte block; the text holds no NUL byte, so dropping every
    NUL leaves it."""
    widths = [part.itemsize if isinstance(part, np.ndarray) else len(part) for part in parts]
    block = np.zeros((count, sum(widths)), dtype=np.uint8)
    col = 0
    for part, width in zip(parts, widths):
        if isinstance(part, np.ndarray):
            part = part.view(np.uint8).reshape(count, width)
        else:
            part = np.frombuffer(part, dtype=np.uint8)
        block[:, col : col + width] = part
        col += width
    return str(block[block != 0].data, "ascii")


def _item_lines(keys: np.ndarray, values: np.ndarray, indent: str) -> str:
    """`indent "key": value` for each entry, joined by ","."""
    parts = [(indent + '"').encode("ascii"), keys, b'": ', _value_text(values), b","]
    return _rows(parts, len(keys))[:-1]


def write_report(report: Any, path: str | os.PathLike) -> str:
    text = canonical_json(report)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return text


def read_report(path: str | os.PathLike) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ValueError(f"{path}: not a report file (missing 'kind')")
    return payload


def _cell(value: Any) -> str:
    """One CSV cell; floats keep full repr so the projection stays exact,
    and a list is its cells joined by ";"."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ";".join(map(_cell, value))
    return str(value)


def census_csv(payload: dict) -> str:
    rows = payload["rows"]
    has_parts = any(r.get("parts") for r in rows)
    part_keys = sorted({k for r in rows for k in (r.get("parts") or ())})
    header = ["x", "count", "bound", "ratio", "verdict"] + part_keys
    lines = [",".join(header)]
    for r in rows:
        cells = [_cell(r[key]) for key in ("x", "count", "bound", "ratio", "verdict")]
        if has_parts:
            parts = r.get("parts") or {}
            cells += [_cell(parts.get(k, "")) for k in part_keys]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _tally_arrays(tally: dict | ArrayMap) -> tuple[np.ndarray, np.ndarray]:
    flat = _flat_arrays(tally)
    if flat is None:
        raise ValueError("a k-gram tally must map plain ASCII words to int64 counts")
    return flat


def kgram_csv(payload: dict) -> str:
    """One row per word of `counts`, from the aligned arrays: complete,
    boundary and tail are 0 where the word is absent, and freq is
    count / windows in float64, which rounds as Python's int / int
    while both stay below 2^53."""
    header = "word,count,complete,boundary,tail,freq\n"
    if not payload["counts"]:
        return header
    words, counts = _tally_arrays(payload["counts"])
    parts = [words, b",", _value_text(counts)]
    for name in ("complete_counts", "boundary_counts", "tail_counts"):
        aligned = np.zeros(len(words), dtype=np.int64)
        if payload[name]:
            keys, values = _tally_arrays(payload[name])
            aligned[np.searchsorted(words, keys)] = values
        parts += [b",", _value_text(aligned)]
    parts += [b",", _value_text(counts / payload["windows"]), b"\n"]
    return header + _rows(parts, len(words))


def density_csv(payload: dict) -> str:
    lines = ["x,count,floor,passes"]
    for r in payload["rows"]:
        lines.append(",".join(_cell(r[key]) for key in ("x", "count", "floor", "passes")))
    return "\n".join(lines) + "\n"


_PROJECTIONS = {
    "census-report": census_csv,
    "kgram-frequency-report": kgram_csv,
    "density-report": density_csv,
}

# the kinds projected as one "field,value" line per field
_FIELDS = {
    "classification-report": ("eps", "k", "g", "order", "limit", "bad_count", "bad_fraction"),
    "growth-report": (
        "spec", "x", "sum_ratio", "max_ratio", "lower_reference", "upper_reference", "passes",
    ),
    "block-repetition-report": (
        "primes", "k", "g", "order", "N", "block", "block_len", "n",
        "period_modulus", "period_count", "observed", "normal_ceiling", "separation",
    ),
    "extremal-ratio-report": (
        "x", "min_phi_ratio", "argmin_phi", "max_sigma_ratio", "argmax_sigma",
        "e_neg_gamma", "e_gamma",
    ),
}

CSV_KINDS = (*_PROJECTIONS, *_FIELDS)


def to_csv(report: Any) -> str:
    """Project any report payload to CSV, dispatching on its "kind" tag."""
    payload = _payload(report)
    kind = payload.get("kind")
    if kind in _FIELDS:
        lines = [f"{name},{_cell(payload[name])}\n" for name in _FIELDS[kind]]
        return "field,value\n" + "".join(lines)
    if kind not in _PROJECTIONS:
        raise ValueError(f"no CSV projection for report kind {kind!r}")
    return _PROJECTIONS[kind](payload)
