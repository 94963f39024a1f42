"""Canonical JSON emission and CSV projections for report payloads.

Every report in this package serializes through `to_dict()` into a dict
tagged with a "kind" key, whose values are JSON scalars, lists, dicts and,
for the k-gram tallies, `ArrayMap`s.  This module owns the byte layout:
JSON is written with sorted keys, two-space indent, ASCII escapes and a
trailing newline, so equal payloads produce equal files.  One writer,
`canonical_json`, produces it.  CSV is a lossy projection of the JSON
(headers per kind below); round-tripping through a JSON file and
projecting gives the same bytes as projecting the live object.
"""

from __future__ import annotations

import json
import math
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
    not yet sorted.  `canonical_json` writes the map from the arrays,
    without a Python object per entry.
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
    if isinstance(report, dict):
        return report
    to_dict = getattr(report, "to_dict", None)
    if to_dict is None:
        raise TypeError(f"not a report payload: {type(report).__name__}")
    return to_dict()


def canonical_json(report: Any) -> str:
    """Deterministic JSON text for a report object or payload dict.

    The bytes are those of `json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=True)` plus a newline, with each `ArrayMap` written as
    the dict it equals.  Maps of str to int or to finite nonzero float,
    array-backed or plain, are written by one array line builder;
    everything else follows json's own scalar rules.
    """
    out: list[str] = []
    _write(_payload(report), "\n", out)
    out.append("\n")
    return "".join(out)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value: Any) -> str | None:
    """json's text for a str, None, bool, int or float; None otherwise."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key: Any) -> str:
    """A dict key as json converts it to str, before quoting."""
    if isinstance(key, str):
        return key
    text = _scalar_text(key)
    if text is None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
        )
    return text


def _flat_arrays(obj: dict | ArrayMap) -> tuple[np.ndarray, np.ndarray] | None:
    """Escaped key bytes and int64 or float64 values, in key order, of a
    str -> int (within int64) or str -> finite float map; None for any
    other map.  A float map holding 0.0 or -0.0 is also None: the two are
    one distinct value with two texts."""
    if isinstance(obj, ArrayMap):
        keys, values = obj.key_text, obj.value_array
    else:
        if set(map(type, obj)) != {str}:
            return None
        value_types = set(map(type, obj.values()))
        if value_types == {int}:
            if not -(1 << 63) <= min(obj.values()) <= max(obj.values()) < 1 << 63:
                return None
            dtype = np.int64
        elif value_types == {float}:
            dtype = np.float64
        else:
            return None
        items = sorted(obj.items())
        keys = np.array([_quote(key)[1:-1] for key, _ in items], dtype="S")
        values = np.array([value for _, value in items], dtype=dtype)
    if values.dtype == np.float64 and not (values.all() and np.isfinite(values).all()):
        return None
    return keys, values


def _item_lines(keys: np.ndarray, values: np.ndarray, indent: str) -> str:
    """`indent "key": value` for each entry, joined by ",".

    Each distinct value is formatted once.  The lines are built as the
    rows of one NUL-padded byte block; canonical ASCII JSON holds no NUL
    byte, so dropping every NUL leaves the text."""
    distinct, inverse = np.unique(values, return_inverse=True)
    text = int.__repr__ if values.dtype == np.int64 else float.__repr__
    table = np.array([text(value) for value in distinct.tolist()], dtype="S")
    parts = [(indent + '"').encode("ascii"), keys, b'": ', table[inverse], b","]
    widths = [part.itemsize if isinstance(part, np.ndarray) else len(part) for part in parts]
    block = np.zeros((len(keys), sum(widths)), dtype=np.uint8)
    col = 0
    for part, width in zip(parts, widths):
        if isinstance(part, np.ndarray):
            part = part.view(np.uint8).reshape(len(keys), width)
        else:
            part = np.frombuffer(part, dtype=np.uint8)
        block[:, col : col + width] = part
        col += width
    return block[block != 0].tobytes()[:-1].decode("ascii")


def _write(obj: Any, newline: str, out: list[str]) -> None:
    """Append the text of `obj` at the indentation that `newline` ends in."""
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
        return
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[")
        sep = inner
        for item in obj:
            out.append(sep)
            sep = "," + inner
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(obj, (dict, ArrayMap)):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        flat = _flat_arrays(obj)
        if flat is not None:
            out.append(_item_lines(*flat, inner))
        else:
            sep = inner
            for key, value in sorted(obj.items()):
                out.append(sep + _quote(_key_text(key)) + ": ")
                sep = "," + inner
                _write(value, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


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
    """One CSV cell; floats keep full repr so the projection stays exact."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
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


def kgram_csv(payload: dict) -> str:
    windows = payload["windows"]
    complete, boundary, tail = (
        dict(payload[name].items()) for name in ("complete_counts", "boundary_counts", "tail_counts")
    )
    lines = ["word,count,complete,boundary,tail,freq"]
    for word, count in sorted(payload["counts"].items()):
        freq = count / windows if windows else 0.0
        lines.append(
            ",".join(
                [
                    word,
                    str(count),
                    str(complete.get(word, 0)),
                    str(boundary.get(word, 0)),
                    str(tail.get(word, 0)),
                    repr(freq),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _field_value_csv(payload: dict, fields: tuple[str, ...]) -> str:
    lines = ["field,value"]
    for name in fields:
        lines.append(f"{name},{_cell(payload[name])}")
    return "\n".join(lines) + "\n"


def classification_csv(payload: dict) -> str:
    return _field_value_csv(
        payload, ("eps", "k", "g", "order", "limit", "bad_count", "bad_fraction")
    )


def growth_csv(payload: dict) -> str:
    return _field_value_csv(
        payload,
        ("spec", "x", "sum_ratio", "max_ratio", "lower_reference", "upper_reference", "passes"),
    )


def block_repetition_csv(payload: dict) -> str:
    out = dict(payload)
    out["primes"] = ";".join(str(p) for p in payload["primes"])
    return _field_value_csv(
        out,
        (
            "primes",
            "k",
            "g",
            "order",
            "N",
            "block",
            "block_len",
            "n",
            "period_modulus",
            "period_count",
            "observed",
            "normal_ceiling",
            "separation",
        ),
    )


def extremal_csv(payload: dict) -> str:
    return _field_value_csv(
        payload,
        (
            "x",
            "min_phi_ratio",
            "argmin_phi",
            "max_sigma_ratio",
            "argmax_sigma",
            "e_neg_gamma",
            "e_gamma",
        ),
    )


def density_csv(payload: dict) -> str:
    lines = ["x,count,floor,passes"]
    for r in payload["rows"]:
        lines.append(",".join(_cell(r[key]) for key in ("x", "count", "floor", "passes")))
    return "\n".join(lines) + "\n"


_PROJECTIONS = {
    "census-report": census_csv,
    "kgram-frequency-report": kgram_csv,
    "classification-report": classification_csv,
    "growth-report": growth_csv,
    "block-repetition-report": block_repetition_csv,
    "extremal-ratio-report": extremal_csv,
    "density-report": density_csv,
}

CSV_KINDS = tuple(_PROJECTIONS)


def to_csv(report: Any) -> str:
    """Project any report payload to CSV, dispatching on its "kind" tag."""
    payload = _payload(report)
    kind = payload.get("kind")
    project = _PROJECTIONS.get(kind)
    if project is None:
        raise ValueError(f"no CSV projection for report kind {kind!r}")
    return project(payload)
