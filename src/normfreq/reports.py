"""Canonical JSON emission and CSV projections for report payloads.

Every report in this package is its payload: a dict tagged with a "kind"
key, whose values are JSON scalars, lists, dicts and, for the k-gram
tallies, `ArrayMap`s.  This module owns the byte layout:
JSON is written with sorted keys, two-space indent, ASCII escapes and a
trailing newline, so equal payloads produce equal files.  One writer,
`json_chunks`, produces it as consecutive bytes-like chunks:
`json.dumps` writes everything except the top-level flat maps, whose
lines come from one array row builder a block of rows at a time, the
same one that writes the k-gram CSV rows.  A map's value texts are a
small table of distinct texts and each entry's index into it, which the
builder gathers block by block (a `RatioMap`, the k-gram `freqs`, takes
its table from its integer counts), so no text array spans a map.
`canonical_json` joins the chunks into the text, and `write_report`
streams them into a file, which it replaces only once the report is
complete.  CSV is a lossy projection of
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
    not yet sorted.  At the top level of a payload, `json_chunks`
    writes the map from the arrays, without a Python object per entry.
    """

    __slots__ = ("key_text", "value_array")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        keys = np.ascontiguousarray(keys)
        if keys.dtype.kind != "S" or keys.ndim != 1:
            raise ValueError("keys must be a 1-d bytes array aligned with the values")
        values = _checked_values(values, keys)
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

    @staticmethod
    def _of_sorted(keys: np.ndarray, values: np.ndarray) -> ArrayMap:
        """The map from `keys` to the aligned `values`, unchecked: the
        caller has made the keys valid, unique and increasing."""
        out = ArrayMap.__new__(ArrayMap)
        out.key_text, out.value_array = keys, _checked_values(values, keys)
        return out

    def with_values(self, values: np.ndarray, keep: np.ndarray | None = None) -> ArrayMap:
        """The map from these keys to the aligned `values`, limited to the
        entries where the boolean `keep` is set.  The keys are not checked
        again: any ordered selection of valid keys is valid."""
        values = _checked_values(values, self.key_text)
        if keep is None:
            return ArrayMap._of_sorted(self.key_text, values)
        # a take of the kept positions, not a boolean index: 1.5 ms, not
        # 6.3, for half of 496,826 6-byte keys and their int64 values
        at = np.flatnonzero(keep)
        return ArrayMap._of_sorted(self.key_text.take(at), values.take(at))

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

    def _texts(self) -> tuple[np.ndarray, np.ndarray]:
        """The values' texts as json writes them: a table of `S` texts and
        each entry's index into it (see `_value_text`)."""
        return _value_text(self.value_array)


class RatioMap(ArrayMap):
    """The map from the keys of an int64 `ArrayMap` of counts to count /
    total in float64, which keeps the counts and the total.

    It is the `ArrayMap` of those floats to every reader.  The writer
    takes each value's text from the counts: one text per count in the
    counts' table, each the repr of the same float64 division, so a
    plain dict of the same floats writes the same bytes.  `with_values`
    gives a plain `ArrayMap`.
    """

    __slots__ = ("counts", "total")

    def __init__(self, counts: ArrayMap, total: int):
        self.key_text = counts.key_text
        self.value_array = counts.value_array / total
        self.counts, self.total = counts.value_array, total

    def _texts(self) -> tuple[np.ndarray, np.ndarray]:
        return _value_text(self.counts, self.total)


def _checked_values(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if keys.shape != values.shape:
        raise ValueError("keys must be a 1-d bytes array aligned with the values")
    if values.dtype != np.int64 and values.dtype != np.float64:
        raise TypeError(f"values must be int64 or float64, not {values.dtype}")
    return values


def _payload(report: Any) -> dict:
    if not isinstance(report, dict):
        raise TypeError(f"not a report payload: {type(report).__name__}")
    return report


def json_chunks(report: dict) -> Iterator[bytes | np.ndarray]:
    """The canonical JSON bytes of a report payload, as consecutive
    bytes-like chunks (`bytes`, or uint8 arrays for the map rows).

    The bytes are those of `json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=True)` plus a newline, with each `ArrayMap` written as
    the dict it equals.  json writes everything except the top-level
    flat maps (str to int64 or to finite nonzero float, array-backed or
    plain), whose lines come from the array row builder a block of rows
    at a time, so no chunk holds a whole map.  Each map's value texts are
    a table and an index into it (`_value_text`); a `RatioMap`, such as a
    k-gram report's `freqs`, takes its table from its integer counts.
    """
    payload = _payload(report)
    if not all(isinstance(key, str) for key in payload):
        yield (_dumps(payload) + "\n").encode("ascii")
        return
    sep = "{"
    for key in sorted(payload):
        value = payload[key]
        yield f"{sep}\n  {_quote(key)}: ".encode("ascii")
        sep = ","
        flat = _flat_map(value) if isinstance(value, (dict, ArrayMap)) and value else None
        if flat is not None:
            yield b"{"
            yield from _item_lines(flat.key_text, flat._texts(), b"\n    ")
            yield b"\n  }"
        else:
            # ASCII JSON holds no raw newline, so every one starts a line
            yield _dumps(value).replace("\n", "\n  ").encode("ascii")
    yield b"{}\n" if sep == "{" else b"\n}\n"


def canonical_json(report: dict) -> str:
    """Deterministic JSON text for a report payload dict: the joined
    `json_chunks`."""
    return b"".join(json_chunks(report)).decode("ascii")


def _as_dict(value: Any) -> dict:
    if isinstance(value, ArrayMap):
        return dict(value.items())
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True, default=_as_dict)


def _flat_map(obj: dict | ArrayMap) -> ArrayMap | None:
    """An `ArrayMap` itself, or the one equal to a plain str -> int
    (within int64) or str -> finite float dict whose keys an `ArrayMap`
    accepts; None for any other map.  A float map holding 0.0 or -0.0 is
    also None: the two are one distinct value with two texts."""
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
    values = obj.value_array
    if values.dtype == np.float64 and not (values.all() and np.isfinite(values).all()):
        return None
    return obj


def _value_text(values: np.ndarray, total: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The text of each int64 or finite float64 value, as json writes it,
    as a table of `S` texts and each value's index into the table.  With
    `total`, the values are int64 counts and the texts are those of each
    count / total in float64.

    Int values whose range is below their count index a table of their
    whole range by their offset from the lowest, with no sort; any others
    index their distinct values, found by `np.unique`.  Each text in the
    table is formatted once."""
    distinct = None
    if values.dtype == np.int64 and len(values):
        low, high = int(values.min()), int(values.max())
        if high - low < len(values):
            # exact: no offset reaches the count
            distinct, index = np.arange(low, high + 1, dtype=np.int64), values - low
    if distinct is None:
        distinct, index = np.unique(values, return_inverse=True)
    if total is not None:
        distinct = distinct / total
    elif distinct.dtype == np.int64:
        # the widest text is at an end of the sorted values
        width = max(len(str(distinct[0])), len(str(distinct[-1]))) if len(distinct) else 1
        return distinct.astype(f"S{width}"), index
    return np.array([float.__repr__(value) for value in distinct.tolist()], dtype="S"), index


# rows per chunk of `_rows`: the 35 MB prefix-primes-k6 report takes 61 ms at
# 2^10, 53 at 2^12-2^14, 58 at 2^16 and 70 at 2^18, which adds 32 MB of peak
_ROW_BLOCK = 1 << 14


def _rows(parts: list, count: int) -> Iterator[np.ndarray]:
    """`count` rows, each the concatenation of `parts`, as uint8 arrays of
    the bytes of consecutive blocks of rows.  A part is a byte constant,
    an `S` array of `count` entries, or a (table, index) pair of an `S`
    table and `count` indices into it.  A block is a record array with
    one NUL-padded field per part: the constants are filled once, and
    each block takes its slice of every array and gathers its texts from
    every table.  The text holds no NUL byte, so dropping every NUL
    leaves it."""

    def width(part) -> int:
        if isinstance(part, tuple):
            return part[0].itemsize
        return part.itemsize if isinstance(part, np.ndarray) else len(part)

    fields = [(str(i), f"S{width(part)}") for i, part in enumerate(parts)]
    block = np.empty(min(count, _ROW_BLOCK), dtype=fields)
    for (name, _), part in zip(fields, parts):
        if isinstance(part, bytes):
            block[name] = part
    for lo in range(0, count, _ROW_BLOCK):
        rows = block[: min(count - lo, _ROW_BLOCK)]
        for (name, _), part in zip(fields, parts):
            if isinstance(part, tuple):
                table, index = part
                rows[name] = table[index[lo : lo + len(rows)]]
            elif isinstance(part, np.ndarray):
                rows[name] = part[lo : lo + len(rows)]
        raw = rows.view(np.uint8)
        yield raw[raw != 0]


def _item_lines(
    keys: np.ndarray, texts: tuple[np.ndarray, np.ndarray], indent: bytes
) -> Iterator[np.ndarray]:
    """`indent "key": value` for each of the (one or more) entries,
    joined by ",", with the values' texts as a (table, index) pair."""
    rows = _rows([b",", indent + b'"', keys, b'": ', texts], len(keys))
    yield next(rows)[1:]  # no comma before the first entry
    yield from rows


def write_report(report: Any, path: str | os.PathLike, fmt: str = "json") -> None:
    """Write a report's canonical JSON, or with fmt="csv" its CSV
    projection, to `path`.  The JSON is written chunk by chunk as it is
    built, into a temporary file beside `path` that replaces `path` only
    once complete: an error leaves `path` as it was and no temporary
    file behind."""
    chunks = [to_csv(report).encode("ascii")] if fmt == "csv" else json_chunks(report)
    head, name = os.path.split(os.fspath(path))
    temporary = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(temporary, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


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
    flat = _flat_map(tally)
    if flat is None:
        raise ValueError("a k-gram tally must map plain ASCII words to int64 counts")
    return flat.key_text, flat.value_array


def kgram_csv(payload: dict) -> str:
    """One row per word of `counts`, from the aligned arrays: complete,
    boundary and tail are 0 where the word is absent, and freq is
    count / windows in float64, which rounds as Python's int / int
    while both stay below 2^53; its texts come from the counts' table,
    as a `RatioMap`'s do."""
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
    parts += [b",", _value_text(counts, payload["windows"]), b"\n"]
    return header + b"".join(_rows(parts, len(words))).decode("ascii")


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
