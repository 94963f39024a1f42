"""Canonical JSON emission and CSV projections for report payloads.

Every report in this package serializes through `to_dict()` into a plain
dict tagged with a "kind" key.  This module owns the byte layout: JSON is
written with sorted keys, two-space indent, ASCII escapes and a trailing
newline, so equal payloads produce equal files.  One writer,
`canonical_json`, produces it.  CSV is a lossy projection
of the JSON (headers per kind below); round-tripping through a JSON file
and projecting gives the same bytes as projecting the live object.
"""

from __future__ import annotations

import json
import math
import os
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

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
    ensure_ascii=True)` plus a newline.  Maps of str to int or to finite
    float (the k-gram tallies and frequencies) are written line by line;
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


def _flat_map_lines(obj: dict, indent: str) -> list[str] | None:
    """The item lines of a str -> int or str -> finite float map, or None
    for any other dict.  Float text is made once per distinct value."""
    if set(map(type, obj)) != {str}:
        return None
    value_types = set(map(type, obj.values()))
    if value_types == {int}:
        return [f"{indent}{_quote(key)}: {value}" for key, value in sorted(obj.items())]
    if value_types == {float}:
        distinct = set(obj.values())
        # 0.0 and -0.0 are one set entry but two texts
        if 0.0 in distinct or not all(map(math.isfinite, distinct)):
            return None
        text = {value: float.__repr__(value) for value in distinct}
        return [f"{indent}{_quote(key)}: {text[value]}" for key, value in sorted(obj.items())]
    return None


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
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        lines = _flat_map_lines(obj, inner)
        if lines is not None:
            out.append(",".join(lines))
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
    complete = payload["complete_counts"]
    boundary = payload["boundary_counts"]
    tail = payload["tail_counts"]
    lines = ["word,count,complete,boundary,tail,freq"]
    for word in sorted(payload["counts"]):
        count = payload["counts"][word]
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
