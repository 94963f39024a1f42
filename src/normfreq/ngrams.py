"""Overlapping k-gram statistics over concatenation digit streams.

The window count over an N-digit prefix decomposes exactly, per word,
into windows inside complete value-words, windows spanning a word
boundary, and windows inside the final partial word (the decomposition
of Copeland and Erdős).  The windows are classified from the word ends
alone: the windows starting 1..k-1 digits before an end are the boundary
windows, and when the cut falls inside the final word its windows are a
suffix of the window range.  All tallies are integers.  Every loop that
takes a `threads` argument runs through `blocked_map`, which cuts its
range into fixed blocks: the window chunks of `count_stream`, and the
value blocks of its `eps` classifier and of `classify_checkpoints`.
Chunked and threaded runs therefore reproduce the single-pass result
bit for bit.  `checkpoint_counts` reads the checkpoint counts of one
flag mask; the censuses of `experiments` call it once on a whole-range
mask.
"""

from __future__ import annotations

from concurrent import futures
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import words as words_mod
from .arith import ArithEngine, CompositionSpec
from .errors import CapacityError, DegenerateInputError
from .reports import ArrayMap
from .words import MSF, DigitOrder, word_texts

# windows per block of the `count_stream` tally
_CHUNK = 1 << 20

# dense count tables are used while g^k stays at or below this: a
# table then has no more entries than a chunk has windows
DENSE_LIMIT = _CHUNK

# integers (or stream values) per block of the classifier
_BLOCK = 1 << 16


def blocked_map(
    work: Callable[[int, int], object], total: int, block: int, threads: int
) -> Iterator:
    """work(lo, hi) for each fixed block [lo, hi) of range(total), lazily
    and in block order.

    The block edges depend on `total` and `block` only, so every thread
    count yields the same results.  `threads` is checked here, at call
    time, for every command that takes one."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    bounds = [(lo, min(lo + block, total)) for lo in range(0, total, block)]
    if threads == 1 or len(bounds) <= 1:
        return starmap(work, bounds)

    def pooled():
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(work, *zip(*bounds))

    return pooled()


# ---------------------------------------------------------------------------
# stream counting
# ---------------------------------------------------------------------------


class _KGramPayload(dict):
    """The k-gram report payload, a plain dict to every reader.
    `perfbench/tracing.py` reads the window count and the four tallies
    as attributes, so those five are properties too."""

    window_count = property(itemgetter("windows"))
    counts = property(itemgetter("counts"))
    complete_counts = property(itemgetter("complete_counts"))
    boundary_counts = property(itemgetter("boundary_counts"))
    tail_counts = property(itemgetter("tail_counts"))


def frequencies(counts: ArrayMap, windows: int) -> ArrayMap:
    """count / windows for each word.  Counts and windows stay below
    2^53, so float64 division rounds exactly as Python's int / int."""
    return ArrayMap(counts.key_text, counts.value_array / windows)


def count_stream(
    engine: ArithEngine,
    spec: CompositionSpec,
    num_digits: int,
    g: int = 10,
    k: int = 1,
    order: DigitOrder = MSF,
    eps: Optional[float] = None,
    threads: int = 1,
) -> dict:
    """Census every k-gram window of the first `num_digits` digits; each
    tally maps a word's text to its count.

    The result is independent of `threads`: the window range is chunked,
    and with `eps` the complete words are classified in blocks, by
    `blocked_map`; integer tallies are summed in block order.  Counts are
    dense tables while g^k <= `DENSE_LIMIT`, sorted code runs above it.
    """
    if num_digits < 1:
        raise ValueError("need at least one digit")
    if k < 1:
        raise ValueError("word length k must be >= 1")
    size = g**k
    if size > 1 << 63:
        raise CapacityError(
            f"g**k = {size} window codes do not fit int64 (g={g}, k={k})"
        )
    if eps is not None:
        words_mod.check_eps(eps)
    res = words_mod.truncate(engine, spec, num_digits, g, order)
    digits, lengths, final_index, flush = res.digits, res.lengths, res.final_index, res.flush
    windows = max(0, num_digits - k + 1)
    dense = size <= DENSE_LIMIT
    powers = g ** np.arange(k - 1, -1, -1, dtype=np.int64)
    # a window starting `back` digits before a word end crosses it; a
    # start before the word's own first digit is set by an earlier end
    ends = np.cumsum(lengths)
    crosses = np.zeros(windows, dtype=bool)
    for back in range(1, k):
        starts = ends[lengths >= back] - back  # sorted
        crosses[starts[: np.searchsorted(starts, windows)]] = True
    del ends
    # the tail is the windows inside the cut final word: a suffix
    cut = num_digits if flush else num_digits - res.consumed_of_final

    def tally_chunk(start, stop):
        codes = np.lib.stride_tricks.sliding_window_view(digits, k)[start:stop] @ powers
        cross = crosses[start:stop]
        split = max(cut - start, 0)
        out = []
        for sel in (codes[:split][~cross[:split]], codes[cross], codes[split:]):
            if dense:
                out.append(np.bincount(sel, minlength=size))
            else:
                uniq, cnt = np.unique(sel, return_counts=True)
                out.append((uniq, cnt))
        return out

    def merge(chunks):
        """Sum the chunk tallies in chunk order into one sorted code array
        and three aligned tallies."""
        if dense:
            tables = np.zeros((3, size), dtype=np.int64)
            for chunk in chunks:  # folded as it arrives
                for table, part in zip(tables, chunk):
                    table += part
            codes = np.flatnonzero(tables.sum(axis=0))
            return codes, tables[:, codes]
        pieces = [(i, uniq, cnt) for chunk in chunks for i, (uniq, cnt) in enumerate(chunk)]
        codes, slot = np.unique(
            np.concatenate([uniq for _, uniq, _ in pieces] or [np.empty(0, np.int64)]),
            return_inverse=True,
        )
        tables = np.zeros((3, len(codes)), dtype=np.int64)
        start = 0
        for i, uniq, cnt in pieces:  # codes are unique within a piece
            tables[i, slot[start : start + len(uniq)]] += cnt
            start += len(uniq)
        return codes, tables

    codes, tables = merge(blocked_map(tally_chunk, windows, _CHUNK, threads))
    complete, boundary, tail = tables
    total = tables.sum(axis=0)
    labels = word_texts(codes, g, k)

    def tally(table):
        live = table > 0
        return ArrayMap(labels[live], table[live])

    max_dev = 0.0
    if windows > 0:
        center = 1.0 / size
        max_dev = float(np.abs(total / windows - center).max())
        if len(codes) < size:  # an absent word deviates by exactly center
            max_dev = max(max_dev, center)

    bad_count = None
    if eps is not None:

        def bad_in(lo, hi):
            return int(words_mod.eps_k_bad_mask(res.values[lo:hi], eps, k, g).sum())

        complete_words = final_index if flush else final_index - 1
        bad_count = sum(blocked_map(bad_in, complete_words, _BLOCK, threads))

    counts = ArrayMap(labels, total)  # every code in `codes` occurs
    return _KGramPayload(
        kind="kgram-frequency-report",
        schema=1,
        spec=spec.describe(),
        g=g,
        k=k,
        order=order.value,
        N=num_digits,
        n=final_index,
        consumed_of_final=res.consumed_of_final,
        flush=flush,
        windows=windows,
        max_dev=max_dev,
        boundary=int(boundary.sum()),
        tail=int(tail.sum()),
        eps=eps,
        bad_count=bad_count,
        freqs=frequencies(counts, windows),
        counts=counts,
        complete_counts=tally(complete),
        boundary_counts=tally(boundary),
        tail_counts=tally(tail),
    )


# ---------------------------------------------------------------------------
# checkpoint censuses, classification and meager-growth fits
# ---------------------------------------------------------------------------


def validate_checkpoints(checkpoints: Sequence[int]) -> list[int]:
    """Checkpoints as a list of ints; they must be strictly increasing and >= 1."""
    cps = [int(c) for c in checkpoints]
    if not cps or cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    return cps


def checkpoint_counts(mask: np.ndarray, cps: Sequence[int]) -> list[int]:
    """How many of mask[:c] are set, for each checkpoint c in increasing
    order; one pass over mask[:cps[-1]]."""
    counts, running, prev = [], 0, 0
    for c in cps:
        running += int(np.count_nonzero(mask[prev:c]))
        counts.append(running)
        prev = c
    return counts


def classify_checkpoints(
    eps: float, k: int, g: int, checkpoints: Sequence[int], threads: int = 1
) -> list[int]:
    """How many m <= c fail the strict (eps, k) block-count test, for each
    checkpoint c; one `eps_k_bad_mask` per fixed block of 1..max.  The
    verdict does not depend on the digit order."""
    cps = validate_checkpoints(checkpoints)

    def work(start, stop):
        # the block holds m = start + 1 .. stop
        mask = words_mod.eps_k_bad_mask(np.arange(start + 1, stop + 1, dtype=np.int64), eps, k, g)
        inside = [c - start for c in cps if start < c <= stop]
        return checkpoint_counts(mask, inside), int(np.count_nonzero(mask))

    counts = []
    running = 0
    for edges, total in blocked_map(work, cps[-1], _BLOCK, threads):
        counts.extend(running + e for e in edges)
        running += total
    return counts


@dataclass(frozen=True)
class MeagerFit:
    """Least-squares slope of log(count) against log(x)."""

    delta: float
    intercept: float
    residuals: tuple[float, ...]


def fit_meager_exponent(xs: Sequence[int], counts: Sequence[int]) -> MeagerFit:
    """Fit counts ~ C * x^delta through the positive checkpoints."""
    pts = [(x, c) for x, c in zip(xs, counts) if c > 0]
    if len(xs) != len(counts):
        raise ValueError("xs and counts must align")
    if len(pts) < 2:
        raise DegenerateInputError("need at least two positive counts to fit")
    lx = np.log([p[0] for p in pts])
    lc = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, lc, 1)
    resid = lc - (slope * lx + intercept)
    return MeagerFit(float(slope), float(intercept), tuple(float(r) for r in resid))
