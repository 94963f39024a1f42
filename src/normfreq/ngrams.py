"""Overlapping k-gram statistics over concatenation digit streams.

The window count over an N-digit prefix decomposes exactly, per word,
into windows inside complete value-words, windows spanning a word
boundary, and windows inside the final partial word (the decomposition
of Copeland and Erdős).  The windows are classified from the word ends
alone: the windows starting 1..k-1 digits before an end are the boundary
windows, and when the cut falls inside the final word its windows are a
suffix of the window range.  All tallies are integers.

`count_stream` folds the prefix as `words.prefix_blocks` makes it, one
block of values at a time, on the calling thread: its windows are
tallied in fixed chunks of `_CHUNK` windows counted from window 0, and
its `eps` classifier takes each block's complete words as the block
passes.  `checkpoint_counts` runs a block test through `blocked_map`,
which cuts its range into fixed blocks of `words._BLOCK` and may thread
them, and adds each block's count to the checkpoints inside it as the
blocks pass.  `classify_checkpoints` at k >= 2 (at k = 1 it counts by a
digit DP instead) and the mask censuses of `experiments` (on one thread)
count through it, so no mask spans more than one block.  No edge depends
on a thread count, so any `threads` value reproduces the single-pass
result bit for bit.
"""

from __future__ import annotations

import bisect
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import words as words_mod
from .arith import INT64_MAX, ArithEngine, CompositionSpec
from .errors import CapacityError, DegenerateInputError
from .reports import ArrayMap, RatioMap
from .words import MSF, DigitOrder, window_codes, word_texts

# windows per tally chunk: one per prefix block takes prefix-primes-k6 to 103 MB, not 90
_CHUNK = 1 << 20

# dense count tables are used while g^k stays at or below this: a chunk's
# (3, g^k) table then has at most 3 entries per window of a whole chunk
# (3 * 10^6 int64 entries, 24 MB, at g = 10 and k = 6)
DENSE_LIMIT = _CHUNK

# the most integers `classify_checkpoints` tests one at a time: about
# 5 minutes on one core at k = 2 or 3 (0.2-0.35 s per 10^6)
ENUMERATION_CAP = 10**9


def blocked_map(work: Callable[[int, int], object], total: int, threads: int) -> Iterator:
    """work(lo, hi) for each fixed block [lo, hi) of `words._BLOCK`
    integers in range(total), lazily and in block order.

    The block edges depend only on `total` and the block size, read at
    each call, so every thread count yields the same results.  `threads`
    is checked here, at call time, for every threaded loop."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    # the blocks come from ranges as they are needed (10^12 values are
    # 15M blocks), and a pool holds at most 2 * threads of them at once
    los = range(0, total, words_mod._BLOCK)
    his = chain(los[1:], (total,))
    if threads == 1 or len(los) <= 1:
        return map(work, los, his)

    def pooled():
        with futures.ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            try:
                for lo, hi in zip(los, his):
                    pending.append(pool.submit(work, lo, hi))
                    if len(pending) == 2 * threads:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                for future in pending:  # when the caller stops early
                    future.cancel()

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


def frequencies(counts: ArrayMap, windows: int) -> RatioMap:
    """count / windows for each word, as float64.  Counts and windows stay
    below 2^53, so the division rounds exactly as Python's int / int.  The
    map keeps the counts, and the writer formats one text per distinct
    count, from the counts' own text table."""
    return RatioMap(counts, windows)


def _window_chunks(blocks, num_digits: int, k: int):
    """The windows of an N-digit prefix, fed as the blocks of
    `words.prefix_blocks`, in chunks of `_CHUNK` windows counted from
    window 0.

    For each chunk of windows [start, stop) this yields start, stop, the
    digits from `start` to the last window's end, the word ends (stream
    positions) from `start` on, and the first window of the tail: N
    until the final block has passed, since the tail lies in its last
    word.  The digits and ends that no chunk has passed yet are held
    from block to block.
    """
    windows = max(0, num_digits - k + 1)
    start = base = 0  # the next chunk's first window; the position of held[0][0]
    held, held_ends = [], []
    cut = num_digits
    for block in blocks:
        held.append(block.digits)
        if k > 1:
            held_ends.append(block.start + np.cumsum(block.lengths, dtype=np.int64))
        if block.cut_inside:
            cut = num_digits - int(block.lengths[-1])  # the cut word starts here
        have = block.start + len(block.digits)  # the digits held end here
        while start < windows and have >= min(start + _CHUNK, windows) + k - 1:
            stop = min(start + _CHUNK, windows)
            digits = np.concatenate(held)
            ends = np.concatenate(held_ends or [np.empty(0, dtype=np.int64)])
            held = held_ends = None  # so that the pieces are freed before the tally
            yield start, stop, digits[start - base : stop + k - 1 - base], ends, cut
            held, held_ends, base = [digits[stop - base :]], [ends[ends > stop]], stop
            start = stop


def count_stream(
    engine: ArithEngine,
    spec: CompositionSpec,
    num_digits: int,
    g: int = 10,
    k: int = 1,
    order: DigitOrder = MSF,
    eps: Optional[float] = None,
) -> dict:
    """Census every k-gram window of the first `num_digits` digits; each
    tally maps a word's text to its count.

    The prefix is folded block by block (`words.prefix_blocks`), so no
    array spans it: each chunk of `_CHUNK` windows is tallied once its
    digits have arrived, and with `eps` each block's complete words are
    classified as it passes.  Integer tallies are summed in chunk order
    on the calling thread.  Counts are dense tables while g^k <=
    `DENSE_LIMIT`, sorted code runs above it.
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
    windows = max(0, num_digits - k + 1)
    dense = size <= DENSE_LIMIT

    def tally_chunk(start, stop, digits, ends, cut):
        """The complete, boundary and tail tallies of windows [start, stop)."""
        # a window starting `back` digits before a word end crosses it; the
        # tail is the windows from `cut` on, which no crossing window reaches
        cross = np.zeros(stop - start, dtype=bool)
        for back in range(1, k):
            # the ends increase, so those `back` digits past a window start
            # of this chunk are one slice
            first, past = np.searchsorted(ends, [start + back, stop + back])
            cross[ends[first:past] - (start + back)] = True
        split = max(cut - start, 0)
        if dense:
            # the window's class (0 complete, 1 boundary, 2 tail) leads
            # its code, so one bincount fills the three tables
            codes = cross.astype(np.int64)
            codes[split:] = 2
        else:
            codes = np.zeros(stop - start, dtype=np.int64)
        window_codes(digits, k, g, codes)
        if dense:
            return np.bincount(codes, minlength=3 * size).reshape(3, size)
        return [
            np.unique(sel, return_counts=True)
            for sel in (codes[:split][~cross[:split]], codes[cross], codes[split:])
        ]

    def fold(codes, tables, pieces):
        """The sorted union of `codes` and the pieces' codes, and the three
        tallies aligned to it: `tables` plus each piece's counts."""
        merged, slot = np.unique(
            np.concatenate([codes, *(uniq for _, uniq, _ in pieces)]), return_inverse=True
        )
        out = np.zeros((3, len(merged)), dtype=np.int64)
        out[:, slot[: len(codes)]] = tables
        start = len(codes)
        for i, uniq, cnt in pieces:  # codes are unique within a piece
            out[i, slot[start : start + len(uniq)]] += cnt
            start += len(uniq)
        return merged, out

    def merge(chunks):
        """Sum the chunk tallies in chunk order into one sorted code array,
        three aligned tallies (a C-ordered (3, len(codes)) table) and
        their total."""
        if dense:
            tables = next(chunks, np.zeros((3, size), dtype=np.int64))
            for chunk in chunks:  # folded as it arrives
                tables += chunk
            # a bool mask, not an int64 row sum: at g^k = 10^6 its nonzero
            # takes 0.8 ms, not 9, and the whole-table sum would be a
            # freed 8 MB under the take (144 MB peak RSS at 10^7 digits,
            # not 136); the take keeps the rows contiguous
            codes = np.flatnonzero(tables.any(axis=0))
            tables = tables.take(codes, axis=1)
            return codes, tables, tables.sum(axis=0)
        codes, tables = np.empty(0, dtype=np.int64), np.zeros((3, 0), dtype=np.int64)
        pieces, held = [], 0
        for chunk in chunks:
            pieces += [(i, uniq, cnt) for i, (uniq, cnt) in enumerate(chunk)]
            held += sum(len(uniq) for uniq, _ in chunk)
            # folded once the pieces outgrow the running tallies, so the
            # held codes stay within a few times the distinct words
            if held > 4 * max(len(codes), _CHUNK):
                codes, tables = fold(codes, tables, pieces)
                pieces, held = [], 0
        codes, tables = fold(codes, tables, pieces)
        return codes, tables, tables.sum(axis=0)

    last = None
    bad_count = None if eps is None else 0

    def blocks():
        """The prefix's blocks; `last` is the newest, and with `eps` each
        block's complete words are classified as it passes."""
        nonlocal last, bad_count
        for last in words_mod.prefix_blocks(engine, spec, num_digits, g, order):
            if eps is not None:
                whole = last.values[: len(last.values) - last.cut_inside]
                bad = words_mod.eps_k_bad_mask(whole, eps, k, g)
                bad_count += int(np.count_nonzero(bad))
            yield last

    codes, tables, total = merge(
        tally_chunk(*chunk) for chunk in _window_chunks(blocks(), num_digits, k)
    )
    final_index = last.first + len(last.values) - 1
    consumed = int(last.lengths[-1])
    labels = word_texts(codes, g, k)
    if g > 10:  # dot-joined labels do not sort as their codes do
        by_label = np.argsort(labels, kind="stable")
        labels, tables, total = labels[by_label], tables.take(by_label, axis=1), total[by_label]
    complete, boundary, tail = tables
    # every code in `codes` occurs, and its label is plain digits (dotted
    # at g > 10), unique and now in order; each tally keeps the label order
    counts = ArrayMap._of_sorted(labels, total)

    max_dev = 0.0
    if windows > 0:
        center = 1.0 / size
        max_dev = float(np.abs(total / windows - center).max())
        if len(codes) < size:  # an absent word deviates by exactly center
            max_dev = max(max_dev, center)

    return _KGramPayload(
        kind="kgram-frequency-report",
        schema=1,
        spec=spec.describe(),
        g=g,
        k=k,
        order=order.value,
        N=num_digits,
        n=final_index,
        consumed_of_final=consumed,
        flush=consumed == last.final_length,
        windows=windows,
        max_dev=max_dev,
        boundary=int(boundary.sum()),
        tail=int(tail.sum()),
        eps=eps,
        bad_count=bad_count,
        freqs=frequencies(counts, windows),
        counts=counts,
        complete_counts=counts.with_values(complete, complete > 0),
        boundary_counts=counts.with_values(boundary, boundary > 0),
        tail_counts=counts.with_values(tail, tail > 0),
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


def checkpoint_counts(
    test: Callable[[int, int], np.ndarray], cps: Sequence[int], threads: int = 1
) -> list[int]:
    """How many n <= c pass `test`, for each checkpoint c of the strictly
    increasing `cps`.

    test(lo, hi) gives the bool mask of the block n = lo + 1..hi; it runs
    on each fixed block of 1..cps[-1] through `blocked_map`, and each
    block's counts are added to the checkpoints inside it as the blocks
    pass, so no mask outlives its block.
    """

    def work(lo, hi):
        # the block's count up to each checkpoint inside it, and its whole count
        mask = test(lo, hi)
        counts, running, prev = [], 0, 0
        for c in cps[bisect.bisect_right(cps, lo) : bisect.bisect_right(cps, hi)]:
            running += int(np.count_nonzero(mask[prev : c - lo]))
            counts.append(running)
            prev = c - lo
        return counts, running + int(np.count_nonzero(mask[prev:]))

    counts, running = [], 0
    for inside, total in blocked_map(work, cps[-1], threads):
        counts.extend(running + c for c in inside)
        running += total
    return counts


def classify_checkpoints(
    eps: float, k: int, g: int, checkpoints: Sequence[int], threads: int = 1
) -> list[int]:
    """How many m <= c fail the strict (eps, k) block-count test, for each
    checkpoint c.  The verdict does not depend on the digit order.

    For k = 1 each count is c minus `eps_1_normal_count(c)`, an exact
    digit DP with no per-integer work, so `threads` goes unused.  For
    k >= 2 every m <= max is enumerated, one `eps_k_bad_mask` per fixed
    block through `checkpoint_counts`.  Checkpoints past int64 raise
    CapacityError, and so does an enumeration past `ENUMERATION_CAP`,
    before any work.
    """
    if k < 1:
        raise ValueError("word length k must be >= 1")
    if g < 2:
        raise ValueError("base must be >= 2")
    words_mod.check_eps(eps)
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    if limit > INT64_MAX:
        raise CapacityError(f"classify limit {limit} is past the int64 range ({INT64_MAX})")
    if k == 1:
        return [c - words_mod.eps_1_normal_count(c, eps, g) for c in cps]
    if limit > ENUMERATION_CAP:
        raise CapacityError(
            f"classify limit {limit} at k = {k} would test every integer, past the "
            f"enumeration cap of {ENUMERATION_CAP}; only k = 1 is counted without enumeration"
        )

    def bad(lo, hi):
        return words_mod.eps_k_bad_mask(np.arange(lo + 1, hi + 1, dtype=np.int64), eps, k, g)

    return checkpoint_counts(bad, cps, threads)


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
