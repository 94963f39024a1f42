"""Base-g words, concatenated digit streams, and block-count normality.

A natural number n >= 1 is written as the word of its base-g digits,
either most-significant-first (the usual reading order) or
least-significant-first.  Streams concatenate the words of f(1), f(2),
... for a composition spec f; all counting is exact.  A stream prefix is
made block by block (`prefix_blocks`), and every consumer folds the
blocks as they pass, so no array spans the prefix.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import ArithEngine, CompositionSpec


class DigitOrder(enum.Enum):
    MOST_SIGNIFICANT_FIRST = "msf"
    LEAST_SIGNIFICANT_FIRST = "lsf"


MSF = DigitOrder.MOST_SIGNIFICANT_FIRST
LSF = DigitOrder.LEAST_SIGNIFICANT_FIRST


def word_text(digits: Sequence[int], g: int) -> str:
    """A digit word as text: plain digits for g <= 10, dot-joined above."""
    return ("" if g <= 10 else ".").join(map(str, digits))


def digit_text_table(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The texts of digits above base 10, as `word_text` joins them: a
    table of each digit's text and dot (b"12."), NUL-padded to one width
    (`S` dtype), and the index of each digit into it (the digits' shape).

    The table holds every value up to the largest digit, or the distinct
    digits when that many entries would outgrow the digits.
    """
    top = int(digits.max(initial=0))
    if top < digits.size:
        labels, index = np.arange(top + 1), digits
    else:
        labels, index = np.unique(digits, return_inverse=True)
    table = np.array([b"%d." % d for d in labels.tolist()], dtype="S")
    return table, index.reshape(digits.shape)


def fixed_digits(values, length: int, g: int) -> np.ndarray:
    """The last `length` base-g digits of each value >= 0 as an
    (n, length) matrix, most significant first, the last digit first:
    each step is a `floor_divide` (numpy's fast path for a scalar
    divisor; `divmod` has none) and a multiply-subtract.  The values are
    copied once, to uint32 when they and g fit it.  The matrix is uint8
    for g <= 256, int64 above."""
    values = np.asarray(values)
    narrow = g < 1 << 32 and (not len(values) or int(values.max()) < 1 << 32)
    rest = np.array(values, dtype=np.uint32 if narrow else np.int64)
    quot = np.empty_like(rest)
    digits = np.empty((len(rest), length), dtype=np.uint8 if g <= 256 else np.int64)
    for j in range(length - 1, -1, -1):
        np.floor_divide(rest, g, out=quot)
        rest -= quot * g
        digits[:, j] = rest
        rest, quot = quot, rest
    return digits


def window_codes(digits: np.ndarray, k: int, g: int, codes: np.ndarray) -> np.ndarray:
    """The code of each length-k window along the last axis of `digits`,
    by k in-place Horner steps into the int64 array `codes`, one entry
    per window.  `codes` arrives holding each window's leading code and
    leaves holding lead * g^k + the window's code; it is returned."""
    width = codes.shape[-1]
    for j in range(k):
        codes *= g
        codes += digits[..., j : j + width]
    return codes


def word_texts(codes: np.ndarray, g: int, k: int) -> np.ndarray:
    """`word_text` of each k-digit word code (most significant digit first)
    as an array of ASCII bytes (`S` dtype), with no per-word Python work.

    Above base 10 the digits' texts (`digit_text_table`) are packed to
    the left of each row, one digit column at a time, and the last dot is
    cleared; `S` drops the trailing NULs.
    """
    digits = fixed_digits(codes, k, g)
    if g <= 10:
        digits += 48
        return digits.view(f"S{k}").ravel()
    table, index = digit_text_table(digits)
    n, width = len(codes), table.dtype.itemsize
    cells = table[index].view(np.uint8).reshape(n, k, width)
    sizes = np.char.str_len(table)[index]  # the text bytes of each cell
    rows = np.zeros((n, k * width), dtype=np.uint8)
    flat = rows.ravel()
    at = np.arange(0, n * k * width, k * width)  # where each row's next cell goes
    for j in range(k):
        for b in range(width):  # a cell's padding is overwritten by the next cell
            flat[at + b] = cells[:, j, b]
        at += sizes[:, j]
    flat[at - 1] = 0
    return rows.view(f"S{k * width}").ravel()


def digit_length(n: int, g: int = 10) -> int:
    """Number of base-g digits of n >= 1 (satisfies g^(L-1) <= n < g^L)."""
    if n < 1:
        raise ValueError(f"digit length needs n >= 1, got {n}")
    if g < 2:
        raise ValueError("base must be >= 2")
    if g == 10:
        return len(str(n))
    if g == 2:
        return n.bit_length()
    length = 0
    while n:
        n //= g
        length += 1
    return length


def digits_of(n: int, g: int = 10, order: DigitOrder = MSF) -> tuple[int, ...]:
    """Base-g digits of n >= 1 in the requested order (no leading zeros)."""
    if n < 1:
        raise ValueError(f"digit expansion needs n >= 1, got {n}")
    if g < 2:
        raise ValueError("base must be >= 2")
    if g == 10:
        msf = tuple(ord(c) - 48 for c in str(n))
    elif g == 2:
        msf = tuple(ord(c) - 48 for c in bin(n)[2:])
    else:
        rev = []
        while n:
            n, d = divmod(n, g)
            rev.append(d)
        msf = tuple(reversed(rev))
    return msf if order is MSF else msf[::-1]


@lru_cache(maxsize=65536)
def normality_bounds(length: int, eps: float, k: int, g: int) -> tuple[Fraction, Fraction]:
    """Exact open-interval bounds (g^-k - eps) * L and (g^-k + eps) * L."""
    center = Fraction(1, g**k)
    e = Fraction(eps)
    return ((center - e) * length, (center + e) * length)


def count_band(length: int, eps: float, k: int, g: int) -> tuple[int, int]:
    """The window counts least..most that each of the g^k words may have
    in a word of `length` digits: the integers strictly inside
    `normality_bounds`, clipped to 0..windows (length - k + 1, or 0).

    The band is empty (least > most) when lo >= 0 and there are more
    words than windows, since some word is then absent; so with no
    windows it is 0..0 when lo < 0 and empty otherwise.
    """
    lo, hi = normality_bounds(length, eps, k, g)
    width = max(length - k + 1, 0)
    if g**k > width and lo >= 0:
        return 1, 0
    return max(math.floor(lo) + 1, 0), min(math.ceil(hi) - 1, width)


def check_eps(eps: float) -> None:
    """The classifier's tolerance must be a finite number > 0."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")


def is_eps_k_normal(
    n: int, eps: float, k: int, g: int = 10, order: DigitOrder = MSF
) -> bool:
    """Whether every length-k word count in the base-g word of n lies
    strictly between (g^-k - eps) * L(n) and (g^-k + eps) * L(n).

    Words that never occur count as 0, so when L(n) >= k the verdict can
    only be positive if eps > g^-k.  The verdict does not depend on the
    digit order (reversal permutes the words, not the count multiset).
    """
    if k < 1:
        raise ValueError("word length k must be >= 1")
    check_eps(eps)
    digs = digits_of(n, g, order)
    length = len(digs)
    lo, hi = normality_bounds(length, eps, k, g)
    tally: dict[int, int] = {}
    if length >= k:
        mod = g**k
        code = 0
        for d in digs[: k - 1]:
            code = code * g + d
        for i in range(k - 1, length):
            code = (code * g + digs[i]) % mod
            tally[code] = tally.get(code, 0) + 1
    for count in tally.values():
        if not (lo < count < hi):
            return False
    if len(tally) < g**k and not lo < 0:
        return False
    return True


def eps_k_bad_mask(values, eps: float, k: int, g: int = 10) -> np.ndarray:
    """`not is_eps_k_normal(v, eps, k, g)` for each v >= 1 of an int64
    array, as one bool array.

    Values are grouped by digit length L, with L - k + 1 windows per
    word and the allowed counts `count_band(L, eps, k, g)`.  Every row
    is bad when the band is empty, and every row passes when there are
    no windows and it is not.  Otherwise the rows' window codes come
    from their digit matrix, and every count, absent words at 0
    included, must lie in the band.  The dense table's codes lead with
    their row, so they stay below n * g^k <= 2 * n * windows in int64.
    The digit matrix of each length is built whole, so callers hand in
    one block of values at a time.
    """
    if k < 1:
        raise ValueError("word length k must be >= 1")
    check_eps(eps)
    if g < 2:
        raise ValueError("base must be >= 2")
    values = np.asarray(values, dtype=np.int64)
    bad = np.zeros(len(values), dtype=bool)
    if not len(values):
        return bad
    if int(values.min()) < 1:
        raise ValueError("the classifier needs values >= 1")
    lengths = _digit_lengths(values, g)
    size = g**k
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        least, most = count_band(length, eps, k, g)
        width = length - k + 1  # windows per word
        if least > most or width < 1:
            bad[rows] = least > most
            continue
        # the dense table holds absent words, and the sorted runs need not:
        # they are used only when size > width, so a nonempty band has
        # least = 0
        n = len(rows)
        digits = fixed_digits(values[rows], length, g)
        if size <= 2 * width:
            lead = np.arange(n, dtype=np.int64)[:, None].repeat(width, axis=1)  # row numbers
            codes = window_codes(digits, k, g, lead)
            counts = np.bincount(codes.ravel(), minlength=n * size).reshape(n, size)
            bad[rows] = ((counts < least) | (counts > most)).any(axis=1)
        else:
            codes = window_codes(digits, k, g, np.zeros((n, width), dtype=np.int64))
            codes.sort(axis=1)
            starts = np.ones(codes.shape, dtype=bool)
            np.not_equal(codes[:, 1:], codes[:, :-1], out=starts[:, 1:])
            first = np.flatnonzero(starts)  # each run of equal codes
            runs = np.diff(first, append=codes.size)
            off = (runs < least) | (runs > most)
            bad[rows] = np.bincount(first[off] // width, minlength=n) > 0
    return bad


def eps_1_normal_count(x: int, eps: float, g: int = 10) -> int:
    """How many n in 1..x are (eps, 1)-normal in base g, counted exactly
    by a digit DP with no per-integer work.

    A word of L digits passes when each of the g digit counts lies in
    `count_band(L, eps, 1, g)`.  Each length below that of x adds its
    passing words whole: g - 1 leading digits, each with the same
    completions of the other L - 1 positions.  The words of x's length
    are counted as the DP walks the digits of x: each digit c below x's
    digit at a position fixes a prefix, whose completions are added.
    Digits not yet seen complete alike, so they are added as one group.
    """
    check_eps(eps)
    if g < 2:
        raise ValueError("base must be >= 2")
    if x < 1:
        return 0
    digits = digits_of(x, g)
    top = len(digits)
    total = 0
    for length in range(1, top):
        total += (g - 1) * _completions(length - 1, [1], g, count_band(length, eps, 1, g))
    band = count_band(top, eps, 1, g)
    seen: dict[int, int] = {}  # digit -> its count in x's digits so far
    for i, d in enumerate(digits):
        rest = top - 1 - i
        below = range(1 if i == 0 else 0, d)  # the digits that branch below x here
        unseen = len(below)
        for c in seen:
            if c in below:
                unseen -= 1
                used = [n + 1 if e == c else n for e, n in seen.items()]
                total += _completions(rest, used, g, band)
        if unseen:
            total += unseen * _completions(rest, [*seen.values(), 1], g, band)
        seen[d] = seen.get(d, 0) + 1
    return total + _completions(0, list(seen.values()), g, band)  # x itself


def _completions(rest: int, used: list[int], g: int, band: tuple[int, int]) -> int:
    """How many words of `rest` digits, appended to digits in which some
    digits occur `used` times each and the other g - len(used) not at
    all, leave every digit count in least..most.

    This is rest! [t^rest] of the product, over the g digits, of
    sum t^m / m! over the m that keep that digit in the band; the
    product is taken in exact integers by binomial convolution, and the
    unseen digits, all alike, by repeated squaring.
    """
    least, most = band

    def allowed(have: int) -> list[int]:
        return [int(least <= have + m <= most) for m in range(rest + 1)]

    factors = [allowed(u) for u in used]
    if len(used) < g:
        factors.append(_binomial_power(allowed(0), g - len(used)))
    ways, *inner, last = factors  # used is nonempty and g >= 2: two factors at least
    for factor in inner:
        ways = _binomial_product(ways, factor)
    return sum(math.comb(rest, m) * last[m] * ways[rest - m] for m in range(rest + 1) if last[m])


def _binomial_product(u: list[int], v: list[int]) -> list[int]:
    """w[n] = sum of C(n, m) u[m] v[n - m]: the words of length n over two
    disjoint alphabets, whose letters of each alphabet form a word that
    u, resp. v, counts."""
    live = [m for m, um in enumerate(u) if um]
    return [
        sum(math.comb(n, m) * u[m] * v[n - m] for m in live if m <= n) for n in range(len(u))
    ]


def _binomial_power(u: list[int], times: int) -> list[int]:
    """u multiplied `times` >= 1 times by `_binomial_product`."""
    out = None
    while True:
        if times & 1:
            out = u if out is None else _binomial_product(out, u)
        times >>= 1
        if not times:
            return out
        u = _binomial_product(u, u)


# ---------------------------------------------------------------------------
# Stream prefixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixBlock:
    """The words of the domain indices first, ..., first + len(values) - 1
    inside a stream prefix, and their digits in stream order.

    `start` is the stream position of the block's first digit, and
    `lengths` counts each word's digits inside the prefix.  The last
    block holds the word that reaches N, cut there; its `final_length`
    is that word's whole length, and None marks every earlier block.
    """

    first: int
    start: int
    values: np.ndarray
    lengths: np.ndarray
    digits: np.ndarray
    final_length: Optional[int] = None

    @property
    def cut_inside(self) -> bool:
        """True when the prefix ends inside this block's last word."""
        return self.final_length is not None and self.lengths[-1] < self.final_length


def _digit_lengths(values: np.ndarray, g: int) -> np.ndarray:
    """Base-g digit counts of a nonempty int64 array of values >= 1, as
    uint8 (an int64 value has at most 63 digits)."""
    top = int(values.max())
    powers = []
    q = g
    while q <= top:
        powers.append(q)
        q *= g
    lengths = np.searchsorted(np.array(powers, dtype=np.int64), values, side="right")
    lengths += 1
    return lengths.astype(np.uint8)


def _word_digits(values: np.ndarray, lengths: np.ndarray, g: int, order: DigitOrder) -> np.ndarray:
    """The digits of the words of `values`, of the given lengths, one word
    after another: every word is padded to the longest, and the padding
    masked off."""
    top = int(lengths.max())
    digits = fixed_digits(values, top, g)
    # row L of `keep` marks the L digit columns of an L-digit word
    keep = np.arange(top) < np.arange(top + 1)[:, None]
    if order is MSF:
        return digits[keep[:, ::-1].take(lengths, axis=0)]
    return digits[:, ::-1][keep.take(lengths, axis=0)]


# values per stream, classifier and census block: at 2^18 census peaks at 78.0 MB, not 72.6
_BLOCK = 1 << 16


def prefix_blocks(
    engine: ArithEngine,
    spec: CompositionSpec,
    num_digits: int,
    g: int = 10,
    order: DigitOrder = MSF,
) -> Iterator[PrefixBlock]:
    """The first `num_digits` digits of the stream, block by block: each
    block takes at most `_BLOCK` domain indices, and the last stops at
    the word that reaches N.

    A block is its values (`ArithEngine.stream_values`), their digit
    lengths and the digits of its words; nothing spans two blocks.  The
    first block takes N/64 indices (at least 16, at most N): every word
    has a digit, and a whole array built for that probe (prime sieve,
    chain or order table) costs little.  Each later block also ends at
    the forecast index of the cut: the digits still needed over the
    digits per value of the newest half of the block before.  So the
    last block computes few values past the cut, and the engine sizes
    its whole arrays for the forecast and builds them about once.
    """
    if num_digits < 1:
        raise ValueError("need at least one digit")
    if g < 2:
        raise ValueError("base must be >= 2")
    lo, start, ahead = 1, 0, None  # ahead: the forecast words still needed
    while True:
        rest = num_digits - start
        hi = lo + (min(_BLOCK, rest, max(16, rest // 64)) if ahead is None else min(_BLOCK, ahead))
        values = engine.stream_values(spec, lo, hi, hi - 1 if ahead is None else lo - 1 + ahead)
        lengths = _digit_lengths(values, g)
        done = int(lengths.sum())
        if done >= rest:
            ends = np.cumsum(lengths, dtype=np.int64)
            final = int(np.searchsorted(ends, rest))  # the first word to reach N
            values, lengths = values[: final + 1], lengths[: final + 1]
            digits = _word_digits(values, lengths, g, order)[:rest]
            final_length = int(lengths[final])
            lengths[final] -= int(ends[final]) - rest
            yield PrefixBlock(lo, start, values, lengths, digits, final_length)
            return
        yield PrefixBlock(lo, start, values, lengths, _word_digits(values, lengths, g, order))
        start += done
        newest = lengths[len(lengths) // 2 :]
        ahead = -(-(num_digits - start) * len(newest) // int(newest.sum()))
        lo = hi


def block_text(block: PrefixBlock, g: int) -> str:
    """A prefix block's digits as stream text, as `word_text` writes them:
    one ASCII byte per digit for g <= 10, and above that each digit's text
    and dot (`digit_text_table`), with no dot after the prefix's last
    digit."""
    if g <= 10:
        return (block.digits + 48).tobytes().decode("ascii")
    table, index = digit_text_table(block.digits)
    text = table[index].tobytes().replace(b"\0", b"")
    if block.final_length is not None:
        text = text[:-1]
    return text.decode("ascii")
