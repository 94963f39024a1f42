"""Arithmetic functions, factorization, and composition specs.

Everything here is exact integer arithmetic.  Pointwise evaluation goes
through `Factorization`; bulk evaluation over any range [lo, hi) goes
through one block kernel, `_fill_block`, and a whole table over
[0, limit] (`_block_table`) is that range from 0.

The kernel is the segmented sieve of Bays and Hudson (BIT 1977).  It
fills a range in fixed blocks of `_BLOCK` entries.  Each block loops
over the primes p <= sqrt(limit) only: for each power q = p^e it updates
the entries at the multiples of q, as the table row says, and multiplies
their `smooth`, the part of n over those primes, by p.  The powers
dividing 5040 = 2^4 3^2 5 7 are applied to the block's first 5040
entries only and copied over the rest, since that part of f(n) and
`smooth` repeats with period 5040 (Pritchard's wheel, Acta Inf. 1982).
A product row steps from f(p^(e-1)) to f(p^e) by one multiplication
where their quotient is whole, and divides the old part out only where
it is not (sigma and s).  n // `smooth` is then one prime
p > sqrt(limit) to the first power, or 1, and contiguous steps over the
whole block apply the row's f(p) there.  An lcm row finds those primes
the same way and starts from f of them, then takes the lcm with each
f(p^e) from a small table over the residues mod f(p^e)
(`_fill_lcm_block`).  So the Python loop runs once or twice per block
and power of a prime p <= sqrt(limit), not once per prime power up to
the limit, and the memory beyond the table itself is one block's
working arrays and at most 1 MiB of residue tables: a value table still
takes 8 bytes per entry of the budget, and the Omega table 1.  Those
arrays are n, its smooth part and f of the leftover prime, each in n's
dtype (uint32 below 2^32), and gstar's row, 1 at every leftover prime,
makes none of them.  A range needs only the primes up to sqrt(hi), so a
stream of f(lo), ..., f(hi - 1) over the naturals
(`ArithEngine.stream_values`) keeps no whole table: it reads its blocks
as views of one span of `_BLOCK` values, refilled from the block that
leaves it, so the kernel runs once per span and not once per stream
block.  Every other stream block dispatches on its domain in one place,
`ArithEngine._domain_block`, which gives the block's inputs and how far
they grow by the last index the stream expects; that growth sizes the
chain's tables.  `prime_sieve` runs `prime_mask` per segment of `_BLOCK`
integers, so its int64 list is its only whole array (the budget still
charges 1 byte per n).
"""

from __future__ import annotations

import enum
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapacityError, NotCoprimeError

# Euler-Mascheroni constant, stored (never derived analytically here).
EULER_GAMMA = 0.5772156649015329

# Default ceiling, in bytes, for each array an engine caches over 0..limit:
# the SPF sieve (4 bytes per entry), the prime sieve (1), a value or
# ord_n(2) table (8) and the Omega table (1).
DEFAULT_MEMORY_BUDGET = 512 * 1024 * 1024

# factorize() grows the sieve on demand up to this many entries; anything
# larger is treated as an isolated input and trial-divided instead.
AUTO_EXTEND_CAP = 1 << 24

# the largest int64: no array holds a larger value
INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class Factorization:
    """Prime-exponent decomposition of a natural number n >= 1.

    `factors` is ordered by strictly increasing prime; n == 1 iff it is
    empty.  The invariant is checked on construction.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"factorization requires n >= 1, got {self.n}")
        prod = 1
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("factor primes must be strictly increasing")
            if e < 1:
                raise ValueError("factor exponents must be >= 1")
            prev = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, expected {self.n}")


# ---------------------------------------------------------------------------
# Pointwise arithmetic functions of a Factorization
# ---------------------------------------------------------------------------


def phi(fac: Factorization) -> int:
    """Euler totient: order of the unit group mod n."""
    out = 1
    for p, e in fac.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def sigma(fac: Factorization) -> int:
    """Sum of all divisors of n."""
    out = 1
    for p, e in fac.factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def _lambda_prime_power(p: int, e: int) -> int:
    # Unit group mod p^e is cyclic except mod 2^e for e >= 3.
    if p == 2:
        if e == 1:
            return 1
        if e == 2:
            return 2
        return 1 << (e - 2)
    return p ** (e - 1) * (p - 1)


def lam(fac: Factorization) -> int:
    """Carmichael function: exponent of the unit group mod n."""
    out = 1
    for p, e in fac.factors:
        out = math.lcm(out, _lambda_prime_power(p, e))
    return out


def big_omega(fac: Factorization) -> int:
    """Number of prime factors counted with multiplicity."""
    return sum(e for _, e in fac.factors)


def small_omega(fac: Factorization) -> int:
    """Number of distinct prime factors."""
    return len(fac.factors)


def radical(fac: Factorization) -> int:
    """Product of the distinct primes dividing n."""
    out = 1
    for p, _ in fac.factors:
        out *= p
    return out


def largest_two_square_divisor(fac: Factorization) -> int:
    """Largest divisor of n expressible as a sum of two squares.

    Keeps the full power of 2 and of primes p = 1 (mod 4); powers of
    primes p = 3 (mod 4) are truncated to an even exponent.
    """
    out = 1
    for p, e in fac.factors:
        if p != 2 and p % 4 == 3:
            e -= e % 2
        out *= p**e
    return out


def gstar_part(fac: Factorization, primes: frozenset[int]) -> int:
    """Product of the prime-power components of n supported on `primes`."""
    out = 1
    for p, e in fac.factors:
        if p in primes:
            out *= p**e
    return out


def sum_proper_divisors(fac: Factorization) -> int:
    """Sum of divisors below n, with the convention s(1) = 1."""
    if fac.n == 1:
        return 1
    return sigma(fac) - fac.n


# ---------------------------------------------------------------------------
# Base functions and composition specs
# ---------------------------------------------------------------------------


class BaseTag(enum.Enum):
    PHI = "phi"
    SIGMA = "sigma"
    LAMBDA = "lambda"
    SUM_PROPER_DIVISORS = "s"
    RADICAL = "rad"
    TWO_SQUARES = "two-squares"
    GSTAR = "gstar"


@dataclass(frozen=True)
class BaseFn:
    """One step of a composition chain."""

    tag: BaseTag
    primes: Optional[frozenset[int]] = None  # GSTAR only

    def __post_init__(self):
        if self.tag is BaseTag.GSTAR:
            if not self.primes:
                raise ValueError("gstar requires a nonempty prime set")
        elif self.primes is not None:
            raise ValueError(f"{self.tag.value} takes no prime set")

    def describe(self) -> str:
        if self.tag is BaseTag.GSTAR:
            return "gstar:" + ",".join(str(p) for p in sorted(self.primes))
        return self.tag.value


PHI = BaseFn(BaseTag.PHI)
SIGMA = BaseFn(BaseTag.SIGMA)
LAMBDA = BaseFn(BaseTag.LAMBDA)
SUM_PROPER = BaseFn(BaseTag.SUM_PROPER_DIVISORS)
RADICAL = BaseFn(BaseTag.RADICAL)
TWO_SQUARES = BaseFn(BaseTag.TWO_SQUARES)


def gstar(primes) -> BaseFn:
    """Multiplicative f with f(p^e) = p^e on the given primes, else 1."""
    ps = frozenset(int(p) for p in primes)
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"gstar set must contain primes, got {p}")
    return BaseFn(BaseTag.GSTAR, ps)


def eval_base(fn: BaseFn, fac: Factorization) -> int:
    """Apply one base function to a factored value."""
    tag = fn.tag
    if tag is BaseTag.PHI:
        return phi(fac)
    if tag is BaseTag.SIGMA:
        return sigma(fac)
    if tag is BaseTag.LAMBDA:
        return lam(fac)
    if tag is BaseTag.SUM_PROPER_DIVISORS:
        return sum_proper_divisors(fac)
    if tag is BaseTag.RADICAL:
        return radical(fac)
    if tag is BaseTag.TWO_SQUARES:
        return largest_two_square_divisor(fac)
    if tag is BaseTag.GSTAR:
        return gstar_part(fac, fn.primes)
    raise ValueError(f"unknown base function {fn!r}")


class _TableRow(NamedTuple):
    """A function as the table kernel sees it: f(p^e) for a prime power
    with e >= 1, f(p) over an array of primes (None where f is 1 at every
    prime the kernel does not loop over: gstar's row), and the ufunc that
    combines the prime-power parts of n (product, lcm or sum).  f(p) gets
    the array in n's dtype, uint32 below 2^32, and must fit it.  With
    `minus_n` the kernel then subtracts n, and sets f(1) = 1: the row of
    s = sigma - n."""

    at: Callable[[int, int], int]
    prime: Optional[Callable[[np.ndarray], np.ndarray]]
    combine: np.ufunc = np.multiply
    minus_n: bool = False


def _sigma_at(p: int, e: int) -> int:
    return (p ** (e + 1) - 1) // (p - 1)


_TABLE_ROWS = {
    BaseTag.PHI: _TableRow(lambda p, e: p ** (e - 1) * (p - 1), lambda p: p - 1),
    BaseTag.SIGMA: _TableRow(_sigma_at, lambda p: p + 1),
    BaseTag.SUM_PROPER_DIVISORS: _TableRow(_sigma_at, lambda p: p + 1, minus_n=True),
    BaseTag.LAMBDA: _TableRow(_lambda_prime_power, lambda p: p - 1, np.lcm),
    BaseTag.RADICAL: _TableRow(lambda p, e: p, lambda p: p),
    BaseTag.TWO_SQUARES: _TableRow(
        lambda p, e: p ** (e - e % 2) if p % 4 == 3 else p**e,
        lambda p: np.where(p & 3 == 3, 1, p),
    ),
    BaseTag.GSTAR: _TableRow(lambda p, e: p**e, None),
}

# Omega(n) adds the exponents; its table is uint8
_OMEGA_ROW = _TableRow(lambda p, e: e, lambda p: 1, np.add)


# entries per block of `_fill_range`, and per span of a naturals stream
# (`ArithEngine.stream_values`): the phi table to 10^6 takes 17.8 ms at
# 2^18, against 18.9 ms at 2^17, 19.2 ms at 2^19 and 27.4 ms at 2^16 (medians of
# 15 alternating in-process runs, 2-core host)
_BLOCK = 1 << 18


def _fill_range(row: _TableRow, primes: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Write f(n) for lo <= n < lo + len(out) into `out` (f(0) = 0), block
    by block, looping over `primes` as `_fill_block` says, and return it."""
    for start in range(0, len(out), _BLOCK):
        _fill_block(row, primes, lo + start, out[start : start + _BLOCK])
    return out


def _block_table(row: _TableRow, primes: np.ndarray, limit: int, dtype=np.int64) -> np.ndarray:
    """f(n) for 0 <= n <= limit: the range [0, limit] of `_fill_range`."""
    return _fill_range(row, primes, 0, np.empty(limit + 1, dtype=dtype))


def _prime_powers(primes: np.ndarray, lo: int, hi: int):
    """(p, e, q, start) for each power q = p^e < hi of the given ascending
    primes, where `start` is the index in the block [lo, hi) of the first
    multiple of q past 0."""
    for p in map(int, primes):
        if p >= hi:
            break
        q, e = p, 1
        while q < hi:
            yield p, e, q, max(q, lo + -lo % q) - lo
            q *= p
            e += 1


# 2^4 3^2 5 7: the part of f(n) from the powers q dividing it repeats with this
# period (the wheel of Pritchard, Acta Inf. 1982), so a block fills those on its
# first `_WHEEL` entries and copies them over the rest
_WHEEL = 5040


def _wheel_passes(primes: np.ndarray, lo: int, hi: int):
    """The block's head, min(hi - lo, `_WHEEL`), and its prime powers in two
    passes, each a list of (p, e, q, start, stop) and the period that
    `_tile` copies afterwards.

    The first pass holds the powers q of `_prime_powers` that divide
    `_WHEEL` (not all of them for gstar's primes), over the head only, from
    the first multiple of q in it, n = 0 included, since the head is then
    copied over every n congruent to it mod `_WHEEL`.  The second holds the
    rest, over the whole block, whose period copies nothing."""
    head = min(hi - lo, _WHEEL)
    wheel, rest = [], []
    for p, e, q, start in _prime_powers(primes, lo, hi):
        if _WHEEL % q:
            rest.append((p, e, q, start, hi - lo))
        else:
            wheel.append((p, e, q, start % q, head))
    return head, ((wheel, head), (rest, hi - lo))


def _tile(a: np.ndarray, period: int) -> None:
    """Copy a[:period] over the rest of `a`, doubling the copied span."""
    done = period
    while done < len(a):
        step = min(done, len(a) - done)
        a[done : done + step] = a[:step]
        done += step


def _naturals(lo: int, hi: int) -> np.ndarray:
    """lo <= n < hi as uint32, or as int64 past 2^32."""
    return np.arange(lo, hi, dtype=np.uint32 if hi <= 1 << 32 else np.int64)


def _smooth_part(n: np.ndarray, head: int, passes) -> np.ndarray:
    """The part of each of the block's n over the primes of
    `_wheel_passes`, multiplied up in its two passes: n over it is the
    prime left outside them, or 1."""
    smooth = np.empty_like(n)
    smooth[:head] = 1
    for powers, period in passes:
        for p, _, q, start, stop in powers:
            smooth[start:stop:q] *= p
        _tile(smooth, period)
    return smooth


# an lcm row takes the lcm with c = f(p^e) up to this cap from a table over the
# residues mod c, and past it by `np.lcm`: on 2^18 uint32 entries below 2^20 at
# c = 996, 0.9 ms against 11.7 ms.  One table per c is kept for the process, so
# they hold at most cap (cap + 1) / 2 uint16 entries, cap (cap + 1) bytes (1 MiB).
_RESIDUE_CAP = 1 << 10
_QUOTIENTS: dict[int, np.ndarray] = {}


def _lcm_quotients(c: int) -> np.ndarray:
    """c / gcd(r, c) for 0 <= r < c, as uint16 (c <= `_RESIDUE_CAP`), so
    lcm(x, c) = x * table[x mod c].  Each divisor d of c, ascending, writes
    c / d at the multiples of d, so the last write at r is of the largest
    divisor of c that divides r, gcd(r, c)."""
    table = _QUOTIENTS.get(c)
    if table is None:
        table = np.empty(c, dtype=np.uint16)
        small = [d for d in range(1, math.isqrt(c) + 1) if c % d == 0]
        for d in small + [c // d for d in reversed(small) if d * d != c]:
            table[::d] = c // d
        _QUOTIENTS[c] = table
    return table


def _fill_block(row: _TableRow, primes: np.ndarray, lo: int, out: np.ndarray) -> None:
    """Write f(n) for lo <= n < lo + len(out) into `out`, looping over the
    given ascending primes; each of those n may have at most one prime
    factor outside them, to the first power (any, for gstar's row).

    The powers of `_wheel_passes` update `out` in its two passes.  Then
    n > `_smooth_part` where n has that prime factor, and n over it is the
    prime (or 1): Omega adds the comparison, and a product row multiplies
    the whole block by the row's f of n // smooth, made 1 where that is 1
    or 0, with no gather of those n.  Both steps work in n's dtype, which
    holds the prime, and keep n, which s then subtracts; gstar's row,
    which is 1 at that prime, takes neither."""
    at, prime, combine, minus_n = row
    hi = lo + len(out)
    if combine is np.lcm:
        return _fill_lcm_block(row, primes, lo, out)
    unit = 0 if combine is np.add else 1  # f(1), and f(p^0) of every p
    head, passes = _wheel_passes(primes, lo, hi)
    out[:head] = unit
    for powers, period in passes:
        for p, e, q, start, stop in powers:
            # the multiples of q = p^e move from f(p^(e-1)) to f(p^e): a
            # product row multiplies by their quotient when it is whole, and
            # else divides the old part out exactly
            prev, cur = at(p, e - 1) if e > 1 else unit, at(p, e)
            if cur != prev:
                seg = out[start:stop:q]
                if combine is np.add:
                    seg += cur - prev
                elif cur % prev == 0:
                    seg *= cur // prev
                else:
                    seg //= prev
                    seg *= cur
        _tile(out, period)
    if prime is not None:
        n = _naturals(lo, hi)
        left = _smooth_part(n, head, passes)
        if combine is np.add:
            out += n > left  # a prime left outside the primes: Omega's f(p) = 1
        else:
            np.floor_divide(n, left, out=left)  # that prime, or 1 (0 at n = 0)
            big = left > 1
            left = prime(left)  # rad's f(p) is `left` itself, no longer needed
            left -= 1  # made 1 where n <= 1 (wrapping in uint32 at n = 0)
            left *= big
            left += 1
            out *= left
    if lo == 0:
        out[0] = 0
    if minus_n:  # s's row has an f(p), so `n` was made above
        out -= n
        if lo <= 1 < hi:
            out[1 - lo] = 1


def _fill_lcm_block(row: _TableRow, primes: np.ndarray, lo: int, out: np.ndarray) -> None:
    """`_fill_block` for an lcm row, over the block's n, in two passes.

    The first is `_smooth_part`: n over it is the prime left outside the
    primes, or 1, and the block starts at f of that prime (gathered, so
    that `row.prime` is called at those entries only) and at 1
    elsewhere.  The second takes the lcm with c = f(p^e) at the multiples
    of each power p^e in turn, with no division, since f(p^(e-1)) divides
    f(p^e): as x * (c / gcd(x mod c, c)) from `_lcm_quotients` for
    c <= `_RESIDUE_CAP`, else by `np.lcm`.  The block is worked in n's
    dtype, which holds f(n) <= n.
    """
    hi = lo + len(out)
    n = _naturals(lo, hi)
    work = _smooth_part(n, *_wheel_passes(primes, lo, hi))
    np.floor_divide(n, work, out=work)  # the prime left outside them, or 1
    big = np.flatnonzero(work > 1)
    left = work[big].astype(np.int64)
    work[:] = 1
    work[big] = row.prime(left)
    prev = 1
    for p, e, q, start in _prime_powers(primes, lo, hi):
        if e == 1:
            prev = 1
        c = row.at(p, e)
        if c != prev:
            seg = work[start::q]
            if c <= _RESIDUE_CAP:
                seg *= _lcm_quotients(c).take(seg % c)
            else:
                np.lcm(seg, c, out=seg)
        prev = c
    out[:] = work
    if lo == 0:
        out[0] = 0


# the engine's cache keys besides the `BaseFn` of each value table; the
# ord_n(2) table backs the order domains
_SPF = "spf"
_PRIMES = "primes"
_ORDER_OF_TWO = "order-of-2"
_BIG_OMEGA = "big-omega"


def _pow_mod(a: int, exps: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """a^exps mod mods elementwise, for int64 arrays with mods < 2^31."""
    out = np.ones_like(mods)
    base = a % mods
    while exps.any():
        out = np.where((exps & 1) == 1, out * base % mods, out)
        base = base * base % mods
        exps = exps >> 1
    return out


class Domain(enum.Enum):
    """The index set a composition chain runs over."""

    NATURALS = "naturals"
    PRIMES = "primes"
    # index i -> multiplicative order of 2 mod (2i - 1)
    ODD_ORDERS = "odd-orders"
    # index i -> multiplicative order of 2 mod p_{i+1}
    PRIME_ORDERS = "prime-orders"

    def describe(self) -> str:
        return self.value


NATURALS = Domain.NATURALS
PRIMES = Domain.PRIMES
ODD_ORDERS = Domain.ODD_ORDERS
PRIME_ORDERS = Domain.PRIME_ORDERS


@dataclass(frozen=True)
class CompositionSpec:
    """A composition chain applied over an input domain.

    `chain` is outermost-first: chain (f1, f2) over input m evaluates
    f1(f2(m)).  An empty chain is the identity.  For the order-map
    domains the order map runs first and the chain applies to its value.
    """

    chain: tuple[BaseFn, ...] = ()
    domain: Domain = NATURALS

    @property
    def depth(self) -> int:
        return len(self.chain)

    def describe(self) -> str:
        chain = ".".join(fn.describe() for fn in self.chain) or "id"
        return f"{chain}@{self.domain.describe()}"


# ---------------------------------------------------------------------------
# Sieves: smallest prime factors and primes
# ---------------------------------------------------------------------------


def spf_table(limit: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> np.ndarray:
    """Sieve least prime factors for 2..limit.

    Returns a uint32 array of size limit+1 with table[m] = least prime
    factor of m (entries 0 and 1 are 0).  Raises CapacityError when the
    table would not fit the byte budget.
    """
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    _check_budget("SPF table", limit, 4, memory_budget)
    spf = np.zeros(limit + 1, dtype=np.uint32)
    # one strided store per prime p <= sqrt(limit), the largest first, so
    # the least prime factor p of a composite m (p^2 <= m) is stored last
    for p in prime_sieve(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    # anything still unset is a prime
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def prime_mask(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Whether each n in [lo, hi) is prime, for 0 <= lo: Eratosthenes' span
    sieve by `primes`, which hold all up to sqrt(hi - 1) (more do no harm)."""
    span = np.ones(hi - lo, dtype=bool)
    span[: max(0, 2 - lo)] = False  # 0 and 1
    for p in primes.tolist():
        span[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return span


def prime_sieve(limit: int) -> np.ndarray:
    """The primes up to limit, ascending, as int64: `prime_mask` of each
    segment, marked by this sieve's own primes up to sqrt(limit).

    They fill one array of pi(x) < (x / ln x)(1 + 3 / (2 ln x)) entries
    (Rosser and Schoenfeld 1962, x > 1), shrunk in place to its used part."""
    small = prime_sieve(math.isqrt(limit)) if limit >= 4 else np.empty(0, dtype=np.int64)
    log = math.log(max(limit, 2))
    out = np.empty(max(0, int(limit / log * (1 + 1.5 / log))), dtype=np.int64)
    count = 0
    for lo in range(0, limit + 1, _BLOCK):
        found = np.flatnonzero(prime_mask(lo, min(lo + _BLOCK, limit + 1), small))
        np.add(found, lo, out=out[count : count + len(found)])
        count += len(found)
    out.resize(count, refcheck=False)  # no view of `out` is left
    return out


def _check_budget(what: str, limit: int, entry_bytes: int, memory_budget: int) -> None:
    need = entry_bytes * (limit + 1)
    if need > memory_budget:
        raise CapacityError(
            f"{what} for limit {limit} needs {need} bytes, budget is {memory_budget}"
        )


def _refuse_past_int64(n: int) -> None:
    if n > INT64_MAX:  # (2^61 - 1)^2 would take years to trial-divide
        raise CapacityError(f"{n} is past the int64 range ({INT64_MAX}), refused before trial division")


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    _refuse_past_int64(n)
    factors = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    d = 5
    step = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += step
        step = 6 - step
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


# the first 12 primes: an n that is a strong probable prime to each of them is
# prime below psi_12 = 318,665,857,834,031,151,167,461 > 2^78 (Sorenson and
# Webster 2017), so for every n in int64
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality: the strong-probable-prime test of Miller
    (1976) and Rabin (1980) to each base in `_PRIME_BASES`, exact up to
    `INT64_MAX`; CapacityError past it."""
    _refuse_past_int64(n)
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        # n passes base a if a^d = 1 or a^(2^r d) = -1 for some r < s
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Engine: sieve-backed factorization, primes, orders, compositions, tables
# ---------------------------------------------------------------------------


class ArithEngine:
    """Shared context for factorization-backed evaluation.

    Every sieve and table is kept in one cache, grown on demand (never
    shrunk, and at least doubled) and swapped in atomically, so concurrent
    readers always see a consistent array.  Inputs to `factorize` beyond
    the auto-extend cap fall back to trial division.
    """

    def __init__(self, spf_limit: int = 0, memory_budget: int = DEFAULT_MEMORY_BUDGET):
        self.memory_budget = memory_budget
        self._lock = threading.Lock()
        # key -> (limit, the array built for it); the empty SPF sieve
        # answers requests below 2
        self._cache: dict = {_SPF: (1, np.zeros(2, dtype=np.uint32))}
        self._spf_upto(spf_limit)
        # (fn, start, values): the last `range_values` span a stream filled
        self._span: Optional[tuple[BaseFn, int, np.ndarray]] = None

    def _grown(
        self, key, limit: int, what: str, entry_bytes: int, build,
        want: int = 0, most: Optional[int] = None,
    ) -> np.ndarray:
        """The array cached under `key`, covering at least `limit`.

        An array that must grow is built as `build(size)`: size is the
        larger of `limit` and the caller's expected need `want`, or twice
        the cached limit if that is larger and fits the budget (and
        `most`).  So a caller that asks for ever larger limits, as a
        stream does block by block, builds it O(log) times, and one that
        knows its later need builds it about once.  Raises CapacityError
        when the expected need passes the budget, before anything is
        built.  The build runs outside the lock (a table build asks for
        the primes), and its array is kept only if it is still the
        longest.
        """
        cached = self._cache.get(key)
        if cached is None or cached[0] < limit:
            want = max(limit, want)
            _check_budget(what, want, entry_bytes, self.memory_budget)
            top = self.memory_budget // entry_bytes - 1
            doubled = min(2 * cached[0] if cached else 0, top if most is None else min(top, most))
            size = max(want, doubled)
            built = build(size)
            with self._lock:
                cached = self._cache.get(key)
                if cached is None or cached[0] < size:
                    cached = self._cache[key] = (size, built)
        return cached[1]

    @property
    def spf_limit(self) -> int:
        return self._cache[_SPF][0]

    def _spf_upto(self, limit: int, most: Optional[int] = None) -> np.ndarray:
        return self._grown(
            _SPF, limit, "SPF table", 4, lambda n: spf_table(n, self.memory_budget), most=most
        )

    def factorize(self, n: int) -> Factorization:
        """Prime-exponent decomposition of 1 <= n <= `INT64_MAX`; past it,
        CapacityError."""
        if n < 1:
            raise ValueError(f"cannot factorize {n}")
        if n == 1:
            return Factorization(1, ())
        limit, spf = self._cache[_SPF]
        if n > limit:
            cap = min(AUTO_EXTEND_CAP, self.memory_budget // 4 - 1)
            if n > cap:
                return Factorization(n, _trial_division(n))
            spf = self._spf_upto(n, most=cap)
        factors = []
        m = n
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        return Factorization(n, tuple(factors))

    # -- primes ------------------------------------------------------------

    def primes_upto(self, limit: int, want: int = 0) -> np.ndarray:
        """The primes up to `limit`, from one cached sieve (grown as `_grown`
        says)."""
        primes = self._grown(_PRIMES, limit, "prime sieve", 1, prime_sieve, want)
        return primes[: int(np.searchsorted(primes, limit, side="right"))]

    def _first_primes(self, count: int, want: int = 0) -> np.ndarray:
        """The first max(count, want) primes, from the cached sieve when it
        has them and else from a sieve sized by p_n < n (ln n + ln ln n),
        n >= 6: one for `count` or the `want` first primes a caller expects
        to need, and only if that holds too few, one for `want`."""

        def bound(n: int) -> int:
            n = max(n, 6)
            return int(n * (math.log(n) + math.log(math.log(n))))

        primes = self._cache.get(_PRIMES, (0, ()))[1]
        if len(primes) < count:
            primes = self.primes_upto(bound(count), bound(want) if want > count else 0)
        if len(primes) < want:
            primes = self.primes_upto(bound(want))
        return primes[: max(count, want)]

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-indexed (p_1 = 2)."""
        if n < 1:
            raise ValueError("prime index must be >= 1")
        return int(self._first_primes(n)[n - 1])

    # -- multiplicative order ----------------------------------------------

    def mult_order(self, a: int, n: int) -> int:
        """Least t >= 1 with a^t = 1 (mod n).

        Starts from the unit-group exponent and strips prime factors
        while the congruence still holds.
        """
        if n < 1:
            raise ValueError("modulus must be >= 1")
        if n == 1:
            return 1
        if math.gcd(a, n) != 1:
            raise NotCoprimeError(f"gcd({a}, {n}) > 1")
        t = lam(self.factorize(n))
        for q, e in self.factorize(t).factors:
            for _ in range(e):
                if pow(a, t // q, n) == 1:
                    t //= q
                else:
                    break
        return t

    # -- composition evaluation ----------------------------------------------

    def eval_base_value(self, fn: BaseFn, n: int) -> int:
        return eval_base(fn, self.factorize(n))

    def _domain_value(self, domain: Domain, index: int) -> int:
        if domain is NATURALS:
            return index
        if domain is PRIMES:
            return self.nth_prime(index)
        if domain is ODD_ORDERS:
            return self.mult_order(2, 2 * index - 1)
        return self.mult_order(2, self.nth_prime(index + 1))

    def _domain_block(self, domain: Domain, lo: int, hi: int, expect: int) -> tuple[np.ndarray, float]:
        """Domain inputs for the indices lo <= index < hi as an int64 array,
        and how far those inputs grow by index `expect` >= hi - 1.

        Naturals are an `arange`, and primes slice one cached sieve; the
        order domains read the ord_n(2) table at the odd n or at the primes
        p_2, p_3, ...  A sieve or table that must grow is built for the
        indices up to `expect` too (see `_grown`).  The growth is
        top(expect) / top(hi - 1), where top(index) bounds the inputs up to
        `index` and the last one reaches it or nearly: the index for the
        naturals, p_index for the primes, and for the order domains the
        modulus of the last order (2 index - 1, or p_(index+1)).
        """
        if hi <= lo:
            return np.empty(0, dtype=np.int64), 1.0
        if domain is NATURALS:
            return np.arange(lo, hi, dtype=np.int64), expect / (hi - 1)
        if domain is ODD_ORDERS:
            top = 2 * expect - 1
            table = self._order_table(2 * (hi - 1), top)
            return table[2 * lo - 1 : 2 * hi - 1 : 2].copy(), top / (2 * hi - 3)
        primes = self._first_primes(hi, expect + 1)
        if domain is PRIMES:
            return primes[lo - 1 : hi - 1].copy(), int(primes[expect - 1]) / int(primes[hi - 2])
        top, last = int(primes[expect]), int(primes[hi - 1])
        return self._order_table(last, top)[primes[lo:hi]], top / last

    def stream_values(self, spec: CompositionSpec, lo: int, hi: int, expect: int = 0) -> np.ndarray:
        """The values of `spec` at the indices 1 <= lo <= index < hi, as int64.

        `expect` >= hi - 1 is the last index the caller expects to ask
        for.  A single function over the naturals needs no whole array:
        its values are a read-only view of one span of `range_values`,
        kept by the engine.  A block outside the span refills it from lo
        to the larger of hi and lo + `_BLOCK`, but not past `expect`, so a
        stream of smaller blocks calls the kernel once per `_BLOCK`
        values; a block that starts inside the span keeps the overlap and
        fills only from the span's end.  Every other spec, the identity
        included, runs `chain_values` over its `_domain_block` on whole
        cached arrays, which `expect` sizes, so a stream read block by
        block builds each about once: the domain's sieve or table for the
        indices up to `expect`, and each chain table for its need here
        scaled as the domain's inputs grow from index hi - 1 to `expect`.
        """
        expect = max(expect, hi - 1)
        if spec.domain is NATURALS and spec.depth == 1:
            fn = spec.chain[0]
            span = self._span
            start, held = (lo, np.empty(0, np.int64)) if span is None or span[0] != fn else span[1:]
            end = start + len(held)
            if not start <= lo <= hi <= end:
                top = max(hi, min(lo + _BLOCK, expect + 1))
                if start <= lo < end:  # the overlap is kept
                    held = np.concatenate((held[lo - start :], self.range_values(fn, end, top)))
                else:
                    held = self.range_values(fn, lo, top)
                held.flags.writeable = False
                start, self._span = lo, (fn, lo, held)
            return held[lo - start : hi - start]
        args, scale = self._domain_block(spec.domain, lo, hi, expect)
        return self.chain_values(spec.chain, args, scale)

    def eval_composition(self, spec: CompositionSpec, index: int) -> int:
        """f(domain value at `index`), chain applied outermost-first."""
        if index < 1:
            raise ValueError("index must be >= 1")
        m = self._domain_value(spec.domain, index)
        for fn in reversed(spec.chain):
            m = eval_base(fn, self.factorize(m))
        return m

    # -- bulk value tables ---------------------------------------------------

    def _kernel_primes(self, fn: BaseFn, top: int) -> np.ndarray:
        """gstar's own primes (its row is 1 at any other), else those up to sqrt(top)."""
        if fn.tag is BaseTag.GSTAR:
            return np.array(sorted(fn.primes), dtype=np.int64)
        return self.primes_upto(math.isqrt(max(top, 0)))

    def range_values(self, fn: BaseFn, lo: int, hi: int) -> np.ndarray:
        """fn(n) for 0 <= lo <= n < hi (fn(0) = 0) as int64: no whole table."""
        if lo < 0 or hi < lo:
            raise ValueError(f"range_values needs 0 <= lo <= hi, got [{lo}, {hi})")
        out = np.empty(hi - lo, dtype=np.int64)
        return _fill_range(_TABLE_ROWS[fn.tag], self._kernel_primes(fn, hi - 1), lo, out)

    def value_table(self, fn: BaseFn, limit: int, want: int = 0) -> np.ndarray:
        """fn(n) for 0 <= n <= limit (index 0 holds 0).

        The table is cached per function and rebuilt only for a larger
        limit (grown as `_grown` says).  Raises CapacityError when it would
        not fit the byte budget.
        """

        def build(limit: int) -> np.ndarray:
            return _block_table(_TABLE_ROWS[fn.tag], self._kernel_primes(fn, limit), limit)

        return self._grown(fn, limit, f"{fn.describe()} table", 8, build, want)[: limit + 1]

    def _order_table(self, limit: int, want: int = 0) -> np.ndarray:
        """ord_n(2) for odd 1 <= n <= limit; even entries hold the order
        of 2 modulo their odd part."""

        def build(limit: int) -> np.ndarray:
            if limit >= 1 << 31:  # _pow_mod squares residues in int64
                raise CapacityError(f"order-of-2 table for limit {limit} is past 2^31")
            row = self._order_row(self.primes_upto(limit))  # ord_p(2) at every prime
            return _block_table(row, self.primes_upto(math.isqrt(limit)), limit)

        table = self._grown(
            _ORDER_OF_TWO, limit, "order-of-2 table", 8, build, want, most=(1 << 31) - 1
        )
        return table[: limit + 1]

    def _order_row(self, primes: np.ndarray) -> _TableRow:
        """The lcm row of ord_{p^e}(2) over an ascending int64 array of
        primes, which holds every prime its f(p) is asked for.  The row is
        1 at p = 2, so even n get the order modulo their odd part.

        ord_p(2) comes for all the primes at once: t starts at p - 1, and
        each round takes the next prime factor q of p - 1 (smallest first,
        repeated by multiplicity) and divides t by q where 2^(t/q) = 1
        (mod p), as `mult_order` does for one p.
        """
        t = primes - 1
        spf = self._spf_upto(int(t.max(initial=0)))
        rest = t.copy()  # the part of p - 1 whose factors are still to try
        live = np.flatnonzero(rest > 1)
        while len(live):
            q = spf[rest[live]].astype(np.int64)
            rest[live] //= q
            cand = t[live] // q
            hit = _pow_mod(2, cand, primes[live]) == 1
            t[live[hit]] = cand[hit]
            live = live[rest[live] > 1]

        @functools.cache  # each block asks again
        def at(p: int, e: int) -> int:
            if p == 2:
                return 1
            # ord_{p^e}(2) is ord_p(2) p^j for the least j with 2^that = 1
            # (mod p^e); j is 0 at p^2 for the Wieferich primes 1093 and 3511
            order = int(t[np.searchsorted(primes, p)])
            while e > 1 and pow(2, order, p**e) != 1:
                order *= p
            return order

        return _TableRow(at, lambda p: t[np.searchsorted(primes, p)], np.lcm)

    def big_omega_table(self, limit: int) -> np.ndarray:
        """Omega(n), the prime factors of n counted with multiplicity, for
        0 <= n <= limit as uint8.  Cached and rebuilt like `value_table`;
        raises CapacityError over the budget."""

        def build(limit: int) -> np.ndarray:
            return _block_table(_OMEGA_ROW, self.primes_upto(math.isqrt(limit)), limit, np.uint8)

        return self._grown(_BIG_OMEGA, limit, "Omega table", 1, build)[: limit + 1]

    def chain_values(
        self, chain: tuple[BaseFn, ...], args: np.ndarray, scale: float = 1.0
    ) -> np.ndarray:
        """Evaluate a composition chain over an array of inputs.

        Each step, innermost first, looks its inputs up in the
        `value_table` sized to the step's largest input; a table that must
        grow is built for `scale` times that (see `_grown`).
        """
        vals = np.asarray(args, dtype=np.int64)
        for fn in reversed(chain):
            if len(vals) == 0:
                break
            need = int(vals.max())
            vals = self.value_table(fn, need, int(need * scale))[vals]
        return vals
