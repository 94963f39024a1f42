"""Arithmetic functions, factorization, and composition specs.

Everything here is exact integer arithmetic.  Pointwise evaluation goes
through `Factorization`; bulk evaluation over a range [1, limit] goes
through numpy value tables built by one prime-power sieve.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

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
    """A function as the table kernel sees it: f(p^e) for e >= 1, and
    whether the prime-power parts of n combine by lcm instead of product."""

    at: Callable[[int, int], int]
    lcm: bool = False


# s is sigma minus n and has no row of its own; gstar's row is applied to
# its own primes only.
_TABLE_ROWS = {
    BaseTag.PHI: _TableRow(lambda p, e: p ** (e - 1) * (p - 1)),
    BaseTag.SIGMA: _TableRow(lambda p, e: (p ** (e + 1) - 1) // (p - 1)),
    BaseTag.LAMBDA: _TableRow(_lambda_prime_power, lcm=True),
    BaseTag.RADICAL: _TableRow(lambda p, e: p),
    BaseTag.TWO_SQUARES: _TableRow(lambda p, e: p ** (e - e % 2) if p % 4 == 3 else p**e),
    BaseTag.GSTAR: _TableRow(lambda p, e: p**e),
}

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


def _prime_powers(primes, limit: int) -> Iterator[tuple[int, int, int]]:
    """(p, e, p^e) for every power p^e <= limit of each given prime."""
    # one Python int at a time: a list of every prime would leave its
    # memory fragmented after the table is built
    for p in map(int, primes):
        q, e = p, 1
        while q <= limit:
            yield p, e, q
            q *= p
            e += 1


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
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    # anything still unset is a prime above sqrt(limit)
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def prime_sieve(limit: int) -> np.ndarray:
    """The primes up to limit, ascending, as int64 (a bool Eratosthenes sieve)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _check_budget(what: str, limit: int, entry_bytes: int, memory_budget: int) -> None:
    need = entry_bytes * (limit + 1)
    if need > memory_budget:
        raise CapacityError(
            f"{what} for limit {limit} needs {need} bytes, budget is {memory_budget}"
        )


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
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


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division (desk-scale inputs)."""
    return n >= 2 and _trial_division(n) == ((n, 1),)


# ---------------------------------------------------------------------------
# Engine: sieve-backed factorization, primes, orders, compositions, tables
# ---------------------------------------------------------------------------


class ArithEngine:
    """Shared context for factorization-backed evaluation.

    Every sieve and table is kept in one cache, grown on demand (never
    shrunk) and swapped in atomically, so concurrent readers always see
    a consistent array.  Inputs to `factorize` beyond the auto-extend cap
    fall back to trial division.
    """

    def __init__(self, spf_limit: int = 0, memory_budget: int = DEFAULT_MEMORY_BUDGET):
        self.memory_budget = memory_budget
        self._lock = threading.Lock()
        # key -> (limit, the array built for it); the empty SPF sieve
        # answers requests below 2
        self._cache: dict = {_SPF: (1, np.zeros(2, dtype=np.uint32))}
        self._spf_upto(spf_limit)

    def _grown(self, key, limit: int, what: str, entry_bytes: int, build) -> np.ndarray:
        """The array cached under `key`, first built as `build(limit)` unless
        the cached one covers `limit` already.

        Raises CapacityError when entry_bytes * (limit + 1) passes the
        budget.  The build runs outside the lock (a table build asks for
        the primes), and its array is kept only if it is still the longest.
        """
        cached = self._cache.get(key)
        if cached is None or cached[0] < limit:
            _check_budget(what, limit, entry_bytes, self.memory_budget)
            built = build(limit)
            with self._lock:
                cached = self._cache.get(key)
                if cached is None or cached[0] < limit:
                    cached = self._cache[key] = (limit, built)
        return cached[1]

    @property
    def spf_limit(self) -> int:
        return self._cache[_SPF][0]

    def _spf_upto(self, limit: int) -> np.ndarray:
        return self._grown(_SPF, limit, "SPF table", 4, lambda n: spf_table(n, self.memory_budget))

    def factorize(self, n: int) -> Factorization:
        """Prime-exponent decomposition; total for all n >= 1."""
        if n < 1:
            raise ValueError(f"cannot factorize {n}")
        if n == 1:
            return Factorization(1, ())
        limit, spf = self._cache[_SPF]
        if n > limit:
            cap = min(AUTO_EXTEND_CAP, self.memory_budget // 4 - 1)
            if n > cap:
                return Factorization(n, _trial_division(n))
            spf = self._spf_upto(min(max(2 * limit, n, 1 << 16), cap))
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

    def primes_upto(self, limit: int) -> np.ndarray:
        primes = self._grown(_PRIMES, limit, "prime sieve", 1, prime_sieve)
        return primes[: int(np.searchsorted(primes, limit, side="right"))]

    def _first_primes(self, count: int) -> np.ndarray:
        """The first `count` primes, from the cached sieve when it has them
        and else from one sieve sized by p_n < n (ln n + ln ln n), n >= 6."""
        primes = self._cache.get(_PRIMES, (0, ()))[1]
        if len(primes) < count:
            n = max(count, 6)
            primes = self.primes_upto(int(n * (math.log(n) + math.log(math.log(n)))))
        return primes[:count]

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

    def domain_values(self, domain: Domain, count: int) -> np.ndarray:
        """Domain inputs for index = 1, ..., count as an int64 array.

        Naturals are an `arange`, checked against the memory budget, and
        primes one sieve; the order domains read the ord_n(2) table at the
        odd n or at the primes p_2, p_3, ...
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if domain is NATURALS:
            _check_budget("domain values", count, 8, self.memory_budget)
            return np.arange(1, count + 1, dtype=np.int64)
        if domain is ODD_ORDERS:
            return self._order_table(2 * count)[1 : 2 * count : 2].copy()
        primes = self._first_primes(count + 1)
        if domain is PRIMES:
            return primes[:count].copy()
        return self._order_table(int(primes[count]))[primes[1:]]

    def eval_composition(self, spec: CompositionSpec, index: int) -> int:
        """f(domain value at `index`), chain applied outermost-first."""
        if index < 1:
            raise ValueError("index must be >= 1")
        m = self._domain_value(spec.domain, index)
        for fn in reversed(spec.chain):
            m = eval_base(fn, self.factorize(m))
        return m

    # -- bulk value tables ---------------------------------------------------

    def value_table(self, fn: BaseFn, limit: int) -> np.ndarray:
        """fn(n) for 0 <= n <= limit (index 0 holds 0).

        The table is cached per function and rebuilt only for a larger
        limit.  Raises CapacityError when it would not fit the byte budget.
        """

        def build(limit: int) -> np.ndarray:
            proper = fn.tag is BaseTag.SUM_PROPER_DIVISORS
            row = _TABLE_ROWS[BaseTag.SIGMA if proper else fn.tag]
            primes = fn.primes if fn.tag is BaseTag.GSTAR else self.primes_upto(limit)
            tab = self._prime_power_table(row, primes, limit)
            if proper:
                tab -= np.arange(limit + 1, dtype=np.int64)
                if limit >= 1:
                    tab[1] = 1
            return tab

        return self._grown(fn, limit, f"{fn.describe()} table", 8, build)[: limit + 1]

    def _order_table(self, limit: int) -> np.ndarray:
        """ord_n(2) for odd 1 <= n <= limit; even entries hold the order
        of 2 modulo their odd part."""

        def build(limit: int) -> np.ndarray:
            if limit >= 1 << 31:  # _pow_mod squares residues in int64
                raise CapacityError(f"order-of-2 table for limit {limit} is past 2^31")
            primes = self.primes_upto(limit)[1:]
            return self._prime_power_table(self._order_row(primes), primes, limit)

        return self._grown(_ORDER_OF_TWO, limit, "order-of-2 table", 8, build)[: limit + 1]

    def _order_row(self, primes: np.ndarray) -> _TableRow:
        """The lcm row of ord_{p^e}(2) over an int64 array of odd primes.

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
        first = dict(zip(primes.tolist(), t.tolist()))

        def at(p: int, e: int) -> int:
            # ord_{p^e}(2) is ord_p(2) p^j for the least j with 2^that = 1
            # (mod p^e); j is 0 at p^2 for the Wieferich primes 1093 and 3511
            order = first[p]
            while e > 1 and pow(2, order, p**e) != 1:
                order *= p
            return order

        return _TableRow(at, lcm=True)

    def _prime_power_table(self, row: _TableRow, primes, limit: int) -> np.ndarray:
        # Every n starts at 1; for each prime power q = p^e the multiples
        # of q move from f(p^(e-1)) to f(p^e).  A product row divides the
        # old part out exactly, and an lcm row needs no division because
        # its f(p^(e-1)) divides f(p^e).
        at, lcm = row
        out = np.ones(limit + 1, dtype=np.int64)
        out[0] = 0
        for p, e, q in _prime_powers(primes, limit):
            prev = 1 if e == 1 else cur
            cur = at(p, e)
            if cur == prev:
                continue
            seg = out[q::q]
            if lcm:
                np.lcm(seg, cur, out=seg)
            else:
                if prev != 1:
                    seg //= prev
                seg *= cur
        return out

    def big_omega_table(self, limit: int) -> np.ndarray:
        """Omega(n), the prime factors of n counted with multiplicity, for
        0 <= n <= limit as uint8.  Cached and rebuilt like `value_table`;
        raises CapacityError over the budget."""

        def build(limit: int) -> np.ndarray:
            tab = np.zeros(limit + 1, dtype=np.uint8)
            for _, _, q in _prime_powers(self.primes_upto(limit), limit):
                tab[q::q] += 1
            return tab

        return self._grown(_BIG_OMEGA, limit, "Omega table", 1, build)[: limit + 1]

    def chain_values(self, chain: tuple[BaseFn, ...], args: np.ndarray) -> np.ndarray:
        """Evaluate a composition chain over an array of inputs.

        Each step, innermost first, looks its inputs up in the
        `value_table` sized to the step's largest input.
        """
        vals = np.asarray(args, dtype=np.int64)
        for fn in reversed(chain):
            if len(vals) == 0:
                break
            vals = self.value_table(fn, int(vals.max()))[vals]
        return vals
