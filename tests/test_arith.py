"""Tests for the arithmetic core against independent brute-force oracles.

Every oracle below works from first principles (scans, gcds, iterated
multiplication) and never touches the factorization-formula route used
by the library.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normfreq import arith, words
from normfreq.errors import CapacityError, NotCoprimeError
from normfreq.ngrams import count_stream


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_factor(n):
    """Factor by dividing out every d = 2, 3, 4, ... in turn."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def oracle_phi(n):
    """Count residues coprime to n."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def oracle_sigma(n):
    """Sum divisors by scanning 1..n."""
    return sum(d for d in range(1, n + 1) if n % d == 0)


def oracle_order(a, n):
    """Multiply a into itself until the product returns to 1 mod n."""
    assert math.gcd(a, n) == 1
    t, x = 1, a % n
    while x != 1:
        x = x * a % n
        t += 1
    return t


def oracle_group_exponent(n):
    """lcm of the iterated-multiplication orders of every unit mod n."""
    out = 1
    for a in range(1, n):
        if math.gcd(a, n) == 1:
            out = math.lcm(out, oracle_order(a, n))
    return out


def oracle_is_group_exponent(n, t):
    """Check t is the least e with a^e = 1 mod n over the whole unit group."""
    units = [a for a in range(1, n) if math.gcd(a, n) == 1]
    if any(pow(a, t, n) != 1 for a in units):
        return False
    for q, _ in oracle_factor(t):
        if all(pow(a, t // q, n) == 1 for a in units):
            return False
    return True


def oracle_two_square_divisor(n):
    """Largest divisor expressible as a^2 + b^2, by exhaustive scan."""
    best = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        for a in range(math.isqrt(d) + 1):
            b2 = d - a * a
            if math.isqrt(b2) ** 2 == b2:
                best = d
                break
    return best


def oracle_primes(limit):
    """Plain list-based sieve of Eratosthenes."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            for m in range(p * p, limit + 1, p):
                flags[m] = False
    return [p for p in range(limit + 1) if flags[p]]


@pytest.fixture(scope="module")
def engine():
    return arith.ArithEngine(spf_limit=10_000)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factorize_matches_oracle(engine):
    for n in range(1, 3000):
        assert engine.factorize(n).factors == oracle_factor(n)


@pytest.mark.parametrize("n", [2**40, 3**20, 999_983 * 999_979, 10**12 + 39])
def test_factorize_large_isolated(n):
    eng = arith.ArithEngine()
    fac = eng.factorize(n)
    assert fac.factors == oracle_factor(n)
    assert eng.spf_limit <= 10_000  # stayed on the trial-division path


def test_factorize_auto_extends():
    eng = arith.ArithEngine(spf_limit=100)
    assert eng.factorize(1_000_003).factors == ((1_000_003, 1),)
    assert eng.spf_limit >= 1_000_003
    # a covered n reads the grown sieve as it is: no rebuild, same array
    limit, spf = eng.spf_limit, eng._spf_upto(0)
    assert eng.factorize(999_999).factors == oracle_factor(999_999)
    assert eng.factorize(12).factors == ((2, 2), (3, 1))
    assert eng.spf_limit == limit
    assert eng._spf_upto(0) is spf


def test_factorization_validates():
    with pytest.raises(ValueError):
        arith.Factorization(0, ())
    with pytest.raises(ValueError):
        arith.Factorization(6, ((3, 1), (2, 1)))  # primes out of order
    with pytest.raises(ValueError):
        arith.Factorization(6, ((2, 1),))  # product mismatch
    with pytest.raises(ValueError):
        arith.Factorization(2, ((2, 0),))
    assert hash(arith.Factorization(12, ((2, 2), (3, 1)))) is not None


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(engine, n):
    fac = engine.factorize(n)
    assert math.prod(p**e for p, e in fac.factors) == n
    assert all(arith.is_prime(p) for p, _ in fac.factors)


# ---------------------------------------------------------------------------
# phi / sigma / lambda / divisor-valued functions
# ---------------------------------------------------------------------------


def test_phi_matches_coprime_count(engine):
    for n in range(1, 1200):
        assert arith.phi(engine.factorize(n)) == oracle_phi(n)


def test_phi_anchor(engine):
    assert arith.phi(engine.factorize(510510)) == 92160


def test_sigma_matches_divisor_scan(engine):
    for n in range(1, 1200):
        assert arith.sigma(engine.factorize(n)) == oracle_sigma(n)


def test_lambda_matches_brute_exponent(engine):
    for n in range(1, 150):
        assert arith.lam(engine.factorize(n)) == oracle_group_exponent(n)


def test_lambda_is_group_exponent_midrange(engine):
    for n in range(150, 800):
        assert oracle_is_group_exponent(n, arith.lam(engine.factorize(n)))


def test_lambda_anchor(engine):
    assert arith.lam(engine.factorize(561)) == 80
    assert oracle_is_group_exponent(561, 80)


@pytest.mark.parametrize("e,expected", [(1, 1), (2, 2), (3, 2), (4, 4), (5, 8), (10, 256)])
def test_lambda_powers_of_two(engine, e, expected):
    assert arith.lam(engine.factorize(2**e)) == expected
    assert oracle_is_group_exponent(2**e, expected)


def test_lambda_divides_phi(engine):
    for n in range(1, 2000):
        fac = engine.factorize(n)
        assert arith.phi(fac) % arith.lam(fac) == 0


def test_omega_counts(engine):
    fac = engine.factorize(360)  # 2^3 3^2 5
    assert arith.big_omega(fac) == 6
    assert arith.small_omega(fac) == 3
    assert arith.big_omega(engine.factorize(1)) == 0


def test_radical(engine):
    for n in range(1, 500):
        want = math.prod(p for p, _ in oracle_factor(n)) if n > 1 else 1
        assert arith.radical(engine.factorize(n)) == want


def test_two_square_divisor_matches_scan(engine):
    for n in range(1, 600):
        got = arith.largest_two_square_divisor(engine.factorize(n))
        assert got == oracle_two_square_divisor(n)


@pytest.mark.parametrize("n,expected", [(45, 45), (9, 9), (21, 1), (2, 2), (50, 50), (147, 49)])
def test_two_square_divisor_anchors(engine, n, expected):
    assert arith.largest_two_square_divisor(engine.factorize(n)) == expected


def test_sum_proper_divisors(engine):
    assert arith.sum_proper_divisors(engine.factorize(1)) == 1
    for n in range(2, 600):
        assert arith.sum_proper_divisors(engine.factorize(n)) == oracle_sigma(n) - n


def test_gstar_part(engine):
    g23 = frozenset({2, 3})
    for n in range(1, 400):
        want = 1
        for p, e in oracle_factor(n):
            if p in g23:
                want *= p**e
        assert arith.gstar_part(engine.factorize(n), g23) == want


@given(
    st.integers(min_value=1, max_value=30_000),
    st.integers(min_value=1, max_value=30_000),
)
@settings(max_examples=150, deadline=None)
def test_multiplicative_on_coprime_pairs(engine, m, n):
    if math.gcd(m, n) != 1:
        return
    fm, fn, fmn = engine.factorize(m), engine.factorize(n), engine.factorize(m * n)
    assert arith.phi(fmn) == arith.phi(fm) * arith.phi(fn)
    assert arith.sigma(fmn) == arith.sigma(fm) * arith.sigma(fn)
    assert arith.lam(fmn) == math.lcm(arith.lam(fm), arith.lam(fn))
    assert arith.radical(fmn) == arith.radical(fm) * arith.radical(fn)
    two = arith.largest_two_square_divisor
    assert two(fmn) == two(fm) * two(fn)


# ---------------------------------------------------------------------------
# primes and multiplicative order
# ---------------------------------------------------------------------------


def test_primes_upto_matches_oracle(engine):
    assert list(engine.primes_upto(10_000)) == oracle_primes(10_000)


def test_nth_prime(engine):
    primes = oracle_primes(10_000)
    for i in (1, 2, 10, 25, 100, 500):
        assert engine.nth_prime(i) == primes[i - 1]
    assert engine.nth_prime(1000) == 7919
    with pytest.raises(ValueError):
        engine.nth_prime(0)


def test_nth_prime_sizes_its_own_sieve():
    # a fresh engine has no cached primes, so each call sieves to the
    # bound p_n < n (ln n + ln ln n) alone; a shorter bound runs out
    primes = oracle_primes(10_000)
    for n in range(1, len(primes) + 1):
        assert arith.ArithEngine().nth_prime(n) == primes[n - 1]


def test_prime_stream_prefix(engine):
    got = engine.stream_values(arith.CompositionSpec((), arith.PRIMES), 1, 11).tolist()
    assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_mult_order_matches_iteration(engine):
    for n in range(3, 400, 2):
        for a in (2, 3, 5, 10):
            if math.gcd(a, n) != 1:
                continue
            assert engine.mult_order(a, n) == oracle_order(a, n)


def test_mult_order_anchor(engine):
    assert engine.mult_order(2, 341) == 10
    assert oracle_order(2, 341) == 10


def test_mult_order_edge_cases(engine):
    assert engine.mult_order(2, 1) == 1
    assert engine.mult_order(7, 2) == 1
    with pytest.raises(NotCoprimeError):
        engine.mult_order(2, 8)
    with pytest.raises(NotCoprimeError):
        engine.mult_order(6, 21)
    with pytest.raises(ValueError):
        engine.mult_order(2, 0)


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=100, deadline=None)
def test_mult_order_divides_lambda(engine, n):
    m = 2 * n + 1  # odd, so 2 is a unit
    t = engine.mult_order(2, m)
    assert pow(2, t, m) == 1 or m == 1
    assert arith.lam(engine.factorize(m)) % t == 0


# ---------------------------------------------------------------------------
# base functions, domains, compositions
# ---------------------------------------------------------------------------


def test_base_fn_validation():
    with pytest.raises(ValueError):
        arith.BaseFn(arith.BaseTag.GSTAR)  # missing prime set
    with pytest.raises(ValueError):
        arith.BaseFn(arith.BaseTag.PHI, frozenset({2}))
    with pytest.raises(ValueError):
        arith.gstar([4])
    assert arith.gstar([3, 2]).describe() == "gstar:2,3"


def test_eval_base_dispatch(engine):
    fac = engine.factorize(90)  # 2 3^2 5
    assert arith.eval_base(arith.PHI, fac) == 24
    assert arith.eval_base(arith.SIGMA, fac) == 234
    assert arith.eval_base(arith.LAMBDA, fac) == 12
    assert arith.eval_base(arith.SUM_PROPER, fac) == 144
    assert arith.eval_base(arith.RADICAL, fac) == 30
    assert arith.eval_base(arith.TWO_SQUARES, fac) == 90  # 81 + 9
    assert arith.eval_base(arith.gstar([3]), fac) == 9


def test_composition_outermost_first(engine):
    spec = arith.CompositionSpec((arith.PHI, arith.SIGMA))
    # phi(sigma(m)), not sigma(phi(m))
    for m in range(1, 60):
        want = oracle_phi(oracle_sigma(m))
        assert engine.eval_composition(spec, m) == want
    assert spec.describe() == "phi.sigma@naturals"


def test_identity_chain(engine):
    spec = arith.CompositionSpec((), arith.NATURALS)
    assert [engine.eval_composition(spec, i) for i in range(1, 6)] == [1, 2, 3, 4, 5]
    assert spec.describe() == "id@naturals"
    assert spec.depth == 0


def test_primes_domain(engine):
    spec = arith.CompositionSpec((arith.PHI,), arith.PRIMES)
    # phi(p) = p - 1
    got = [engine.eval_composition(spec, i) for i in range(1, 8)]
    assert got == [1, 2, 4, 6, 10, 12, 16]


def test_odd_orders_domain(engine):
    vals = engine.stream_values(arith.CompositionSpec((), arith.ODD_ORDERS), 1, 9).tolist()
    assert vals == [oracle_order(2, 2 * i - 1) if i > 1 else 1 for i in range(1, 9)]
    assert vals == [1, 2, 4, 3, 6, 10, 12, 4]


def test_prime_orders_domain(engine):
    got = engine.stream_values(arith.CompositionSpec((), arith.PRIME_ORDERS), 1, 6).tolist()
    # orders of 2 mod p_2..p_6 = 3, 5, 7, 11, 13
    assert got == [oracle_order(2, p) for p in (3, 5, 7, 11, 13)]
    assert got == [2, 4, 3, 10, 12]


def test_order_table_matches_mult_order():
    eng = arith.ArithEngine()
    tab = eng._order_table(20_001)
    assert all(int(tab[n]) == eng.mult_order(2, n) for n in range(1, 20_001, 2))


def test_order_row_at_wieferich_primes(engine):
    # 2^(p-1) = 1 (mod p^2) for p = 1093, 3511, so the order does not grow
    # at e = 2; each one-entry block loops over just the primes dividing n
    assert engine.mult_order(2, 1093**2) == engine.mult_order(2, 1093)
    primes = np.array([2, 3, 1093, 3511])
    row = engine._order_row(primes)
    for n in (1093**2, 3511**2, 1093 * 3511, 3 * 1093**2, 9 * 3511):
        got = np.empty(1, dtype=np.int64)
        arith._fill_block(row, primes, n, got)
        assert int(got[0]) == engine.mult_order(2, n), n


def test_order_table_refuses_moduli_past_int64_squares():
    # residues are squared in int64, so the table stops below 2^31
    eng = arith.ArithEngine(memory_budget=1 << 40)
    with pytest.raises(CapacityError):
        eng._order_table(1 << 31)


def test_prime_orders_match_mult_order(engine):
    got = engine.stream_values(arith.CompositionSpec((), arith.PRIME_ORDERS), 1, 2001).tolist()
    assert got == [engine.mult_order(2, engine.nth_prime(i)) for i in range(2, 2002)]


def test_value_stream_matches_pointwise(engine):
    spec = arith.CompositionSpec((arith.LAMBDA, arith.PHI), arith.PRIMES)
    got = engine.stream_values(spec, 1, 40)
    assert got.tolist() == [engine.eval_composition(spec, i) for i in range(1, 40)]


def test_value_stream_start_index(engine):
    # a block of chain values need not start at index 1
    got = engine.chain_values((arith.SIGMA,), np.arange(10, 12, dtype=np.int64))
    assert got.tolist() == [oracle_sigma(10), oracle_sigma(11)]


# ---------------------------------------------------------------------------
# bulk tables
# ---------------------------------------------------------------------------


BASE_FNS = [arith.PHI, arith.SIGMA, arith.LAMBDA, arith.SUM_PROPER, arith.RADICAL,
            arith.TWO_SQUARES]


@pytest.mark.parametrize(
    "fn", BASE_FNS + [arith.gstar([2, 5])], ids=lambda fn: fn.describe()
)
def test_value_table_matches_eval_base(engine, fn):
    tab = engine.value_table(fn, 1500)
    for n in range(1, 1501):
        assert int(tab[n]) == arith.eval_base(fn, engine.factorize(n))


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 63, 64, 65, 20_000])
def test_tables_match_the_oracles_across_block_edges(monkeypatch, limit):
    # 64-entry blocks: an n past the last block edge, or a leftover prime
    # in a later block, must come out as the pointwise path has it
    monkeypatch.setattr(arith, "_BLOCK", 64)
    eng = arith.ArithEngine()
    facs = [eng.factorize(n) for n in range(1, limit + 1)]
    for fn in BASE_FNS + [arith.gstar([2, 5]), arith.gstar([3, 1009])]:
        want = [0] + [arith.eval_base(fn, fac) for fac in facs]
        assert eng.value_table(fn, limit).tolist() == want, fn.describe()
    assert eng.big_omega_table(limit).tolist() == [0] + [arith.big_omega(f) for f in facs]
    # even n hold the order of 2 modulo their odd part
    want = [0] + [eng.mult_order(2, n // (n & -n)) for n in range(1, limit + 1)]
    assert eng._order_table(limit).tolist() == want


@pytest.mark.parametrize("block", [7, 1 << 18])
def test_gstar_loops_over_its_own_primes_across_block_edges(monkeypatch, block):
    # the kernel loops over gstar's primes only, so one above sqrt(hi) is
    # still looped: 7 at n = 14, and 1000003 at 2 * 1000003
    monkeypatch.setattr(arith, "_BLOCK", block)
    ranges = [
        (arith.gstar([7]), 0, 40),
        (arith.gstar([2, 1_000_003]), 0, 200),
        (arith.gstar([2, 1_000_003]), 999_990, 1_000_020),
        (arith.gstar([2, 1_000_003]), 2_000_000, 2_000_012),
        (arith.gstar([3, 5, 101]), 10_000, 10_230),
    ]
    oracle = arith.ArithEngine()
    for fn, lo, hi in ranges:
        want = [arith.eval_base(fn, oracle.factorize(n)) if n else 0 for n in range(lo, hi)]
        assert arith.ArithEngine().range_values(fn, lo, hi).tolist() == want, fn.describe()
        if lo == 0:
            assert arith.ArithEngine().value_table(fn, hi - 1).tolist() == want, fn.describe()


# the kernel fills the powers dividing 5040 = 2^4 3^2 5 7 on a block's first
# 5040 entries and copies them over the rest: ranges that start and end on
# either side of those edges, n = 0 included, and gstar rows whose primes hold
# some, none or one more of 2, 3, 5 and 7; two-squares keeps p^2 of 3 and 7
WHEEL_FNS = BASE_FNS + [arith.gstar([3]), arith.gstar([5, 7]), arith.gstar([11]),
                        arith.gstar([2, 1_000_003])]
WHEEL_STARTS = [0, 1, 5039, 5040, 5041, 7 * 5040 - 3]
WHEEL_LENGTHS = [1, 5039, 5040, 5041, 3 * 5040 + 7]


def wheel_values(fn, lo, hi):
    """fn over [lo, hi) from `range_values`, or for None the Omega row."""
    if fn is not None:
        return arith.ArithEngine().range_values(fn, lo, hi)
    primes = arith.ArithEngine().primes_upto(math.isqrt(hi - 1))
    return arith._fill_range(arith._OMEGA_ROW, primes, lo, np.empty(hi - lo, dtype=np.uint8))


def wheel_oracle(facs):
    """fn -> its `eval_base` over the factorizations (None for n = 0, where
    f is 0), and None -> Omega."""
    want = {fn: [arith.eval_base(fn, f) if f else 0 for f in facs] for fn in WHEEL_FNS}
    want[None] = [arith.big_omega(f) if f else 0 for f in facs]
    return {fn: np.array(v, dtype=np.int64) for fn, v in want.items()}


@pytest.fixture(scope="module")
def wheel_wants(engine):
    top = max(WHEEL_STARTS) + max(WHEEL_LENGTHS)
    return wheel_oracle([None] + [engine.factorize(n) for n in range(1, top)])


@pytest.mark.parametrize("block", [64, 5040, 5041, 1 << 18])
def test_tables_match_the_oracles_across_wheel_edges(monkeypatch, wheel_wants, block):
    monkeypatch.setattr(arith, "_BLOCK", block)
    for fn, want in wheel_wants.items():
        for lo in WHEEL_STARTS:
            for length in WHEEL_LENGTHS:
                got = wheel_values(fn, lo, lo + length)
                assert np.array_equal(got, want[lo : lo + length]), (fn, lo, length)
    top = len(wheel_wants[None]) - 1
    assert np.array_equal(arith.ArithEngine().big_omega_table(top), wheel_wants[None])


@pytest.fixture(scope="module")
def past_two_to_32(engine):
    """A range of int64 n past 2^32, 7 entries longer than a block's head,
    and the oracle over it (trial division, past the auto-extend cap)."""
    lo = (1 << 32) + 1
    return lo, wheel_oracle([engine.factorize(n) for n in range(lo, lo + 5047)])


@pytest.mark.parametrize("block", [5040, 5041, 1 << 18])
def test_tables_match_the_oracles_past_two_to_32(monkeypatch, past_two_to_32, block):
    monkeypatch.setattr(arith, "_BLOCK", block)
    lo, wants = past_two_to_32
    for fn, want in wants.items():
        assert np.array_equal(wheel_values(fn, lo, lo + len(want)), want), fn


@pytest.fixture(scope="module")
def below_two_to_32(engine):
    """The last 5047 n below 2^32, which hold its largest prime 4294967291,
    and the oracle over them."""
    lo = (1 << 32) - 5047
    return lo, wheel_oracle([engine.factorize(n) for n in range(lo, 1 << 32)])


@pytest.mark.parametrize("block", [5040, 1 << 18])
def test_tables_match_the_oracles_below_two_to_32(monkeypatch, below_two_to_32, block):
    # the kernel's last uint32 block: its leftover primes, and sigma's and
    # s's p + 1 at 4294967291, stay in uint32
    monkeypatch.setattr(arith, "_BLOCK", block)
    lo, wants = below_two_to_32
    assert wants[arith.SIGMA][-5] == 4294967292
    for fn, want in wants.items():
        assert np.array_equal(wheel_values(fn, lo, 1 << 32), want), fn


def test_range_values_refuses_a_range_that_is_not_one():
    eng = arith.ArithEngine()
    for lo, hi in ((-3, 3), (5, 3)):
        with pytest.raises(ValueError, match=rf"\[{lo}, {hi}\)"):
            eng.range_values(arith.PHI, lo, hi)
    assert eng._cache.keys() == {"spf"}  # refused before any sieve
    assert eng.range_values(arith.PHI, 5, 5).tolist() == []


@pytest.fixture(scope="module")
def wieferich_ranges(engine):
    """For p = 1093, 3511: a range around p^2, the kernel's primes up to
    sqrt of its end, the order row over those and the range's leftover
    primes, and ord_n(2) of each n's odd part."""
    out = []
    for p in (1093, 3511):
        lo, hi = p * p - 30, p * p + 30
        small = engine.primes_upto(math.isqrt(hi - 1))
        left = {q for n in range(lo, hi) for q, _ in oracle_factor(n) if q > small[-1]}
        row = engine._order_row(np.array(sorted({*small.tolist(), *left})))
        want = [engine.mult_order(2, n // (n & -n)) for n in range(lo, hi)]
        out.append((lo, hi, small, row, want))
    return out


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 18])
@pytest.mark.parametrize("cap", [1, 4, arith._RESIDUE_CAP])
def test_lcm_rows_match_the_oracles_at_any_residue_cap(monkeypatch, engine, wieferich_ranges, cap, block):
    # cap 1 takes every lcm by np.lcm; cap 4 takes lambda(4) = lambda(3) = 2 and
    # lambda(16) = lambda(5) = 4, one at the cap, from residue tables; at the
    # default cap lambda(2^12) = 2^10 is exactly at it
    monkeypatch.setattr(arith, "_RESIDUE_CAP", cap)
    monkeypatch.setattr(arith, "_BLOCK", block)
    # the order row's f(p) must see leftover primes only: at limit 0 it has none
    seen = []
    order_row = arith.ArithEngine._order_row

    def spied(self, primes):
        row = order_row(self, primes)
        return row._replace(prime=lambda p: seen.append(p.tolist()) or row.prime(p))

    monkeypatch.setattr(arith.ArithEngine, "_order_row", spied)
    for limit in (0, 1, 600):
        eng = arith.ArithEngine()
        want = [0] + [arith.lam(engine.factorize(n)) for n in range(1, limit + 1)]
        assert eng.value_table(arith.LAMBDA, limit).tolist() == want
        want = [0] + [engine.mult_order(2, n // (n & -n)) for n in range(1, limit + 1)]
        assert eng._order_table(limit).tolist() == want
        assert all(q > math.isqrt(limit) and arith.is_prime(q) for ps in seen for q in ps)
        seen.clear()
    # ranges past 0, one through 2^12 and one whose blocks hold leftover
    # primes up to about 10^6
    for lo, hi in ((4000, 4200), (999_900, 1_000_100)):
        want = [arith.lam(engine.factorize(n)) for n in range(lo, hi)]
        assert arith.ArithEngine().range_values(arith.LAMBDA, lo, hi).tolist() == want
    # at the Wieferich squares ord_{p^2}(2) = ord_p(2)
    for lo, hi, small, row, want in wieferich_ranges:
        assert arith._fill_range(row, small, lo, np.empty(hi - lo, dtype=np.int64)).tolist() == want


def test_residue_tables_stay_within_their_bound():
    cap = arith._RESIDUE_CAP
    assert all(
        arith._lcm_quotients(c).tolist() == [c // math.gcd(r, c) for r in range(c)]
        for c in range(1, 200)
    )
    # the lambda table to 10^6 asks for c = p - 1 up to 996 and lambda(p^e)
    # past the cap, and keeps one uint16 table of c entries for each c <= cap
    arith.ArithEngine().value_table(arith.LAMBDA, 10**6)
    tables = arith._QUOTIENTS
    assert max(tables) == 1024 <= cap
    assert all(t.dtype == np.uint16 and len(t) == c for c, t in tables.items())
    assert sum(t.nbytes for t in tables.values()) <= cap * (cap + 1)


def test_phi_table_matches_pointwise(engine):
    tab = engine.value_table(arith.PHI, 1500)
    for n in range(1, 1501):
        assert int(tab[n]) == arith.phi(engine.factorize(n))


def test_sigma_table_matches_pointwise(engine):
    tab = engine.value_table(arith.SIGMA, 1500)
    for n in range(1, 1501):
        assert int(tab[n]) == arith.sigma(engine.factorize(n))


def test_lambda_table_matches_pointwise(engine):
    tab = engine.value_table(arith.LAMBDA, 1500)
    for n in range(1, 1501):
        assert int(tab[n]) == arith.lam(engine.factorize(n))


@given(
    st.one_of(
        st.sampled_from(BASE_FNS),
        st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 1009]), min_size=1).map(arith.gstar),
    ),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
)
@settings(max_examples=60, deadline=None)
def test_value_table_matches_eval_base_random(fn, first, limit):
    # the first table is cached; the second is a slice of it or a rebuild
    eng = arith.ArithEngine()
    eng.value_table(fn, first)
    tab = eng.value_table(fn, limit)
    assert len(tab) == limit + 1 and tab[0] == 0
    assert tab[1:].tolist() == [
        arith.eval_base(fn, eng.factorize(n)) for n in range(1, limit + 1)
    ]


def test_value_table_memory_budget():
    eng = arith.ArithEngine(memory_budget=8 * 1001)
    assert eng.value_table(arith.SIGMA, 1000)[1000] == 2340
    with pytest.raises(CapacityError):
        eng.value_table(arith.SIGMA, 1001)
    # a chain sizes each table by its largest input
    with pytest.raises(CapacityError):
        eng.chain_values((arith.PHI,), np.array([2, 1009]))
    assert eng.big_omega_table(8000)[7776] == 10
    with pytest.raises(CapacityError):
        eng.big_omega_table(8008)


def test_s_table_builds_within_its_budget():
    # s = sigma - n subtracts one block of n at a time, so its build peaks
    # where the sigma table's does; a whole-table arange added 7.6 MiB
    peaks = {}
    for fn in (arith.SIGMA, arith.SUM_PROPER):
        eng = arith.ArithEngine()
        eng.primes_upto(1000)
        tracemalloc.start()
        try:
            tab = eng.value_table(fn, 10**6)
            peaks[fn] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tab[1] == 1 and tab[999_999] == arith.eval_base(fn, eng.factorize(999_999))
    assert peaks[arith.SUM_PROPER] < peaks[arith.SIGMA] + (1 << 20)


def test_big_omega_table_matches_pointwise(engine):
    tab = engine.big_omega_table(3000)
    assert tab[0] == 0
    for n in range(1, 3001):
        assert int(tab[n]) == sum(e for _, e in oracle_factor(n))


@pytest.mark.parametrize(
    "table",
    [lambda eng, n: eng.value_table(arith.PHI, n), arith.ArithEngine.big_omega_table,
     arith.ArithEngine.primes_upto],
    ids=["phi", "big-omega", "primes"],
)
def test_big_omega_table_is_cached_until_a_larger_limit(table):
    eng = arith.ArithEngine()
    small = table(eng, 1000)
    assert np.shares_memory(table(eng, 500), small)
    big = table(eng, 5000)
    assert not np.shares_memory(big, small)
    assert np.array_equal(big[: len(small)], small)
    assert np.shares_memory(table(eng, 1000), big)


def test_concurrent_growth_keeps_the_longest_table(monkeypatch):
    # builds run outside the engine lock, so threads race to store theirs;
    # a shorter table stored over a longer one would be a lost update
    eng = arith.ArithEngine()
    want = arith.ArithEngine().value_table(arith.PHI, 8000)
    limits = [[2000 * (1 + (i + j) % 4) for j in range(12)] for i in range(4)]
    bad = []
    # a growing table is at least doubled, so which sizes get built depends
    # on the race; record them
    tables, sieves = [], []
    kernel, sieve = arith._block_table, arith.prime_sieve
    monkeypatch.setattr(arith, "_block_table", lambda row, primes, limit: (
        tables.append(limit) or kernel(row, primes, limit)))
    monkeypatch.setattr(arith, "prime_sieve", lambda limit: sieves.append(limit) or sieve(limit))

    def worker(mine):
        for limit in mine:
            if not np.array_equal(eng.value_table(arith.PHI, limit), want[: limit + 1]):
                bad.append(limit)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(mine,)) for mine in limits]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert bad == []
    assert len(eng.value_table(arith.PHI, 1).base) == max(tables) + 1 > 8000
    assert eng.primes_upto(1).base.tolist() == sieve(max(sieves)).tolist()


def test_a_late_build_does_not_replace_a_longer_table(monkeypatch):
    # while the phi table to 2000 is being built, the one to 8000 is built
    # and stored, as another thread might do; the late, shorter one is dropped
    eng = arith.ArithEngine()
    kernel = arith._block_table

    def racing(row, primes, limit):
        if limit == 2000:
            eng.value_table(arith.PHI, 8000)
        return kernel(row, primes, limit)

    monkeypatch.setattr(arith, "_block_table", racing)
    got = []
    worker = threading.Thread(
        target=lambda: got.append(eng.value_table(arith.PHI, 2000)), daemon=True
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()  # a build holding the engine lock deadlocks here
    want = arith.ArithEngine().value_table(arith.PHI, 8000)
    assert np.array_equal(got[0], want[:2001])
    assert len(eng.value_table(arith.PHI, 1).base) == 8001


def test_prime_sieve_budget_is_checked_before_the_sieve():
    # 10^6 digits of the primes need a sieve far past a 64 KiB budget
    eng = arith.ArithEngine(memory_budget=1 << 16)
    spec = arith.CompositionSpec((), arith.PRIMES)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"^prime sieve for limit \d+ needs \d+ bytes, budget is 65536$"):
            count_stream(eng, spec, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # refused before anything of that size was allocated


def test_is_prime_matches_factoring_oracle():
    assert [n for n in range(-3, 30) if arith.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for n in range(30, 200_000):
        assert arith.is_prime(n) == (arith._trial_division(n) == ((n, 1),))
    assert arith.is_prime(2**31 - 1) and not arith.is_prime(2**31 + 1)
    # 2^61 - 1, the largest prime below 2^63, and 2^63 - 1 = 7^2 73 127 337 92737 649657
    assert arith.is_prime(2**61 - 1) and arith.is_prime(2**63 - 25)
    assert not arith.is_prime(2**63 - 1)


def test_is_prime_rejects_carmichael_numbers():
    # Chernick's (6k + 1)(12k + 1)(18k + 1) is a Carmichael number whenever
    # its three factors are prime: each p - 1 divides n - 1 (Korselt)
    found = []
    for k in range(1, 400):
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(arith._trial_division(p) == ((p, 1),) for p in ps):
            n = math.prod(ps)
            assert all((n - 1) % (p - 1) == 0 for p in ps)
            found.append(n)
    assert found[:3] == [1729, 294409, 56052361] and len(found) > 10
    for n in [561, 1105, 2465, 2821, 6601, 8911, *found]:
        assert not arith.is_prime(n), n


@pytest.mark.parametrize(
    "factors",
    # the least strong pseudoprimes to the first 1, 2, ..., 11 prime bases,
    # with psi_7 = psi_8 and psi_9 = psi_10 = psi_11 (Jaeschke 1993; Jiang
    # and Deng 2014)
    [(23, 89), (829, 1657), (2251, 11251), (151, 751, 28351), (6763, 10627, 29947),
     (1303, 16927, 157543), (10670053, 32010157), (149491, 747451, 34233211)],
    ids=lambda factors: str(math.prod(factors)),
)
def test_is_prime_rejects_strong_pseudoprimes(factors):
    assert all(arith._trial_division(p) == ((p, 1),) for p in factors)
    assert not arith.is_prime(math.prod(factors))


@pytest.mark.parametrize(
    "chain",
    [(arith.PHI,), (arith.SIGMA,), (arith.LAMBDA,), (arith.RADICAL,), (arith.TWO_SQUARES,),
     (arith.gstar([2, 3]),), (arith.PHI, arith.SIGMA), (arith.SIGMA, arith.SIGMA)],
    ids=lambda chain: ".".join(fn.describe() for fn in chain),
)
def test_chain_values_on_primes_matches_eval(chain):
    # primes are sparse (max > count); every step still reads its table
    eng = arith.ArithEngine()
    args = eng.stream_values(arith.CompositionSpec((), arith.PRIMES), 1, 401)
    got = eng.chain_values(chain, np.concatenate([args, args[::-1]]))
    spec = arith.CompositionSpec(chain, arith.PRIMES)
    want = [eng.eval_composition(spec, i) for i in range(1, 401)]
    assert got.tolist() == want + want[::-1]


@pytest.mark.parametrize("domain", list(arith.Domain), ids=lambda d: d.describe())
def test_domain_values_match_domain_stream(engine, domain):
    spec = arith.CompositionSpec((), domain)
    got = engine.stream_values(spec, 1, 301)
    assert got.dtype == np.int64
    assert got.tolist() == [engine.eval_composition(spec, i) for i in range(1, 301)]
    assert engine.stream_values(spec, 1, 1).tolist() == []
    # an empty block of a chain has no growth to divide by
    chained = arith.CompositionSpec((arith.PHI, arith.PHI), domain)
    assert engine.stream_values(chained, 1, 1).tolist() == []


@pytest.mark.parametrize("digits", [10**5, 10**6])
@pytest.mark.parametrize(
    "chain,domain",
    [((), arith.PRIMES), ((arith.PHI, arith.SIGMA), arith.PRIMES), ((), arith.ODD_ORDERS),
     ((), arith.PRIME_ORDERS), ((arith.PHI, arith.PHI), arith.NATURALS),
     ((arith.LAMBDA, arith.LAMBDA, arith.PHI), arith.NATURALS)],
    ids=lambda x: x.describe() if isinstance(x, arith.Domain) else ".".join(f.describe() for f in x),
)
def test_a_stream_builds_each_whole_array_twice(monkeypatch, chain, domain, digits):
    # once for the first block's probe, once for the forecast of the cut
    built = []
    grown = arith.ArithEngine._grown

    def counted(self, key, limit, what, entry_bytes, build, want=0, most=None):
        def recorded(size):
            built.append(key)
            return build(size)

        return grown(self, key, limit, what, entry_bytes, recorded, want, most)

    monkeypatch.setattr(arith.ArithEngine, "_grown", counted)
    spec = arith.CompositionSpec(chain, domain)
    for _ in words.prefix_blocks(arith.ArithEngine(), spec, digits):
        pass
    assert built and {key: built.count(key) for key in built} == dict.fromkeys(built, 2)


def recorded_fills(monkeypatch):
    """The ranges [lo, hi) that `arith._fill_range` fills from now on."""
    fills = []
    fill_range = arith._fill_range

    def recorded(row, primes, lo, out):
        fills.append((lo, lo + len(out)))
        return fill_range(row, primes, lo, out)

    monkeypatch.setattr(arith, "_fill_range", recorded)
    return fills


def test_naturals_stream_values_are_views_of_one_span(monkeypatch):
    # a block outside the span refills it from the block's start, for
    # `_BLOCK` values but not past `expect`, filling only past the span's
    # end where the block starts inside it; a block inside it is a view
    monkeypatch.setattr(arith, "_BLOCK", 50)
    fills = recorded_fills(monkeypatch)
    eng = arith.ArithEngine()
    spec = arith.CompositionSpec((arith.PHI,))
    want = [0] + [oracle_phi(n) for n in range(1, 200)]
    reads = [(1, 10, 20), (5, 15, 20), (15, 25, 100), (60, 64, 0), (64, 130, 0), (1, 2, 0)]
    spans = [(1, 21), None, (21, 65), None, (65, 130), (1, 2)]
    for (lo, hi, expect), span in zip(reads, spans):
        before = len(fills)
        got = eng.stream_values(spec, lo, hi, expect)
        assert got.tolist() == want[lo:hi]
        assert fills[before:] == ([span] if span else [])
        assert np.shares_memory(got, eng._span[2]) and not got.flags.writeable
    # a span is kept for one function only
    assert eng.stream_values(arith.CompositionSpec((arith.SIGMA,)), 1, 2).tolist() == [1]
    assert fills[-1] == (1, 2)


@pytest.mark.parametrize("fn", [arith.PHI, arith.SIGMA, arith.gstar([2])], ids=lambda fn: fn.describe())
@pytest.mark.parametrize(
    "block,span,digits",
    [(100, 400, 1000), (100, 400, 20_000), (100, 400, 77_777), (100, 400, 123_456), (7, 30, 3000)],
)
def test_a_naturals_stream_fills_kernel_spans_in_order(monkeypatch, fn, block, span, digits):
    # stream blocks read kernel spans: each span starts where the one before
    # ended, also where a block starts inside a span and runs past its end
    # (the forecast grew after a span was cut at it, or the block size does
    # not divide the span), so no value is filled twice
    monkeypatch.setattr(words, "_BLOCK", block)
    monkeypatch.setattr(arith, "_BLOCK", span)
    fills = recorded_fills(monkeypatch)
    report = count_stream(arith.ArithEngine(), arith.CompositionSpec((fn,)), digits)
    assert fills[0][0] == 1
    assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(fills, fills[1:])), fills
    assert report["n"] < fills[-1][1] <= report["n"] + arith._BLOCK


def test_the_benchmark_phi_count_fills_at_most_four_spans(monkeypatch):
    # 3e6 digits are 535,998 values: the first block's probe, then spans of
    # 2^18 values up to the forecast (one kernel call per 2^16 block before)
    fills = recorded_fills(monkeypatch)
    report = count_stream(arith.ArithEngine(), arith.CompositionSpec((arith.PHI,)), 3 * 10**6)
    assert report["n"] == 535_998
    assert 1 < len(fills) <= 4, fills


def block_lists(block):
    return block.first, block.start, block.values.tolist(), block.lengths.tolist(), block.digits.tolist()


@pytest.mark.parametrize(
    "first,second,ahead",
    [((arith.PHI,), (arith.SIGMA,), 0), ((arith.PHI,), (arith.PHI,), 3)],
    ids=["phi-sigma", "phi-phi-ahead3"],
)
def test_interleaved_naturals_streams_on_one_engine_match_fresh_ones(monkeypatch, first, second, ahead):
    # the two streams take turns at the engine's one span, the second
    # starting `ahead` blocks behind; every block is as a fresh engine has it,
    # also after the span has been refilled for the other stream
    monkeypatch.setattr(words, "_BLOCK", 100)
    monkeypatch.setattr(arith, "_BLOCK", 400)
    specs = [arith.CompositionSpec(first), arith.CompositionSpec(second)]
    digits = [30_000, 25_000]
    want = [list(map(block_lists, words.prefix_blocks(arith.ArithEngine(), spec, num)))
            for spec, num in zip(specs, digits)]
    engine = arith.ArithEngine()
    streams = [words.prefix_blocks(engine, spec, num) for spec, num in zip(specs, digits)]
    got = [[block_lists(next(streams[0])) for _ in range(ahead)], []]
    while len(got[0]) < len(want[0]) or len(got[1]) < len(want[1]):
        for which in (0, 1):
            block = next(streams[which], None)
            if block is not None:
                got[which].append(block_lists(block))
    assert got == want


def test_chain_values_matches_eval(engine):
    chain = (arith.PHI, arith.SIGMA, arith.LAMBDA)
    args = np.arange(1, 300, dtype=np.int64)
    got = engine.chain_values(chain, args)
    spec = arith.CompositionSpec(chain)
    want = [engine.eval_composition(spec, int(m)) for m in args]
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# SPF sieve
# ---------------------------------------------------------------------------


def test_spf_table_least_factors():
    spf = arith.spf_table(5000)
    for n in range(2, 5001):
        assert int(spf[n]) == oracle_factor(n)[0][0]
    assert spf[0] == 0 and spf[1] == 0


def test_spf_table_budget():
    with pytest.raises(CapacityError):
        arith.spf_table(10**6, memory_budget=1024)
    with pytest.raises(ValueError):
        arith.spf_table(1)


# ---------------------------------------------------------------------------
# segmented prime sieve
# ---------------------------------------------------------------------------


def whole_mask_primes(limit):
    """The sieve `prime_sieve` replaced: one bool per integer up to the limit."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


# segments of 48, 49 and 50 (120, 121 and 122) integers put an edge on
# 7^2 - 1, 7^2 and 7^2 + 1 (11^2 - 1, 11^2, 11^2 + 1)
@pytest.mark.parametrize("block", [7, 64, 1 << 18, 48, 49, 50, 120, 121, 122])
def test_prime_sieve_matches_the_whole_mask_sieve(monkeypatch, block):
    monkeypatch.setattr(arith, "_BLOCK", block)
    for limit in [0, 1, 2, 3, 48, 49, 50, 120, 121, 122, 10**4]:
        got = arith.prime_sieve(limit)
        assert got.dtype == np.int64
        assert got.tolist() == whole_mask_primes(limit).tolist(), limit


def test_prime_sieve_peak_stays_near_its_list():
    # one array sized by an upper bound on pi(10^7), about 2% past the
    # 664,579 primes, and one segment's mask: the segments' primes and
    # their concatenation held at once peaked at twice the list
    tracemalloc.start()
    try:
        primes = arith.prime_sieve(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(primes) == 664579
    assert peak <= 1.3 * primes.nbytes, peak / primes.nbytes


def test_prime_mask_spans_start_and_end_at_prime_squares():
    limit = 10**4
    want = np.zeros(limit + 1, dtype=bool)
    want[whole_mask_primes(limit)] = True
    small = arith.prime_sieve(100)
    edges = sorted({0, 1, 2, 3} | {p * p + d for p in (2, 3, 5, 7, 11, 97) for d in (-1, 0, 1)})
    for lo in edges:
        for hi in edges + [limit + 1]:
            if lo <= hi:
                assert arith.prime_mask(lo, hi, small).tolist() == want[lo:hi].tolist(), (lo, hi)
