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

from normfreq import arith
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
    got = engine.domain_values(arith.PRIMES, 10).tolist()
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
    vals = engine.domain_values(arith.ODD_ORDERS, 8).tolist()
    assert vals == [oracle_order(2, 2 * i - 1) if i > 1 else 1 for i in range(1, 9)]
    assert vals == [1, 2, 4, 3, 6, 10, 12, 4]


def test_prime_orders_domain(engine):
    got = engine.domain_values(arith.PRIME_ORDERS, 5).tolist()
    # orders of 2 mod p_2..p_6 = 3, 5, 7, 11, 13
    assert got == [oracle_order(2, p) for p in (3, 5, 7, 11, 13)]
    assert got == [2, 4, 3, 10, 12]


def test_order_table_matches_mult_order():
    eng = arith.ArithEngine()
    tab = eng._order_table(20_001)
    assert all(int(tab[n]) == eng.mult_order(2, n) for n in range(1, 20_001, 2))


def test_order_row_at_wieferich_primes(engine):
    # 2^(p-1) = 1 (mod p^2) for p = 1093, 3511, so the order does not grow
    # at e = 2; the row runs over just the primes dividing these n
    assert engine.mult_order(2, 1093**2) == engine.mult_order(2, 1093)
    primes = np.array([3, 1093, 3511])
    tab = engine._prime_power_table(engine._order_row(primes), primes, 3511**2)
    for n in (1093**2, 3511**2, 1093 * 3511, 3 * 1093**2, 9 * 3511):
        assert int(tab[n]) == engine.mult_order(2, n), n


def test_order_table_refuses_moduli_past_int64_squares():
    # residues are squared in int64, so the table stops below 2^31
    eng = arith.ArithEngine(memory_budget=1 << 40)
    with pytest.raises(CapacityError):
        eng._order_table(1 << 31)


def test_prime_orders_match_mult_order(engine):
    got = engine.domain_values(arith.PRIME_ORDERS, 2000).tolist()
    assert got == [engine.mult_order(2, engine.nth_prime(i)) for i in range(2, 2002)]


def test_value_stream_matches_pointwise(engine):
    spec = arith.CompositionSpec((arith.LAMBDA, arith.PHI), arith.PRIMES)
    got = engine.chain_values(spec.chain, engine.domain_values(spec.domain, 39))
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


def test_concurrent_growth_keeps_the_longest_table():
    # builds run outside the engine lock, so threads race to store theirs;
    # a shorter table stored over a longer one would be a lost update
    eng = arith.ArithEngine()
    want = arith.ArithEngine().value_table(arith.PHI, 8000)
    limits = [[2000 * (1 + (i + j) % 4) for j in range(12)] for i in range(4)]
    bad = []

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
    assert len(eng.value_table(arith.PHI, 1).base) == 8001
    assert eng.primes_upto(1).base[-1] == 7993  # the largest prime <= 8000


def test_a_late_build_does_not_replace_a_longer_table(monkeypatch):
    # while the phi table to 2000 is being built, the one to 8000 is built
    # and stored, as another thread might do; the late, shorter one is dropped
    eng = arith.ArithEngine()
    kernel = arith.ArithEngine._prime_power_table

    def racing(self, row, primes, limit):
        if limit == 2000:
            self.value_table(arith.PHI, 8000)
        return kernel(self, row, primes, limit)

    monkeypatch.setattr(arith.ArithEngine, "_prime_power_table", racing)
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


def test_naturals_domain_values_budget_is_checked():
    eng = arith.ArithEngine(memory_budget=8 * 1001)
    assert eng.domain_values(arith.NATURALS, 1000).tolist() == list(range(1, 1001))
    with pytest.raises(CapacityError, match=r"^domain values for limit 1001 needs 8016 bytes, budget is 8008$"):
        eng.domain_values(arith.NATURALS, 1001)


def test_is_prime_matches_factoring_oracle():
    assert [n for n in range(-3, 30) if arith.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for n in range(30, 5000):
        assert arith.is_prime(n) == (oracle_factor(n) == ((n, 1),))
    assert arith.is_prime(2**31 - 1) and not arith.is_prime(2**31 + 1)


@pytest.mark.parametrize(
    "chain",
    [(arith.PHI,), (arith.SIGMA,), (arith.LAMBDA,), (arith.RADICAL,), (arith.TWO_SQUARES,),
     (arith.gstar([2, 3]),), (arith.PHI, arith.SIGMA), (arith.SIGMA, arith.SIGMA)],
    ids=lambda chain: ".".join(fn.describe() for fn in chain),
)
def test_chain_values_on_primes_matches_eval(chain):
    # primes are sparse (max > count); every step still reads its table
    eng = arith.ArithEngine()
    args = eng.domain_values(arith.PRIMES, 400)
    got = eng.chain_values(chain, np.concatenate([args, args[::-1]]))
    spec = arith.CompositionSpec(chain, arith.PRIMES)
    want = [eng.eval_composition(spec, i) for i in range(1, 401)]
    assert got.tolist() == want + want[::-1]


@pytest.mark.parametrize("domain", list(arith.Domain), ids=lambda d: d.describe())
def test_domain_values_match_domain_stream(engine, domain):
    got = engine.domain_values(domain, 300)
    spec = arith.CompositionSpec((), domain)
    assert got.dtype == np.int64
    assert got.tolist() == [engine.eval_composition(spec, i) for i in range(1, 301)]
    assert engine.domain_values(domain, 0).tolist() == []


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
