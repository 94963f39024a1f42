"""Acceptance gate: twelve numbered behaviors, one test per criterion.

Run with ``pytest -v``: the PASSED/FAILED line of each ``test_NN_*``
item is the per-criterion verdict.  Every test also prints its measured
numbers, so a failing criterion shows exactly which pinned tolerance
broke and by how much.

Pinned observed values were frozen from independent recounts (pure
Python / plain numpy, separate from the library code paths) before
being asserted here; the oracles inside the tests recompute them from
scratch on every run.
"""

import json
import math
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

from normfreq import arith, cli, experiments, ngrams, words
from normfreq.arith import LAMBDA, NATURALS, PHI, PRIMES, SIGMA, CompositionSpec


def record(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def engine():
    return arith.ArithEngine(spf_limit=1_000_000)


def word_text(w, g):
    return "".join(map(str, w)) if g <= 10 else ".".join(map(str, w))


# --- criterion 1: stream fidelity ------------------------------------------


def test_01_stream_fidelity(engine):
    t0 = time.perf_counter()
    naturals = words.truncate(engine, CompositionSpec((), NATURALS), 17, 10, words.MSF)
    primes = words.truncate(engine, CompositionSpec((), PRIMES), 20, 10, words.MSF)
    elapsed = time.perf_counter() - t0
    nat_text = "".join(map(str, naturals.digits.tolist()))
    pri_text = "".join(map(str, primes.digits.tolist()))
    ok = (
        nat_text == "12345678910111213"
        and pri_text == "23571113171923293137"
        and elapsed < 1.0
    )
    record(1, ok, f"naturals={nat_text!r} primes={pri_text!r} elapsed={elapsed:.3f}s")


# --- criteria 2 + 3: census vs naive recount, counter conservation ---------

GRID_SPECS = [
    ("id", ()),
    ("phi", (PHI,)),
    ("sigma", (SIGMA,)),
    ("lambda", (LAMBDA,)),
    ("phi.sigma", (PHI, SIGMA)),
    ("lambda.phi", (LAMBDA, PHI)),
]
GRID_N = 10**4


@pytest.fixture(scope="module")
def census_grid(engine):
    """All 108 (spec, domain, g, k) runs plus an independent window recount."""
    runs = []
    t0 = time.perf_counter()
    for name, chain in GRID_SPECS:
        for domain in (NATURALS, PRIMES):
            spec = CompositionSpec(chain, domain)
            for g in (2, 10, 16):
                digits = words.truncate(engine, spec, GRID_N, g, words.MSF).digits.tolist()
                for k in (1, 2, 3):
                    report = ngrams.count_stream(engine, spec, GRID_N, g=g, k=k)
                    naive = Counter(
                        word_text(digits[i : i + k], g) for i in range(GRID_N - k + 1)
                    )
                    runs.append((f"{spec.describe()}/g={g}/k={k}", g, k, report, naive))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_02_census_equals_naive_recount(census_grid):
    runs, elapsed = census_grid
    bad = [label for label, g, k, report, naive in runs if report["counts"] != dict(naive)]
    ok = not bad and len(runs) == 108 and elapsed < 60.0
    record(2, ok, f"runs={len(runs)} mismatches={bad[:3]} elapsed={elapsed:.1f}s")


def test_03_counter_conservation(census_grid):
    runs, _ = census_grid
    bad = []
    for label, g, k, report, _ in runs:
        if sum(report["counts"].values()) != GRID_N - k + 1:
            bad.append(label + " (total)")
            continue
        for w, c in report["counts"].items():
            parts = (
                report["complete_counts"].get(w, 0)
                + report["boundary_counts"].get(w, 0)
                + report["tail_counts"].get(w, 0)
            )
            if parts != c:
                bad.append(label + f" (decomposition at {w!r})")
                break
    record(3, not bad, f"runs={len(runs)} violations={bad[:3]}")


# --- criterion 4: lambda against the unit group ------------------------------


def brute_exponent(n):
    """lcm of the multiplicative orders of all units mod n."""
    if n <= 2:
        return 1
    t = 1
    for a in range(1, n):
        if gcd(a, n) != 1:
            continue
        order, x = 1, a % n
        while x != 1:
            x = x * a % n
            order += 1
        t = t * order // gcd(t, order)
    return t


def certifies_exponent(n, t):
    """True iff t is the exponent of (Z/n)*: every unit kills t, and for
    each prime q | t some unit survives t/q."""
    if n <= 2:
        return t == 1
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    if any(pow(a, t, n) != 1 for a in units):
        return False
    m, q, primes = t, 2, []
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    return all(any(pow(a, t // q, n) != 1 for a in units) for q in primes)


def test_04_lambda_is_unit_group_exponent(engine):
    t0 = time.perf_counter()
    direct_bad = [
        n for n in range(1, 301) if engine.eval_base_value(LAMBDA, n) != brute_exponent(n)
    ]
    cert_bad = [
        n
        for n in range(301, 5001)
        if not certifies_exponent(n, engine.eval_base_value(LAMBDA, n))
    ]
    lam = engine.value_table(LAMBDA, 10**5)
    phi = engine.value_table(PHI, 10**5)
    divides = bool(np.all(phi[1:] % lam[1:] == 0))
    elapsed = time.perf_counter() - t0
    ok = not direct_bad and not cert_bad and divides and elapsed < 60.0
    record(
        4,
        ok,
        f"direct_bad={direct_bad[:3]} cert_bad={cert_bad[:3]} "
        f"lambda|phi<=1e5={divides} elapsed={elapsed:.1f}s",
    )


# --- criterion 5: classifier vs literal definition ---------------------------


def literal_all_words_check(n, eps, k, g):
    """Strict two-sided bound over every word of length k, from scratch."""
    digs = words.digits_of(n, g)
    length = len(digs)
    lo = (Fraction(1, g**k) - Fraction(eps)) * length
    hi = (Fraction(1, g**k) + Fraction(eps)) * length
    seen = Counter(tuple(digs[i : i + k]) for i in range(length - k + 1))
    return all(lo < seen.get(w, 0) < hi for w in product(range(g), repeat=k))


def test_05_classifier_matches_literal_definition():
    mismatches = []
    for eps, k, g in product((0.02, 0.05, 0.2), (1, 2), (2, 10)):
        for n in range(1, 10**4 + 1):
            if words.is_eps_k_normal(n, eps, k, g) != literal_all_words_check(n, eps, k, g):
                mismatches.append((n, eps, k, g))
    record(5, not mismatches, f"combos=12 n<=1e4 mismatches={mismatches[:3]}")


# --- criterion 6: convergence trend for the totient stream -------------------


def totient_digit_recount(num_digits):
    """Base-10 digit counts of the first `num_digits` digits of
    0.phi(1)phi(2)phi(3)..., from a plain numpy totient sieve and `str`."""
    limit = 16
    while True:
        phi = np.arange(limit + 1, dtype=np.int64)
        for p in range(2, limit + 1):
            if phi[p] == p:
                phi[p::p] -= phi[p::p] // p
        text = "".join(map(str, phi[1:].tolist()))
        if len(text) >= num_digits:
            break
        limit *= 2
    codes = np.frombuffer(text[:num_digits].encode("ascii"), dtype=np.uint8) - ord("0")
    return np.bincount(codes, minlength=10)


def test_06_totient_digit_convergence(engine):
    spec = CompositionSpec((PHI,), NATURALS)
    t0 = time.perf_counter()
    small = ngrams.count_stream(engine, spec, 10**3, g=10, k=1)
    big = ngrams.count_stream(engine, spec, 10**7, g=10, k=1)
    elapsed = time.perf_counter() - t0
    small_oracle = totient_digit_recount(10**3)
    big_oracle = totient_digit_recount(10**7)
    recounted = all(
        report["counts"] == {str(d): int(c) for d, c in enumerate(oracle) if c}
        for report, oracle in ((small, small_oracle), (big, big_oracle))
    )
    oracle_dev = float(np.abs(big_oracle / 10**7 - 1 / 10).max())
    dev_match = big["max_dev"] == oracle_dev
    shrinking = big["max_dev"] < small["max_dev"]
    pinned = big["counts"].get("0") == 1551186
    detail = (
        f"max_dev(1e3)={small['max_dev']:.4f} max_dev(1e7)={big['max_dev']:.6f} "
        f"oracle={oracle_dev:.6f} recounted={recounted} shrinking={shrinking} "
        f"zeros(1e7)={big['counts'].get('0')} elapsed={elapsed:.0f}s"
    )
    # The paper proves normality only in the limit, with no rate, so no
    # fixed ceiling on max_dev at 1e7 is implied.  Trailing zeros bias
    # the stream: 10 | phi(n) whenever 25 | n or n has a prime factor
    # = 1 (mod 5), so 42% of the 1,669,287 values in this prefix end in
    # 0, and that excess falls only like 1/(digits per value) ~ 1/log N.
    # The decade sweep 1e3..1e7 reads 0.0890, 0.0631, 0.0573, 0.0543,
    # 0.0551, so the deviation is not monotone either.  Instead the
    # counts are recounted from scratch above, and 1,551,186 zeros is
    # the frozen value of that plain-numpy recount.
    ok = recounted and dev_match and shrinking and pinned and elapsed <= 300.0
    record(6, ok, detail)


# --- criterion 7: small unit-group exponents are rare ------------------------


def test_07_small_lambda_census(engine):
    t0 = time.perf_counter()
    report = experiments.small_lambda_census(engine, [10**2, 10**3, 10**4, 10**5, 10**6])
    last = report["rows"][-1]
    # independent route: lambda from per-n factorization, not the sieve DP
    recount = sum(
        1 for n in range(1, 10**6 + 1) if engine.eval_base_value(LAMBDA, n) ** 2 < n
    )
    elapsed = time.perf_counter() - t0
    closed_form = 10**6 / math.exp(math.log(10**6) ** (1.0 / 3.0))
    ok = (
        last["count"] == recount == 24755
        and last["bound"] == closed_form
        and last["count"] <= last["bound"]
        and elapsed <= 120.0
    )
    record(
        7,
        ok,
        f"count={last['count']} recount={recount} bound={last['bound']:.1f} "
        f"elapsed={elapsed:.0f}s",
    )


# --- criterion 8: divisor preimages stay under the bound ----------------------


def test_08_divisor_preimage_bounds(engine):
    failures = []
    for fn in (PHI, SIGMA, LAMBDA):
        for d in (2, 3, 4, 6, 12):
            report = experiments.divisor_preimage_census(engine, fn, d, [10**5])
            row = report["rows"][-1]
            ell = arith.big_omega(engine.factorize(d))
            formula = (10**5 / d) * (8 * ell * experiments.floored_log(10**5) ** 2) ** ell
            if row["bound"] != formula or not row["verdict"]:
                failures.append((fn.describe(), d, row["count"], row["bound"]))
    record(8, not failures, f"combos=15 x=1e5 failures={failures[:3]}")


# --- criterion 9: small-value censuses --------------------------------------


def test_09_small_value_censuses(engine):
    checkpoints = [10**2, 10**3, 10**4, 10**5]
    sigma_rows = experiments.small_value_census(
        engine, CompositionSpec((SIGMA,)), checkpoints
    )["rows"]
    sigma_zero = all(r["count"] == 0 for r in sigma_rows)

    phi_report = experiments.small_value_census(engine, CompositionSpec((PHI,)), checkpoints)
    phi2_report = experiments.small_value_census(
        engine, CompositionSpec((PHI, PHI)), checkpoints
    )

    # pointwise oracle via per-n factorization (the census used sieved tables)
    phi_hits = []
    phi2_hits = []
    for n in range(1, 10**5 + 1):
        p = engine.eval_base_value(PHI, n)
        if p * p < n:
            phi_hits.append(n)
        pp = engine.eval_base_value(PHI, p)
        if pp**4 < n:
            phi2_hits.append(n)
    phi_counts = [sum(1 for n in phi_hits if n <= x) for x in checkpoints]
    phi2_counts = [sum(1 for n in phi2_hits if n <= x) for x in checkpoints]

    phi_match = [r["count"] for r in phi_report["rows"]] == phi_counts
    phi2_match = [r["count"] for r in phi2_report["rows"]] == phi2_counts
    ok = sigma_zero and phi_match and phi2_match and phi_hits == [2, 6] and len(phi2_hits) == 5
    record(
        9,
        ok,
        f"sigma_zero={sigma_zero} phi={phi_counts} phi.phi={phi2_counts} "
        f"phi_hits={phi_hits}",
    )


# --- criterion 10: repeated block separation ---------------------------------


def test_10_block_repetition_separation(engine):
    t0 = time.perf_counter()
    report = experiments.non_normality_demo(engine, (2,), 5, g=10, num_digits=10**6)
    elapsed = time.perf_counter() - t0
    floor = 100 * 10**6 * 10.0 ** (-report["block_len"])
    ok = (
        report["block"] == "12141218121412116121412181214121"
        and report["block_len"] == 32
        and report["observed"] == 29168
        and report["observed"] >= floor
        and elapsed <= 60.0
    )
    record(
        10,
        ok,
        f"block_len={report['block_len']} observed={report['observed']} "
        f"floor={floor:.1e} elapsed={elapsed:.0f}s",
    )


# --- criterion 11: non-normal numbers thin out -------------------------------


def test_11_non_normal_fraction_shrinks():
    checkpoints = [10**2, 10**3, 10**4, 10**5, 10**6]
    t0 = time.perf_counter()
    counts = ngrams.classify_checkpoints(0.05, 1, 2, checkpoints)
    elapsed = time.perf_counter() - t0
    fit = ngrams.fit_meager_exponent(checkpoints, counts)
    first = counts[0] / checkpoints[0]
    last = counts[-1] / checkpoints[-1]
    ok = (
        counts == [86, 825, 6775, 69118, 596265]
        and last < first
        and fit.delta < 1.0
        and elapsed <= 300.0
    )
    record(
        11,
        ok,
        f"counts={counts} fractions={first:.3f}->{last:.3f} "
        f"delta={fit.delta:.4f} elapsed={elapsed:.0f}s",
    )


# --- criterion 12: thread-count invariance -----------------------------------


def test_12_threads_do_not_change_report_bytes(tmp_path):
    threaded = ["--threads", "1"], ["--threads", "8"]
    cases = {
        "count": (["count", "--f", "phi.sigma", "--domain", "primes", "--base", "16",
                   "--k", "3", "--digits", str(10**4)], threaded),
        # 16 classifier blocks
        "classify": (["classify", "--eps", "0.05", "--base", "2",
                      "--limit", str(10**6)], threaded),
        # no --threads option: two runs must still agree
        "fps": (["experiment", "fps", "--limit", str(10**6)], ([], [])),
        "non-normal": (["experiment", "non-normal", "--primes", "2", "--k", "5",
                        "--digits", str(10**6)], ([], [])),
    }
    diffs = []
    for name, (argv, (first, second)) in cases.items():
        one = tmp_path / f"{name}-1.json"
        two = tmp_path / f"{name}-2.json"
        assert cli.main(argv + first + ["--report", str(one)]) == 0
        assert cli.main(argv + second + ["--report", str(two)]) == 0
        if one.read_bytes() != two.read_bytes():
            diffs.append(name)
        payload = json.loads(one.read_text())
        assert payload["kind"] in reports_kinds()
    record(12, not diffs, f"cases={list(cases)} differing={diffs}")


def reports_kinds():
    from normfreq import reports

    return reports.CSV_KINDS
