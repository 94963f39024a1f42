"""Census and report tests.

Counts are cross-checked against pointwise scans that reuse none of the
bulk-table machinery; frozen literals below were recorded from those
scans and guard against regressions.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from normfreq import arith, experiments, reports
from normfreq.arith import LAMBDA, PHI, SIGMA, CompositionSpec
from normfreq.words import LSF, MSF


@pytest.fixture(scope="module")
def engine():
    return arith.ArithEngine(spf_limit=10_000)


def oracle_factor(n):
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


def oracle_big_omega(n):
    return sum(e for _, e in oracle_factor(n))


def oracle_sigma(n):
    out = 1
    for p, e in oracle_factor(n):
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def oracle_phi(n):
    out = n
    for p, _ in oracle_factor(n):
        out -= out // p
    return out


def oracle_group_exponent(n):
    out = 1
    for a in range(1, n):
        if math.gcd(a, n) != 1:
            continue
        t, x = 1, a % n
        while x != 1:
            x = x * a % n
            t += 1
        out = math.lcm(out, t)
    return out


def row_for(report, x):
    return next(r for r in report["rows"] if r["x"] == x)


# ---------------------------------------------------------------------------
# helpers and report plumbing
# ---------------------------------------------------------------------------


def test_log_floor_conventions():
    assert experiments.floored_log(1) == 1.0
    assert experiments.floored_log(2) == 1.0
    assert experiments.floored_log(100) == pytest.approx(math.log(100))


def test_default_checkpoints():
    assert experiments.default_checkpoints(10**4) == [100, 1000, 10**4]
    assert experiments.default_checkpoints(500) == [100, 500]
    assert experiments.default_checkpoints(100) == [100]
    assert experiments.default_checkpoints(50) == [50]
    with pytest.raises(ValueError):
        experiments.default_checkpoints(0)


def test_census_report_requires_increasing_rows(engine):
    # a repeated checkpoint would repeat a row; `validate_checkpoints` refuses it
    with pytest.raises(ValueError, match="strictly increasing"):
        experiments.small_lambda_census(engine, [10, 10])


def test_census_report_serialization(engine):
    rep = experiments.small_lambda_census(engine, [10, 100])
    assert rep["kind"] == "census-report" and rep["schema"] == 1
    assert rep["bound_formula"] == "x / exp((log x)^(1/3))"
    assert [r["x"] for r in rep["rows"]] == [10, 100]
    csv = reports.to_csv(rep)
    assert csv.splitlines()[0] == "x,count,bound,ratio,verdict"
    assert len(csv.splitlines()) == 3


# ---------------------------------------------------------------------------
# small-lambda census
# ---------------------------------------------------------------------------


def test_small_lambda_census_matches_brute_force(engine):
    rep = experiments.small_lambda_census(engine, [10, 100])
    want10 = sum(1 for n in range(1, 11) if oracle_group_exponent(n) ** 2 < n)
    want100 = sum(1 for n in range(1, 101) if oracle_group_exponent(n) ** 2 < n)
    assert row_for(rep, 10)["count"] == want10 == 3  # members 2, 6, 8
    assert row_for(rep, 100)["count"] == want100 == 17


def test_small_lambda_census_verdicts(engine):
    rep = experiments.small_lambda_census(engine, [10, 100, 10**4])
    assert row_for(rep, 10)["verdict"] is False  # bound 2.7 < count 3 at tiny x
    assert row_for(rep, 100)["verdict"] is True
    assert row_for(rep, 10**4)["count"] == 562
    assert row_for(rep, 10**4)["verdict"] is True
    for r in rep["rows"]:
        assert r["bound"] == pytest.approx(r["x"] / math.exp(max(1, math.log(r["x"])) ** (1 / 3)))


# ---------------------------------------------------------------------------
# divisor censuses
# ---------------------------------------------------------------------------


def test_divisor_census_d1_is_identity(engine):
    rep = experiments.divisor_preimage_census(engine, PHI, 1, [100, 1000])
    assert [r["count"] for r in rep["rows"]] == [100, 1000]
    assert all(r["verdict"] for r in rep["rows"])
    assert rep["params"]["l"] == 0


def test_divisor_census_phi_even(engine):
    rep = experiments.divisor_preimage_census(engine, PHI, 2, [100])
    # phi is odd only at n = 1, 2
    assert rep["rows"][0]["count"] == 98
    assert rep["rows"][0]["verdict"] is True


def test_divisor_census_matches_pointwise_sigma(engine):
    rep = experiments.divisor_preimage_census(engine, SIGMA, 12, [2000, 10**4])
    want = sum(1 for n in range(1, 2001) if oracle_sigma(n) % 12 == 0)
    assert row_for(rep, 2000)["count"] == want
    assert row_for(rep, 10**4)["count"] == 6462
    assert rep["params"]["l"] == oracle_big_omega(12) == 3


def test_divisor_census_bound_shape(engine):
    rep = experiments.divisor_preimage_census(engine, LAMBDA, 6, [10**4])
    x, ell = 10**4, 2
    want = (x / 6) * (8 * ell * max(1, math.log(x)) ** 2) ** ell
    assert rep["rows"][0]["bound"] == pytest.approx(want)


def test_divisor_census_validates(engine):
    with pytest.raises(ValueError):
        experiments.divisor_preimage_census(engine, arith.RADICAL, 2, [100])
    with pytest.raises(ValueError):
        experiments.divisor_preimage_census(engine, PHI, 0, [100])
    with pytest.raises(ValueError):
        experiments.divisor_preimage_census(engine, PHI, 2, [100, 100])


# ---------------------------------------------------------------------------
# omega-tail census
# ---------------------------------------------------------------------------


def test_omega_tail_census_matches_pointwise(engine):
    rep = experiments.omega_tail_census(engine, PHI, 1, [100])
    want = sum(1 for n in range(1, 101) if oracle_big_omega(oracle_phi(n)) > 1)
    assert rep["rows"][0]["count"] == want == 95
    assert rep["rows"][0]["verdict"] is None  # ratio-only experiment


def test_omega_tail_census_ratio(engine):
    rep = experiments.omega_tail_census(engine, LAMBDA, 3, [10**4, 10**5])
    assert row_for(rep, 10**5)["count"] == 878
    for r in rep["rows"]:
        scale = (3 / 2**3) * r["x"] * max(1, math.log(r["x"])) ** 3
        assert r["bound"] == pytest.approx(scale)
        assert r["ratio"] == pytest.approx(r["count"] / scale)
        assert r["verdict"] is None


def test_omega_tail_census_zero_for_huge_threshold(engine):
    rep = experiments.omega_tail_census(engine, PHI, 6, [1000])
    # Omega(phi(n)) <= log2(phi(n)) < 36 for n <= 1000
    assert rep["rows"][0]["count"] == 0


def test_omega_tail_builds_the_omega_table_once(monkeypatch):
    engine = arith.ArithEngine()
    cps = [100, 1000, 5000]
    engine.value_table(SIGMA, cps[-1])  # warm, so only the Omega table sieves below
    limits = []
    prime_powers = arith._prime_powers

    def counted(primes, limit):
        limits.append(limit)
        return prime_powers(primes, limit)

    monkeypatch.setattr(arith, "_prime_powers", counted)
    cached = [experiments.omega_tail_census(engine, SIGMA, k, cps) for k in (1, 2, 3)]
    assert len(limits) == 1
    monkeypatch.undo()
    for k, rep in zip((1, 2, 3), cached):
        fresh = experiments.omega_tail_census(arith.ArithEngine(), SIGMA, k, cps)
        assert reports.canonical_json(rep) == reports.canonical_json(fresh)


# ---------------------------------------------------------------------------
# small-value census
# ---------------------------------------------------------------------------


def test_small_value_census_sigma_is_empty(engine):
    rep = experiments.small_value_census(engine, CompositionSpec((SIGMA,)), [100, 1000, 10**4])
    assert [r["count"] for r in rep["rows"]] == [0, 0, 0]
    assert all(r["verdict"] for r in rep["rows"])


def test_small_value_census_phi(engine):
    rep = experiments.small_value_census(engine, CompositionSpec((PHI,)), [100, 10**4])
    want = sum(1 for n in range(1, 101) if oracle_phi(n) ** 2 < n)
    assert row_for(rep, 100)["count"] == want == 2  # n = 2 and 6
    assert row_for(rep, 10**4)["count"] == 2
    assert rep["params"]["j"] == 1


def test_small_value_census_phi_phi(engine):
    spec = CompositionSpec((PHI, PHI))
    rep = experiments.small_value_census(engine, spec, [10**4])
    want = sum(1 for n in range(1, 10**4 + 1) if oracle_phi(oracle_phi(n)) ** 4 < n)
    assert rep["rows"][0]["count"] == want == 5
    assert rep["params"]["j"] == 2


def test_small_value_census_identity_chain(engine):
    rep = experiments.small_value_census(engine, CompositionSpec(), [1000])
    assert rep["rows"][0]["count"] == 0  # n < n never holds


def test_isqrt_array_and_is_square_near_perfect_squares():
    ms = set(range(0, 300))
    # above 2^53 the float root is inexact, so both integer corrections
    # are needed
    for r in (2, 3, 7, 10, 99, 1000, 3162, 46340, 10**6, 3 * 10**7, 2**30 + 12345, 2**31 - 1):
        for m in (r**2, r**4):
            ms.update({m - 1, m, m + 1})
    ms = sorted(m for m in ms if m < 2**62)
    assert ms[-1] > 2**61
    values = np.array(ms, dtype=np.int64)
    assert experiments._isqrt_array(values).tolist() == [math.isqrt(m) for m in ms]
    squares = experiments._is_square(values).tolist()
    assert squares == [m >= 1 and math.isqrt(m) ** 2 == m for m in ms]


@pytest.mark.parametrize("limit", [1, 2, 17, 65537, 10**6])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_nested_isqrt_matches_iterated_isqrt(depth, limit):
    got = experiments._nested_isqrt(limit, depth)
    assert got.dtype == np.int64 and len(got) == limit
    # every n where the root steps, with its neighbours, plus a stride
    power = 2**depth
    ns = {1, 2, limit}
    for r in range(1, math.isqrt(limit) + 2):
        edge = r**power
        if edge > limit + 1:
            break
        ns.update({edge - 1, edge, edge + 1, edge + 2})
    ns.update(range(1, limit + 1, max(1, limit // 997)))
    for n in sorted(n for n in ns if 1 <= n <= limit):
        root = n - 1
        for _ in range(depth):
            root = math.isqrt(root)
        assert got[n - 1] == root
        for v in range(max(0, root - 1), root + 3):
            assert (v**power < n) == (v <= got[n - 1])
    assert np.all(np.diff(got) >= 0)


@pytest.mark.parametrize(
    "chain,f",
    [
        ((SIGMA,), oracle_sigma),
        ((PHI, PHI, PHI), lambda n: oracle_phi(oracle_phi(oracle_phi(n)))),
        ((PHI, SIGMA), lambda n: oracle_phi(oracle_sigma(n))),
    ],
)
def test_small_value_census_matches_pointwise(engine, chain, f):
    spec = CompositionSpec(chain)
    cps = [10, 100, 1000, 3000]
    rep = experiments.small_value_census(engine, spec, cps)
    power = 2 ** len(chain)
    flags = [f(n) ** power < n for n in range(1, 3001)]
    assert [r["count"] for r in rep["rows"]] == [sum(flags[:x]) for x in cps]


def test_small_value_census_validates(engine):
    with pytest.raises(ValueError):
        experiments.small_value_census(engine, CompositionSpec((PHI,), arith.PRIMES), [100])
    with pytest.raises(ValueError):
        experiments.small_value_census(engine, CompositionSpec((PHI,)), [100], theta=0.0)


# ---------------------------------------------------------------------------
# thin preimages
# ---------------------------------------------------------------------------


def test_thin_set_builtins():
    def member(thin, *vs):
        return thin.member(np.array(vs, dtype=np.int64)).tolist()

    assert member(experiments.POWERS_OF_TWO, 0, 1, 1024, 12) == [False, True, True, False]
    assert member(experiments.PERFECT_SQUARES, 0, 1, 144, 8) == [False, True, True, False]
    assert member(experiments.EMPTY_SET, 5) == [False]
    assert member(experiments.ALL_NATURALS, 5) == [True]
    with pytest.raises(ValueError):
        experiments.ThinSetSpec(1.5, lambda m: True, "bad")


def test_thin_preimage_phi_powers_of_two(engine):
    rep = experiments.thin_preimage_census(
        engine, PHI, experiments.POWERS_OF_TWO, [1000, 10**4]
    )
    r1, r2 = rep["rows"]
    want = sum(
        1 for n in range(1, 1001) if experiments._is_power_of_two(oracle_phi(n))
    )
    assert r1["count"] == want == 54
    assert r1["parts"] == {"e1": 14, "e2": 40, "e3": 0}
    assert r2["count"] == 95
    assert r2["parts"] == {"e1": 20, "e2": 75, "e3": 0}
    assert r1["verdict"] is True and r2["verdict"] is True
    for r in rep["rows"]:
        assert sum(r["parts"].values()) == r["count"]


def test_thin_preimage_empty_and_all(engine):
    rep = experiments.thin_preimage_census(engine, PHI, experiments.EMPTY_SET, [1000])
    assert rep["rows"][0]["count"] == 0 and rep["rows"][0]["verdict"] is True
    rep = experiments.thin_preimage_census(engine, PHI, experiments.ALL_NATURALS, [1000])
    assert rep["rows"][0]["count"] == 1000
    assert rep["rows"][0]["verdict"] is False  # the full set is never thin


@pytest.mark.parametrize("a, oracle", [(PHI, oracle_phi), (SIGMA, oracle_sigma)],
                         ids=["phi", "sigma"])
@pytest.mark.parametrize("thin", [experiments.ALL_NATURALS, experiments.PERFECT_SQUARES],
                         ids=["all", "squares"])
def test_thin_preimage_parts_match_pointwise(engine, a, oracle, thin):
    # the proof's split, with the float cuts compared as the definition reads
    cps = [8, 27, 64, 100, 1000, 3000]
    rep = experiments.thin_preimage_census(engine, a, thin, cps)
    for x, row in zip(cps, rep["rows"]):
        cut = x ** (1.0 / 3.0)
        om_cut = experiments.floored_log(x) ** (thin.theta / 3.0)
        parts = {"e1": 0, "e2": 0, "e3": 0}
        for n in range(1, x + 1):
            v = oracle(n)
            if not thin.member(np.array([v], dtype=np.int64))[0]:
                continue
            if v <= cut:
                parts["e1"] += 1
            elif oracle_big_omega(v) > om_cut:
                parts["e2"] += 1
            else:
                parts["e3"] += 1
        assert row["parts"] == parts
        assert row["count"] == sum(parts.values())


# ---------------------------------------------------------------------------
# growth ratios
# ---------------------------------------------------------------------------


def test_growth_identity(engine):
    rep = experiments.growth_hypothesis_check(engine, CompositionSpec(), 10**4)
    assert rep["max_ratio"] == 1.0
    assert 0.85 < rep["sum_ratio"] <= 1.0
    assert rep["passes"]


def test_growth_sigma_within_double(engine):
    rep = experiments.growth_hypothesis_check(engine, CompositionSpec((SIGMA,)), 10**4)
    assert 1.0 <= rep["max_ratio"] <= 2.0
    assert rep["sum_ratio"] >= 0.25


ALL_CHAINS_3 = [
    tuple(c)
    for j in (1, 2, 3)
    for c in itertools.product((PHI, SIGMA, LAMBDA), repeat=j)
]


def _chain_id(chain):
    return ".".join(fn.describe() for fn in chain)


@pytest.mark.parametrize("chain", ALL_CHAINS_3, ids=_chain_id)
def test_growth_bands_depth_three(engine, chain):
    # sigma^3 tops out at 2.2466 (m = 6: sigma^3(6) = 56 > 6^2), above
    # the stated x2 slack; recorded as a known failure, not papered over
    if chain == (SIGMA, SIGMA, SIGMA):
        pytest.xfail("sigma.sigma.sigma exceeds the x2 upper band at small m")
    rep = experiments.growth_hypothesis_check(engine, CompositionSpec(chain), 10**4)
    assert rep["sum_ratio"] >= 0.5 ** (len(chain) + 1)
    assert rep["max_ratio"] <= 2.0
    assert rep["passes"]


def test_growth_sigma_cubed_exceeds_band(engine):
    rep = experiments.growth_hypothesis_check(
        engine, CompositionSpec((SIGMA, SIGMA, SIGMA)), 10**4
    )
    # exact witness: sigma(sigma(sigma(6))) = 56 and log 56 / log 6 > 2
    assert rep["max_ratio"] == pytest.approx(math.log(56) / math.log(6))
    assert not rep["passes"]


def test_growth_report_dict(engine):
    rep = experiments.growth_hypothesis_check(engine, CompositionSpec((PHI,)), 100)
    assert rep["kind"] == "growth-report"
    assert rep["spec"] == "phi@naturals"
    assert rep["passes"] == (
        rep["sum_ratio"] >= rep["lower_reference"] and rep["max_ratio"] <= rep["upper_reference"]
    )


def test_growth_validates(engine):
    with pytest.raises(ValueError):
        experiments.growth_hypothesis_check(engine, CompositionSpec(), 1)
    with pytest.raises(ValueError):
        experiments.growth_hypothesis_check(engine, CompositionSpec((), arith.PRIMES), 100)


# ---------------------------------------------------------------------------
# block repetition demo
# ---------------------------------------------------------------------------


def test_count_overlapping():
    assert experiments.count_overlapping(b"aaaa", b"aa") == 3
    assert experiments.count_overlapping(b"abcabcab", b"abcab") == 2  # 0 and 3
    assert experiments.count_overlapping(b"xyz", b"xyzw") == 0
    assert experiments.count_overlapping(b"xyz", b"") == 0


def test_count_overlapping_chunked_boundaries():
    hay = b"ab" * 50  # matches start at 0, 2, ..., 96
    assert experiments.count_overlapping(hay, b"abab") == 49


def test_block_demo_two_digit_oracle(engine):
    rep = experiments.non_normality_demo(engine, [2], 3, g=10, num_digits=10**4)
    assert rep["block"] == "1214121"  # 2-parts of 1..7
    assert rep["block_len"] == 7
    assert rep["period_modulus"] == 8
    # brute scan over an independently assembled stream
    def two_part(m):
        return m & -m
    s = ""
    m = 0
    while len(s) < 10**4:
        m += 1
        s += str(two_part(m))
    s = s[: 10**4]
    want, i = 0, s.find("1214121")
    while i != -1:
        want += 1
        i = s.find("1214121", i + 1)
    assert rep["observed"] == want
    assert rep["normal_ceiling"] == pytest.approx(10**4 * 10.0**-7)
    assert rep["observed"] > 100 * rep["normal_ceiling"]


def test_block_demo_k5_pins(engine):
    rep = experiments.non_normality_demo(engine, [2], 5, g=10, num_digits=10**5)
    assert rep["block"] == "12141218121412116121412181214121"
    assert rep["block_len"] == 32
    assert rep["observed"] == 2916
    assert rep["period_count"] == 2916
    assert rep["separation"] > 1e27


def test_block_demo_two_primes(engine):
    rep = experiments.non_normality_demo(engine, [2, 3], 2, g=10, num_digits=3000)
    # f(1..3) for the {2,3}-part: 1, 2, 3
    assert rep["block"] == "123"
    assert rep["period_modulus"] == 36
    assert rep["observed"] >= rep["period_count"] > 0


def test_block_demo_names_its_digit_order(engine):
    # base 9 writes f(9) = 9 as 10 (msf) or 01 (lsf), and f(12) = 12 as 13 or 31
    lsf, msf = (
        experiments.non_normality_demo(engine, [2, 3], 4, g=9, num_digits=3000, order=order)
        for order in (LSF, MSF)
    )
    assert lsf["block"] == "12341618012131123"
    assert msf["block"] == "12341618102113123"
    assert lsf["order"] == "lsf" and msf["order"] == "msf"
    assert "order,lsf" in reports.to_csv(lsf).splitlines()
    assert "order,msf" in reports.to_csv(msf).splitlines()


# ---------------------------------------------------------------------------
# extremal ratios
# ---------------------------------------------------------------------------


def test_extremal_small_scan(engine):
    rep = experiments.extremal_ratio_report(engine, 10)
    # by hand: phi(6) = 2, loglog floored at 1 -> 2/6; sigma(6) = 12 -> 12/6
    assert rep["argmin_phi"] == 6
    assert rep["min_phi_ratio"] == pytest.approx(1 / 3)
    assert rep["argmax_sigma"] == 6
    assert rep["max_sigma_ratio"] == pytest.approx(2.0)


def test_extremal_primorial_argmin(engine):
    rep = experiments.extremal_ratio_report(engine, 10**4)
    assert rep["argmin_phi"] == 30  # primorial 2*3*5
    assert rep["min_phi_ratio"] == pytest.approx(0.326434, abs=1e-6)
    assert rep["argmax_sigma"] == 12
    assert rep["max_sigma_ratio"] == pytest.approx(7 / 3)


def test_extremal_gamma_constants(engine):
    rep = experiments.extremal_ratio_report(engine, 100)
    assert rep["e_neg_gamma"] == 0.5615
    assert rep["e_gamma"] == 1.7811
    with pytest.raises(ValueError):
        experiments.extremal_ratio_report(engine, 5)


# ---------------------------------------------------------------------------
# density checks
# ---------------------------------------------------------------------------


def test_density_naturals_passes_any_exponent():
    rep = experiments.restricted_domain_check(
        experiments.DENSITY_SETS["naturals"], "naturals", 5.0, [100, 10**4]
    )
    assert all(r["passes"] for r in rep["rows"])
    assert [r["count"] for r in rep["rows"]] == [100, 10**4]


def test_density_primes_passes(engine):
    mask = np.zeros(10**5 + 1, dtype=bool)
    mask[engine.primes_upto(10**5)] = True
    rep = experiments.restricted_domain_check(
        lambda v: mask[v], "primes", 1.1, [100, 10**4, 10**5]
    )
    assert row_for(rep, 10**5)["count"] == 9592  # prime count at 10^5
    assert all(r["passes"] for r in rep["rows"])


@pytest.mark.parametrize(
    "name,oracle",
    [
        ("naturals", lambda n: True),
        ("primes", arith.is_prime),
        ("odd", lambda n: n % 2 == 1),
        ("squares", lambda n: n >= 1 and math.isqrt(n) ** 2 == n),
        ("powers-of-two", lambda n: n >= 1 and n & (n - 1) == 0),
    ],
)
def test_density_sets_match_pointwise(name, oracle):
    values = np.concatenate([np.arange(1, 3000), [4099, 4096, 4097, 3]]).astype(np.int64)
    got = experiments.DENSITY_SETS[name](values)
    assert got.tolist() == [oracle(int(n)) for n in values]


def test_density_squares_fails_at_exponent_two():
    rep = experiments.restricted_domain_check(
        experiments.DENSITY_SETS["squares"], "squares", 2.0, [100, 10**6]
    )
    assert row_for(rep, 10**6)["count"] == 1000
    assert row_for(rep, 10**6)["passes"] is False
    assert rep["kind"] == "density-report" and rep["B"] == 2.0
    assert reports.to_csv(rep).splitlines()[0] == "x,count,floor,passes"


# ---------------------------------------------------------------------------
# census battery script
# ---------------------------------------------------------------------------


def test_census_battery_files_match_across_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    # the child imports the same package as this process, installed or from src/
    src = str(Path(experiments.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for run in (1, 2):
        out = tmp_path / f"run-{run}"
        subprocess.run(
            [sys.executable, str(root / "scripts" / "run_census_battery.py"),
             "--limit", "3000", "--out", str(out)],
            check=True, capture_output=True, env=dict(os.environ, PYTHONPATH=path),
        )
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(runs[0]) == 36
    assert runs[0] == runs[1]
    # one digest over the files in name order, each as name, NUL, bytes
    digest = hashlib.sha256()
    for name in sorted(runs[0]):
        digest.update(name.encode("ascii") + b"\0" + runs[0][name])
    assert digest.hexdigest() == "93074736b1f0db0b38ddc5d82a724d60b916c774be6eb3e91b1d2be85009eb6b"
