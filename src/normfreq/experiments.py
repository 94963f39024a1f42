"""Desk-scale censuses with closed-form reference bounds.

Each census counts an exceptional set exactly and prints the matching
closed-form bound next to it; bounds are always evaluated from their
formula, never fitted to the data.  A table census builds one bool
mask over 1..limit and reads every checkpoint count from it with
`ngrams.checkpoint_counts`.  Every function here returns its report as
the payload dict that `reports` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arith import (
    EULER_GAMMA,
    LAMBDA,
    NATURALS,
    PHI,
    SIGMA,
    ArithEngine,
    BaseFn,
    BaseTag,
    CompositionSpec,
    big_omega,
    gstar,
)
from .ngrams import checkpoint_counts, validate_checkpoints
from .words import MSF, DigitOrder, digits_of, truncate, word_text

DETERMINISM_NOTE = "deterministic: exact integer censuses, no randomness"


def floored_log(x: float) -> float:
    """log x := max(1, ln x)."""
    return max(1.0, math.log(x))


def default_checkpoints(limit: int) -> list[int]:
    """Powers of 10 from 100 up to the limit, limit always included."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    cps = [10**e for e in range(2, 19) if 10**e < limit]
    if not cps or cps[-1] != limit:
        cps.append(limit)
    return cps


# ---------------------------------------------------------------------------
# census plumbing
# ---------------------------------------------------------------------------


def _row(x: int, count: int, bound: float, verdict: bool = True, parts=None) -> dict:
    """One checkpoint row.  With `verdict` the row says whether the count
    stays within the bound; without it (a reference scale of unknown
    constant) the verdict is None."""
    row = {
        "x": x,
        "count": count,
        "bound": bound,
        "ratio": count / bound,
        "verdict": count <= bound if verdict else None,
    }
    if parts is not None:
        row["parts"] = parts
    return row


def _census(experiment: str, label: str, bound_formula: str, params: dict, rows: list) -> dict:
    """Exact counts vs a closed-form bound at increasing checkpoints."""
    return {
        "kind": "census-report",
        "schema": 1,
        "experiment": experiment,
        "label": label,
        "bound_formula": bound_formula,
        "params": params,
        "note": DETERMINISM_NOTE,
        "rows": rows,
    }


def _require_table_fn(a: BaseFn) -> None:
    if a.tag not in (BaseTag.PHI, BaseTag.SIGMA, BaseTag.LAMBDA):
        raise ValueError(f"census supports phi/sigma/lambda, got {a.describe()}")


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def small_lambda_census(engine: ArithEngine, checkpoints: Sequence[int]) -> dict:
    """Count n <= x whose unit-group exponent is below sqrt(n).

    The comparison is exact (lambda(n)^2 < n, i.e. lambda(n) <=
    isqrt(n - 1)); the reference bound is x / exp((log x)^(1/3)).
    """
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    lam = engine.value_table(LAMBDA, limit)
    counts = checkpoint_counts(lam[1:] <= _nested_isqrt(limit, 1), cps)
    rows = [_row(x, c, x / math.exp(floored_log(x) ** (1.0 / 3.0))) for x, c in zip(cps, counts)]
    return _census("fps", "n <= x with lambda(n) < sqrt(n)", "x / exp((log x)^(1/3))", {}, rows)


def divisor_preimage_census(
    engine: ArithEngine,
    a: BaseFn,
    d: int,
    checkpoints: Sequence[int],
) -> dict:
    """Count n <= x with d | a(n) against (x/d) * (8 l (log x)^2)^l."""
    _require_table_fn(a)
    if d < 1:
        raise ValueError("divisor d must be >= 1")
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    tab = engine.value_table(a, limit)
    ell = big_omega(engine.factorize(d))
    counts = checkpoint_counts(tab[1:] % d == 0, cps)
    rows = [
        _row(x, c, (x / d) * (8.0 * ell * floored_log(x) ** 2) ** ell) for x, c in zip(cps, counts)
    ]
    return _census(
        "divisor",
        f"n <= x with {d} | {a.describe()}(n)",
        "(x/d) * (8*l*(log x)^2)^l with l = Omega(d)",
        {"a": a.describe(), "d": d, "l": ell},
        rows,
    )


def omega_tail_census(
    engine: ArithEngine,
    a: BaseFn,
    big_k: int,
    checkpoints: Sequence[int],
) -> dict:
    """Count n <= x with Omega(a(n)) > K^2.

    The reference scale (K/2^K) x (log x)^3 carries an unspecified
    implied constant, so rows report the observed/scale ratio and no
    verdict.
    """
    _require_table_fn(a)
    if big_k < 1:
        raise ValueError("K must be >= 1")
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    tab = engine.value_table(a, limit)
    omega = engine.big_omega_table(int(tab.max()))
    threshold = big_k * big_k
    counts = checkpoint_counts(omega[tab[1:]] > threshold, cps)
    scale = big_k / 2.0**big_k
    rows = [
        _row(x, c, scale * x * floored_log(x) ** 3, verdict=False) for x, c in zip(cps, counts)
    ]
    return _census(
        "omega-tail",
        f"n <= x with Omega({a.describe()}(n)) > {threshold}",
        "(K/2^K) * x * (log x)^3 (reference scale; implied constant unknown)",
        {"a": a.describe(), "K": big_k},
        rows,
    )


def _isqrt_array(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) of each m in 0 <= m < 2^62, exactly.

    The float root is off by at most one (above 2^53 because m itself
    rounds): in practice one too high, as at m = r^2 - 1 for large r.
    One step each way, checked in integers, corrects it; (r + 1)^2
    stays below 2^63."""
    r = np.sqrt(m.astype(np.float64)).astype(np.int64)
    r -= r * r > m
    r += (r + 1) * (r + 1) <= m
    return r


def _nested_isqrt(limit: int, depth: int) -> np.ndarray:
    """isqrt^depth(n - 1) for n = 1..limit, exactly, as one int64 array.

    For integers v >= 0 and m >= 0, v^2 <= m exactly when v <= isqrt(m),
    so v^(2^j) < n is v <= isqrt^j(n - 1), and isqrt^j(m) is the largest
    r with r^(2^j) <= m.  Each root r fills the m with
    r^(2^j) <= m < (r + 1)^(2^j), those edges capped at the limit."""
    if depth == 0:
        return np.arange(limit, dtype=np.int64)
    power = 2**depth
    top = limit - 1
    for _ in range(depth):
        top = math.isqrt(top)
    edges = np.array([min(r**power, limit) for r in range(top + 2)], dtype=np.int64)
    return np.repeat(np.arange(top + 1, dtype=np.int64), np.diff(edges))


def small_value_census(
    engine: ArithEngine,
    spec: CompositionSpec,
    checkpoints: Sequence[int],
    theta: float = 1.0 / 3.0,
) -> dict:
    """Count n <= x with f(n) < n^(1/2^j), j the chain depth.

    The comparison runs in exact integers (`_nested_isqrt`); thinness
    is certified against x / exp((log x)^theta) for the caller's theta.
    """
    if spec.domain is not NATURALS:
        raise ValueError("small-value census runs over the naturals")
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    vals = engine.chain_values(spec.chain, np.arange(1, limit + 1, dtype=np.int64))
    power = 2**spec.depth
    counts = checkpoint_counts(vals <= _nested_isqrt(limit, spec.depth), cps)
    rows = [_row(x, c, x / math.exp(floored_log(x) ** theta)) for x, c in zip(cps, counts)]
    return _census(
        "small-value",
        f"n <= x with {spec.describe()}(n) < n^(1/{power})",
        "x / exp((log x)^theta)",
        {"spec": spec.describe(), "j": spec.depth, "theta": theta},
        rows,
    )


# ---------------------------------------------------------------------------
# thin sets and preimages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThinSetSpec:
    """A candidate thin set: membership test plus the theta to certify.

    `member` maps an int64 array of values to the bool mask of those in
    the set."""

    theta: float
    member: Callable[[np.ndarray], np.ndarray]
    label: str

    def __post_init__(self):
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")


def _is_power_of_two(v: np.ndarray) -> np.ndarray:
    return (v >= 1) & (v & (v - 1) == 0)


def _is_square(v: np.ndarray) -> np.ndarray:
    """Exact for 0 <= v < 2^62, the range of `_isqrt_array`."""
    r = _isqrt_array(v)
    return (v >= 1) & (r * r == v)


POWERS_OF_TWO = ThinSetSpec(0.5, _is_power_of_two, "powers-of-two")
PERFECT_SQUARES = ThinSetSpec(0.5, _is_square, "squares")
EMPTY_SET = ThinSetSpec(0.5, lambda v: np.zeros(np.shape(v), dtype=bool), "empty")
ALL_NATURALS = ThinSetSpec(0.5, lambda v: np.ones(np.shape(v), dtype=bool), "all")

THIN_SETS = {
    spec.label: spec for spec in (POWERS_OF_TWO, PERFECT_SQUARES, EMPTY_SET, ALL_NATURALS)
}


def _is_prime(v: np.ndarray) -> np.ndarray:
    """One sieve up to the largest value; values must be >= 0."""
    top = int(v.max(initial=0))
    sieve = np.zeros(top + 1, dtype=bool)
    sieve[ArithEngine().primes_upto(top)] = True
    return sieve[v]


# the named sets of `restricted_domain_check`, array predicates as above
DENSITY_SETS = {
    "naturals": ALL_NATURALS.member,
    "primes": _is_prime,
    "odd": lambda v: v % 2 == 1,
    "squares": _is_square,
    "powers-of-two": _is_power_of_two,
}


def thin_preimage_census(
    engine: ArithEngine,
    a: BaseFn,
    thin_set: ThinSetSpec,
    checkpoints: Sequence[int],
) -> dict:
    """Census of {n <= x : a(n) in E} with the proof's partition.

    Per checkpoint the counted n split by a(n): e1 has a(n) <= x^(1/3),
    e2 has Omega(a(n)) > (log x)^(theta/3), e3 is the rest.
    """
    _require_table_fn(a)
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    tab = engine.value_table(a, limit)
    mask = np.asarray(thin_set.member(tab[1:]), dtype=bool)
    counts = checkpoint_counts(mask, cps)
    member_ns = np.flatnonzero(mask) + 1
    member_vals = tab[member_ns]
    omega = engine.big_omega_table(int(member_vals.max(initial=1)))[member_vals]

    rows = []
    for x, total in zip(cps, counts):
        # v <= x^(1/3) and Omega > (log x)^(theta/3) compare integers with
        # floats, so both sides reduce exactly to their integer floors
        cut = math.floor(x ** (1.0 / 3.0))
        om_cut = math.floor(floored_log(x) ** (thin_set.theta / 3.0))
        upto = int(np.searchsorted(member_ns, x, side="right"))
        small = member_vals[:upto] <= cut
        e1 = int(small.sum())
        e2 = int((~small & (omega[:upto] > om_cut)).sum())
        e3 = upto - e1 - e2
        assert upto == total
        bound = x / math.exp(floored_log(x) ** thin_set.theta)
        rows.append(_row(x, total, bound, parts={"e1": e1, "e2": e2, "e3": e3}))
    return _census(
        "thin-preimage",
        f"n <= x with {a.describe()}(n) in {thin_set.label}",
        "x / exp((log x)^theta)",
        {"a": a.describe(), "set": thin_set.label, "theta": thin_set.theta},
        rows,
    )


# ---------------------------------------------------------------------------
# growth ratios
# ---------------------------------------------------------------------------


def growth_hypothesis_check(engine: ArithEngine, spec: CompositionSpec, x: int) -> dict:
    """Polynomial-growth ratios of a composition over m <= x: the mean
    ratio sum log f(m) / (x log x) and the pointwise max log f(m) / log m,
    each against its reference."""
    if x < 2:
        raise ValueError("x must be >= 2")
    if spec.domain is not NATURALS:
        raise ValueError("growth check runs over the naturals")
    vals = engine.chain_values(spec.chain, np.arange(1, x + 1, dtype=np.int64))
    logf = np.maximum(1.0, np.log(vals.astype(np.float64)))
    logm = np.maximum(1.0, np.log(np.arange(1, x + 1, dtype=np.float64)))
    sum_ratio = float(logf.sum() / (x * floored_log(x)))
    max_ratio = float((logf / logm).max())
    lower, upper = 0.5 ** (spec.depth + 1), 2.0
    return {
        "kind": "growth-report",
        "schema": 1,
        "spec": spec.describe(),
        "x": x,
        "sum_ratio": sum_ratio,
        "max_ratio": max_ratio,
        "lower_reference": lower,
        "upper_reference": upper,
        "passes": sum_ratio >= lower and max_ratio <= upper,
        "note": DETERMINISM_NOTE,
    }


# ---------------------------------------------------------------------------
# block repetition demonstration
# ---------------------------------------------------------------------------


def count_overlapping(haystack: bytes, needle: bytes) -> int:
    """Overlapping occurrence count; an empty needle counts 0."""
    if not needle:
        return 0
    count = 0
    i = haystack.find(needle)
    while i != -1:
        count += 1
        i = haystack.find(needle, i + 1)
    return count


def non_normality_demo(
    engine: ArithEngine,
    primes: Sequence[int],
    k: int,
    g: int = 10,
    num_digits: int = 10**5,
    order: DigitOrder = MSF,
) -> dict:
    """Count the block f(1)...f(2^k - 1) inside the first N stream digits.

    The value sequence of a prime-supported multiplicative part repeats
    its first 2^k - 1 entries with period M^k, so the concatenated block
    recurs far more often than the g^-len ceiling a normal stream
    allows; `separation` is observed / ceiling.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 2 <= g <= 256:
        # the block search runs on one byte per digit
        raise ValueError("the non-normal demo supports 2 <= g <= 256")
    fn = gstar(primes)
    modulus = math.prod(sorted(fn.primes)) ** k
    block_digits = []
    for i in range(1, 2**k):
        block_digits.extend(digits_of(engine.eval_base_value(fn, i), g, order))
    spec = CompositionSpec((fn,))
    res = truncate(engine, spec, num_digits, g, order)
    observed = count_overlapping(res.digits.tobytes(), bytes(block_digits))
    n = res.final_index
    period_count = max(0, (n - (2**k - 1)) // modulus + 1) if n >= 2**k - 1 else 0
    ceiling = num_digits * float(g) ** (-len(block_digits))
    return {
        "kind": "block-repetition-report",
        "schema": 1,
        "primes": sorted(fn.primes),
        "k": k,
        "g": g,
        "order": order.value,
        "N": num_digits,
        "block": word_text(block_digits, g),
        "block_len": len(block_digits),
        "n": n,
        "period_modulus": modulus,
        "period_count": period_count,
        "observed": observed,
        "normal_ceiling": ceiling,
        "separation": observed / ceiling,
        "note": DETERMINISM_NOTE,
    }


# ---------------------------------------------------------------------------
# extremal ratios
# ---------------------------------------------------------------------------


def extremal_ratio_report(engine: ArithEngine, x: int) -> dict:
    """Scan 2 <= m <= x for the extremes of phi(m) loglog(m)/m and
    sigma(m)/(m loglog m).

    The displayed e^(-gamma) and e^gamma limits are qualitative
    references; finite scans need not approach them.
    """
    if x < 10:
        raise ValueError("x must be >= 10")
    phi = engine.value_table(PHI, x)
    sigma = engine.value_table(SIGMA, x)
    m = np.arange(2, x + 1, dtype=np.float64)
    ll = np.maximum(1.0, np.log(np.log(m)))
    phi_ratio = phi[2 : x + 1] / (m / ll)
    sigma_ratio = sigma[2 : x + 1] / (m * ll)
    i = int(np.argmin(phi_ratio))
    j = int(np.argmax(sigma_ratio))
    return {
        "kind": "extremal-ratio-report",
        "schema": 1,
        "x": x,
        "min_phi_ratio": float(phi_ratio[i]),
        "argmin_phi": i + 2,
        "max_sigma_ratio": float(sigma_ratio[j]),
        "argmax_sigma": j + 2,
        "e_neg_gamma": round(math.exp(-EULER_GAMMA), 4),
        "e_gamma": round(math.exp(EULER_GAMMA), 4),
        "note": DETERMINISM_NOTE,
    }


# ---------------------------------------------------------------------------
# restricted-domain density check
# ---------------------------------------------------------------------------


def restricted_domain_check(
    member: Callable[[np.ndarray], np.ndarray],
    label: str,
    exponent: float,
    checkpoints: Sequence[int],
) -> dict:
    """Check that S meets [1, x] in more than x/(log x)^B points at each
    checkpoint x.  `member` maps an int64 array of n to the bool mask of
    those in S."""
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    mask = np.asarray(member(np.arange(1, limit + 1, dtype=np.int64)), dtype=bool)
    rows = []
    for x, count in zip(cps, checkpoint_counts(mask, cps)):
        floor = x / floored_log(x) ** exponent
        rows.append({"x": x, "count": count, "floor": floor, "passes": count > floor})
    return {
        "kind": "density-report",
        "schema": 1,
        "label": label,
        "B": exponent,
        "note": DETERMINISM_NOTE,
        "rows": rows,
    }
