"""Desk-scale censuses with closed-form reference bounds.

Each census counts an exceptional set exactly and prints the matching
closed-form bound next to it; bounds are always evaluated from their
formula, never fitted to the data.  A census walks 1..limit in fixed
blocks of `words._BLOCK` integers, in order (`ngrams.blocked_map`),
takes each block's values from `_chain_blocks`, the one place that reads
a value table, and adds each block's counts to the checkpoints inside it
as the blocks pass (`ngrams.checkpoint_counts` for a mask census); no
temporary spans more than one block.
Every function here returns its report as the payload dict that
`reports` writes.
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
    _check_budget,
    big_omega,
    gstar,
    prime_mask,
    prime_sieve,
)
from .ngrams import blocked_map, checkpoint_counts, validate_checkpoints
from .words import MSF, DigitOrder, digits_of, prefix_blocks, word_text

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


def _largest(values, limit: int, member=lambda v: True) -> int:
    """The largest value that `member` keeps in the blocks values(lo, hi)
    of 1..limit, folded block by block; 1 when it keeps none."""

    def top(lo, hi):
        v = values(lo, hi)
        return int(v.max(initial=1, where=member(v)))

    return max(blocked_map(top, limit, 1))


def _chain_blocks(engine: ArithEngine, chain: tuple[BaseFn, ...], limit: int):
    """The chain's values over the naturals, as a function of one block:
    (lo, hi) -> f(n) for n = lo + 1..hi; every census reads its values here.

    The identity's block is its `arange`, refused past the budget as
    "domain values"; any other block is a read-only view of the innermost
    table, built once over 0..limit.  Each outer table is sized once, for
    its largest input.
    """
    if not chain:
        _check_budget("domain values", limit, 8, engine.memory_budget)
        return lambda lo, hi: np.arange(lo + 1, hi + 1, dtype=np.int64)
    engine.value_table(chain[-1], limit)

    def values(steps, lo, hi):
        inner = engine.value_table(chain[-1], hi)[lo + 1 :]
        return engine.chain_values(steps, inner) if steps else inner

    for i in range(1, len(chain)):
        # the largest value of the i innermost steps sizes the next table
        steps = chain[-i:-1]
        engine.value_table(chain[-i - 1], _largest(lambda lo, hi: values(steps, lo, hi), limit))
    return lambda lo, hi: values(chain[:-1], lo, hi)


# ---------------------------------------------------------------------------
# censuses
# ---------------------------------------------------------------------------


def small_lambda_census(engine: ArithEngine, checkpoints: Sequence[int]) -> dict:
    """Count n <= x whose unit-group exponent is below sqrt(n): the rows
    of the small-value census of lambda at theta = 1/3 (lambda(n)^2 < n,
    exactly), under the labels of its own.
    """
    rows = small_value_census(engine, CompositionSpec((LAMBDA,)), checkpoints, 1.0 / 3.0)["rows"]
    return _census("fps", "n <= x with lambda(n) < sqrt(n)", "x / exp((log x)^(1/3))", {}, rows)


def divisor_preimage_census(
    engine: ArithEngine,
    a: BaseFn,
    d: int,
    checkpoints: Sequence[int],
) -> dict:
    """Count n <= x with d | a(n) against (x/d) * (8 l (log x)^2)^l.

    The test is (v // d) * d == v: numpy divides by a scalar fast in
    `floor_divide`, not in `%`."""
    _require_table_fn(a)
    if d < 1:
        raise ValueError("divisor d must be >= 1")
    cps = validate_checkpoints(checkpoints)
    ell = big_omega(engine.factorize(d))
    values = _chain_blocks(engine, (a,), cps[-1])

    def divisible(lo, hi):
        v = values(lo, hi)
        return v // d * d == v

    counts = checkpoint_counts(divisible, cps)
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
    values = _chain_blocks(engine, (a,), limit)
    omega = engine.big_omega_table(_largest(values, limit))
    threshold = big_k * big_k
    counts = checkpoint_counts(lambda lo, hi: omega[values(lo, hi)] > threshold, cps)
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


def _nested_isqrt(limit: int, depth: int, lo: int = 0) -> np.ndarray:
    """isqrt^depth(n - 1) for n = lo + 1..limit, exactly, as one int64
    array; the default is the whole range 1..limit.

    For integers v >= 0 and m >= 0, v^2 <= m exactly when v <= isqrt(m),
    so v^(2^j) < n is v <= isqrt^j(n - 1), and isqrt^j(m) is the largest
    r with r^(2^j) <= m.  Each root r fills the m with
    r^(2^j) <= m < (r + 1)^(2^j), those edges clipped to lo..limit."""
    if depth == 0 or lo >= limit:
        return np.arange(lo, max(lo, limit), dtype=np.int64)
    power = 2**depth
    first, top = lo, limit - 1
    for _ in range(depth):
        first, top = math.isqrt(first), math.isqrt(top)
    edges = np.array(
        [min(max(r**power, lo), limit) for r in range(first, top + 2)], dtype=np.int64
    )
    return np.repeat(np.arange(first, top + 1, dtype=np.int64), np.diff(edges))


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
    values = _chain_blocks(engine, spec.chain, limit)
    power = 2**spec.depth
    counts = checkpoint_counts(
        lambda lo, hi: values(lo, hi) <= _nested_isqrt(hi, spec.depth, lo), cps
    )
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
    """One `prime_mask` of the span v.min()..v.max(); values must be >= 0."""
    if not len(v):
        return np.zeros(0, dtype=bool)
    lo, hi = int(v.min()), int(v.max())
    return prime_mask(lo, hi + 1, prime_sieve(math.isqrt(hi)))[v - lo]


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
    e2 has Omega(a(n)) > (log x)^(theta/3), e3 is the rest.  The members,
    e1 and e2 of every checkpoint are added block by block, after the
    Omega table is sized once for the largest member value (`_largest`).
    """
    _require_table_fn(a)
    cps = validate_checkpoints(checkpoints)
    limit = cps[-1]
    values = _chain_blocks(engine, (a,), limit)
    # v <= x^(1/3) and Omega > (log x)^(theta/3) compare integers with
    # floats, so both sides reduce exactly to their integer floors
    cuts = [
        (math.floor(x ** (1.0 / 3.0)), math.floor(floored_log(x) ** (thin_set.theta / 3.0)))
        for x in cps
    ]

    omega = engine.big_omega_table(_largest(values, limit, thin_set.member))

    def parts(lo, hi):
        """The block's members, e1 and e2 at or below each checkpoint."""
        block = values(lo, hi)
        at = np.flatnonzero(thin_set.member(block))  # each member n as n - lo - 1
        block = block[at]
        big = omega[block]
        out = np.zeros((len(cps), 3), dtype=np.int64)
        for i, (x, (cut, om_cut)) in enumerate(zip(cps, cuts)):
            upto = int(np.searchsorted(at, x - lo - 1, side="right"))  # the members n <= x
            small = block[:upto] <= cut
            out[i] = upto, np.count_nonzero(small), np.count_nonzero(~small & (big[:upto] > om_cut))
        return out

    totals = sum(blocked_map(parts, limit, 1))
    rows = []
    for x, (total, e1, e2) in zip(cps, totals.tolist()):
        bound = x / math.exp(floored_log(x) ** thin_set.theta)
        rows.append(_row(x, total, bound, parts={"e1": e1, "e2": e2, "e3": total - e1 - e2}))
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
    each against its reference.

    log f(m) is filled block by block into one whole array, whose sum
    stays one numpy pairwise sum: a sum of block sums would round
    differently.  The max is folded per block."""
    if x < 2:
        raise ValueError("x must be >= 2")
    if spec.domain is not NATURALS:
        raise ValueError("growth check runs over the naturals")
    values = _chain_blocks(engine, spec.chain, x)
    logf = np.empty(x, dtype=np.float64)

    def fill(lo, hi):
        seg = logf[lo:hi]
        np.maximum(1.0, np.log(values(lo, hi).astype(np.float64)), out=seg)
        logm = np.maximum(1.0, np.log(np.arange(lo + 1, hi + 1, dtype=np.float64)))
        return float((seg / logm).max())

    max_ratio = max(blocked_map(fill, x, 1))
    sum_ratio = float(logf.sum() / (x * floored_log(x)))
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


def count_block(digits: np.ndarray, block: Sequence[int]) -> int:
    """How many windows of a digit array equal `block`, overlapping ones
    included; an empty block counts 0.  The windows match where every
    digit does: one `==` pass per block digit, folded with `&=`."""
    width = len(digits) - len(block) + 1
    if not block or width < 1:
        return 0
    match = digits[:width] == block[0]
    for j, d in enumerate(block[1:], 1):
        match &= digits[j : j + width] == d
    return int(np.count_nonzero(match))


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
        # the range the demo's reports have always had: one byte per digit
        raise ValueError("the non-normal demo supports 2 <= g <= 256")
    fn = gstar(primes)
    modulus = math.prod(sorted(fn.primes)) ** k
    block_digits = []
    for i in range(1, 2**k):
        block_digits.extend(digits_of(engine.eval_base_value(fn, i), g, order))
    ceiling = num_digits * float(g) ** (-len(block_digits))
    if ceiling == 0.0 or num_digits / ceiling == math.inf:
        raise ValueError(
            f"the {len(block_digits)}-digit block's normal ceiling {num_digits} * {g}^-"
            f"{len(block_digits)} is out of float range; use a smaller k"
        )
    # each prefix block is counted with the last len(block) - 1 digits
    # before it carried in front, so every window is counted once
    observed, carry = 0, np.empty(0, dtype=np.uint8)
    for part in prefix_blocks(engine, CompositionSpec((fn,)), num_digits, g, order):
        digits = np.concatenate([carry, part.digits])
        observed += count_block(digits, block_digits)
        carry = digits[max(0, len(digits) - len(block_digits) + 1) :]
    n = part.first + len(part.values) - 1
    period_count = max(0, (n - (2**k - 1)) // modulus + 1) if n >= 2**k - 1 else 0
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
    references; finite scans need not approach them.  The scan runs
    block by block; a later block's extreme replaces the one so far only
    when strictly better, so the first m still wins ties.
    """
    if x < 10:
        raise ValueError("x must be >= 10")
    phi = _chain_blocks(engine, (PHI,), x)
    sigma = _chain_blocks(engine, (SIGMA,), x)

    def extremes(lo, hi):
        # the block holds m = lo + 2..hi + 1
        m = np.arange(lo + 2, hi + 2, dtype=np.float64)
        ll = np.maximum(1.0, np.log(np.log(m)))
        phi_ratio = phi(lo + 1, hi + 1) / (m / ll)
        sigma_ratio = sigma(lo + 1, hi + 1) / (m * ll)
        i = int(np.argmin(phi_ratio))
        j = int(np.argmax(sigma_ratio))
        return float(phi_ratio[i]), lo + 2 + i, float(sigma_ratio[j]), lo + 2 + j

    blocks = blocked_map(extremes, x - 1, 1)
    min_phi, argmin_phi, max_sigma, argmax_sigma = next(blocks)
    for low, i, high, j in blocks:
        if low < min_phi:
            min_phi, argmin_phi = low, i
        if high > max_sigma:
            max_sigma, argmax_sigma = high, j
    return {
        "kind": "extremal-ratio-report",
        "schema": 1,
        "x": x,
        "min_phi_ratio": min_phi,
        "argmin_phi": argmin_phi,
        "max_sigma_ratio": max_sigma,
        "argmax_sigma": argmax_sigma,
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
    those in S; it is called on one block of n at a time."""
    cps = validate_checkpoints(checkpoints)
    values = _chain_blocks(ArithEngine(), (), cps[-1])
    counts = checkpoint_counts(lambda lo, hi: member(values(lo, hi)), cps)
    rows = []
    for x, count in zip(cps, counts):
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
