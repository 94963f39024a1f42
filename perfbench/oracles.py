"""Independent checks of the benchmark's reports, in plain numpy and Python.

Nothing here imports normfreq.  Each check takes parsed report payloads
and returns a list of error strings; an empty list means the report
passed.

- Stream prefixes: the values (totients from a numpy sieve, or primes
  from a numpy sieve) are written with `str`, joined and cut at N, and
  every length-k window is coded as an int64 and tallied.  The
  complete / boundary / tail split comes from the value each window's
  first and last digit belong to.
- Census battery: closed forms that hold for every x, plus recounts
  from totient, divisor-sum and Carmichael tables built here by
  prime-power sieves, plus a popcount recount of the base-2 classifier
  with exact rational bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# number-theoretic tables
# ---------------------------------------------------------------------------


def primes_upto(limit: int) -> np.ndarray:
    """Sieve of Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def _prime_powers(limit: int):
    """(p, e, p^e) for every prime power p^e <= limit."""
    for p in primes_upto(limit).tolist():
        pe, e = p, 1
        while pe <= limit:
            yield p, e, pe
            pe *= p
            e += 1


def totients(limit: int) -> np.ndarray:
    """phi(n) for 0 <= n <= limit, by phi(n) = n * prod (1 - 1/p)."""
    out = np.arange(limit + 1, dtype=np.int64)
    for p in primes_upto(limit).tolist():
        seg = out[p::p]
        seg -= seg // p
    return out


def divisor_sums(limit: int) -> np.ndarray:
    """sigma(n) for 0 <= n <= limit, one prime-power factor at a time.

    On the multiples of p^e the factor sigma(p^(e-1)) already applied
    is swapped for sigma(p^e); the division is exact.
    """
    out = np.ones(limit + 1, dtype=np.int64)
    out[0] = 0
    for p, e, pe in _prime_powers(limit):
        seg = out[pe::pe]
        if e > 1:
            seg //= (pe - 1) // (p - 1)
        seg *= (pe * p - 1) // (p - 1)
    return out


def carmichael(limit: int) -> np.ndarray:
    """lambda(n) for 0 <= n <= limit: lcm of lambda(p^e) over p^e dividing n.

    lambda(p^(e-1)) divides lambda(p^e), so taking the lcm over every
    prime power that divides n gives the lcm over the exact ones.
    """
    out = np.ones(limit + 1, dtype=np.int64)
    out[0] = 0
    for p, e, pe in _prime_powers(limit):
        if p == 2:
            lam_pe = 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
        else:
            lam_pe = pe // p * (p - 1)
        seg = out[pe::pe]
        np.lcm(seg, lam_pe, out=seg)
    return out


# ---------------------------------------------------------------------------
# stream prefixes
# ---------------------------------------------------------------------------


def stream_census(values, num_digits: int, k: int) -> dict:
    """Exact k-gram census of the first `num_digits` digits of str(v1) str(v2) ...

    Returns the four word -> count dicts with labels "%0kd", and where the
    cut fell.  Needs enough values to reach `num_digits`.
    """
    texts = [str(v) for v in values]
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    ends = np.cumsum(lengths)
    if ends[-1] < num_digits:
        raise ValueError("not enough values for the prefix")
    final = int(np.searchsorted(ends, num_digits))  # 0-based index of the cut value
    consumed = num_digits - (int(ends[final - 1]) if final else 0)
    text = "".join(texts[: final + 1])[:num_digits]
    digits = np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.int64) - 48
    value_id = np.repeat(np.arange(final + 1), lengths[: final + 1])[:num_digits]
    windows = num_digits - k + 1
    codes = np.zeros(windows, dtype=np.int64)
    for j in range(k):
        codes = codes * 10 + digits[j : j + windows]
    first = value_id[:windows]
    last = value_id[k - 1 :]
    flush = consumed == int(lengths[final])
    tail = (first == last) & (first == final) & (not flush)
    boundary = first != last
    complete = ~boundary & ~tail

    def tally(mask):
        uniq, cnt = np.unique(codes[mask], return_counts=True)
        return {"%0*d" % (k, c): n for c, n in zip(uniq.tolist(), cnt.tolist())}

    return {
        "windows": windows,
        "final_index": final + 1,
        "consumed_of_final": consumed,
        "flush": flush,
        "counts": tally(np.ones(windows, dtype=bool)),
        "complete_counts": tally(complete),
        "boundary_counts": tally(boundary),
        "tail_counts": tally(tail),
    }


def _values_for_prefix(make, num_digits: int):
    """Grow the value range until its decimal text covers the prefix."""
    limit = max(64, num_digits // 4)
    while True:
        values = make(limit)
        if sum(len(str(v)) for v in values) >= num_digits:
            return values
        limit *= 2


def check_prefix(report: dict, stream: str, num_digits: int, k: int) -> list[str]:
    """Check a kgram-frequency-report of phi@naturals or id@primes, base 10, msf."""
    if stream == "phi@naturals":
        values = _values_for_prefix(lambda m: totients(m)[1:].tolist(), num_digits)
    elif stream == "id@primes":
        values = _values_for_prefix(lambda m: primes_upto(m).tolist(), num_digits)
    else:
        raise ValueError(f"no oracle for stream {stream!r}")
    want = stream_census(values, num_digits, k)
    errors = []

    def expect(field, got, wanted):
        if got != wanted:
            errors.append(f"{field}: report has {got!r}, oracle {wanted!r}")

    expect("spec", report.get("spec"), stream)
    expect("g", report.get("g"), 10)
    expect("k", report.get("k"), k)
    expect("order", report.get("order"), "msf")
    expect("N", report.get("N"), num_digits)
    expect("windows", report.get("windows"), num_digits - k + 1)
    expect("n", report.get("n"), want["final_index"])
    expect("consumed_of_final", report.get("consumed_of_final"), want["consumed_of_final"])
    expect("flush", report.get("flush"), want["flush"])
    for field in ("counts", "complete_counts", "boundary_counts", "tail_counts"):
        got = report.get(field) or {}
        if got != want[field]:
            diff = sorted(set(got.items()) ^ set(want[field].items()))[:4]
            errors.append(f"{field}: differs from the oracle, e.g. {diff}")
    counts = report.get("counts") or {}
    parts = [report.get(f) or {} for f in ("complete_counts", "boundary_counts", "tail_counts")]
    words = set(counts).union(*parts)
    split = [w for w in words if counts.get(w, 0) != sum(p.get(w, 0) for p in parts)]
    if split:
        errors.append(f"complete + boundary + tail != count for {sorted(split)[:4]}")
    expect("boundary", report.get("boundary"), sum(want["boundary_counts"].values()))
    expect("tail", report.get("tail"), sum(want["tail_counts"].values()))
    windows = want["windows"]
    freqs = {w: c / windows for w, c in want["counts"].items()}
    if report.get("freqs") != freqs:
        errors.append("freqs: differ from count / windows")
    size = 10**k
    dev = max(abs(c / windows - 1 / size) for c in want["counts"].values())
    if len(want["counts"]) < size:
        dev = max(dev, 1 / size)
    if not math.isclose(report.get("max_dev", -1.0), dev, rel_tol=1e-9, abs_tol=0.0):
        errors.append(f"max_dev: report has {report.get('max_dev')!r}, oracle {dev!r}")
    return errors


# ---------------------------------------------------------------------------
# census battery
# ---------------------------------------------------------------------------

FERMAT_PRIMES = (3, 5, 17, 257, 65537)
MERSENNE_PRIMES = (3, 7, 31, 127, 8191, 131071, 524287, 2147483647)


def _subset_products(primes, limit: int) -> list[int]:
    out = [1]
    for p in primes:
        out += [m * p for m in out if m * p <= limit]
    return sorted(out)


def phi_power_of_two_preimage(limit: int) -> list[int]:
    """n <= limit with phi(n) (equally lambda(n)) a power of 2: 2^a times distinct Fermat primes."""
    out = []
    for m in _subset_products(FERMAT_PRIMES, limit):
        while m <= limit:
            out.append(m)
            m *= 2
    return sorted(out)


def sigma_power_of_two_preimage(limit: int) -> list[int]:
    """n <= limit with sigma(n) a power of 2: products of distinct Mersenne primes."""
    return _subset_products(MERSENNE_PRIMES, limit)


def _floored_log(x: float) -> float:
    return max(1.0, math.log(x))


def classifier_bad_counts(eps: float, checkpoints, order: str = "msf") -> list[int]:
    """How many m <= x fail the strict (eps, 1) test in base 2, by popcount.

    A word of L bits passes when both digit counts (ones and zeros,
    possibly 0) lie strictly between (1/2 - eps) L and (1/2 + eps) L,
    with eps taken as the exact rational value of the float.  The digit
    order does not change the counts.
    """
    limit = checkpoints[-1]
    m = np.arange(1, limit + 1, dtype=np.int64)
    ones = np.bitwise_count(m).astype(np.int64)
    length = np.searchsorted(1 << np.arange(63, dtype=np.int64), m, side="right")
    zeros = length - ones
    e = Fraction(eps)
    passes = np.empty(limit, dtype=bool)
    for L in np.unique(length).tolist():
        lo, hi = (Fraction(1, 2) - e) * L, (Fraction(1, 2) + e) * L
        # strict rational bounds as an inclusive integer range
        c_min, c_max = math.floor(lo) + 1, math.ceil(hi) - 1
        sel = length == L
        ok = (ones[sel] >= c_min) & (ones[sel] <= c_max)
        ok &= (zeros[sel] >= c_min) & (zeros[sel] <= c_max)
        passes[sel] = ok
    bad = np.cumsum(~passes)
    return [int(bad[x - 1]) for x in checkpoints]


def census_names(spec: dict) -> list[str]:
    """Report names one census operation produces."""
    names = ["fps"]
    for fn in ("phi", "sigma", "lambda"):
        names += [f"divisor-{fn}-d{d}" for d in spec["divisors"]]
        names.append(f"thin-preimage-{fn}-pow2")
    for label in ("phi", "phi.phi", "sigma"):
        names += [f"small-value-{label}", f"growth-{label}"]
    return names + ["extremal", "classify"]


class CensusOracle:
    """Recounts for the census battery up to `limit`."""

    def __init__(self, limit: int):
        self.limit = limit
        self.tables = {
            "phi": totients(limit),
            "sigma": divisor_sums(limit),
            "lambda": carmichael(limit),
        }
        self.n = np.arange(limit + 1, dtype=np.int64)

    def chain(self, label: str) -> np.ndarray:
        vals = self.n
        for fn in reversed(label.split(".")):
            vals = self.tables[fn][vals]
        return vals

    def counts_at(self, flags: np.ndarray, xs) -> list[int]:
        running = np.cumsum(flags[1:])
        return [int(running[x - 1]) for x in xs]

    def check(self, name: str, payload: dict, spec: dict) -> list[str]:
        errors = []
        if name == "classify":
            cps = payload["checkpoints"]
            want = classifier_bad_counts(payload["eps"], cps)
            if payload["bad_counts"] != want:
                errors.append(f"classify: bad counts {payload['bad_counts']} != {want}")
            if cps[-1] != spec["classify_limit"] or (payload["k"], payload["g"]) != (1, 2):
                errors.append("classify: wrong inputs")
            return errors
        if name == "extremal":
            return self._check_extremal(payload)
        if name.startswith("growth-"):
            return self._check_growth(name[len("growth-") :], payload)

        rows = payload["rows"]
        xs = [r["x"] for r in rows]
        got = [r["count"] for r in rows]
        if xs[-1] != self.limit:
            errors.append(f"{name}: last checkpoint {xs[-1]} != {self.limit}")
        if any(b < a for a, b in zip(got, got[1:])):
            errors.append(f"{name}: counts decrease across checkpoints {got}")
        params = payload["params"]
        if name == "fps":
            lam = self.tables["lambda"]
            want = self.counts_at(lam * lam < self.n, xs)
        elif name.startswith("divisor-"):
            fn, d = params["a"], params["d"]
            if name != f"divisor-{fn}-d{d}":
                errors.append(f"{name}: params {params}")
            want = self.counts_at(self.tables[fn] % d == 0, xs)
            if d == 2 and fn in ("phi", "lambda"):
                closed = [x - 2 for x in xs]
            elif d == 2:
                closed = [x - math.isqrt(x) - math.isqrt(x // 2) for x in xs]
            else:
                closed = want
            if closed != want:
                errors.append(f"{name}: table recount {want} != closed form {closed}")
        elif name.startswith("thin-preimage-"):
            fn = params["a"]
            vals = self.tables[fn]
            members = (vals >= 1) & (vals & (vals - 1) == 0)
            want = self.counts_at(members, xs)
            preimage = (
                sigma_power_of_two_preimage if fn == "sigma" else phi_power_of_two_preimage
            )(self.limit)
            closed = [int(np.searchsorted(preimage, x, side="right")) for x in xs]
            if closed != want:
                errors.append(f"{name}: table recount {want} != closed form {closed}")
            member_values = vals[1:][members[1:]]
            member_n = np.flatnonzero(members[1:]) + 1
            for r in rows:
                x, theta = r["x"], params["theta"]
                v = member_values[member_n <= x]
                omega = np.log2(v).round().astype(np.int64)  # v is a power of 2
                e1 = v <= x ** (1.0 / 3.0)
                e2 = ~e1 & (omega > _floored_log(x) ** (theta / 3.0))
                e3 = ~e1 & ~e2
                want_parts = {"e1": int(e1.sum()), "e2": int(e2.sum()), "e3": int(e3.sum())}
                parts = r.get("parts") or {}
                if parts != want_parts:
                    errors.append(f"{name}: parts at x={x} {parts} != {want_parts}")
                if sum(parts.values()) != r["count"]:
                    errors.append(f"{name}: e1 + e2 + e3 != count at x={x}")
        elif name.startswith("small-value-"):
            label = params["spec"].partition("@")[0]
            power = 2 ** params["j"]
            vals = self.chain(label)
            # v^power < n <= limit needs v <= root, and root^power fits int64
            root = 1
            while (root + 1) ** power <= self.limit:
                root += 1
            small = np.minimum(vals, root + 1)
            want = self.counts_at(small**power < self.n, xs)
            closed = {"phi": [2 if x >= 6 else None for x in xs], "sigma": [0] * len(xs)}
            for c, w in zip(closed.get(label, []), want):
                if c is not None and c != w:
                    errors.append(f"{name}: closed form {c} != recount {w}")
        else:
            return [f"{name}: no oracle"]
        if got != want:
            errors.append(f"{name}: counts {got} != oracle {want}")
        for r in rows:
            if r["verdict"] is not None and r["verdict"] != (r["count"] <= r["bound"]):
                errors.append(f"{name}: verdict at x={r['x']} contradicts count and bound")
            if not math.isclose(r["ratio"], r["count"] / r["bound"], rel_tol=1e-12):
                errors.append(f"{name}: ratio at x={r['x']} != count / bound")
        return errors

    def _check_growth(self, label: str, payload: dict) -> list[str]:
        x = self.limit
        vals = self.chain(label)[1:]
        logf = np.maximum(1.0, np.log(vals.astype(np.float64)))
        logm = np.maximum(1.0, np.log(self.n[1:].astype(np.float64)))
        sum_ratio = math.fsum(logf.tolist()) / (x * _floored_log(x))
        max_ratio = float((logf / logm).max())
        errors = []
        if payload["x"] != x or payload["spec"] != f"{label}@naturals":
            errors.append(f"growth-{label}: wrong inputs")
        for field, want in (("sum_ratio", sum_ratio), ("max_ratio", max_ratio)):
            if not math.isclose(payload[field], want, rel_tol=1e-9):
                errors.append(f"growth-{label}: {field} {payload[field]!r} != {want!r}")
        return errors

    def _check_extremal(self, payload: dict) -> list[str]:
        m = self.n[2:].astype(np.float64)
        ll = np.maximum(1.0, np.log(np.log(m)))
        phi_ratio = self.tables["phi"][2:] / (m / ll)
        sigma_ratio = self.tables["sigma"][2:] / (m * ll)
        i, j = int(np.argmin(phi_ratio)), int(np.argmax(sigma_ratio))
        want = {
            "x": self.limit,
            "argmin_phi": i + 2,
            "argmax_sigma": j + 2,
        }
        errors = [
            f"extremal: {k} {payload[k]!r} != {v!r}" for k, v in want.items() if payload[k] != v
        ]
        for field, value in (("min_phi_ratio", phi_ratio[i]), ("max_sigma_ratio", sigma_ratio[j])):
            if not math.isclose(payload[field], float(value), rel_tol=1e-12):
                errors.append(f"extremal: {field} {payload[field]!r} != {float(value)!r}")
        return errors


def check_census(payloads: dict, spec: dict, oracle: CensusOracle | None = None) -> list[str]:
    """Check every report of one census operation; `payloads` maps name -> payload."""
    expected = census_names(spec)
    if sorted(payloads) != sorted(expected):
        return [f"census reports {sorted(payloads)} != {sorted(expected)}"]
    oracle = oracle or CensusOracle(spec["limit"])
    errors = []
    for name in expected:
        errors += oracle.check(name, payloads[name], spec)
    return errors
