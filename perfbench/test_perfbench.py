"""The benchmark's own checks: oracles agree with normfreq on small inputs,
reject a report with one count moved by one, and tracing leaves the
package as it found it.

    python3 -m pytest perfbench
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import normfreq.arith  # noqa: E402
import normfreq.cli  # noqa: E402
import normfreq.experiments  # noqa: E402
import normfreq.ngrams  # noqa: E402
import normfreq.reports  # noqa: E402
import normfreq.words  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import TARGETS, Tracer, _resolve  # noqa: E402

MODULES = {name: mod for name, mod in sys.modules.items() if name.startswith("normfreq")}

PREFIXES = [
    {"kind": "prefix", "f": "phi", "domain": "naturals", "k": 1, "digits": 5000},
    {"kind": "prefix", "f": "phi", "domain": "naturals", "k": 3, "digits": 4001},
    {"kind": "prefix", "f": "id", "domain": "primes", "k": 6, "digits": 3000},
    {"kind": "prefix", "f": "id", "domain": "primes", "k": 2, "digits": 2999},
]

CENSUS = dict(run.WORKLOADS["census"], limit=20_000, classify_limit=3_000)


def _reference(spec, tmp_path):
    op, _, keep, _ = worker.OPERATIONS[spec["kind"]](spec, tmp_path, MODULES)
    op()
    keep()
    return tmp_path


def test_tables_match_brute_force():
    limit = 300
    phi = oracles.totients(limit)
    sigma = oracles.divisor_sums(limit)
    lam = oracles.carmichael(limit)
    for n in range(1, limit + 1):
        units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
        assert phi[n] == len(units)
        assert sigma[n] == sum(d for d in range(1, n + 1) if n % d == 0)
        exponent = next(t for t in range(1, n + 1) if all(pow(a, t, n) == 1 % n for a in units))
        assert lam[n] == exponent


@pytest.mark.parametrize("spec", PREFIXES, ids=lambda s: f"{s['f']}-k{s['k']}-N{s['digits']}")
def test_prefix_oracle_agrees_and_catches_a_moved_count(spec, tmp_path):
    _reference(spec, tmp_path)
    assert run.check_reference(spec, tmp_path) == []

    report = json.loads((tmp_path / "reference.json").read_text())
    stream = f"{spec['f']}@{spec['domain']}"
    words = sorted(report["counts"])
    for field in ("counts", "complete_counts", "boundary_counts", "tail_counts"):
        present = sorted(report[field])
        if not present:
            continue
        bad = copy.deepcopy(report)
        bad[field][present[0]] -= 1
        other = next(w for w in words if w != present[0])
        bad[field][other] = bad[field].get(other, 0) + 1
        assert oracles.check_prefix(bad, stream, spec["digits"], spec["k"]), field
    for field in ("n", "consumed_of_final"):
        bad = dict(report, **{field: report[field] + 1})
        assert oracles.check_prefix(bad, stream, spec["digits"], spec["k"]), field


def test_census_oracle_agrees_and_catches_a_moved_count(tmp_path):
    _reference(CENSUS, tmp_path)
    assert run.check_reference(CENSUS, tmp_path) == []

    payloads = {p.stem: json.loads(p.read_text()) for p in (tmp_path / "census").glob("*.json")}
    oracle = oracles.CensusOracle(CENSUS["limit"])
    for name, payload in payloads.items():
        bad = copy.deepcopy(payloads)
        if name == "classify":
            bad[name]["bad_counts"][-1] += 1
        elif name == "extremal":
            bad[name]["argmin_phi"] += 1
        elif name.startswith("growth-"):
            bad[name]["sum_ratio"] *= 1 + 1e-6
        else:
            row = bad[name]["rows"][-1]
            row["count"] += 1
        assert oracles.check_census(bad, CENSUS, oracle), name
    thin = copy.deepcopy(payloads)
    parts = thin["thin-preimage-sigma-pow2"]["rows"][-1]["parts"]
    parts["e1"], parts["e3"] = parts["e1"] - 1, parts["e3"] + 1
    assert oracles.check_census(thin, CENSUS, oracle)


def test_closed_forms_hold_at_small_x():
    oracle = oracles.CensusOracle(10_000)
    xs = [100, 1000, 10_000]
    even = lambda fn: oracle.counts_at(oracle.tables[fn] % 2 == 0, xs)  # noqa: E731
    assert even("phi") == even("lambda") == [x - 2 for x in xs]
    assert even("sigma") == [x - math.isqrt(x) - math.isqrt(x // 2) for x in xs]
    pow2 = lambda v: (v >= 1) & (v & (v - 1) == 0)  # noqa: E731
    for fn, preimage in (
        ("phi", oracles.phi_power_of_two_preimage),
        ("lambda", oracles.phi_power_of_two_preimage),
        ("sigma", oracles.sigma_power_of_two_preimage),
    ):
        assert oracle.counts_at(pow2(oracle.tables[fn]), xs) == [
            sum(1 for m in preimage(10_000) if m <= x) for x in xs
        ]


def test_classifier_recount_matches_library():
    cps = [10, 100, 1000, 4000]
    assert oracles.classifier_bad_counts(0.05, cps) == normfreq.ngrams.classify_checkpoints(
        0.05, 1, 2, cps
    )


def test_tracing_counts_and_restores(tmp_path):
    spec = PREFIXES[0]
    op, _, _, _ = worker.prefix_operation(spec, tmp_path, MODULES)
    originals = {
        (path, attr): _resolve(path, MODULES).__dict__.get(attr)
        for places in TARGETS.values()
        for path, attr in places
    }
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        op()
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    report = json.loads((tmp_path / "op.json").read_text())
    # one factorization and one digit expansion per value reached
    assert snap["calls"]["arith.factorize"] == report["n"]
    assert snap["calls"]["words.digits"] == report["n"]
    assert snap["counters"]["ngrams.windows"] == spec["digits"]
    assert snap["calls"]["cli"] == 1
    assert all(t >= 0 for t in snap["self_ns"].values())
    assert tracer.missing == []
    for (path, attr), fn in originals.items():
        assert _resolve(path, MODULES).__dict__.get(attr) is fn
