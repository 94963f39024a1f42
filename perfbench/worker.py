"""One benchmark run's measured process: set up, warm up, then a closed loop.

Started by run.py with one JSON argument (see `main`).  It imports
normfreq from the checkout's ``src/``, builds the workload's operation,
runs one untimed warm-up operation whose output becomes the run's
reference, and then runs timed operations one at a time until the next
one would end past the run length.  Each timed output is compared
byte for byte with the reference (by SHA-256).  The reference output
is left in the scratch directory for run.py to check against the
independent oracles.  The last stdout line is one JSON object.

With ``"probe": true`` it stops once set-up is done and reports only
the set-up time.  With ``"trace": true`` timed operations alternate
between untraced and traced, so one run gives both the per-layer
breakdown and the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def prefix_operation(spec: dict, scratch: Path, modules: dict):
    """`normfreq count` of one stream prefix, report written to a file."""
    cli = modules["normfreq.cli"]
    target = scratch / "op.json"
    argv = [
        "count",
        "--f", spec["f"],
        "--domain", spec["domain"],
        "--base", "10",
        "--k", str(spec["k"]),
        "--order", "msf",
        "--digits", str(spec["digits"]),
        "--threads", "1",
        "--report", str(target),
    ]

    def run() -> None:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"normfreq count exited with {code}")

    def digest() -> str:
        return _sha256_file(target)

    def keep() -> None:
        target.replace(scratch / "reference.json")

    return run, digest, keep, spec["digits"]


def census_operation(spec: dict, scratch: Path, modules: dict):
    """The census battery on a fresh engine, every report serialized."""
    arith = modules["normfreq.arith"]
    experiments = modules["normfreq.experiments"]
    ngrams = modules["normfreq.ngrams"]
    reports = modules["normfreq.reports"]
    limit = spec["limit"]
    classify_limit = spec["classify_limit"]
    fns = {"phi": arith.PHI, "sigma": arith.SIGMA, "lambda": arith.LAMBDA}
    chains = {"phi": (arith.PHI,), "phi.phi": (arith.PHI, arith.PHI), "sigma": (arith.SIGMA,)}
    pow2 = experiments.THIN_SETS["powers-of-two"]
    texts: list[tuple[str, str]] = []

    def run() -> None:
        texts.clear()
        engine = arith.ArithEngine(spf_limit=limit)
        cps = experiments.default_checkpoints(limit)

        def emit(name, report):
            texts.append((name, reports.canonical_json(report)))

        emit("fps", experiments.small_lambda_census(engine, cps))
        for fn_name, fn in fns.items():
            for d in spec["divisors"]:
                emit(
                    f"divisor-{fn_name}-d{d}",
                    experiments.divisor_preimage_census(engine, fn, d, cps),
                )
            emit(
                f"thin-preimage-{fn_name}-pow2",
                experiments.thin_preimage_census(engine, fn, pow2, cps),
            )
        for label, chain in chains.items():
            composed = arith.CompositionSpec(chain)
            emit(f"small-value-{label}", experiments.small_value_census(engine, composed, cps))
            emit(f"growth-{label}", experiments.growth_hypothesis_check(engine, composed, limit))
        emit("extremal", experiments.extremal_ratio_report(engine, limit))
        classify_cps = experiments.default_checkpoints(classify_limit)
        bad = ngrams.classify_checkpoints(spec["eps"], 1, 2, classify_cps)
        emit(
            "classify",
            {
                "kind": "classifier-census",
                "eps": spec["eps"],
                "k": 1,
                "g": 2,
                "order": "msf",
                "checkpoints": classify_cps,
                "bad_counts": bad,
            },
        )

    def digest() -> str:
        h = hashlib.sha256()
        for name, text in texts:
            h.update(name.encode("ascii") + b"\0" + text.encode("ascii") + b"\0")
        return h.hexdigest()

    def keep() -> None:
        out = scratch / "census"
        out.mkdir()
        for name, text in texts:
            (out / f"{name}.json").write_text(text, encoding="ascii")

    # integers covered, summed over the censuses: 26 over 1..limit, one
    # classifier census over 1..classify_limit
    items = (1 + 5 * len(fns) + len(fns) + 2 * len(chains) + 1) * limit + classify_limit
    return run, digest, keep, items


OPERATIONS = {"prefix": prefix_operation, "census": census_operation}


def main() -> int:
    config = json.loads(sys.argv[1])
    spawned = config["spawned"]
    root = Path(config["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy

    import normfreq
    import normfreq.arith
    import normfreq.cli
    import normfreq.experiments
    import normfreq.ngrams
    import normfreq.reports
    import normfreq.words

    if not Path(normfreq.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"normfreq imported from {normfreq.__file__}, not the checkout")
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("normfreq")}
    scratch = Path(config["scratch"])
    spec = config["workload"]
    run, digest, keep, items = OPERATIONS[spec["kind"]](spec, scratch, modules)
    setup_s = time.monotonic() - spawned
    if config.get("probe"):
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run()  # warm-up: untimed, and its output is the reference
    reference = digest()
    keep()

    tracer = None
    if config["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer

        tracer = Tracer()

    seconds = config["seconds"]
    ops = []  # (wall s, traced, output equals reference)
    traces = []
    loop_start = time.monotonic()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.clear()
            tracer.install(modules)
        t0 = time.perf_counter()
        try:
            run()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if traced:
            spans = list(tracer.records)
            traces.append(tracer.snapshot() | {"wall_ns": int(wall * 1e9), "spans": spans})
        ops.append((wall, traced, digest() == reference))
        # stop before an operation that would end past the run length;
        # a traced run needs at least one untraced and one traced op
        elapsed = time.monotonic() - loop_start
        typical = statistics.median(w for w, _, _ in ops)
        if elapsed + typical > seconds and (tracer is None or len(ops) >= 2):
            break

    result = {
        "setup_s": setup_s,
        "walls": [w for w, t, _ in ops],
        "traced": [t for _, t, _ in ops],
        "equal": [e for _, _, e in ops],
        "items": items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["traces"] = traces
        result["missing"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
