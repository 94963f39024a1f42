#!/usr/bin/env python3
"""Track how evenly digits distribute as a stream prefix grows.

For each decade N = 10^2 .. 10^max the script censuses the first N
digits of the chosen stream and records max_w |V(w)/windows - g^-k|,
then classifies n <= x per decade under --eps and fits the meager
exponent delta for the failing set.  Output is one canonical JSON
document (deterministic; safe to diff across runs).

    python3 scripts/convergence_trend.py --f phi --max 6 --eps 0.05
"""

import argparse
import sys

from normfreq import ngrams, reports
from normfreq.arith import ArithEngine
from normfreq.cli import parse_chain, parse_threads

MIN_DECADE = 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--f", default="phi", help="function chain, outermost first")
    parser.add_argument("--base", type=int, default=10)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--max", type=int, default=6, help="largest decade 10^max")
    parser.add_argument("--eps", type=float, default=0.05,
                        help="classifier tolerance for the meager-set fit")
    parser.add_argument("--classify-base", type=int, default=2)
    parser.add_argument("--threads", type=parse_threads, default=1)
    parser.add_argument("--out", help="write JSON here instead of stdout")
    args = parser.parse_args()
    if args.max < MIN_DECADE:
        parser.error(f"--max must be >= {MIN_DECADE}")

    engine = ArithEngine()
    spec = parse_chain(args.f)
    decades = [10**e for e in range(MIN_DECADE, args.max + 1)]

    deviations = []
    for n_digits in decades:
        report = ngrams.count_stream(engine, spec, n_digits, g=args.base, k=args.k)
        deviations.append({"N": n_digits, "max_dev": report["max_dev"],
                           "final_index": report["n"]})
        print(f"N=10^{len(str(n_digits)) - 1}  max_dev={report['max_dev']:.6f}",
              file=sys.stderr)

    bad_counts = ngrams.classify_checkpoints(args.eps, args.k, args.classify_base,
                                             decades, threads=args.threads)
    fit = ngrams.fit_meager_exponent(decades, bad_counts)

    payload = {
        "kind": "convergence-trend",
        "schema": 1,
        "spec": spec.describe(),
        "g": args.base,
        "k": args.k,
        "order": "msf",
        "deviations": deviations,
        "classifier": {
            "eps": args.eps,
            "g": args.classify_base,
            "bad_counts": [
                {"x": x, "count": c, "fraction": c / x}
                for x, c in zip(decades, bad_counts)
            ],
            "delta": fit.delta,
        },
    }
    if args.out:
        reports.write_report(payload, args.out)
    else:
        for chunk in reports.json_chunks(payload):
            sys.stdout.write(str(chunk, "ascii"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
