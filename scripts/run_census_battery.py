#!/usr/bin/env python3
"""Run the full census battery and write one canonical JSON file each.

Every census is an exact integer count against a closed-form reference,
so rerunning with the same limit reproduces the files byte for byte.

    python3 scripts/run_census_battery.py --limit 100000 --out results/
"""

import argparse
from pathlib import Path

from normfreq import reports
from normfreq.arith import LAMBDA, PHI, SIGMA, ArithEngine, CompositionSpec
from normfreq.experiments import (
    THIN_SETS,
    default_checkpoints,
    divisor_preimage_census,
    extremal_ratio_report,
    growth_hypothesis_check,
    non_normality_demo,
    omega_tail_census,
    small_lambda_census,
    small_value_census,
    thin_preimage_census,
)

BASE_FNS = {"phi": PHI, "sigma": SIGMA, "lambda": LAMBDA}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=10**5, help="largest checkpoint x")
    parser.add_argument("--out", type=Path, default=Path("census-results"))
    args = parser.parse_args()

    engine = ArithEngine()
    checkpoints = default_checkpoints(args.limit)
    args.out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, report) -> None:
        path = args.out / f"{name}.json"
        reports.write_report(report, path)
        written.append(path)
        print(f"wrote {path}")

    emit("fps", small_lambda_census(engine, checkpoints))

    for fn_name, fn in BASE_FNS.items():
        for d in (2, 3, 4, 6, 12):
            emit(f"divisor-{fn_name}-d{d}",
                 divisor_preimage_census(engine, fn, d, checkpoints))
        for big_k in (1, 2, 3):
            emit(f"omega-tail-{fn_name}-K{big_k}",
                 omega_tail_census(engine, fn, big_k, checkpoints))
        emit(f"thin-preimage-{fn_name}-pow2",
             thin_preimage_census(engine, fn, THIN_SETS["powers-of-two"], checkpoints))

    for label, chain in (("phi", (PHI,)), ("phi.phi", (PHI, PHI)), ("sigma", (SIGMA,))):
        emit(f"small-value-{label}",
             small_value_census(engine, CompositionSpec(chain), checkpoints))
        emit(f"growth-{label}",
             growth_hypothesis_check(engine, CompositionSpec(chain), args.limit))

    emit("extremal", extremal_ratio_report(engine, args.limit))
    emit("non-normal-k5",
         non_normality_demo(engine, (2,), 5, num_digits=min(args.limit * 10, 10**6)))

    print(f"{len(written)} reports in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
