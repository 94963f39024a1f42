"""Command-line surface tying streams, censuses and experiments together.

Subcommands:

    stream      print the leading digits of a concatenated value stream
    count       exact k-gram census of a stream prefix (JSON report)
    classify    count n <= limit failing the strict block-frequency test
    experiment  the census/report battery (fps, divisor, omega-tail, ...)
    report      project a stored JSON report to CSV (or re-emit JSON)

`build_parser` declares each subcommand once, with its options (their
defaults, required flags and choices) and a runner; `main` parses the
options, calls the runner and writes the report it returns, chunk by
chunk as it is built, to stdout or to ``--report FILE`` (which is
replaced only once the report is complete).  Flags match by their full
name only.

Options may also come from a ``--config FILE`` of plain ``key=value``
lines whose keys are long flag names.  `main` reads each line as the
flag ``--key=value``, placed ahead of the command line's own flags, so
argparse checks both alike and an explicit flag wins on conflict.  Keys
that the active subcommand does not take are ignored, so one file can
drive a whole pipeline.

Exit codes: 0 success, 1 broken pipe, 2 usage error, 3 capacity/overflow.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import experiments, ngrams, reports
from .arith import NATURALS, ArithEngine, BaseFn, BaseTag, CompositionSpec, Domain, gstar
from .errors import CapacityError, NormfreqError, UnknownFunctionError
from .words import LSF, MSF, block_text, prefix_blocks

_DOMAIN_TOKENS = {domain.value: domain for domain in Domain}

# "msf" prints values the way they are written; the alternative order
# lists the least significant digit first ("lsf", alias "paper").
_ORDER_TOKENS = {"msf": MSF, "lsf": LSF, "paper": LSF}


def parse_chain(text: Optional[str], domain: Domain = NATURALS) -> CompositionSpec:
    """Parse a dotted chain like "phi.sigma" (outermost first) into a spec.

    Tokens: the `BaseTag` names (phi, sigma, lambda, s, rad, two-squares),
    gstar only as gstar:<p1,p2,...>, and id.  "id" (or an empty string)
    contributes nothing, so the empty chain is the identity.
    """
    chain = []
    raw = (text or "").strip()
    if raw:
        for tok in raw.split("."):
            tok = tok.strip()
            if not tok:
                raise UnknownFunctionError(f"empty function token in chain {raw!r}")
            if tok == "id":
                continue
            if tok != BaseTag.GSTAR.value and tok in {tag.value for tag in BaseTag}:
                chain.append(BaseFn(BaseTag(tok)))
                continue
            if tok.startswith("gstar:"):
                try:
                    primes = tuple(int(p) for p in tok[len("gstar:") :].split(","))
                    chain.append(gstar(primes))
                except ValueError as exc:
                    raise UnknownFunctionError(f"bad gstar token {tok!r}: {exc}") from exc
                continue
            raise UnknownFunctionError(f"unknown function token {tok!r}")
    return CompositionSpec(tuple(chain), domain)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and '#' comments are skipped."""
    out: dict[str, str] = {}
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"config line {number}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _config_flags(argv: list[str]) -> list[str]:
    """The lines of the ``--config`` file named in argv, as ``--key=value`` flags."""
    config = argparse.ArgumentParser(prog="normfreq", add_help=False, allow_abbrev=False)
    config.add_argument("--config", metavar="FILE")
    path = config.parse_known_args(argv)[0].config
    if path is None:
        return []
    pairs = parse_config_text(Path(path).read_text(encoding="utf-8"))
    return [f"--{key}={value}" for key, value in pairs.items()]


def parse_threads(text: str) -> int:
    """A --threads value, checked before any work starts (argparse prints
    an ArgumentTypeError's own message)."""
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return threads


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


# ---------------------------------------------------------------------------
# subcommands: each returns its report, or None when it writes its own output
# ---------------------------------------------------------------------------


def _stream(got) -> None:
    g = got["base"]
    spec = parse_chain(got["f"], _DOMAIN_TOKENS[got["domain"]])
    order = _ORDER_TOKENS[got["order"]]
    # written one block late: a refusal at the second block writes nothing
    held = ""
    for block in prefix_blocks(ArithEngine(), spec, got["digits"], g, order):
        sys.stdout.write(held)
        held = block_text(block, g)
    sys.stdout.write(held + "\n")


def _count(got):
    return ngrams.count_stream(
        ArithEngine(),
        parse_chain(got["f"], _DOMAIN_TOKENS[got["domain"]]),
        got["digits"],
        g=got["base"],
        k=got["k"],
        order=_ORDER_TOKENS[got["order"]],
        eps=got["eps"],
    )


def _classify(got) -> dict:
    eps, k, g, limit = got["eps"], got["k"], got["base"], got["limit"]
    bad = ngrams.classify_checkpoints(eps, k, g, [limit], threads=got["threads"])[0]
    return {
        "kind": "classification-report",
        "schema": 1,
        "eps": eps,
        "k": k,
        "g": g,
        "order": _ORDER_TOKENS[got["order"]].value,
        "limit": limit,
        "bad_count": bad,
        "bad_fraction": bad / limit,
        "note": experiments.DETERMINISM_NOTE,
    }


def _single_fn(chain_text: str):
    spec = parse_chain(chain_text)
    if spec.depth != 1:
        raise ValueError(f"need exactly one function, got chain {chain_text!r}")
    return spec.chain[0]


def _fps(got, cps):
    return experiments.small_lambda_census(ArithEngine(), cps)


def _divisor(got, cps):
    return experiments.divisor_preimage_census(ArithEngine(), _single_fn(got["f"]), got["d"], cps)


def _omega_tail(got, cps):
    return experiments.omega_tail_census(ArithEngine(), _single_fn(got["f"]), got["big_k"], cps)


def _small_value(got, cps):
    return experiments.small_value_census(
        ArithEngine(), parse_chain(got["f"]), cps, theta=got["theta"]
    )


def _thin_preimage(got, cps):
    thin = experiments.THIN_SETS[got["set"]]
    return experiments.thin_preimage_census(ArithEngine(), _single_fn(got["f"]), thin, cps)


def _growth(got):
    return experiments.growth_hypothesis_check(ArithEngine(), parse_chain(got["f"]), got["limit"])


def _non_normal(got):
    return experiments.non_normality_demo(
        ArithEngine(),
        got["primes"],
        got["k"],
        g=got["base"],
        num_digits=got["digits"],
        order=_ORDER_TOKENS[got["order"]],
    )


def _extremal(got):
    return experiments.extremal_ratio_report(ArithEngine(), got["limit"])


def _domain_density(got, cps):
    member = experiments.DENSITY_SETS[got["set"]]
    return experiments.restricted_domain_check(member, got["set"], got["exponent"], cps)


def _report(got) -> None:
    payload = reports.read_report(got["in"])
    if got["out"]:
        reports.write_report(payload, got["out"], got["format"])
    elif got["format"] == "csv":
        sys.stdout.write(reports.to_csv(payload))
    else:
        _print_json(payload)


def _print_json(report) -> None:
    for chunk in reports.json_chunks(report):
        sys.stdout.write(str(chunk, "ascii"))


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


class _DefaultsHelp(argparse.HelpFormatter):
    """Ends an option's help with its default, where it has one."""

    def _get_help_string(self, action):
        if action.default is None or action.default is argparse.SUPPRESS:
            return action.help
        return f"{action.help} (default: %(default)s)"


def _add_stream_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--f", default="id", help="function chain, outermost first (e.g. phi.sigma)")
    sub.add_argument("--domain", default="naturals", choices=sorted(_DOMAIN_TOKENS),
                     help="index set the chain runs over")
    sub.add_argument("--base", type=int, default=10, help="digit base g >= 2")
    sub.add_argument("--order", default="msf", choices=_ORDER_TOKENS,
                     help="digit order inside each value: most significant first, "
                          "or least significant first (lsf; 'paper' is an alias)")
    sub.add_argument("--digits", type=int, required=True, help="number of stream digits N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normfreq",
        description="Digit streams of arithmetic-function values and their block statistics.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def declare(container, name, run, help, *, report=True) -> argparse.ArgumentParser:
        """One subcommand: `main` calls `run` with its parsed options."""
        sub = container.add_parser(name, help=help, description=help, allow_abbrev=False,
                                   formatter_class=_DefaultsHelp)
        sub.set_defaults(run=run)
        sub.add_argument("--config", metavar="FILE",
                         help="key=value lines read as flags; the command line's own flags win")
        if report:
            sub.add_argument("--report", help="write the JSON report here instead of stdout")
        return sub

    sub = declare(commands, "stream", _stream, "print the first N digits of a value stream",
                  report=False)
    _add_stream_options(sub)

    sub = declare(commands, "count", _count, "exact k-gram census of a stream prefix")
    _add_stream_options(sub)
    sub.add_argument("--k", type=int, default=1, help="word length")
    sub.add_argument("--eps", type=float, help="also classify each concatenated value at this eps")
    sub.add_argument("--threads", type=parse_threads, default=1,
                     help="accepted and checked; count runs on one thread (same output)")

    sub = declare(commands, "classify", _classify,
                  "count n <= limit failing the strict (eps, k) block test")
    sub.add_argument("--eps", type=float, required=True, help="deviation tolerance")
    sub.add_argument("--k", type=int, default=1, help="word length")
    sub.add_argument("--base", type=int, default=10, help="digit base g >= 2")
    sub.add_argument("--order", default="msf", choices=_ORDER_TOKENS, help="digit order")
    sub.add_argument("--limit", type=int, required=True,
                     help="classify all n up to this bound (at most 2^63 - 1; 10^9 for k >= 2)")
    sub.add_argument("--threads", type=parse_threads, default=1,
                     help="worker threads for k >= 2 (any value, same output)")

    experiment = commands.add_parser("experiment", help="run one census/report experiment",
                                     allow_abbrev=False)
    operations = experiment.add_subparsers(metavar="OP", required=True)

    def census(name, run, help) -> argparse.ArgumentParser:
        """A census at checkpoints: `run(got, checkpoints)` makes its report."""
        def at_checkpoints(got):
            return run(got, got["checkpoints"] or experiments.default_checkpoints(got["limit"]))

        sub = declare(operations, name, at_checkpoints, help)
        sub.add_argument("--limit", type=int, required=True, help="largest checkpoint x")
        sub.add_argument("--checkpoints", type=_int_list,
                         help="comma-separated checkpoints (default: powers of 10 up to limit)")
        return sub

    census("fps", _fps, "census of n with a small unit-group exponent: lambda(n) < sqrt(n)")

    sub = census("divisor", _divisor,
                 "census of n with d | a(n), against the divisor-preimage bound")
    sub.add_argument("--f", required=True, help="one of phi, sigma, lambda")
    sub.add_argument("--d", type=int, required=True, help="required divisor of a(n)")

    sub = census("omega-tail", _omega_tail,
                 "census of n with Omega(a(n)) > K^2 (ratio only, no verdict)")
    sub.add_argument("--f", required=True, help="one of phi, sigma, lambda")
    sub.add_argument("--big-k", type=int, required=True, help="threshold root K")

    sub = census("small-value", _small_value,
                 "census of n with f(n) < n^(1/2^j), j the chain depth")
    sub.add_argument("--f", default="id", help="function chain, outermost first")
    sub.add_argument("--theta", type=float, default=1.0 / 3.0,
                     help="thinness exponent in x/exp((log x)^theta)")

    sub = census("thin-preimage", _thin_preimage,
                 "census of n with a(n) in a thin set, split by the proof's partition")
    sub.add_argument("--f", required=True, help="one of phi, sigma, lambda")
    sub.add_argument("--set", default="powers-of-two", choices=sorted(experiments.THIN_SETS),
                     help="which thin set to census")

    sub = declare(operations, "growth", _growth,
                  "average and pointwise growth ratios of log f(m) against log m")
    sub.add_argument("--f", default="id", help="function chain, outermost first")
    sub.add_argument("--limit", type=int, required=True, help="largest m scanned")

    sub = declare(operations, "non-normal", _non_normal,
                  "count the repeating leading block of a prime-part stream")
    sub.add_argument("--primes", type=_int_list, default=(2,),
                     help="comma-separated primes defining the kept part")
    sub.add_argument("--k", type=int, required=True, help="block covers f(1)..f(2^k - 1)")
    sub.add_argument("--base", type=int, default=10, help="digit base g >= 2")
    sub.add_argument("--digits", type=int, default=10**5, help="stream digits scanned N")
    sub.add_argument("--order", default="msf", choices=_ORDER_TOKENS, help="digit order")

    sub = declare(operations, "extremal", _extremal,
                  "extremes of phi(m) loglog m / m and sigma(m) / (m loglog m)")
    sub.add_argument("--limit", type=int, required=True, help="largest m scanned")

    sub = census("domain-density", _domain_density,
                 "check #(S intersect [1,x]) > x/(log x)^B for a named set S")
    sub.add_argument("--set", required=True, choices=sorted(experiments.DENSITY_SETS),
                     help="which set S to check")
    sub.add_argument("--exponent", type=float, default=1.0, help="density exponent B")

    sub = declare(commands, "report", _report,
                  "project a stored JSON report to CSV (or re-emit canonical JSON)", report=False)
    sub.add_argument("--in", required=True, help="JSON report file to read")
    sub.add_argument("--format", default="csv", choices=["csv", "json"], help="output format")
    sub.add_argument("--out", help="write here instead of stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        from_file = _config_flags(argv)
        # after the subcommand words and ahead of the command line's own
        # flags: argparse keeps an option's last value, so explicit flags win
        words = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
        args, unknown = parser.parse_known_args(argv[:words] + from_file + argv[words:])
        for token in from_file:
            if token in unknown:  # a key of another subcommand
                unknown.remove(token)
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        got = vars(args)
        report = got["run"](got)
        if report is not None and got["report"]:
            reports.write_report(report, got["report"])
        elif report is not None:
            _print_json(report)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 0
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    except BrokenPipeError:
        # the `signal` docs' recipe: flush at exit into devnull
        if sys.stdout is sys.__stdout__:
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    except (CapacityError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (NormfreqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
