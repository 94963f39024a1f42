"""Command-line surface tying streams, censuses and experiments together.

Subcommands:

    stream      print the leading digits of a concatenated value stream
    count       exact k-gram census of a stream prefix (JSON report)
    classify    count n <= limit failing the strict block-frequency test
    experiment  the census/report battery (fps, divisor, omega-tail, ...)
    report      project a stored JSON report to CSV (or re-emit JSON)

`build_parser` declares each subcommand once, with its options and a
runner; `main` resolves the options, calls the runner and writes the
report it returns to stdout or to ``--report FILE``.

Options may also come from a ``--config FILE`` of plain ``key=value``
lines whose keys are long flag names; explicit flags win on conflict,
and keys that do not belong to the active subcommand are ignored so one
file can drive a whole pipeline.

Exit codes: 0 success, 2 usage error, 3 capacity/overflow.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import experiments, ngrams, reports
from .arith import (
    LAMBDA,
    NATURALS,
    PHI,
    RADICAL,
    SIGMA,
    SUM_PROPER,
    TWO_SQUARES,
    ArithEngine,
    CompositionSpec,
    Domain,
    gstar,
)
from .errors import CapacityError, NormfreqError, UnknownFunctionError
from .words import LSF, MSF, DigitOrder, truncate, word_text

_FN_TOKENS = {
    "phi": PHI,
    "sigma": SIGMA,
    "lambda": LAMBDA,
    "s": SUM_PROPER,
    "rad": RADICAL,
    "two-squares": TWO_SQUARES,
}

_DOMAIN_TOKENS = {domain.value: domain for domain in Domain}

# "msf" prints values the way they are written; the alternative order
# lists the least significant digit first ("lsf", alias "paper").
_ORDER_TOKENS = {"msf": MSF, "lsf": LSF, "paper": LSF}


def parse_chain(text: Optional[str], domain: Domain = NATURALS) -> CompositionSpec:
    """Parse a dotted chain like "phi.sigma" (outermost first) into a spec.

    Tokens: phi, sigma, lambda, s, rad, two-squares, gstar:<p1,p2,...>,
    id.  "id" (or an empty string) contributes nothing, so the empty
    chain is the identity.
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
            if tok in _FN_TOKENS:
                chain.append(_FN_TOKENS[tok])
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


def _choose(table: dict, token: str, what: str):
    """table[token]; argparse checks choices on the command line, this
    also checks values read from a --config file."""
    try:
        return table[token]
    except KeyError:
        raise ValueError(f"unknown {what} {token!r} (choose from {', '.join(table)})") from None


def _domain(token: str) -> Domain:
    return _choose(_DOMAIN_TOKENS, token, "domain")


def _order(token: str) -> DigitOrder:
    return _choose(_ORDER_TOKENS, token, "digit order")


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


class _OptionSet:
    """Declares a subcommand's value options once, for both argv and config.

    argparse sees every option with default None; after parsing,
    `resolve` fills unset options from the --config file and then from
    the declared defaults, so explicit flags always win.
    """

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.options: dict[str, tuple[Callable, object]] = {}
        parser.add_argument("--config", metavar="FILE", help="key=value defaults file")

    def add(self, name, *, convert=str, default=None, required=False, choices=None, help=""):
        if default is not None:
            help = f"{help} (default: {default})" if help else f"default: {default}"
        self.parser.add_argument(
            f"--{name}",
            dest=name.replace("-", "_"),
            type=convert,
            choices=choices,
            default=None,
            help=help,
        )
        self.options[name] = (convert, default, required)

    def resolve(self, args: argparse.Namespace) -> dict:
        file_pairs: dict[str, str] = {}
        if args.config:
            file_pairs = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
        out = {}
        for name, (convert, default, required) in self.options.items():
            dest = name.replace("-", "_")
            value = getattr(args, dest)
            if value is None and name in file_pairs:
                value = convert(file_pairs[name])
            if value is None:
                value = default
            if value is None and required:
                raise ValueError(f"missing required option --{name}")
            out[dest] = value
        return out


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
    spec = parse_chain(got["f"], _domain(got["domain"]))
    result = truncate(ArithEngine(), spec, got["digits"], got["base"], _order(got["order"]))
    print(word_text(result.digits.tolist(), got["base"]))


def _count(got):
    return ngrams.count_stream(
        ArithEngine(),
        parse_chain(got["f"], _domain(got["domain"])),
        got["digits"],
        g=got["base"],
        k=got["k"],
        order=_order(got["order"]),
        eps=got["eps"],
        threads=got["threads"],
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
        "order": _order(got["order"]).value,
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
    thin = _choose(experiments.THIN_SETS, got["set"], "thin set")
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
        order=_order(got["order"]),
    )


def _extremal(got):
    return experiments.extremal_ratio_report(ArithEngine(), got["limit"])


def _domain_density(got, cps):
    member = _choose(experiments.DENSITY_SETS, got["set"], "set")
    return experiments.restricted_domain_check(member, got["set"], got["exponent"], cps)


def _report(got) -> None:
    payload = reports.read_report(got["in"])
    text = reports.to_csv(payload) if got["format"] == "csv" else reports.canonical_json(payload)
    if got["out"]:
        Path(got["out"]).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_stream_options(opts: _OptionSet) -> None:
    opts.add("f", default="id", help="function chain, outermost first (e.g. phi.sigma)")
    opts.add("domain", default="naturals", choices=sorted(_DOMAIN_TOKENS),
             help="index set the chain runs over")
    opts.add("base", convert=int, default=10, help="digit base g >= 2")
    opts.add("order", default="msf", choices=["msf", "lsf", "paper"],
             help="digit order inside each value: most significant first, "
                  "or least significant first (lsf; 'paper' is an alias)")
    opts.add("digits", convert=int, required=True, help="number of stream digits N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normfreq",
        description="Digit streams of arithmetic-function values and their block statistics.",
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def declare(container, name, run, help, *, report=True) -> _OptionSet:
        """One subcommand: `main` resolves its options and calls `run`."""
        sub = container.add_parser(name, help=help, description=help)
        opts = _OptionSet(sub)
        sub.set_defaults(run=run, opts=opts)
        if report:
            opts.add("report", help="write the JSON report here instead of stdout")
        return opts

    opts = declare(commands, "stream", _stream, "print the first N digits of a value stream",
                   report=False)
    _add_stream_options(opts)

    opts = declare(commands, "count", _count, "exact k-gram census of a stream prefix")
    _add_stream_options(opts)
    opts.add("k", convert=int, default=1, help="word length")
    opts.add("eps", convert=float, help="also classify each concatenated value at this eps")
    opts.add("threads", convert=parse_threads, default=1,
             help="worker threads (any value, same output)")

    opts = declare(commands, "classify", _classify,
                   "count n <= limit failing the strict (eps, k) block test")
    opts.add("eps", convert=float, required=True, help="deviation tolerance")
    opts.add("k", convert=int, default=1, help="word length")
    opts.add("base", convert=int, default=10, help="digit base g >= 2")
    opts.add("order", default="msf", choices=["msf", "lsf", "paper"], help="digit order")
    opts.add("limit", convert=int, required=True, help="classify all n up to this bound")
    opts.add("threads", convert=parse_threads, default=1,
             help="worker threads (any value, same output)")

    experiment = commands.add_parser("experiment", help="run one census/report experiment")
    operations = experiment.add_subparsers(metavar="OP", required=True)

    def census(name, run, help) -> _OptionSet:
        """A census at checkpoints: `run(got, checkpoints)` makes its report."""
        def at_checkpoints(got):
            return run(got, got["checkpoints"] or experiments.default_checkpoints(got["limit"]))

        opts = declare(operations, name, at_checkpoints, help)
        opts.add("limit", convert=int, required=True, help="largest checkpoint x")
        opts.add("checkpoints", convert=_int_list,
                 help="comma-separated checkpoints (default: powers of 10 up to limit)")
        return opts

    census("fps", _fps, "census of n with a small unit-group exponent: lambda(n) < sqrt(n)")

    opts = census("divisor", _divisor,
                  "census of n with d | a(n), against the divisor-preimage bound")
    opts.add("f", required=True, help="one of phi, sigma, lambda")
    opts.add("d", convert=int, required=True, help="required divisor of a(n)")

    opts = census("omega-tail", _omega_tail,
                  "census of n with Omega(a(n)) > K^2 (ratio only, no verdict)")
    opts.add("f", required=True, help="one of phi, sigma, lambda")
    opts.add("big-k", convert=int, required=True, help="threshold root K")

    opts = census("small-value", _small_value,
                  "census of n with f(n) < n^(1/2^j), j the chain depth")
    opts.add("f", default="id", help="function chain, outermost first")
    opts.add("theta", convert=float, default=1.0 / 3.0,
             help="thinness exponent in x/exp((log x)^theta)")

    opts = census("thin-preimage", _thin_preimage,
                  "census of n with a(n) in a thin set, split by the proof's partition")
    opts.add("f", required=True, help="one of phi, sigma, lambda")
    opts.add("set", default="powers-of-two", choices=sorted(experiments.THIN_SETS),
             help="which thin set to census")

    opts = declare(operations, "growth", _growth,
                   "average and pointwise growth ratios of log f(m) against log m")
    opts.add("f", default="id", help="function chain, outermost first")
    opts.add("limit", convert=int, required=True, help="largest m scanned")

    opts = declare(operations, "non-normal", _non_normal,
                   "count the repeating leading block of a prime-part stream")
    opts.add("primes", convert=_int_list, default=(2,),
             help="comma-separated primes defining the kept part")
    opts.add("k", convert=int, required=True, help="block covers f(1)..f(2^k - 1)")
    opts.add("base", convert=int, default=10, help="digit base g >= 2")
    opts.add("digits", convert=int, default=10**5, help="stream digits scanned N")
    opts.add("order", default="msf", choices=["msf", "lsf", "paper"], help="digit order")

    opts = declare(operations, "extremal", _extremal,
                   "extremes of phi(m) loglog m / m and sigma(m) / (m loglog m)")
    opts.add("limit", convert=int, required=True, help="largest m scanned")

    opts = census("domain-density", _domain_density,
                  "check #(S intersect [1,x]) > x/(log x)^B for a named set S")
    opts.add("set", required=True, choices=sorted(experiments.DENSITY_SETS),
             help="which set S to check")
    opts.add("exponent", convert=float, default=1.0, help="density exponent B")

    opts = declare(commands, "report", _report,
                   "project a stored JSON report to CSV (or re-emit canonical JSON)", report=False)
    opts.add("in", required=True, help="JSON report file to read")
    opts.add("format", default="csv", choices=["csv", "json"], help="output format")
    opts.add("out", help="write here instead of stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        got = args.opts.resolve(args)
        report = args.run(got)
        if report is not None:
            text = reports.canonical_json(report)
            # a k-gram report's arrays are freed before its text is encoded
            # and written, which keeps them out of the command's peak memory
            del report
            if got["report"]:
                Path(got["report"]).write_text(text, encoding="ascii", newline="\n")
            else:
                sys.stdout.write(text)
        return 0
    except (CapacityError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except (NormfreqError, ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
