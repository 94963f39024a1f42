"""Digit streams of arithmetic-function values and their block statistics.

Concatenate f(1), f(2), f(3), ... in base g — where f composes totient,
divisor-sum, unit-group-exponent and related maps over a chosen index
set — and measure how evenly every length-k digit block occurs in the
prefix.  Exact integer censuses with closed-form reference bounds sit
alongside the stream machinery.  Everything is deterministic: each
threaded loop runs on the fixed blocks of one partitioner
(`ngrams.blocked_map`), so any thread count gives the same bytes.
"""

from .arith import (
    LAMBDA,
    NATURALS,
    ODD_ORDERS,
    PHI,
    PRIME_ORDERS,
    PRIMES,
    RADICAL,
    SIGMA,
    SUM_PROPER,
    TWO_SQUARES,
    ArithEngine,
    BaseFn,
    BaseTag,
    CompositionSpec,
    Domain,
    Factorization,
    big_omega,
    gstar,
    is_prime,
    lam,
    phi,
    radical,
    sigma,
    small_omega,
    spf_table,
    sum_proper_divisors,
)
from .errors import (
    CapacityError,
    DegenerateInputError,
    NormfreqError,
    NotCoprimeError,
    UnknownFunctionError,
)
from .ngrams import classify_checkpoints, count_stream, fit_meager_exponent
from .reports import canonical_json, read_report, to_csv, write_report
from .words import (
    LSF,
    MSF,
    DigitOrder,
    digit_length,
    digits_of,
    is_eps_k_normal,
    truncate,
)

__version__ = "0.1.0"
