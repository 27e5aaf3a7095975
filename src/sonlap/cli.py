"""Command line frontend: Laplacians, flag matrices, spectra, characters, verify.

Output is byte-deterministic for fixed flags and seed.  Exit codes: 0 on
success or a passing verification, 1 on a verification failure, 2 on usage
errors, including an input above the degree bound ``MAX_DEGREE`` or a
``verify`` suite's bound, a flag the target or mode does not take, a negative
or malformed seed, a malformed partition or spin (the message names its
flag), and a ``verify`` run that would check nothing.
Rationals are printed as exact p/q strings in JSON; decimals appear only in
CSV, next to an exact sidecar column.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache

from . import flagmatrix, numeric
from .laplacian import lap, lap_partition
from .partitions import Partition, enumerate_upto
from .tracepoly import GENERAL, SO3, SO4, TracePoly

DEFAULT_SEED = numeric.DEFAULT_SEED
SEED_ENV_VAR = "SONLAP_SEED"

# the reduced modes the commands offer, and the flag bases of ``matrix`` by
# group, a group's first basis its default
_REDUCED = {"so3": SO3, "so4": SO4}
_MODES = {"generaln": GENERAL, **_REDUCED}
_BASES = {"bprime": SO3, "btrace": SO3, "so4": SO4}

# Largest degree a command accepts: of the ``lap`` partition, the ``matrix``
# and ``characters`` order k (2j for an SO(4) spin), and the ``spectrum``
# bound.  At 30 the slowest accepted input, ``characters --mode so4 --j1 15
# --j2 15``, takes 0.026 s once the package is imported, and ``lap --mode
# so4 --partition 30`` and ``matrix --mode so4 --k 30`` 0.024-0.025 s
# (medians of 10, Python 3.11 on a 2-core Intel Xeon host).  In a fresh
# process every input at the bound takes 0.15-0.20 s, most of it the
# interpreter's start and the import of the package and numpy (0.10-0.11 s).
# The exact arithmetic grows steeply with the degree.
MAX_DEGREE = 30

# ``verify`` bounds, measured in a fresh process with ``--samples 1`` on a
# 2-core machine.  Every suite runs its samples in chunks, one stacked draw
# and one stacked pass per family per chunk (see ``numeric``); a chunk holds
# max(1, 16384 // e) samples, e the floats one sample takes in the suite's
# largest stacked array, so from n = 10 on an identities chunk is one sample
# (two at n = 9), and a laplacian k=0 or gegenbauer chunk at n = 60 holds
# four (a laplacian k=12 chunk one).  The laplacian suite walks every
# partition of degree <= --k: 0.22-0.37 s at k=12, 0.33-0.58 s at 16 (a
# library call).  The identities suite's n^2 x n^2 matrices and its
# stacks of n^2 displaced n x n points grow as n^4: 0.86-1.02 s and 126 MB
# at n=30, 1.75-1.91 s and 315 MB at n=40 (a library call; the CLI refuses
# it).  The gegenbauer --k is a degree.
# The other two suites draw one n x n rotation per sample for all their
# families: laplacian k=12 takes 0.22-0.36 s at n=60, and a library call
# 0.23-0.38 s at n=100 and 0.25-0.37 s at n=200.  Each sample's random
# stream is made as it is drawn, so the sample bound is one of time: the
# cheapest suite, laplacian n=3 k=0, takes 0.21-0.33 s over 1000 samples.
# A laplacian chunk builds U's powers, their traces and the power tables
# once for all its partitions, and each sample checks every partition of
# degree <= --k from index plans (the monomial plans built once per group
# of partitions and kept, the image plan once per call), so that suite's time
# grows as samples x partitions.  The product is bounded at the cost of
# n=60: 4 samples at k=12 (1088) take 0.21-0.22 s and 1000 samples at k=0
# 0.46-0.49 s; gegenbauer n=60 k=30, one recurrence per four-sample chunk,
# takes 0.57-0.73 s over 1000 samples (ranges over 7 runs, import included,
# on a shared host whose runs spread widely).
# An identities sample costs about n^4 from n=20 on: 0.24 s at n=30, 0.3 us
# per n^4 (in process).  Its samples x n^4 is bounded at 2 samples at
# MAX_IDENTITIES_N: 0.62-0.73 s (median 0.65 s), 0.69-0.74 s at the bound
# for n=10 (162 samples) and 0.72-0.76 s for n=9 (246 samples, two a
# chunk).  Below n=10 a chunk of samples shares the fixed cost of a sample:
# 1000 samples at n=3 take 0.24-0.25 s, below the other suites' worst
# accepted inputs, so the bound needs no per-sample floor.
MAX_LAPLACIAN_K = 12
MAX_LAPLACIAN_WORK = 1100
MAX_IDENTITIES_N = 30
MAX_IDENTITIES_WORK = 2 * MAX_IDENTITIES_N**4
MAX_VERIFY_N = 60
MAX_SAMPLES = 1000
_VERIFY_BOUNDS = {
    "laplacian": (("k", MAX_LAPLACIAN_K), ("n", MAX_VERIFY_N), ("samples", MAX_SAMPLES)),
    "gegenbauer": (("k", MAX_DEGREE), ("n", MAX_VERIFY_N), ("samples", MAX_SAMPLES)),
    "identities": (("n", MAX_IDENTITIES_N), ("samples", MAX_SAMPLES)),
}


def _check_degree(what: str, degree) -> None:
    """Refuse an input above ``MAX_DEGREE`` before any work is done."""
    if degree > MAX_DEGREE:
        raise ValueError(f"{what} {degree} exceeds the input bound {MAX_DEGREE}")


def _seed_default() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser; built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="sonlap",
        description="Exact Laplace-Beltrami calculus on SO(N) trace polynomials.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    lap_p = sub.add_parser("lap", help="Laplacian of a trace monomial")
    lap_p.add_argument("--mode", choices=sorted(_MODES), required=True)
    lap_p.add_argument("--partition", required=True, help='comma parts, e.g. "2,1"; "0" is empty')

    mat_p = sub.add_parser("matrix", help="flag matrix of the restricted operator")
    mat_p.add_argument("--mode", choices=sorted(_REDUCED), required=True)
    mat_p.add_argument("--basis", choices=list(_BASES))
    mat_p.add_argument("--k", type=int, required=True)
    mat_p.add_argument("--format", choices=["json", "csv", "latex", "pretty"], default="pretty")

    spec_p = sub.add_parser("spectrum", help="closed-form eigenvalue families")
    spec_p.add_argument("--target", choices=["so3", "so4", "sphere"], required=True)
    spec_p.add_argument("--n", type=int, help="ambient dimension (sphere target)")
    spec_p.add_argument("--bound", type=int, required=True)
    spec_p.add_argument("--format", choices=["pretty", "json"], default="pretty")

    char_p = sub.add_parser("characters", help="irreducible characters as trace polynomials")
    char_p.add_argument("--mode", choices=["so3", "so4"], required=True)
    char_p.add_argument("--k", type=int, help="SO(3) weight")
    char_p.add_argument("--j1", help="SO(4) spin, e.g. 3/2")
    char_p.add_argument("--j2", help="SO(4) spin, e.g. 1/2")
    char_p.add_argument("--format", choices=["pretty", "json"], default="pretty")

    ver_p = sub.add_parser("verify", help="seeded numeric cross-validation suites")
    ver_p.add_argument("--suite", choices=["laplacian", "gegenbauer", "identities"], required=True)
    ver_p.add_argument("--n", type=int, default=3)
    ver_p.add_argument("--k", type=int, default=4)
    ver_p.add_argument("--samples", type=int, default=20)
    ver_p.add_argument("--seed", type=int, default=None)
    ver_p.add_argument("--tol", type=float, default=None)
    parser.verbs = sub.choices  # verb -> its subparser, for _parse_args
    return parser


def _cmd_lap(args) -> int:
    mode = _MODES[args.mode]
    try:
        part = Partition.parse(args.partition)
    except ValueError as exc:  # a malformed partition is refused by its flag
        raise ValueError(f"--partition: {exc}") from None
    _check_degree("partition degree", part.degree)
    if mode is GENERAL:
        result = lap_partition(part)
    else:
        reduced = TracePoly.monomial(part, 1).substitute_n(mode.n).reduce(mode)
        result = lap(reduced)
    print(result.pretty())
    print(result.to_json_text())
    return 0


def _cmd_matrix(args) -> int:
    mode = _MODES[args.mode]
    basis = args.basis or next(b for b, group in _BASES.items() if group == mode)
    if _BASES[basis] != mode:
        raise ValueError(f"--basis {basis} is not valid for --mode {args.mode}")
    _check_degree("--k", args.k)
    matrix = flagmatrix.build_matrix(mode, basis, args.k)
    renderers = {
        "json": flagmatrix.matrix_to_json,
        "csv": flagmatrix.matrix_to_csv,
        "latex": flagmatrix.matrix_to_latex,
        "pretty": flagmatrix.matrix_to_pretty,
    }
    sys.stdout.write(renderers[args.format](matrix))
    if args.format == "json":
        sys.stdout.write("\n")
    return 0


def _spectrum_entry_obj(entry) -> dict:
    return {
        "eigenvalue": str(entry.eigenvalue),
        "labels": [list(l) if isinstance(l, tuple) else l for l in entry.labels],
    }


def _cmd_spectrum(args) -> int:
    if args.target == "sphere" and args.n is None:
        raise ValueError("--target sphere requires --n")
    if args.target != "sphere" and args.n is not None:
        raise ValueError(f"--n applies only to --target sphere, not {args.target}")
    _check_degree("--bound", args.bound)
    entries = flagmatrix.spectrum_closed(args.target, args.bound, n=args.n)
    if args.format == "json":
        print(json.dumps([_spectrum_entry_obj(e) for e in entries], sort_keys=True))
        return 0
    for entry in entries:
        labels = ", ".join(str(l) for l in entry.labels)
        print(f"{entry.eigenvalue}\t[{labels}]")
    return 0


def _character_obj(character) -> dict:
    return {
        "group": character.group,
        "label": [str(x) for x in character.label],
        "eigenvalue": str(character.eigenvalue),
        "poly": character.poly.to_json_obj(),
    }


def _spin(flag: str, text: str) -> Fraction:
    """An SO(4) spin flag's value; a malformed one is refused by its flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} must be a spin such as 3/2 or 1.5, got {text!r}") from None


def _cmd_characters(args) -> int:
    if args.mode == "so3":
        if args.k is None:
            raise ValueError("--mode so3 requires --k")
        if args.j1 is not None or args.j2 is not None:
            raise ValueError("--j1 and --j2 apply only to --mode so4")
        _check_degree("--k", args.k)
        character = flagmatrix.character_so3(args.k)
        name = f"chi_{args.k}"
    else:
        if args.j1 is None or args.j2 is None:
            raise ValueError("--mode so4 requires --j1 and --j2")
        if args.k is not None:
            raise ValueError("--k applies only to --mode so3")
        j1, j2 = _spin("--j1", args.j1), _spin("--j2", args.j2)
        _check_degree("twice the spin", 2 * max(j1, j2))
        character = flagmatrix.character_so4(j1, j2)
        name = f"chi_({j1},{j2})"
    if args.format == "json":
        print(json.dumps(_character_obj(character), sort_keys=True))
        return 0
    print(f"{name}: eigenvalue {character.eigenvalue}")
    print(character.poly.pretty())
    if character.alt is not None:
        print(f"trace form: {character.alt.pretty()}")
    return 0


def _check_work(args, what: str, per_sample: int, bound: int) -> None:
    """Refuse a ``verify`` run whose samples x per-sample work exceeds the
    suite's bound, before any draw; ``what`` names the per-sample work."""
    work = args.samples * per_sample
    if work > bound:
        raise ValueError(
            f"--samples {args.samples} times {what} ({work}) "
            f"exceeds the input bound {bound} of the {args.suite} suite"
        )


def _cmd_verify(args) -> int:
    if args.k < 0:
        raise ValueError(f"--k must be nonnegative, got {args.k}")
    least_n = 3 if args.suite == "gegenbauer" else 2
    if args.n < least_n:
        raise ValueError(f"--n must be at least {least_n} for the {args.suite} suite, got {args.n}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
    for name, bound in _VERIFY_BOUNDS[args.suite]:
        value = getattr(args, name)
        if value > bound:
            raise ValueError(f"--{name} {value} exceeds the input bound {bound} of the {args.suite} suite")
    seed = args.seed if args.seed is not None else _seed_default()
    options = {"samples": args.samples, "seed": seed}
    if args.tol is not None:  # otherwise each suite's own default
        options["tol"] = args.tol
    if args.suite == "laplacian":
        partitions = enumerate_upto(args.k)
        _check_work(args, f"{len(partitions)} partitions", len(partitions), MAX_LAPLACIAN_WORK)
        reports = numeric.verify_laplacian(args.n, partitions, **options)
    elif args.suite == "gegenbauer":
        positions = ((1, 1), (max(1, args.n // 2), args.n))
        families = [(k, i, j) for k in range(args.k + 1) for i, j in positions]
        reports = numeric.verify_gegenbauer_families(args.n, families, **options)
    else:
        _check_work(args, f"n^4 = {args.n**4}", args.n**4, MAX_IDENTITIES_WORK)
        reports = numeric.verify_identities(args.n, **options)
    print(json.dumps([r.to_json_obj() for r in reports], sort_keys=True))
    return 0 if all(r.passed for r in reports) else 1


_DISPATCH = {
    "lap": _cmd_lap,
    "matrix": _cmd_matrix,
    "spectrum": _cmd_spectrum,
    "characters": _cmd_characters,
    "verify": _cmd_verify,
}


def _parse_args(argv):
    """``_build_parser().parse_args(argv)``, with the same result, output and
    exit, but a call that names a verb first is parsed by that verb's
    subparser alone, skipping the top-level pass.

    Arguments the subparser leaves over are re-parsed by the top-level
    parser, which refuses them with its own usage line, as it always has;
    every other argv (none, an unknown verb, a top-level flag) goes to it
    directly.
    """
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    verb_parser = parser.verbs.get(argv[0]) if argv else None
    if verb_parser is None:
        return parser.parse_args(argv)
    args, extras = verb_parser.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0]))
    return parser.parse_args(argv) if extras else args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.verb](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
