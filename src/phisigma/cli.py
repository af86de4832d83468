"""Command-line front end.

Every subcommand prints machine-readable output (CSV or JSON), writes
files atomically, and is byte-reproducible for a fixed argument vector.
Exit status: 0 success, 1 domain error, 2 resource error, 64 usage
error, which includes an --output path that cannot be written (no
partial or temporary file is left behind).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import anatomy, classifier, constants, sieve, structure, value_sets
from .errors import DomainError, PhiSigmaError, ResourceError, memory_budget, parse_int

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64

DEFAULT_SEED = 20260809


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _int_arg(s: str) -> int:
    """Integer flag, 1e9 accepted, parsed exactly by errors.parse_int."""
    try:
        return parse_int(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _limits_arg(s: str) -> list[int]:
    """Comma-separated integer flags; an empty item is a usage error."""
    return [_int_arg(part) for part in s.split(",")]


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".phisigma-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp makes the file 0600; give it the mode a new file gets
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json(payload) -> str:
    # RFC 8259 JSON has no NaN or Infinity: printing one is a bug, not output
    return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _parse_xi(raw: str, L: int) -> structure.SimplexSpec:
    if raw == "1":
        return structure.unit_spec(L)
    if raw == "default":
        # the level-L_0 weight profile with no shrink (L_0 := L)
        return structure.SimplexSpec(L=L, xi=structure.xi_weights(L, L))
    try:
        xi = tuple(float(t) for t in raw.split(","))
    except ValueError as exc:
        raise DomainError(f"bad --xi value {raw!r}") from exc
    return structure.SimplexSpec(L=L, xi=xi)


def _cmd_values_table(args) -> str:
    rows = value_sets.values_table(args.limits, threads=args.threads)
    if args.format == "json":
        return _json([dataclasses.asdict(r) for r in rows])
    return value_sets.values_table_csv(rows)


def _cmd_constants(args) -> str:
    k = constants.structure_constants(args.tol)
    return _json(
        {
            "rho": k.rho,
            "f_prime_rho": k.f_prime_at_rho,
            "C": k.c_const,
            "D": k.d_const,
            "tol": k.tol,
        }
    )


def _cmd_simplex_volume(args) -> str:
    spec = _parse_xi(args.xi, args.L)
    est = structure.simplex_volume_mc(spec, args.samples, args.seed,
                                      threads=args.threads)
    return _json(dataclasses.asdict(est))


def _cmd_normal_primes(args) -> str:
    if args.x < 3:
        raise DomainError(f"need x >= 3, got {args.x}")
    if args.sample < 0:
        raise DomainError(f"need sample >= 0, got {args.sample}")
    if not constants.E_TO_E <= args.S < math.inf:  # checked before any prime is drawn
        raise DomainError(f"need finite S >= e^e = {constants.E_TO_E:.4f}, got {args.S}")
    structure._check_seed(args.seed)
    primes = sieve.primes_up_to(args.x)
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    if args.sample < len(primes):
        idx = np.sort(rng.choice(len(primes), size=args.sample, replace=False))
        primes = primes[idx]
    factors = sieve.build_factor_sieve(2, args.x + 2)
    lines = ["p,passed_phi,passed_sigma,worst_margin"]
    for p in primes:
        rep = anatomy.is_s_normal(int(p), args.S, factors)
        ok_phi = rep.passed_1S_phi and rep.passed_window_phi
        ok_sigma = rep.passed_1S_sigma and rep.passed_window_sigma
        margin = "" if rep.worst_margin is None else f"{rep.worst_margin:.6f}"
        lines.append(f"{p},{int(ok_phi)},{int(ok_sigma)},{margin}")
    return "\n".join(lines) + "\n"


def _cmd_smooth_count(args) -> str:
    sc = anatomy.psi_smooth_count(args.x, args.y, threads=args.threads)
    return _json(dataclasses.asdict(sc))


def _cmd_omega_census(args) -> str:
    observed, shape = anatomy.omega_tail_census(args.x, args.alpha, threads=args.threads)
    return _json(
        {
            "x": args.x,
            "alpha": args.alpha,
            "observed": observed,
            "bound_shape": shape,
            "ratio": observed / shape if shape else None,
        }
    )


def _cmd_classify(args) -> str:
    params = classifier.af_params(args.x, args.epsilon, s_override=args.S_override)
    report = classifier.classify(args.n, args.f, params)
    payload = dataclasses.asdict(report)
    payload["params"] = {
        "x": params.x,
        "epsilon": params.epsilon,
        "S_formula_log": params.s_formula_log,
        "S_effective": params.s_effective,
        "S_overridden": params.s_overridden,
        "delta": params.delta,
        "omega": params.omega,
        "L": params.L,
        "L_formula": params.l_formula,
        "xi": list(params.xi),
    }
    return _json(payload)


def _cmd_capture_census(args) -> str:
    census = classifier.capture_census(args.f, args.x, args.epsilon, threads=args.threads)
    return _json(dataclasses.asdict(census))


def _cmd_rl_sum(args) -> str:
    spec = _parse_xi(args.xi, args.L)
    value = structure.r_l_sum(args.f, spec, args.x, args.offset, threads=args.threads)
    return _json(
        {
            "f": args.f,
            "x": args.x,
            "L": args.L,
            "xi": list(spec.xi),
            "offset": args.offset,
            "value": value,
        }
    )


def build_parser() -> _Parser:
    def common_flags(suppress: bool) -> argparse.ArgumentParser:
        # subparsers suppress defaults so they never clobber values the
        # top-level parser already read before the subcommand word
        def dflt(v):
            return argparse.SUPPRESS if suppress else v

        c = argparse.ArgumentParser(add_help=False)
        c.add_argument("--format", choices=("csv", "json"), default=dflt(None),
                       help="output format; values-table takes csv or json, "
                       "every other subcommand only its default (else exit 64)")
        c.add_argument("--output", default=dflt(None),
                       help="write output atomically to a file")
        c.add_argument("--seed", type=_int_arg, default=dflt(None),
                       help=f"Philox key (default {DEFAULT_SEED}); only "
                       "simplex-volume and normal-primes draw, every other "
                       "subcommand takes no --seed (else exit 64)")
        c.add_argument("--threads", type=_int_arg, default=dflt(1),
                       help="upper bound on worker threads (>= 1); "
                       "values-table, capture-census, smooth-count, "
                       "omega-census and rl-sum scan their windows and "
                       "simplex-volume draws its batches on up to this many, "
                       "every other subcommand runs in one thread; output "
                       "bytes never depend on it")
        return c

    # allow_abbrev=False: a flag prefix (--lim for --limits) exits 64
    p = _Parser(prog="phisigma", description=__doc__, parents=[common_flags(False)],
                allow_abbrev=False)
    sub = p.add_subparsers(dest="command", required=True)
    subcommon = common_flags(True)

    def add_parser(name, draws=False, **kw):
        sp = sub.add_parser(name, parents=[subcommon], conflict_handler="resolve",
                            allow_abbrev=False, **kw)
        sp.set_defaults(draws=draws)
        return sp

    sp = add_parser("values-table", help="value counts and their intersection")
    sp.add_argument("--limits", type=_limits_arg, required=True)
    sp.set_defaults(func=_cmd_values_table, formats=("csv", "json"))

    sp = add_parser("constants", help="rho, F'(rho), C, D")
    sp.add_argument("--tol", type=float, default=1e-13)
    sp.set_defaults(func=_cmd_constants, formats=("json",))

    sp = add_parser("simplex-volume", draws=True, help="Monte Carlo simplex volume")
    sp.add_argument("--L", type=_int_arg, required=True)
    sp.add_argument("--xi", default="1", help='"1", "default", or comma list')
    sp.add_argument("--samples", type=_int_arg, default=10**6)
    sp.set_defaults(func=_cmd_simplex_volume, formats=("json",))

    sp = add_parser("normal-primes", draws=True, help="S-normality census over primes <= x")
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--S", type=float, required=True)
    sp.add_argument("--sample", type=_int_arg, default=100)
    sp.set_defaults(func=_cmd_normal_primes, formats=("csv",))

    sp = add_parser("smooth-count", help="exact Psi(x, y) with comparator")
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--y", type=_int_arg, required=True)
    sp.set_defaults(func=_cmd_smooth_count, formats=("json",))

    sp = add_parser("omega-census", help="tail census of Omega(n) >= alpha loglog x")
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.set_defaults(func=_cmd_omega_census, formats=("json",))

    sp = add_parser("classify", help="membership conditions for one n")
    sp.add_argument("--n", type=_int_arg, required=True)
    sp.add_argument("--f", choices=("phi", "sigma"), required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--epsilon", type=float, default=classifier.DEFAULT_EPSILON)
    sp.add_argument("--S-override", dest="S_override", type=float, default=None)
    sp.set_defaults(func=_cmd_classify, formats=("json",))

    sp = add_parser("capture-census", help="values with preimages outside A_f")
    sp.add_argument("--f", choices=("phi", "sigma"), required=True)
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--epsilon", type=float, default=classifier.DEFAULT_EPSILON)
    sp.set_defaults(func=_cmd_capture_census, formats=("json",))

    sp = add_parser("rl-sum", help="reciprocal sum over simplex-bound integers")
    sp.add_argument("--f", choices=("phi", "sigma"), required=True)
    sp.add_argument("--x", type=_int_arg, required=True)
    sp.add_argument("--L", type=_int_arg, required=True)
    sp.add_argument("--xi", default="1")
    sp.add_argument("--offset", choices=structure.OFFSETS, default="from_p0")
    sp.set_defaults(func=_cmd_rl_sum, formats=("json",))

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.threads < 1:
        print("usage error: --threads must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.format is None:
        args.format = args.formats[0]
    elif args.format not in args.formats:
        print(f"usage error: {args.command} has no --format {args.format} "
              f"(supported: {', '.join(args.formats)})", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is None:
        args.seed = DEFAULT_SEED
    elif not args.draws:
        print(f"usage error: {args.command} draws nothing and takes no --seed",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        memory_budget()  # a bad budget fails every subcommand, charged or not
        text = args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PhiSigmaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _emit(text, args.output)
    except OSError as exc:
        if args.output is None:
            raise
        print(f"usage error: cannot write --output {args.output}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
