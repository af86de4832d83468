"""One workload run in a fresh interpreter.

Reads ``{"root": ..., "steps": [[name, argv], ...], "trace": bool}`` as
JSON on stdin, imports ``phisigma.cli`` from ``<root>/src``, calls
``cli.main(argv)`` for each step with stdout captured, and writes one JSON
object to stdout: per-step exit code, output and seconds, the wall time of
all steps after the import, and the process's peak RSS.  With tracing on,
the public functions of every layer are wrapped first (see tracer.py) and
the tracer's aggregates, counters and spans are added.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import resource
import sys
import time
import traceback

from tracer import Tracer  # bench/ is on sys.path as the script's directory


def _arguments(fn):
    """(args, kwargs) -> every parameter of fn by name, defaults included."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return get


def install_tracing(tracer: Tracer) -> None:
    from phisigma import anatomy, classifier, constants, sieve, structure, value_sets

    ctx = tracer.context
    scan_args = _arguments(sieve.segment_scan)
    sieve_args = _arguments(sieve.build_factor_sieve)
    bitmap_args = _arguments(value_sets.build_value_bitmap)
    rl_args = _arguments(structure.r_l_sum)
    mc_args = _arguments(structure.simplex_volume_mc)

    def scan_mode(args, kwargs) -> str:
        a = scan_args(args, kwargs)
        if a["smooth_bound"] is not None:
            return "smooth"
        if a["want_omega"]:
            return "omega"
        if a["want_phi"]:
            return "both" if a["want_sigma"] else "phi"
        if a["want_sigma"]:
            return "sigma"
        raise ValueError(f"segment_scan mode not traced: {a}")

    def scan_post(result, args, kwargs):
        mode = scan_mode(args, kwargs)
        a = scan_args(args, kwargs)
        tracer.count(f"sieve.segment_scan.{mode}.ints", a["hi"] - a["lo"])
        x = ctx.get("bitmap_x")
        if mode in ("phi", "both") and x is not None:
            tracer.count("value_sets.phi_scanned", a["hi"] - a["lo"])
            tracer.count("value_sets.phi_useful", int((result["phi"] <= x).sum()))

    def sieve_post(result, args, kwargs):
        a = sieve_args(args, kwargs)
        tracer.count("sieve.build_factor_sieve.ints", a["hi"] - a["lo"])

    def bitmap_pre(args, kwargs):
        ctx["bitmap_x"] = bitmap_args(args, kwargs)["x"]

    def bitmap_post(result, args, kwargs):
        ctx.pop("bitmap_x", None)

    def mc_name(args, kwargs):
        return f"structure.simplex_volume_mc.L{mc_args(args, kwargs)['spec'].L}"

    def mc_post(result, args, kwargs):
        tracer.count(f"{mc_name(args, kwargs)}.samples", mc_args(args, kwargs)["samples"])

    tracer.install(sieve, "segment_scan", span=True, post=scan_post,
                   name=lambda a, k: f"sieve.segment_scan.{scan_mode(a, k)}")
    tracer.install(sieve, "build_factor_sieve", post=sieve_post)
    tracer.install(sieve, "factorize")
    tracer.install(value_sets, "build_value_bitmap", pre=bitmap_pre, post=bitmap_post)
    tracer.install(value_sets, "count_values", name="value_sets.count")
    tracer.install(value_sets, "intersect_count", name="value_sets.count")
    tracer.install(classifier, "classify", hist=True)
    tracer.install(classifier, "capture_census",
                   post=lambda r, a, k: tracer.count("classifier.values_attained", r.total_values))
    tracer.install(anatomy, "is_s_normal")
    tracer.install(anatomy, "psi_smooth_count")
    tracer.install(anatomy, "omega_tail_census")
    tracer.install(structure, "r_l_sum",
                   post=lambda r, a, k: tracer.count("structure.r_l_sum.ints", rl_args(a, k)["x"]))
    tracer.install(structure, "simplex_volume_mc", name=mc_name, post=mc_post)
    tracer.install(constants, "structure_constants")


def run(root: str, steps: list, trace: bool) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    from phisigma import classifier, cli, errors

    import_s = time.perf_counter() - t0
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracing(tracer)

    results = []
    wall_s = 0.0
    for name, argv in steps:
        main = cli.main if tracer is None else tracer.timed(cli.main, f"cli.{name}", span=True)
        buf = io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(list(argv))
        except Exception:  # a crashing step is a failed step; the run goes on
            rc, error = None, traceback.format_exc(limit=-3)
        dt = time.perf_counter() - t
        wall_s += dt
        results.append({"name": name, "rc": rc, "stdout": buf.getvalue(),
                        "seconds": dt, "error": error})

    out = {
        "module": cli.__file__,
        "import_s": import_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "memory_budget": errors.memory_budget(),
        "steps": results,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
        cached = getattr(classifier, "_normality_cached", None)  # private; may go away
        info = cached.cache_info() if cached is not None else None
        out["trace"]["normality_cache"] = {"hits": info.hits if info else 0,
                                           "misses": info.misses if info else 0}
    return out


def main() -> None:
    job = json.load(sys.stdin)
    out = run(job["root"], job["steps"], job["trace"])
    sys.stdout.write(json.dumps(out))


if __name__ == "__main__":
    main()
