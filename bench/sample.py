"""One benchmark sample: build a workload's scenario, run the solve-and-verify
pipeline of `condenser example`, check the outputs and print one JSON line.

run.py starts this file in a fresh process per sample, with the package
source on PYTHONPATH and the BLAS thread count pinned in the environment:

    python3 bench/sample.py --workload ex1-h0.18 --seed 3 --trace 0

The pipeline is the call sequence of `cli._pipeline`, composed from public
functions: scenario builder, `solve_riesz`, `solve_green_reduced`,
`lift_green_to_riesz`, then `kkt_report`, `scalar_zone_checks`,
`support_report` and `equivalence_check`.  Functions are looked up on their
modules at call time, so the traced run's wrappers see every call and the
timed run has none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))}


def run_pipeline(builder: str, kwargs: dict, seed: int, tracer=None) -> dict:
    """Build the scenario with `scenarios.<builder>`, then solve and verify
    it; with a tracer, every call into a layer is a span.

    `seed` draws the zone-check probes.  The projected-gradient solves start
    from their unseeded default, as `condenser example` does without --seed:
    a random start changes the solve's work several-fold from seed to seed.
    """
    from condenser import gauss_solver, scenarios, verify

    if tracer is not None:
        tracer.install()
    t_build = time.perf_counter()
    built = getattr(scenarios, builder)(**kwargs)
    t_solve = time.perf_counter()
    spec, green = built.spec, built.green
    riesz = gauss_solver.solve_riesz(spec)
    t_solved = time.perf_counter()
    out = {"setup_s": t_solve - t_build, "solve_s": t_solved - t_solve,
           "riesz": riesz}
    if not riesz.converged:
        return out  # `condenser example` stops here with exit code 4
    gres = gauss_solver.solve_green_reduced(spec, green)
    lift = gauss_solver.lift_green_to_riesz(gres, spec, green)
    kkt = verify.kkt_report(riesz, spec)
    zone = verify.scalar_zone_checks(riesz, spec, green, seed=seed)
    support = verify.support_report(riesz, spec)
    verify.equivalence_check(riesz, lift, spec, green_result=gres)
    t_end = time.perf_counter()
    out.update(verify_s=t_end - t_solve, total_s=t_end - t_build,
               green=gres, lift=lift, kkt=kkt, zone=zone, support=support)
    return out


ZONE_CHECKS = ("identity", "level", "bound", "support")


def check_names(with_reference: bool) -> list:
    """Names of every check a sample evaluates, in order; the energy checks
    need a reference, which toy sizes do not have."""
    names = ["riesz.converged", "green.converged"]
    if with_reference:
        names += ["riesz.energy", "green.energy", "lifted.energy"]
    names += ["kkt.stationarity", "kkt.plate_p_level"]
    names += [f"zone.{name}" for name in ZONE_CHECKS]
    return names + ["support.pass"]


def evaluate_checks(out: dict, reference) -> dict:
    """Every check of a completed run, by name, within the potential
    tolerance of the default tolerance block."""
    from condenser.tolerances import DEFAULT_TOLERANCES

    if set(out["zone"].checks) != set(ZONE_CHECKS):
        raise RuntimeError(f"zone checks are now {sorted(out['zone'].checks)},"
                           f" the benchmark expects {list(ZONE_CHECKS)}")
    rel = DEFAULT_TOLERANCES.potential
    got = {"riesz.converged": bool(out["riesz"].converged),
           "green.converged": bool(out["green"].converged)}
    if reference is not None:
        for key, result in (("riesz", out["riesz"]), ("green", out["green"]),
                            ("lifted", out["lift"])):
            ref = reference[f"{key}.energy"]
            got[f"{key}.energy"] = bool(
                abs(result.energy - ref) <= rel * max(1.0, abs(ref)))
    got["kkt.stationarity"] = bool(out["kkt"].kkt_pass)
    got["kkt.plate_p_level"] = bool(out["kkt"].plate_p_pass)
    for name in ZONE_CHECKS:
        got[f"zone.{name}"] = bool(out["zone"].checks[name])
    got["support.pass"] = bool(out["support"].passed)
    return got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="use the workload's toy sizes (self-test)")
    args = parser.parse_args(argv)

    spec = load_spec()
    wl = spec["workloads"][args.workload]
    from condenser.errors import CondenserError

    kwargs = wl["toy_kwargs"] if args.toy else wl["kwargs"]
    reference = None if args.toy else wl["reference"]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "toy": args.toy, "env": environment()}
    try:
        out = run_pipeline(wl["builder"], kwargs, args.seed, tracer)
    except CondenserError as exc:
        out = None
        record["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    if out is None or "total_s" not in out:
        # an error exit or a non-converged solve fails every check
        record.setdefault("error", "full Riesz solve did not converge")
        record["checks"] = dict.fromkeys(check_names(reference is not None),
                                         False)
    else:
        record["checks"] = evaluate_checks(out, reference)
        record["zone_probes_used"] = out["zone"].probes_used
        record["energies"] = {"riesz": out["riesz"].energy,
                              "green": out["green"].energy,
                              "lifted": out["lift"].energy}
        record["metrics"] = {
            "setup_s": out["setup_s"],
            "solve_s": out["solve_s"], "verify_s": out["verify_s"],
            "total_s": out["total_s"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            from tracer import layer_metrics
            record["layers"] = layer_metrics(tracer)
            record["spans"] = {name: list(v) for name, v in
                               tracer.self_times().items()}
    print(json.dumps(record, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
