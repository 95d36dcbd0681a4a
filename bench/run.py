"""Condenser benchmark: solve-and-verify workloads, end-to-end and per-layer
metrics, and a correctness gate against committed references.

    python3 bench/run.py --workload ex1-h0.18 --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Each sample runs in a fresh process (bench/sample.py) with the BLAS thread
count pinned.  The loop is closed: one sample at a time, the next starting
when the previous one has ended, until --seconds have passed (at least
MIN_SAMPLES).  Every sample of a run repeats the same work: the seed draws
the zone-check probes (the default, 3, is the draw `condenser example` makes)
and the solves start from their unseeded default.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
pairs of samples on the same seed, one untraced and one traced
(bench/tracer.py), and prints the per-layer metrics, the self time of every
traced function and the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  A copy of the
run, with the environment block, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import SETUP_PARTS, STAGES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

BLAS_THREADS = 1          # OpenBLAS/OMP/MKL threads of every sample process
SAMPLE_TIMEOUT_S = 150    # a sample still running after this fails the run
MIN_SAMPLES = {0: 3, 1: 1}  # least samples (timed) or pairs (traced) per run


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            / float(1 << 30),
            "commit": commit(),
            "loop": "closed, one sample at a time, fresh process per sample"}


def run_sample(workload: str, seed: int, trace: int, toy: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "sample.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"sample process exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: int) -> list:
    """Samples of one run; with trace, (untraced, traced) pairs."""
    samples = []
    start = time.monotonic()
    i = 0
    while i < MIN_SAMPLES[trace] or time.monotonic() - start < seconds:
        samples.append(run_sample(workload, seed, 0, False))
        if trace:
            samples.append(run_sample(workload, seed, 1, False))
        i += 1
    return samples


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(samples: list, checks: dict) -> tuple:
    """Run-level end-to-end metrics and the per-sample values behind them."""
    ok = [s for s in samples if "metrics" in s]
    series = {
        "setup_s": [s["metrics"]["setup_s"] for s in ok],
        "solve_s": [s["metrics"]["solve_s"] for s in ok],
        "verify_s": [s["metrics"]["verify_s"] for s in ok],
        "total_s": [s["metrics"]["total_s"] for s in ok],
        "peak_rss_mb": [s["metrics"]["peak_rss_mb"] for s in ok],
    }
    values = {name: statistics.median(v) for name, v in series.items()}
    values["check_pass_frac"] = 1.0 - checks["failed"] / checks["evaluated"]
    return values, series


def gate(samples: list, known: list) -> dict:
    """Correctness gate: every check counts; a check outside the workload's
    known failures that fails is a regression and fails its sample."""
    evaluated = failed = 0
    regressions, fixed = {}, set()
    bad_samples = 0
    for s in samples:
        bad = "error" in s
        for name, ok in s["checks"].items():
            evaluated += 1
            if not ok:
                failed += 1
                if name not in known:
                    regressions[name] = regressions.get(name, 0) + 1
                    bad = True
            elif name in known:
                fixed.add(name)
        bad_samples += bad
    return {"evaluated": evaluated, "failed": failed,
            "regressions": regressions, "known_now_passing": sorted(fixed),
            "bad_samples": bad_samples}


def layer_values(samples: list) -> dict:
    """Medians over traced samples, plus the paired tracing overhead."""
    traced = [s for s in samples if s["trace"] and "layers" in s]
    out = {k: statistics.median(s["layers"][k] for s in traced)
           for k in traced[0]["layers"]}
    pairs = [(a, b) for a, b in zip(samples[::2], samples[1::2])
             if "metrics" in a and "metrics" in b]
    out["trace.overhead_s"] = statistics.median(
        b["metrics"]["total_s"] - a["metrics"]["total_s"] for a, b in pairs)
    return out


def print_spans(samples: list):
    traced = [s for s in samples if s["trace"] and "spans" in s]
    last = traced[-1]
    rows = sorted(last["spans"].items(), key=lambda kv: -kv[1][2])
    print("spans of the last traced sample, by self time:")
    print(f"  {'span':44s} {'calls':>7s} {'incl_s':>9s} {'self_s':>9s}")
    for name, (calls, incl, own) in rows:
        print(f"  {name:44s} {calls:7d} {incl:9.4f} {own:9.4f}")
    layers = last["layers"]
    stage = max(STAGES, key=lambda k: layers[k])
    setup = max(SETUP_PARTS, key=lambda k: layers[k])
    print(f"largest self time: {rows[0][0]}; largest stage: {stage}; "
          f"largest part of set-up: {setup}")


def run(args, bench: dict, spec: dict) -> int:
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    wl = spec["workloads"][args.workload]
    samples = collect(args.workload, args.seed, args.seconds, args.trace)
    checks = gate(samples, wl["known_failures"])
    timed = [s for s in samples if not s["trace"]]
    if not any("metrics" in s for s in timed):
        print("no sample completed; errors:", file=sys.stderr)
        for s in samples:
            print("  " + s.get("error", "?"), file=sys.stderr)
        return 1
    env = dict(timed[0]["env"], **host_environment())
    print(f"workload {args.workload}: {wl['description']}")
    print(f"seed {args.seed}: {len(timed)} timed samples"
          + (f", {len(samples) - len(timed)} traced" if args.trace else ""))
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    values, series = end_to_end(timed, checks)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, vals in series.items():
        tail = tail_percentile(vals)
        tail_txt = f"p{tail[0]} {tail[1]:.4f}" if tail else \
            f"max {max(vals):.4f} (a tail percentile needs >= 11 samples)"
        print(f"{name:16s} median {values[name]:.4f} {units[name]}  "
              f"n={len(vals)}  {tail_txt}")
    print(f"checks: {checks['evaluated']} evaluated, {checks['failed']} failed"
          f" (check_fail_frac {checks['failed'] / checks['evaluated']:.4f});"
          f" known failures {wl['known_failures'] or 'none'}")
    probes = [s["zone_probes_used"] for s in samples if "zone_probes_used" in s]
    print(f"zone probes used per sample: {probes}")
    if wl["known_notes"]:
        print(f"known: {wl['known_notes']}")
    for name, count in checks["regressions"].items():
        print(f"REGRESSION: {name} failed in {count} sample(s)")
    for name in checks["known_now_passing"]:
        print(f"known failure now passes: {name}")
    if args.trace:
        metrics = layer_values(samples)
        print_spans(samples)
        print("per-layer metrics (medians over traced samples) -> the "
              "end-to-end metric each should move [where it is heavy]:")
        for m in bench["per_layer"]:
            where = spec["layer_map"][m["name"]]
            print(f"  {m['name']:32s} {metrics[m['name']]:<12.6g} "
                  f"{m['unit']:6s} -> {where['moves']} [{where['heavy_on']}]")
        wanted = bench["per_layer"]
    else:
        metrics = values
        wanted = bench["end_to_end"]
    result = {"correct": checks["bad_samples"] == 0,
              "attempted": len(samples), "failed": checks["bad_samples"],
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "checks": checks, "result": result,
                   "samples": samples}, fh, indent=1)
    print(f"result file {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


def selftest(bench: dict, spec: dict) -> int:
    """Every workload at toy size, timed and traced: every named metric must
    come out finite.  Runs in seconds."""
    problems = []
    for wl in bench["workloads"]:
        name = wl["name"]
        samples = [run_sample(name, spec["default_seed"], t, True)
                   for t in (0, 1)]
        checks = gate(samples, spec["workloads"][name]["known_failures"])
        values, _ = end_to_end(samples[:1], checks)
        layers = layer_values(samples)
        for group, got in (("end_to_end", values), ("per_layer", layers)):
            for m in bench[group]:
                v = got.get(m["name"])
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{name}: {m['name']} = {v!r}")
        print(f"{name}: {len(values)} end-to-end and {len(layers)} per-layer "
              f"metrics, {checks['evaluated']} checks "
              f"({checks['failed']} failed at toy size)")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "condenser")):
        print(f"package source not found at {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(bench, spec)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args, bench, spec)


if __name__ == "__main__":
    sys.exit(main())
