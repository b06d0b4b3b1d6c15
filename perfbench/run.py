"""polyvem benchmark: one command for the end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload beam-vem --seed 1 --seconds 10 --trace 0

Run from the root of a polyvem checkout.  Each workload runs in its own
fresh process (``workloads.py``) with BLAS/OpenMP pinned to one thread.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the run environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "polyvem"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("beam-vem", "beam-fem", "catalog")
THREADS = 1          # at or below nproc on any machine
IMPORT_SAMPLES = 5   # fresh-process imports timed for setup_s
# Time allowed for one workload process beyond --seconds.  At --seconds 10
# a process runs 16-40 s on a 2-core Xeon (one beam pass, or the catalog's
# two passes), and up to twice that in a slow spell of a shared CPU.  A
# traced run starts two processes; the import probes get IMPORT_SLACK_S.
PASS_ALLOWANCE_S = 75.0
IMPORT_SLACK_S = 10.0
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import polyvem; "
                "print(time.perf_counter() - t)")

# Metrics gated by BENCHMARK.json, reported for every workload.
END_TO_END = (
    ("time_to_solution_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("case_ms_p50", "ms"),
    ("case_ms_p90", "ms"),
)
# Printed but not gated: not defined on every workload (steps, step_us),
# or zero on a correct run (failed_ops_frac, also the JSON's `failed`).
REPORTED_ONLY = (
    ("steps", "count"),
    ("step_us", "us"),
    ("failed_ops_frac", "fraction"),
)
SELF_TIMES = (
    "benchmarks.gen", "mesh.validate", "mesh.extrude", "mesh.split",
    "mesh.geometry", "mesh.convexity", "mesh.io", "hni.integrator",
    "quality.classify", "agglomerate.auto", "agglomerate.merge",
    "vem.element_matrices", "fem.element_matrices", "eig.critical_dt",
    "eig.element_system", "eig.jacobi", "eig.global", "dynamics.assemble",
    "dynamics.loop", "dynamics.pulse_duration", "dynamics.experiment",
)
COUNTS = (
    ("benchmarks.gen_calls", "count"),
    ("mesh.validate_calls", "count"),
    ("mesh.validated_elements", "count"),
    ("mesh.geometry_calls", "count"),
    ("mesh.io_bytes", "B"),
    ("hni.integrators", "count"),
    ("quality.elements", "count"),
    ("agglomerate.merged_groups", "count"),
    ("vem.elements", "count"),
    ("fem.elements", "count"),
    ("eig.critical_dt_calls", "count"),
    ("eig.eigenproblems", "count"),
    ("eig.eig_flops_computed", "flop"),
    ("eig.global_iters", "count"),
    ("dynamics.assemble_calls", "count"),
    ("dynamics.assembled_nnz", "count"),
    ("dynamics.steps", "count"),
)
PER_LAYER = (tuple((f"{name}_s", "s") for name in SELF_TIMES) + COUNTS + (
    ("dynamics.step_us", "us"),
    ("dynamics.step_bytes_computed", "B"),
    ("trace.time_to_solution_s", "s"),
    ("trace.unwrapped_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.missing_functions", "count"),
))


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def deadline_seconds(seconds, trace):
    """Time the whole invocation may take before its children are killed:
    --seconds of passes, plus one allowance per workload process.  At
    --seconds 10 this is 95 s untraced and 170 s traced."""
    return seconds + PASS_ALLOWANCE_S * (1 + trace) + IMPORT_SLACK_S


def _run(cmd, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[1:])}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd[1:])}")
    return proc.stdout.strip().splitlines()[-1]


def import_seconds(samples, deadline):
    """Wall time of `import polyvem` in fresh processes."""
    return [float(_run([sys.executable, "-c", IMPORT_PROBE], deadline))
            for _ in range(samples)]


def run_child(workload, seed, seconds, traced, deadline):
    line = _run([sys.executable, str(HERE / "workloads.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(int(traced))],
                deadline)
    try:
        return json.loads(line)
    except ValueError as exc:
        raise BenchError(f"unreadable result from {workload}: {exc}") from exc


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile (0 < q < 1) of a non-empty
    list: a mean of all order statistics, weighted by the Beta((n + 1) q,
    (n + 1)(1 - q)) mass over each one's slice of [0, 1].

    A catalog's 90th percentile falls at the low edge of the slowest
    family's cluster of latencies.  A single order statistic there jumps
    between that cluster and the next one down, depending on the seeded
    eps draws and on the CPU's speed; the weighted mean moves smoothly.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    cdf = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ xs)


def end_to_end_metrics(res, imports):
    """All end-to-end values by name, gated and reported-only."""
    steps = res["steps_total"]
    return {
        "time_to_solution_s": statistics.median(res["pass_s"]),
        "setup_s": statistics.median(imports) + res["prework_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "case_ms_p50": quantile(res["case_ms"], 0.5),
        "case_ms_p90": quantile(res["case_ms"], 0.9),
        "steps": res["steps"],
        "step_us": 1e6 * res["loop_s"] / steps if steps else 0.0,
        "failed_ops_frac": res["failed"] / res["attempted"],
    }


def per_layer_metrics(traced, untraced):
    """All per-layer values by name from a traced and an untraced run."""
    out = {f"{name}_s": traced["self_s"].get(name, 0.0)
           for name in SELF_TIMES}
    counts = traced["counts"]
    out.update({name: counts.get(name, 0) for name, _ in COUNTS})
    steps = counts.get("dynamics.steps", 0)
    ttsol = traced["pass_s"][0]
    out.update({
        "dynamics.step_us": 1e6 * traced["loop_s"] / steps if steps else 0.0,
        "dynamics.step_bytes_computed": (
            counts.get("dynamics.step_bytes_total", 0) / steps
            if steps else 0.0),
        "trace.time_to_solution_s": ttsol,
        "trace.unwrapped_s": ttsol - traced["covered_s"],
        "trace.overhead_frac": (
            ttsol / statistics.median(untraced["pass_s"]) - 1.0),
        "trace.missing_functions": len(traced["missing"]),
    })
    return out


def environment(seed, child):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "scipy": child.get("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": THREADS,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.glob("*.py"))),
    }


def report_lines(workload, env, metrics, units, results):
    lines = [f"# polyvem benchmark: workload {workload}",
             "# env " + json.dumps(env, sort_keys=True)]
    for name, unit in units:
        lines.append(f"{name} = {metrics[name]!r} {unit}")
    for res in results:
        for problem in res["problems"]:
            lines.append(f"FAILED {problem}")
        for name in res.get("missing", ()):
            lines.append(f"WARNING wrapped function not found: {name}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"run.py: no polyvem sources at {SRC}; run from the root of "
              "a polyvem checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + deadline_seconds(args.seconds, args.trace)
    try:
        if args.trace:
            untraced = run_child(args.workload, args.seed, args.seconds,
                                 False, deadline)
            traced = run_child(args.workload, args.seed, args.seconds,
                               True, deadline)
            results = [untraced, traced]
            metrics = per_layer_metrics(traced, untraced)
            units = PER_LAYER
        else:
            # Import samples on both sides of the workload, so that one
            # slow or fast spell of a shared CPU does not set the median.
            imports = import_seconds((IMPORT_SAMPLES + 1) // 2, deadline)
            res = run_child(args.workload, args.seed, args.seconds, False,
                            deadline)
            imports += import_seconds(IMPORT_SAMPLES // 2, deadline)
            results = [res]
            metrics = end_to_end_metrics(res, imports)
            units = END_TO_END + REPORTED_ONLY
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed, results[-1])
    lines = report_lines(args.workload, env, metrics, units, results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    listed = PER_LAYER if args.trace else END_TO_END   # BENCHMARK.json's
    summary = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in listed},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"run-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    record.write_text(json.dumps(
        {"env": env, "summary": summary, "raw": results}, indent=1))
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
