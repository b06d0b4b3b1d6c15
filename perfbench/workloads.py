"""The benchmark's workloads, run through polyvem's public library API.

Run as a script, this module is the workload process: it runs one workload
(untraced, or traced with tracing.Tracer), checks every output against the
references recorded in ``references/``, and prints one JSON line with the
raw measurements for ``run.py`` to turn into metrics.

    python3 perfbench/workloads.py --workload catalog --seed 1 \
        --seconds 10 --trace 0

Workloads:

* ``beam-vem``: exactly what ``polyvem simulate --case A --method vem``
  runs.  Dominated by set-up (mesh generation, the VEM element pipeline
  built three times, assembly); the 613-step loop is ~1% of it.
* ``beam-fem``: the case-A tetrahedral run on the global bound, with the
  pulse duration passed as the problem constant TAU_A.  The only long time
  loop (32082 steps) and the only global eigen-bound; no VEM code runs.
* ``catalog``: the paper's element studies, one case per (family, eps):
  hundreds of 1-6 element meshes, stressing per-call overhead, the
  single-element eigensolve, quality classification, agglomeration and
  JSON I/O, which the beams never touch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))

from polyvem import agglomerate, benchmarks, dynamics, eig, quality  # noqa: E402
from polyvem import mesh as meshmod  # noqa: E402

import tracing  # noqa: E402

WORKLOADS = ("beam-vem", "beam-fem", "catalog")

# 100 x the element-bound critical step of the case-A VEM beam
# (dynamics.beam_pulse_duration("A")), recorded as a problem constant so
# the FEM run does not rebuild the VEM mesh to learn its pulse duration.
TAU_A = 0.0004194336679103221

BEAMS = {
    "beam-vem": dict(case="A", method="vem", dt_factor=0.9,
                     dt_basis="element"),
    "beam-fem": dict(case="A", method="fem", dt_factor=0.9,
                     dt_basis="global", tau=TAU_A),
}

# The eps values of `polyvem tables` 1-5.
TABLE_EPS = {
    "tri2d": (1e-1, 1e-2, 1e-5, 1e-8),
    "prism3d": (1e-1, 1e-3, 1e-5),
    "wedge": (1e-1, 1e-3, 1e-5),
    "kite": (1e-1, 1e-5),
    "spireA": (1e-1, 1e-5),
    "spireB": (1e-1, 1e-5),
    "spireC": (1e-1, 1e-5),
}
# 18 table cases + 12 seeded cases per family = 102 cases per pass.  An
# untraced catalog run makes at least two passes, so the 90th percentile of
# case latency rests on 204 latencies with twenty beyond it.
EXTRAS_PER_FAMILY = 12
CATALOG_MIN_PASSES = 2
EXTRA_EPS_RANGE = (1e-8, 1e-1)

# Tolerances of the "same results" gate: omega and dt relative, probe
# history absolute on the normalized displacement (pulse peak = 1).
RTOL_OMEGA = 1e-12
ATOL_HISTORY = 1e-10


def case_key(family, eps):
    return f"{family} {eps!r}"


def catalog_cases(seed):
    """(family, eps, in_table) cases: the table grid plus seeded extras
    drawn log-uniform from EXTRA_EPS_RANGE, in a seeded order.

    The extras of a family are stratified, one draw in each of
    EXTRAS_PER_FAMILY equal slices of log10(eps), so that every seed
    covers the whole range and the work per pass varies little by seed.
    """
    rng = np.random.default_rng(seed)
    cases = [(family, eps, True)
             for family, values in TABLE_EPS.items() for eps in values]
    lo, hi = (math.log10(e) for e in EXTRA_EPS_RANGE)
    k = EXTRAS_PER_FAMILY
    for family in TABLE_EPS:
        u = lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k
        cases += [(family, float(10.0 ** x), False) for x in u]
    return [cases[i] for i in rng.permutation(len(cases))]


def load_references():
    beams = json.loads((REFERENCES / "beams.json").read_text())
    for name in beams:
        beams[name]["u_norm"] = np.load(REFERENCES / f"{name}-u_norm.npy")
    catalog = json.loads((REFERENCES / "catalog.json").read_text())
    return {"beams": beams, "catalog": catalog}


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# Beams


def beam_outputs(name, t_max_transits=3.0):
    """Run one beam workload; return the outputs the checker compares.

    The global omega is what eig.global_max_frequency returns inside the
    experiment, caught by a wrapper; None when the run does not call it.
    """
    global_omegas = []
    inner = eig.global_max_frequency    # the tracer's wrapper, if installed

    def keep_omega(*args, **kwargs):
        out = inner(*args, **kwargs)
        global_omegas.append(out[0])
        return out

    eig.global_max_frequency = keep_omega
    try:
        exp = dynamics.tapered_beam_experiment(
            t_max_transits=t_max_transits, **BEAMS[name])
    finally:
        eig.global_max_frequency = inner
    return {
        "omega_star": exp.omega_star,
        "dt": exp.dt,
        "steps": exp.result.steps,
        "omega_global": global_omegas[-1] if global_omegas else None,
        "diverged": exp.result.diverged,
        "u_norm": exp.u_norm,
    }


def check_beam(out, ref, full=True):
    """Problems found comparing beam outputs with the reference.

    With full=False the run was cut short, so only the history prefix and
    the scalars that do not depend on the run length are compared.
    """
    problems = []
    for key in ("omega_star", "dt", "omega_global"):
        if ref[key] is None:
            continue
        if not _rel(out[key], ref[key]) <= RTOL_OMEGA:
            problems.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
    if out["diverged"]:
        problems.append("run diverged")
    u, u_ref = np.asarray(out["u_norm"]), ref["u_norm"]
    if full and out["steps"] != ref["steps"]:
        problems.append(f"steps {out['steps']} != reference {ref['steps']}")
    elif len(u) > len(u_ref):
        problems.append(f"history longer than reference ({len(u)})")
    else:
        err = float(np.max(np.abs(u - u_ref[:len(u)])))
        if not err <= ATOL_HISTORY:
            problems.append(f"probe history differs by {err:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Catalog


def case_outputs(family, eps, workdir):
    """One catalog case: both variants through generation, a JSON round
    trip and critical_dt, then quality, auto-agglomeration and critical_dt
    of the merged mesh for the fem variant."""
    out = {}
    meshes = {}
    for variant in ("fem", "vem"):
        mesh = benchmarks.gen_benchmark(family, eps, variant)
        path = os.path.join(workdir, f"{variant}.json")
        meshmod.save_mesh(mesh, path)
        mesh = meshmod.load_mesh(path)
        meshes[variant] = mesh
        out[variant] = eig.critical_dt(mesh, variant, alpha0="unit").omega_star
    fem_mesh = meshes["fem"]
    out["reports"] = len(quality.mesh_report(fem_mesh))
    merged, mapping, _ = agglomerate.auto_agglomerate(fem_mesh)
    out["agglomerated"] = eig.critical_dt(merged, "vem",
                                          alpha0="unit").omega_star
    out["num_elements"] = fem_mesh.num_elements
    out["mapping"] = mapping
    return out


def check_case(family, eps, out, refs):
    """Invariants for every case; reference omegas for table cases.

    No "VEM <= FEM" check is made: auto-agglomerated spireA/spireB meshes
    at eps = 1e-5 give a larger omega than their FEM mesh (see README).
    """
    problems = []
    for key in ("fem", "vem", "agglomerated"):
        if not (math.isfinite(out[key]) and out[key] > 0.0):
            problems.append(f"{key} omega {out[key]!r} not finite positive")
    n = out["num_elements"]
    if out["reports"] != n:
        problems.append(f"{out['reports']} quality reports for {n} elements")
    covered = sorted(i for members in out["mapping"].values()
                     for i in members)
    if covered != list(range(n)):
        problems.append("agglomeration mapping does not cover every "
                        "element exactly once")
    ref = refs.get(case_key(family, eps))
    if ref is not None:
        for key, value in ref.items():
            if not _rel(out[key], value) <= RTOL_OMEGA:
                problems.append(f"{key} omega {out[key]!r} != reference "
                                f"{value!r}")
    return problems


# ---------------------------------------------------------------------------
# Passes


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems))


def _guarded(label, tally, fn):
    """Run one operation; an exception counts as a failed operation."""
    try:
        problems = fn()
    except Exception as exc:  # a failing operation must not end the run
        problems = [f"raised {exc!r}"]
        traceback.print_exc(file=sys.stderr)
    tally.record(label, problems)


def beam_pass(name, refs, tally, t_max_transits=3.0):
    ref = refs["beams"][name]
    full = t_max_transits == 3.0
    _guarded(name, tally, lambda: check_beam(
        beam_outputs(name, t_max_transits), ref, full))


def catalog_pass(cases, refs, tally, workdir):
    """Run every case; return the per-case latencies in ms."""
    latencies = []
    for family, eps, _ in cases:
        start = time.perf_counter()
        _guarded(case_key(family, eps), tally, lambda: check_case(
            family, eps, case_outputs(family, eps, workdir),
            refs["catalog"]["cases"]))
        latencies.append(1e3 * (time.perf_counter() - start))
    return latencies


def run_workload(workload, seed, seconds, traced, beam_transits=3.0,
                 cases=None, refs=None, layers=tracing.LAYERS):
    """Run passes of a workload until `seconds` have been measured and
    return the raw measurements as a dict.  A traced run makes one pass;
    an untraced one makes at least one, or CATALOG_MIN_PASSES on the
    catalog."""
    start = time.perf_counter()
    refs = load_references() if refs is None else refs
    if workload == "catalog" and cases is None:
        cases = catalog_cases(seed)
    # Untraced runs time only the time-loop call, for step_us.
    tracer = tracing.Tracer(
        f"{workload}:seed={seed}:trace={int(traced)}",
        layers if traced else [l for l in tracing.LAYERS
                               if l[1] == "central_difference_run"])
    tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cases-", dir=OUT_DIR)
    tally = Tally()
    pass_s, case_ms = [], []
    min_passes = 1 if traced or workload != "catalog" else CATALOG_MIN_PASSES
    prework_s = time.perf_counter() - start
    try:
        while len(pass_s) < min_passes or (not traced
                                            and sum(pass_s) < seconds):
            t0 = time.perf_counter()
            if workload == "catalog":
                case_ms += catalog_pass(cases, refs, tally, workdir)
            else:
                beam_pass(workload, refs, tally, beam_transits)
            pass_s.append(time.perf_counter() - t0)
            if workload != "catalog":
                case_ms.append(1e3 * pass_s[-1])
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "prework_s": prework_s,
        "pass_s": pass_s,
        "case_ms": case_ms,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "loop_s": tracer.total("dynamics.loop"),
        "steps_total": tracer.counts["dynamics.steps"],
        "steps": tracer.counts["dynamics.steps"] // len(pass_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        self_s, roots = tracer.self_times()
        result.update(self_s=self_s, covered_s=roots,
                      counts=dict(tracer.counts),
                      missing=tracer.missing, spans=len(tracer.spans))
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json.gz"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
