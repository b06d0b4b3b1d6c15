"""Self-tests of the benchmark (not part of the polyvem test suite).

    python3 -m pytest perfbench -q

Each workload runs once at a smoke size, traced: the catalog on a few
cases, the beams with a time loop cut to 0.2 transits (their set-up still
runs in full, so this takes about a minute).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMOKE_CASES = [("kite", 1e-5, True), ("tri2d", 1e-2, True),
               ("spireA", 3e-4, False)]
SMOKE_TRANSITS = 0.2

# The metrics the benchmark is specified to report.
NAMED_END_TO_END = {"time_to_solution_s", "setup_s", "peak_rss_mb", "steps",
                    "step_us", "case_ms_p50", "case_ms_p90",
                    "failed_ops_frac"}
NAMED_PER_LAYER = {
    "benchmarks.gen_s", "benchmarks.gen_calls", "mesh.validate_s",
    "mesh.validate_calls", "mesh.validated_elements", "mesh.extrude_s",
    "mesh.split_s", "mesh.geometry_s", "mesh.geometry_calls",
    "mesh.convexity_s", "mesh.io_s", "mesh.io_bytes", "hni.integrator_s",
    "hni.integrators", "quality.classify_s", "quality.elements",
    "agglomerate.auto_s", "agglomerate.merge_s", "agglomerate.merged_groups",
    "vem.element_matrices_s", "vem.elements", "fem.element_matrices_s",
    "fem.elements", "eig.critical_dt_s", "eig.critical_dt_calls",
    "eig.jacobi_s", "eig.eigenproblems", "eig.eig_flops_computed",
    "eig.global_s", "eig.global_iters", "dynamics.assemble_s",
    "dynamics.assemble_calls", "dynamics.assembled_nnz", "dynamics.loop_s",
    "dynamics.steps", "dynamics.step_us", "dynamics.step_bytes_computed",
    "dynamics.pulse_duration_s", "trace.overhead_frac",
}


def smoke(workload, **kw):
    return workloads.run_workload(
        workload, seed=0, seconds=0.0, traced=True,
        beam_transits=SMOKE_TRANSITS,
        cases=SMOKE_CASES if workload == "catalog" else None, **kw)


@pytest.fixture(scope="module")
def smoke_runs():
    return {w: smoke(w) for w in workloads.WORKLOADS}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    reported = {name for name, _ in run.END_TO_END + run.REPORTED_ONLY}
    assert NAMED_END_TO_END <= reported
    assert NAMED_PER_LAYER <= {name for name, _ in run.PER_LAYER}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_metric(smoke_runs, workload):
    res = smoke_runs[workload]
    assert res["failed"] == 0, res["problems"]
    assert res["attempted"] >= 1
    assert res["missing"] == []
    e2e = run.end_to_end_metrics(res, imports=[0.5])
    layers = run.per_layer_metrics(res, res)
    for metrics, units in ((e2e, run.END_TO_END + run.REPORTED_ONLY),
                           (layers, run.PER_LAYER)):
        lines = run.report_lines(workload, {}, metrics, units, [res])
        for name, unit in units:
            assert isinstance(metrics[name], (int, float)), name
            assert f"{name} = {metrics[name]!r} {unit}" in lines
    # Layer self times plus the unwrapped remainder make up the traced time.
    assert sum(res["self_s"].values()) == pytest.approx(res["covered_s"])
    assert layers["trace.unwrapped_s"] >= 0.0
    if workload == "catalog":
        assert layers["mesh.io_bytes"] > 0
        assert layers["dynamics.steps"] == 0
    else:
        assert e2e["steps"] == layers["dynamics.steps"] > 0
        assert layers["dynamics.step_us"] > 0
        assert layers["mesh.io_bytes"] == 0
    if workload == "beam-vem":
        assert layers["vem.elements"] > 0 and layers["fem.elements"] == 0
    if workload == "beam-fem":
        assert layers["fem.elements"] > 0 and layers["vem.elements"] == 0
        assert layers["eig.global_iters"] > 0


def test_perturbed_reference_is_a_failed_operation():
    refs = workloads.load_references()
    key = workloads.case_key("kite", 1e-5)
    refs["catalog"]["cases"][key]["vem"] *= 1.0 + 1e-9
    bad_eps = [("kite", 2.0, False)]    # gen_benchmark raises on eps > 1
    res = workloads.run_workload("catalog", 0, 0.0, False,
                                 cases=SMOKE_CASES + bad_eps, refs=refs)
    # Two passes over the four cases.
    assert res["attempted"] == 8 and res["failed"] == 4
    assert any(p.startswith(key) and "vem omega" in p
               for p in res["problems"])
    assert any("raised" in p for p in res["problems"])

    ref = dict(refs["beams"]["beam-vem"])
    out = dict(ref, diverged=False, u_norm=ref["u_norm"].copy())
    assert workloads.check_beam(out, ref) == []
    out["u_norm"][100] += 1e-9
    out["dt"] *= 1.0 + 1e-9
    problems = workloads.check_beam(out, ref)
    assert len(problems) == 2

    ref = dict(refs["beams"]["beam-fem"])
    out = dict(ref, diverged=False, u_norm=ref["u_norm"].copy())
    out["omega_global"] *= 1.0 + 1e-9
    problems = workloads.check_beam(out, ref)
    assert len(problems) == 1 and problems[0].startswith("omega_global")


def test_missing_wrapped_function_is_reported_by_name():
    layers = tracing.LAYERS + (
        ("mesh", "no_such_function", "mesh.gone", None),
        ("hni", "NoSuchIntegrator.__init__", "hni.gone", None))
    res = workloads.run_workload("catalog", 0, 0.0, True,
                                 cases=SMOKE_CASES[:1], layers=layers)
    assert res["failed"] == 0
    assert res["missing"] == ["mesh.no_such_function",
                              "hni.NoSuchIntegrator.__init__"]
    metrics = run.per_layer_metrics(res, res)
    assert metrics["trace.missing_functions"] == 2
    lines = run.report_lines("catalog", {}, metrics, run.PER_LAYER, [res])
    assert "WARNING wrapped function not found: mesh.no_such_function" \
        in lines
    # The wrappers are gone again after the run.
    import polyvem
    assert not hasattr(polyvem.eig.critical_dt, "__wrapped__")


def test_quantile_is_a_weighted_mean_of_order_statistics():
    assert run.quantile([7.0], 0.9) == 7.0
    assert run.quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    # Two clusters with the 90th percentile at the upper one's low edge.
    # Moving one case down to the lower cluster drops a linear-interpolation
    # 90th percentile from 400 to 300; this estimate moves by a small part.
    lower = [200.0 + i for i in range(89)]
    upper = [400.0 + i for i in range(11)]
    edge = run.quantile(lower + upper, 0.9)
    moved = run.quantile(lower + [289.0] + upper[1:], 0.9)
    assert 289.0 < moved < edge < 400.0
    assert edge - moved < 0.2 * (400.0 - 289.0)


def test_fails_without_polyvem_sources():
    bare = workloads.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
