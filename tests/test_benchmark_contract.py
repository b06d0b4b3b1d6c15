"""The library surface the benchmark in ``perfbench/`` depends on.

``perfbench/workloads.py`` runs the beams through ``tapered_beam_experiment``
with keyword arguments and reads a few fields of its result, and runs each
catalog case through generation, a JSON round trip, ``critical_dt``,
``mesh_report`` and ``auto_agglomerate``; ``perfbench/tracing.py`` replaces
the module attributes listed in its ``LAYERS`` with wrappers and reads some
of their arguments and return values.  These tests pin that surface on
short case-A runs, by wrapping the same module attributes, and on one
catalog case, so that a change which would break the benchmark fails here
first.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from polyvem import agglomerate, benchmarks, dynamics, eig, quality
from polyvem import mesh as meshmod

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def calls(monkeypatch):
    """{name: [(args, kwargs, out), ...]} of the module attributes the
    benchmark wraps, recorded through those attributes."""
    record = {}
    for module, name in ((dynamics, "central_difference_run"),
                         (dynamics, "run_beam"),
                         (dynamics, "beam_pulse_duration"),
                         (eig, "global_max_frequency"),
                         (agglomerate, "merge"),
                         (agglomerate, "merge_groups")):
        inner = getattr(module, name)

        def wrapper(*args, _inner=inner, _name=name, **kwargs):
            out = _inner(*args, **kwargs)
            record.setdefault(_name, []).append((args, kwargs, out))
            return out

        monkeypatch.setattr(module, name, wrapper)
    return record


def _check_run(exp, calls):
    # The result fields the workload checker reads.
    assert np.isfinite(exp.omega_star) and exp.omega_star > 0.0
    assert np.isfinite(exp.dt) and exp.dt > 0.0
    assert not exp.result.diverged
    assert exp.result.steps > 0
    assert len(exp.u_norm) == exp.result.steps + 1
    # One time loop, with the assembled K first: the tracer counts the
    # bytes of K's CSR arrays per step and the steps of the result.
    [(args, _, out)] = calls["central_difference_run"]
    K = args[0]
    assert K.shape == (len(K.indptr) - 1,) * 2
    assert all(a.nbytes > 0 for a in (K.data, K.indices, K.indptr))
    assert K.data.dtype == np.float64 and K.indices.dtype.kind == "i"
    assert K.indices.dtype == K.indptr.dtype
    assert len(K.data) == len(K.indices) == K.indptr[-1] == K.nnz
    assert out.steps == exp.result.steps
    assert len(calls["run_beam"]) == 1


def test_element_route_surface(calls):
    # The beam-vem workload's call.
    exp = dynamics.tapered_beam_experiment(
        case="A", method="vem", dt_factor=0.9, dt_basis="element",
        t_max_transits=0.01)
    _check_run(exp, calls)
    assert exp.dt == 0.9 * (2.0 / exp.omega_star)


def test_global_route_surface(calls):
    # The beam-fem workload's call: the pulse duration passed as tau, the
    # step from the global bound, whose (omega, converged, iterations) the
    # workload and the tracer read.
    tau = dynamics.beam_pulse_duration("A")
    calls.clear()
    exp = dynamics.tapered_beam_experiment(
        case="A", method="fem", dt_factor=0.9, dt_basis="global", tau=tau,
        t_max_transits=0.01)
    _check_run(exp, calls)
    assert "beam_pulse_duration" not in calls
    (_, _, out), = calls["global_max_frequency"]
    omega, converged, iterations = out
    assert converged and iterations == int(iterations) > 0
    assert exp.dt == 0.9 * (2.0 / omega)


def test_pulse_duration_is_looked_up_when_tau_is_not_given(calls):
    exp = dynamics.tapered_beam_experiment(
        case="A", method="fem", dt_basis="global", t_max_transits=0.01)
    _check_run(exp, calls)
    assert len(calls["beam_pulse_duration"]) == 1


def test_assembled_nnz():
    # The tracer adds int(dynamics.assemble(...)[0].nnz) per call: the
    # stored entries of K, here the case-A tet beam's, exact zeros dropped.
    K, _ = dynamics.assemble(benchmarks.gen_benchmark("beamA", variant="fem"),
                             "fem")
    assert int(K.nnz) == len(K.data) == K.indptr[-1] == 100062


def test_catalog_case_surface(tmp_path):
    # The calls of one catalog case (workloads.case_outputs) and the
    # reference omegas the workload checks them against.
    refs = json.loads((PERFBENCH / "references" / "catalog.json").read_text())
    family, eps = "spireB", 1e-05
    ref = refs["cases"][f"{family} {eps!r}"]
    meshes = {}
    for variant in ("fem", "vem"):
        mesh = benchmarks.gen_benchmark(family, eps, variant)
        path = tmp_path / f"{variant}.json"
        meshmod.save_mesh(mesh, path)
        meshes[variant] = loaded = meshmod.load_mesh(path)
        assert np.array_equal(loaded.vertices, mesh.vertices)
        omega = eig.critical_dt(loaded, variant, alpha0="unit").omega_star
        assert math.isclose(omega, ref[variant], rel_tol=1e-12)
    fem_mesh = meshes["fem"]
    assert len(quality.mesh_report(fem_mesh)) == fem_mesh.num_elements
    merged, mapping, _ = agglomerate.auto_agglomerate(fem_mesh)
    covered = sorted(i for members in mapping.values() for i in members)
    assert covered == list(range(fem_mesh.num_elements))
    omega = eig.critical_dt(merged, "vem", alpha0="unit").omega_star
    assert math.isclose(omega, ref["agglomerated"], rel_tol=1e-12)


@pytest.mark.parametrize("family", benchmarks.BENCHMARK_NAMES[:7])
def test_catalog_vem_merges_once(calls, family):
    # The tracer wraps both merge and merge_groups and counts a group for
    # each call that reaches them: one catalog vem mesh is one merge, and
    # neither merge calls the other, nor does auto-agglomeration.
    benchmarks.gen_benchmark(family, 1e-5, "vem")
    assert len(calls.pop("merge")) == 1
    agglomerate.auto_agglomerate(benchmarks.gen_benchmark(family, 1e-5))
    assert not calls


# LAYERS entries whose attribute was already gone when this test was
# written; the tracer lists them as missing.
GONE = {"mesh.validate_element", "mesh.split_prisms_to_tets",
        "mesh.element_geometry", "mesh.is_convex", "quality.classify",
        "vem.element_matrices", "fem.element_matrices", "eig.element_system",
        "eig.jacobi_eigenvalues_batch", "eig.jacobi_eigenvalues"}


def test_traced_attributes_exist():
    # Every other attribute the tracer wraps resolves to a callable, looked
    # up as the tracer does ("Class.method" in the class's own namespace).
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {f"{m}.{a}" for m, a, *_ in tracing.LAYERS}
    assert GONE < names
    for module_name, attr, *_ in tracing.LAYERS:
        if f"{module_name}.{attr}" in GONE:
            continue
        module = importlib.import_module(f"polyvem.{module_name}")
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        fn = vars(owner).get(name)
        assert callable(fn), f"{module_name}.{attr}"
