"""Explicit integrator: assembly, stability dichotomy on a scalar
oscillator, linearity, determinism, and beam plumbing."""

import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from polyvem import agglomerate, benchmarks, dynamics, eig
from polyvem.dynamics import BcSchedule
from polyvem.mesh import Element, Mesh, ValidationError, extrude, tet_element

from conftest import as_scipy, csr, helper_capable

needs_helper = pytest.mark.skipif(
    not helper_capable(), reason="the forked K @ u helper needs x86-64 and "
    "two or more CPUs")


def test_assemble_block_diagonal_for_disjoint_tets():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [5.0, 0, 0], [6, 0, 0], [5, 1, 0], [5, 0, 1]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3)),
                           tet_element((4, 5, 6, 7))])
    K, M = dynamics.assemble(mesh, "fem")
    K = as_scipy(K).toarray()
    n = 8
    for comp_a in range(3):
        for comp_b in range(3):
            block = K[comp_a * n:(comp_a + 1) * n, comp_b * n:(comp_b + 1) * n]
            assert np.abs(block[:4, 4:]).max() == 0.0
            assert np.abs(block[4:, :4]).max() == 0.0
    assert np.all(M > 0)


def test_assembled_symmetry(beam_meshes):
    K, _ = dynamics.assemble(beam_meshes[("A", "vem")], "vem", alpha0="auto")
    K = as_scipy(K)
    asym = (K - K.T)
    assert abs(asym).max() <= 1e-12 * abs(K).max()


def test_beam_system_size(beam_meshes):
    mesh = beam_meshes[("A", "vem")]
    K, M = dynamics.assemble(mesh, "vem", alpha0="auto")
    assert K.shape == (3 * 1282, 3 * 1282)
    assert M.shape == (3 * 1282,)


def test_zero_forcing_stays_zero():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3))])
    K, M = dynamics.assemble(mesh, "fem")
    bcs = BcSchedule(fixed=np.array([0]), driven=np.array([], dtype=int),
                     tau=1.0)
    res = dynamics.central_difference_run(K, M, bcs, 1e-9, 1e-6, [5])
    assert res.steps == 1000
    assert np.abs(res.probe_history).max() == 0.0
    assert not res.diverged


def _sdof_system(k=4.0, m=1.0):
    K = csr(np.array([[k]]))
    M = np.array([m])
    return K, M, np.sqrt(k / m)


def test_sdof_stability_dichotomy():
    K, M, omega = _sdof_system()
    bcs = BcSchedule(fixed=np.array([], dtype=int),
                     driven=np.array([], dtype=int), tau=1.0)
    # Seed motion through an initial velocity by driving one step, then
    # free: emulate by directly stepping with nonzero initial condition.
    dt_stable = 1.9 / omega
    dt_unstable = 2.1 / omega
    for dt, expect in ((dt_stable, False), (dt_unstable, True)):
        ndof = 1
        u = np.array([1.0])
        v_half = np.zeros(1)
        a = -(K @ u) / M
        v_half = 0.5 * dt * a
        diverged = False
        for step in range(100000):
            u = u + dt * v_half
            a = -(K @ u) / M
            v_half = v_half + dt * a
            if abs(u[0]) > 1e3:
                diverged = True
                break
        assert diverged == expect, f"dt={dt}"


def test_run_divergence_detection():
    K, M, omega = _sdof_system()
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=2000 * 2.0 / omega * 1.05)
    dt = 2.05 / omega  # beyond the stability limit
    res = dynamics.central_difference_run(
        K, M, bcs, dt, 4000 * dt, [0], divergence_limit=10.0)
    # The driven dof itself stays bounded; divergence cannot trigger there.
    assert not res.diverged
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs2 = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                      tau=1e3)
    # With dof 0 prescribed, the free subsystem is the single dof K_11 = 2.
    omega_free = np.sqrt(2.0)
    dt = 2.05 / omega_free
    res2 = dynamics.central_difference_run(
        two, np.ones(2), bcs2, dt, 1e5 * dt, [1], divergence_limit=10.0)
    assert res2.diverged
    assert res2.diverged_step == res2.steps


def test_pulse_shape():
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=2.0)
    assert bcs.pulse(0.0) == 0.0
    assert bcs.pulse(2.0) == 0.0
    assert bcs.pulse(5.0) == 0.0
    assert bcs.pulse(1.0) == pytest.approx(1.0 / 16.0)
    # C1 at tau: slope from the left vanishes
    h = 1e-6
    assert abs(bcs.pulse(2.0 - h)) < 1e-11


def test_linearity_of_probe_history():
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    K, M = dynamics.assemble(mesh, "vem", alpha0="unit")
    n = mesh.num_vertices
    fixed = np.array([0, n, 2 * n])
    driven = np.array([1])
    report = eig.critical_dt(mesh, "vem", alpha0="unit")
    dt = 0.5 * report.dt_crit

    class Doubled(BcSchedule):
        def pulse(self, t):
            return 2.0 * super().pulse(t)

    histories = []
    for schedule in (BcSchedule, Doubled):
        bcs = schedule(fixed=fixed, driven=driven, tau=200 * dt)
        res = dynamics.central_difference_run(K, M, bcs, dt, 500 * dt, [2])
        histories.append(res.probe_history[:, 0])
    assert histories[1] == pytest.approx(2.0 * histories[0], rel=1e-12,
                                         abs=1e-300)


def test_determinism():
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    K, M = dynamics.assemble(mesh, "vem", alpha0="unit")
    n = mesh.num_vertices
    bcs = BcSchedule(fixed=np.array([0, n, 2 * n]), driven=np.array([1]),
                     tau=1e-5)
    runs = [dynamics.central_difference_run(K, M, bcs, 1e-7, 1e-4, [2])
            for _ in range(2)]
    assert np.array_equal(runs[0].probe_history, runs[1].probe_history)


@pytest.mark.parametrize("shift", [0.0, 5.0])
def test_beam_boundary_dofs_refuse_a_mesh_without_both_ends(shift):
    # The kite spans x in [-1, 1]: nodes at x = 0 but none at x = 4;
    # shifted by 5, a node at x = 4 but none at x = 0.
    kite = benchmarks.gen_benchmark("kite", 1e-1, "fem")
    mesh = Mesh(3, kite.vertices + [shift, 0.0, 0.0], kite.elements,
                kite.material)
    with pytest.raises(ValidationError, match="not a beam mesh"):
        dynamics.beam_boundary_dofs(mesh)


def test_beam_boundary_dofs(beam_meshes):
    mesh = beam_meshes[("A", "fem")]
    fixed, driven = dynamics.beam_boundary_dofs(mesh)
    n = mesh.num_vertices
    left = np.where(np.abs(mesh.vertices[:, 0]) < 1e-12)[0]
    right = np.where(np.abs(mesh.vertices[:, 0] - 4.0) < 1e-12)[0]
    assert len(driven) == len(right)
    assert len(fixed) == 3 * len(left) + 2 * len(right)
    assert set(driven) == set(right)


def test_probe_node_exists(beam_meshes):
    for case in ("A", "B"):
        for variant in ("fem", "vem"):
            mesh = beam_meshes[(case, variant)]
            dof = dynamics.find_probe_dof(mesh, dynamics.BEAM_PROBE)
            assert 0 <= dof < mesh.num_vertices  # an x dof
            assert mesh.vertices[dof].tolist() == [2.0, 0.5, 0.0]


def test_probe_off_every_node_is_refused(beam_meshes):
    # No nearest-node fallback: a probe point that is not a node is refused
    # by name, also a point a hair off the beam's probe node.
    wedge = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    for mesh, point in ((wedge, (9.0, 9.0, 9.0)),
                        (beam_meshes[("A", "vem")], (2.0, 0.5 + 1e-9, 0.0))):
        with pytest.raises(ValidationError, match=re.escape(
                f"no mesh node at the probe point {point}")):
            dynamics.find_probe_dof(mesh, point)


def test_invalid_dt_rejected():
    K, M, _ = _sdof_system()
    bcs = BcSchedule(fixed=np.array([], dtype=int),
                     driven=np.array([], dtype=int), tau=1.0)
    with pytest.raises(ValidationError):
        dynamics.central_difference_run(K, M, bcs, 0.0, 1.0, [0])


def test_beam_case_b_global_frequency(beam_meshes):
    # Reference: the case-B FEM global maximum frequency is about 1.3e10,
    # while the per-element bound is orders of magnitude larger.
    mesh = beam_meshes[("B", "fem")]
    rep = eig.critical_dt(mesh, "fem")
    K, M = dynamics.assemble(mesh, "fem")
    f, d = dynamics.beam_boundary_dofs(mesh)
    bc = np.unique(np.concatenate([f, d]))
    omega_g, converged, _ = eig.global_max_frequency(K, M, bc)
    assert converged
    assert omega_g == pytest.approx(1.3e10, rel=0.15)
    assert rep.omega_star > 100 * omega_g  # element bound impractical here


def test_beam_case_b_step_count_ratio(beam_meshes):
    # Reference: ~453 VEM steps versus ~20.9 million FEM steps; the ratio
    # of step counts equals the ratio of stable steps, order 1e4 to 1e5.
    vem_mesh = beam_meshes[("B", "vem")]
    rep_v = eig.critical_dt(vem_mesh, "vem", alpha0="auto")
    fem_mesh = beam_meshes[("B", "fem")]
    K, M = dynamics.assemble(fem_mesh, "fem")
    f, d = dynamics.beam_boundary_dofs(fem_mesh)
    bc = np.unique(np.concatenate([f, d]))
    omega_g, _, _ = eig.global_max_frequency(K, M, bc)
    t_max = 3.0 * 4.0 / 5188.75
    steps_vem = int(np.ceil(t_max / rep_v.dt_crit))
    steps_fem = int(np.ceil(t_max / (2.0 / omega_g)))
    ratio = steps_fem / steps_vem
    assert 1e4 <= ratio <= 1e5
    # and the VEM run itself is cheap and bounded
    tau = 100.0 * rep_v.dt_crit
    exp = dynamics.tapered_beam_experiment("B", "vem", dt_factor=1.0,
                                           dt_basis="element", tau=tau)
    assert not exp.result.diverged
    assert exp.result.steps < 2000


@pytest.mark.parametrize("method", ["fem", "vem"])
def test_wedge_pair_stability_dichotomy(method):
    # Bounded at 0.9x the global critical step, divergent at 1.2x.
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, method)
    K, M = dynamics.assemble(mesh, method, alpha0="unit")
    n = mesh.num_vertices
    fixed = np.concatenate([np.array([1, 2]),
                            np.array([1, 2]) + n,
                            np.array([1, 2]) + 2 * n])
    driven = np.array([2 * n])  # push the shared base corner vertically
    free = np.setdiff1d(np.arange(3 * n),
                        np.concatenate([fixed, driven]))
    omega_g, converged, _ = eig.global_max_frequency(
        K, M, np.concatenate([fixed, driven]))
    assert converged
    probe = [int(free[0])]
    for factor, expect in ((0.9, False), (1.2, True)):
        dt = factor * 2.0 / omega_g
        bcs = dynamics.BcSchedule(fixed=fixed, driven=driven,
                                  tau=50 * dt)
        res = dynamics.central_difference_run(
            K, M, bcs, dt, 20000 * dt, probe,
            divergence_limit=1e3 / 16.0)
        assert res.diverged == expect, (method, factor)


@pytest.mark.parametrize("method,alpha0", [("fem", "unit"), ("vem", "auto")])
def test_assembled_patch_consistency(beam_meshes, method, alpha0):
    # For a global linear displacement field, internal forces K u must
    # reduce to the exact constant-stress boundary flux at every node
    # (internal faces telescope away).  This exercises dof ordering,
    # projector exactness, stability vanishing, and the scatter across the
    # full mixed hexahedra/polyhedra (or tet) mesh.
    from polyvem import vem as vemmod
    mesh = beam_meshes[("A", method)]
    K, _ = dynamics.assemble(mesh, method, alpha0=alpha0)
    n = mesh.num_vertices
    x, y, z = mesh.vertices.T
    grad = np.array([[0.3, -0.2, 0.11],
                     [-0.1, 0.25, 0.4],
                     [0.05, 0.3, -0.2]])
    shift = np.array([0.7, -1.0, 0.2])
    u = np.concatenate([(mesh.vertices @ grad[c]) + shift[c]
                        for c in range(3)])
    f = as_scipy(K) @ u
    C = vemmod.constitutive_matrix(mesh.material, 3)
    eps = 0.5 * (grad + grad.T)
    voigt = np.array([eps[0, 0], eps[1, 1], eps[2, 2],
                      2 * eps[1, 2], 2 * eps[0, 2], 2 * eps[0, 1]])
    sigma_v = C @ voigt
    sigma = np.array([[sigma_v[0], sigma_v[5], sigma_v[4]],
                      [sigma_v[5], sigma_v[1], sigma_v[3]],
                      [sigma_v[4], sigma_v[3], sigma_v[2]]])
    counts = {}
    keep = {}
    for el in mesh.elements:
        for face in el.faces:
            key = tuple(sorted(face))
            counts[key] = counts.get(key, 0) + 1
            keep[key] = face
    g = np.zeros(3 * n)
    for key, c in counts.items():
        if c != 1:
            continue
        face = keep[key]
        from polyvem import mesh as meshmod2
        area, normal = meshmod2.triangle_area_normal(
            mesh.vertices[list(face)])
        traction = sigma @ normal
        for v in face:
            for comp in range(3):
                g[comp * n + v] += traction[comp] * area / 3.0
    scale = np.abs(g).max()
    assert np.abs(f - g).max() <= 1e-9 * scale


@pytest.mark.parametrize("method, tau, n_elements", [
    ("vem", None, 549),
    ("fem", 4e-4, 3456),
])
def test_beam_run_builds_each_element_once(monkeypatch, method, tau,
                                           n_elements):
    # One run generates its mesh once and builds every element system once
    # for both the time-step bound and the assembly; the VEM run takes its
    # pulse duration from its own bound.  Elements are counted through the
    # batched kernel, each group call adding its group size.
    from polyvem import fem, vem
    calls = {"gen": 0, "element": 0}
    module = vem if method == "vem" else fem
    gen, group_matrices = benchmarks.gen_benchmark, module.group_matrices
    built = []

    def counting_gen(*args, **kwargs):
        calls["gen"] += 1
        return gen(*args, **kwargs)

    def counting_group(mesh, ids, *args, **kwargs):
        calls["element"] += len(ids)
        built.extend(ids)
        return group_matrices(mesh, ids, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "gen_benchmark", counting_gen)
    monkeypatch.setattr(module, "group_matrices", counting_group)
    exp = dynamics.tapered_beam_experiment("A", method, tau=tau,
                                           t_max_transits=0.01)
    assert calls == {"gen": 1, "element": n_elements}
    assert sorted(built) == list(range(n_elements))
    assert not exp.result.diverged


@pytest.mark.parametrize("method, tau, n_meshes", [
    ("vem", None, 2),      # plane mesh, extruded polyhedra
    ("fem", 4e-4, 2),      # plane triangles, tetrahedra (no prism mesh)
])
def test_beam_run_builds_geometry_once_per_mesh(monkeypatch, method, tau,
                                                n_meshes):
    # Every mesh a run creates builds its geometry table exactly once, and
    # no HNI integrator is constructed on the run's path.
    from polyvem import hni, mesh as meshmod
    created, built, integrators = [], [], []
    post_init = meshmod.Mesh.__post_init__

    def counting_post_init(self):
        created.append(id(self))
        post_init(self)

    class CountingGeometry(meshmod.MeshGeometry):
        def __init__(self, mesh):
            built.append(id(mesh))
            super().__init__(mesh)

    def counting_integrator(self, *args, **kwargs):
        integrators.append(1)
        raise AssertionError("HNI integrator built on the run path")

    monkeypatch.setattr(meshmod.Mesh, "__post_init__", counting_post_init)
    monkeypatch.setattr(meshmod, "MeshGeometry", CountingGeometry)
    monkeypatch.setattr(hni.PolyhedronIntegrator, "__init__",
                        counting_integrator)
    monkeypatch.setattr(hni.PolygonIntegrator, "__init__",
                        counting_integrator)
    exp = dynamics.tapered_beam_experiment("A", method, tau=tau,
                                           t_max_transits=0.01)
    assert not exp.result.diverged
    assert integrators == []
    assert len(created) == n_meshes
    assert sorted(built) == sorted(created)


def test_beam_pulse_arrival_time():
    # The pulse is emitted at x = 4 and the probe sits at x = 2, so the
    # normalized history must stay quiet until about t/T = 0.5.
    tau = dynamics.beam_pulse_duration("A")
    exp = dynamics.tapered_beam_experiment("A", "vem", dt_factor=0.9,
                                           dt_basis="element", tau=tau,
                                           t_max_transits=1.5)
    quiet = exp.u_norm[exp.t_norm < 0.4]
    active = exp.u_norm[(exp.t_norm > 0.7) & (exp.t_norm < 1.2)]
    assert np.abs(quiet).max() < 1e-3
    assert np.abs(active).max() > 0.5


# ---------------------------------------------------------------------------
# The lean step against the textbook loop


def _reference_run(K, M_lumped, bcs, dt, t_max, probes,
                   divergence_limit=None):
    """The straightforward central-difference loop: fresh arrays every
    step, prescribed dofs overwritten in u and a, max|u| checked every
    step.  Returns (times, probe history, diverged step or None)."""
    K, inv_m = as_scipy(K), 1.0 / np.asarray(M_lumped, float)
    probes = np.asarray(probes, dtype=int)
    n_steps = int(np.ceil(t_max / dt))
    u = np.zeros(K.shape[0])
    v_half = 0.5 * dt * (-(K @ u) * inv_m)
    history = np.zeros((n_steps + 1, len(probes)))
    times = np.zeros(n_steps + 1)
    for step in range(1, n_steps + 1):
        t_new = step * dt
        u = u + dt * v_half
        u[bcs.fixed] = 0.0
        u[bcs.driven] = bcs.pulse(t_new)
        a = -(K @ u) * inv_m
        a[bcs.fixed] = 0.0
        a[bcs.driven] = 0.0
        v_half = v_half + dt * a
        times[step] = t_new
        history[step] = u[probes]
        if divergence_limit is not None:
            peak = float(np.abs(u).max())
            if not np.isfinite(peak) or peak > divergence_limit:
                return times[:step + 1], history[:step + 1], step
    return times, history, None


def _assert_same_run(res, ref):
    """The reference loop's times, steps and divergence step, bit for bit,
    and its probe history within 1e-12 of its peak (the run's update is
    the displacement-increment form of the same recurrence)."""
    times, history, diverged_step = ref
    assert res.times.tobytes() == times.tobytes()
    assert res.probe_history.shape == history.shape
    finite = np.isfinite(history)
    peak = np.abs(history[finite]).max(initial=0.0)
    assert np.array_equal(res.probe_history[~finite], history[~finite],
                          equal_nan=True)
    assert (np.abs(res.probe_history[finite] - history[finite])
            <= 1e-12 * peak).all()
    assert res.diverged_step == diverged_step
    assert res.diverged == (diverged_step is not None)
    assert res.steps == len(times) - 1


@pytest.fixture
def unpruned(monkeypatch):
    """assemble as it stands without dropping K's stored zeros."""
    def build(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(eig.Csr, "where", lambda self, keep: self)
            return dynamics.assemble(*args, **kwargs)
    return build


def test_assembled_stiffness_stores_no_zeros(beam_meshes, unpruned):
    mesh = beam_meshes[("A", "fem")]
    K, M = dynamics.assemble(mesh, "fem")
    K0, M0 = unpruned(mesh, "fem")
    assert (K.data != 0).all()
    assert K.nnz < K0.nnz  # the tet beam's K holds cancelled sums
    assert np.array_equal(M, M0)
    K, K0 = as_scipy(K), as_scipy(K0)
    assert np.array_equal(K.toarray(), K0.toarray())
    u = np.random.default_rng(3).standard_normal(K.shape[0])
    assert (K @ u).tobytes() == (K0 @ u).tobytes()


# ---------------------------------------------------------------------------
# Assembly contract: scipy's pattern, sweep-order sums, bounded memory


def _element_dofs(mesh, nodes):
    """Global dofs of a stack's elements, in element dof order."""
    n_el = len(nodes)
    return (np.arange(mesh.dimension)[:, None] * mesh.num_vertices
            + nodes[:, None, :]).reshape(n_el, -1)


def _coo_reference(mesh, systems):
    """K as scipy sums COO triplets (pruned like assemble), and the lumped
    mass summed per dof in element order."""
    ndof = mesh.dimension * mesh.num_vertices
    rows, cols, vals, per_element = [], [], [], {}
    for ids, nodes, K, ml in systems:
        dofs = _element_dofs(mesh, nodes)
        rows.append(np.repeat(dofs, dofs.shape[1], axis=1).ravel())
        cols.append(np.tile(dofs, dofs.shape[1]).ravel())
        vals.append(K.ravel())
        per_element.update(zip(ids.tolist(), zip(dofs, ml)))
    K = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                              np.concatenate(cols))),
                      shape=(ndof, ndof)).tocsr()
    K.eliminate_zeros()
    M = np.zeros(ndof)
    order = sorted(per_element)
    np.add.at(M, np.concatenate([per_element[e][0] for e in order]),
              np.concatenate([per_element[e][1] for e in order]))
    return K, M


def _sweep_order_sums(mesh, systems):
    """(row ndof + column, value) of every nonzero K entry, each summed
    term by term in sweep order."""
    ndof = mesh.dimension * mesh.num_vertices
    keys, vals = [], []
    for _, nodes, K, _ in systems:
        dofs = _element_dofs(mesh, nodes)
        keys.append((dofs[:, :, None] * ndof + dofs[:, None, :]).ravel())
        vals.append(K.ravel())
    keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.zeros(len(keys))
    np.add.at(sums, slot, np.concatenate(vals))  # unbuffered, in order
    return keys[sums != 0.0], sums[sums != 0.0]


def _strip_2d(cells=7):
    """Unit cells along x, alternately one quadrilateral and two
    triangles: the two element groups interleave."""
    verts = np.array([[x, y] for y in (0.0, 1.0) for x in range(cells + 1)],
                     float)
    elements = []
    for k in range(cells):
        b0, b1, t0, t1 = k, k + 1, cells + 1 + k, cells + 2 + k
        if k % 3 == 0:
            elements.append(Element(loop=(b0, b1, t1, t0)))
        else:
            elements += [Element(loop=t, kind="tri", nodes=t)
                         for t in ((b0, b1, t1), (b0, t1, t0))]
    return Mesh(2, verts, elements)


def _interleaved_mesh(name, beam_meshes):
    if name == "agglomerated-tet-beam":
        return agglomerate.auto_agglomerate(beam_meshes[("A", "fem")])[0]
    return _strip_2d() if name == "strip-2d" else extrude(_strip_2d(), 0.5)


@pytest.mark.parametrize("case, method", [
    ("A", "fem"), ("A", "vem"), ("B", "fem"), ("B", "vem"), ("tri2d", "vem")])
def test_assembly_matches_scipy_pattern(beam_meshes, case, method):
    mesh = (benchmarks.gen_benchmark("tri2d", 1e-3, method) if case == "tri2d"
            else beam_meshes[(case, method)])
    systems = eig.element_systems(mesh, method, "auto")
    K, M = dynamics.assemble_systems(mesh, systems)
    K0, M0 = _coo_reference(mesh, systems)
    assert K.nnz == K0.nnz
    assert K.indices.dtype == K0.indices.dtype == K.indptr.dtype
    assert np.array_equal(K.indptr, K0.indptr)
    assert np.array_equal(K.indices, K0.indices)
    assert np.abs(K.data - K0.data).max() <= 1e-15 * np.abs(K0.data).max()
    assert M.tobytes() == M0.tobytes()


@pytest.mark.parametrize("name", ["strip-2d", "strip-3d",
                                  "agglomerated-tet-beam"])
def test_assembly_sums_each_entry_in_sweep_order(beam_meshes, name):
    mesh = _interleaved_mesh(name, beam_meshes)
    systems = eig.element_systems(mesh, "vem", "unit")
    ids = np.concatenate([ids for ids, *_ in systems])
    assert (np.diff(ids) < 0).any()  # sweep order is not element order
    K, _ = dynamics.assemble_systems(mesh, systems)
    keys, sums = _sweep_order_sums(mesh, systems)
    rows = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    assert np.array_equal(rows * K.shape[0] + K.indices, keys)
    assert K.data.tobytes() == sums.tobytes()


def test_assembly_skips_an_empty_stack():
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "fem")
    systems = eig.element_systems(mesh, "fem", "unit")
    ids, nodes, K, ml = systems[0]
    K0, M0 = dynamics.assemble_systems(mesh, systems)
    K1, M1 = dynamics.assemble_systems(
        mesh, [*systems, (ids[:0], nodes[:0], K[:0], ml[:0])])
    for a, b in ((K1.data, K0.data), (K1.indices, K0.indices),
                 (K1.indptr, K0.indptr), (M1, M0)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case, method", [
    ("A", "fem"), ("A", "vem"), ("B", "fem"), ("B", "vem")])
def test_assembly_peak_memory_is_a_few_times_its_output(beam_meshes, case,
                                                        method):
    mesh = beam_meshes[(case, method)]
    systems = eig.element_systems(mesh, method, "auto")
    dynamics.assemble_systems(mesh, systems)  # warm-up: imports, caches
    tracemalloc.start()
    try:
        K, M = dynamics.assemble_systems(mesh, systems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes + M.nbytes
    assert peak <= 4 * output


def _traced_peak_mib(build):
    """(build(), the traced memory peak of the call in MiB)."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_fem_beam_memory_budget():
    # Generating the tet beam once peaked at 12.7 MiB traced (a validated
    # prism mesh, thrown away, and one Element per tet); it reads 5.0 MiB
    # with the tets built straight from the triangles' prism rows.  The
    # problem (sweep, report, assembly) reads 7.5 MiB.  Each budget is the
    # measured value + 25%.
    mesh = benchmarks.gen_benchmark("beamA", variant="fem")
    dynamics.beam_problem(mesh, "fem")  # warm-up: imports, caches
    mesh, gen = _traced_peak_mib(
        lambda: benchmarks.gen_benchmark("beamA", variant="fem"))
    _, problem = _traced_peak_mib(lambda: dynamics.beam_problem(mesh, "fem"))
    assert gen <= 1.25 * 5.0
    assert problem <= 1.25 * 7.5


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this process, in order."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _reference_case(name, beam_meshes, unpruned):
    """(K, K with its stored zeros, the other run arguments) of a case."""
    if name == "wedge":
        mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
        K, M = dynamics.assemble(mesh, "vem", alpha0="unit")
        K0, _ = unpruned(mesh, "vem", alpha0="unit")
        n = mesh.num_vertices
        bcs = BcSchedule(fixed=np.array([0, n, 2 * n]), driven=np.array([1]),
                         tau=1e-5)
        return K, K0, (M, bcs, 1e-7, 1e-4, [2, 0, 1, n + 2])
    if name == "tet-beam":
        # Case-A tet beam, probed at the beam probe, a fixed and a driven
        # dof.
        mesh = beam_meshes[("A", "fem")]
        K, M = dynamics.assemble(mesh, "fem")
        K0, _ = unpruned(mesh, "fem")
        fixed, driven = dynamics.beam_boundary_dofs(mesh)
        probe = dynamics.find_probe_dof(mesh, dynamics.BEAM_PROBE)
        omega, _, _ = eig.global_max_frequency(
            K, M, np.concatenate([fixed, driven]))
        dt = 0.9 * 2.0 / omega
        bcs = BcSchedule(fixed=fixed, driven=driven, tau=100 * dt)
        return K, K0, (M, bcs, dt, 400 * dt, [probe, fixed[0], driven[0]],
                       1e3 / 16)
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=1e3)
    dt = 2.05 / np.sqrt(2.0)
    return two, two, (np.ones(2), bcs, dt, 1e5 * dt, [1, 0], 10.0)


def test_run_matches_reference_loop_wedge(beam_meshes, unpruned):
    K, K0, args = _reference_case("wedge", beam_meshes, unpruned)
    _assert_same_run(dynamics.central_difference_run(K, *args),
                     _reference_run(K0, *args))


def test_run_matches_reference_loop_tet_beam(beam_meshes, unpruned):
    K, K0, args = _reference_case("tet-beam", beam_meshes, unpruned)
    _assert_same_run(dynamics.central_difference_run(K, *args),
                     _reference_run(K0, *args))


def test_run_matches_reference_loop_diverging(beam_meshes, unpruned):
    K, K0, args = _reference_case("diverging", beam_meshes, unpruned)
    res = dynamics.central_difference_run(K, *args)
    assert res.diverged
    _assert_same_run(res, _reference_run(K0, *args))


@needs_helper
@pytest.mark.parametrize("name", ["wedge", "tet-beam", "diverging"])
def test_helper_run_matches_reference_loop(name, beam_meshes, unpruned,
                                           monkeypatch, forks):
    # Forced onto the forked-helper path: the reference loop's bits, and so
    # the serial path's.
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", 0)
    K, K0, args = _reference_case(name, beam_meshes, unpruned)
    res = dynamics.central_difference_run(K, *args)
    assert len(forks) == 1
    assert res.diverged == (name == "diverging")
    _assert_same_run(res, _reference_run(K0, *args))


@needs_helper
def test_helper_beam_history_is_the_serial_one(monkeypatch, forks):
    # Case-A FEM on the global bound for 0.3 transits.
    problem = dynamics.beam_problem(
        benchmarks.gen_benchmark("beamA", variant="fem"), "fem")
    dt = 0.9 * problem.dt_crit("global")
    tau = dynamics.beam_pulse_duration("A")
    runs = []
    for work in (np.inf, 0):
        monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", work)
        runs.append(dynamics.run_beam(problem, dt, 0.3, tau).result)
    serial, helper = runs
    assert len(forks) == 1 and serial.steps == helper.steps > 3000
    assert helper.times.tobytes() == serial.times.tobytes()
    assert helper.probe_history.tobytes() == serial.probe_history.tobytes()


@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_step_kernel_accumulates_each_row_in_stored_order(index):
    # The step's kernel adds row i of K @ u into y[i]: from y[i], one
    # product at a time, in the row's stored order (here unsorted, with
    # entries of widely spread size, so the order shows in the bits).
    # Into zeros it gives K @ u bit for bit.
    from scipy.sparse._sparsetools import csr_matvec
    rng = np.random.default_rng(7)
    n = 40
    K = sp.random(n, n, density=0.3, random_state=rng, format="csr")
    for i in range(n):
        row = slice(K.indptr[i], K.indptr[i + 1])
        K.indices[row] = rng.permutation(K.indices[row])
    K.data = rng.standard_normal(K.nnz) * 10.0 ** rng.integers(-8, 9, K.nnz)
    u, y0 = rng.standard_normal(n), rng.standard_normal(n)
    indptr, indices = K.indptr.astype(index), K.indices.astype(index)
    y = y0.copy()
    csr_matvec(n, n, indptr, indices, K.data, u, y)
    expected = y0.copy()
    for i in range(n):
        for k in range(indptr[i], indptr[i + 1]):
            expected[i] += K.data[k] * u[indices[k]]
    assert y.tobytes() == expected.tobytes()
    zeros = np.zeros(n)
    csr_matvec(n, n, indptr, indices, K.data, u, zeros)
    assert zeros.tobytes() == (K @ u).tobytes()


@pytest.mark.parametrize("index", [np.int32, np.int64])
def test_csr_record_has_scipys_bits(index):
    # Csr.take keeps each row's stored order (here unsorted) with the rows
    # and columns in the order given, as scipy's K[:, cols][rows] does, and
    # Csr @ x has the bits of scipy's K @ x.
    rng = np.random.default_rng(8)
    n = 40
    K = sp.random(n, n, density=0.3, random_state=rng, format="csr")
    for i in range(n):
        row = slice(K.indptr[i], K.indptr[i + 1])
        K.indices[row] = rng.permutation(K.indices[row])
    K.data = rng.standard_normal(K.nnz) * 10.0 ** rng.integers(-8, 9, K.nnz)
    K.indptr, K.indices = K.indptr.astype(index), K.indices.astype(index)
    x = rng.standard_normal(n)
    assert (csr(K) @ x).tobytes() == (K @ x).tobytes()
    rows, cols = rng.permutation(n)[:25], rng.permutation(n)[:30]
    mine, theirs = csr(K).take(rows, cols), K[:, cols][rows]
    assert mine.shape == theirs.shape and mine.data.tobytes() == (
        theirs.data.tobytes())
    assert np.array_equal(mine.indices, theirs.indices)
    assert np.array_equal(mine.indptr, theirs.indptr)
    assert mine.indices.dtype == mine.indptr.dtype == index  # the kernel's
    assert (mine @ x[:30]).tobytes() == (theirs @ x[:30]).tobytes()


def _wedge_run_args():
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    K, M = dynamics.assemble(mesh, "vem", alpha0="unit")
    bcs = BcSchedule(fixed=np.array([0]), driven=np.array([1]), tau=1e-5)
    return K, M, bcs, 1e-7, 1e-5, [2]


@pytest.mark.parametrize("why", ["one CPU", "little work", "another thread",
                                 "not x86-64"])
def test_serial_path_never_forks(monkeypatch, why):
    def no_fork():
        raise AssertionError("os.fork called")

    def no_pin(pid, cpus):
        raise AssertionError("os.sched_setaffinity called")

    K, M, bcs, dt, t_max, probes = _wedge_run_args()
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_setaffinity", no_pin, raising=False)
    steps = int(np.ceil(t_max / dt))
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK",
                        steps * K.nnz + 1 if why == "little work" else 0)
    if why == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    if why == "not x86-64":
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, daemon=True)
    if why == "another thread":
        other.start()
    try:
        res = dynamics.central_difference_run(K, M, bcs, dt, t_max, probes)
    finally:
        stop.set()
    assert res.steps == steps


class _RaisingAt50(BcSchedule):
    """Drives dof 1 with the pulse, and `action()` at step 50."""

    def __init__(self, dt, action):
        super().__init__(fixed=np.array([0]), driven=np.array([1]), tau=1e-5)
        self.t50, self.action = 50 * dt, action

    def pulse(self, t):
        if t == self.t50:
            self.action()
        return super().pulse(t)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpu(pid):
    """The CPU the process last ran on: field 39 of /proc/<pid>/stat."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat.rpartition(")")[2].split()[36])  # fields 3, 4, ...


@needs_helper
def test_helper_is_reaped_after_every_kind_of_run(monkeypatch, forks):
    # ... and this process's CPUs are restored after each, whether the run
    # ends, diverges or raises.
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", 0)
    cpus = os.sched_getaffinity(0)
    K, M, bcs, dt, t_max, probes = _wedge_run_args()
    assert dynamics.central_difference_run(K, M, bcs, dt, t_max,
                                           probes).steps > 50
    _no_child_left()
    assert os.sched_getaffinity(0) == cpus
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    diverging = BcSchedule(fixed=np.array([], dtype=int),
                           driven=np.array([0]), tau=1e3)
    dt2 = 2.05 / np.sqrt(2.0)
    assert dynamics.central_difference_run(
        two, np.ones(2), diverging, dt2, 1e5 * dt2, [1], 10.0).diverged
    _no_child_left()
    assert os.sched_getaffinity(0) == cpus

    def boom():
        raise KeyError("pulse failed")

    with pytest.raises(KeyError, match="pulse failed"):
        dynamics.central_difference_run(K, M, _RaisingAt50(dt, boom), dt,
                                        t_max, probes)
    _no_child_left()
    assert os.sched_getaffinity(0) == cpus
    assert len(forks) == 3


@needs_helper
def test_run_and_helper_sit_on_two_cpus(monkeypatch, forks):
    # At step 50 each process is pinned to one allowed CPU of its own and
    # has last run there.
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", 0)
    K, M, _, dt, t_max, probes = _wedge_run_args()
    seen = []
    bcs = _RaisingAt50(dt, lambda: seen.append(
        [(os.sched_getaffinity(pid), {_cpu(pid)})
         for pid in (os.getpid(), forks[-1])]))
    res = dynamics.central_difference_run(K, M, bcs, dt, t_max, probes)
    assert res.processes == 2 and len(seen) == 1
    (run, run_cpu), (helper, helper_cpu) = seen[0]
    assert run == run_cpu and helper == helper_cpu and run != helper
    assert run | helper <= os.sched_getaffinity(0)


@needs_helper
def test_helper_death_mid_run_raises(monkeypatch, forks):
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", 0)
    K, M, _, dt, t_max, probes = _wedge_run_args()
    bcs = _RaisingAt50(dt, lambda: os.kill(forks[-1], signal.SIGKILL))
    with pytest.raises(RuntimeError, match="helper process died"):
        dynamics.central_difference_run(K, M, bcs, dt, t_max, probes)
    _no_child_left()


def test_barrier_reads_the_last_step_of_a_helper_that_just_left():
    # The helper publishes its last step and leaves between this process's
    # read of its flag and the liveness check: that is no death mid-run.
    flags = memoryview(bytearray(16)).cast("q")
    dots = memoryview(bytearray(32)).cast("d")
    flags[1] = 4  # the helper is at step 4; this process meets at step 5

    def leaves():
        dots[3], flags[1] = 7.0, 5
        return False  # gone, its step published
    assert dynamics._meet(flags, dots, 0, 5, 2.0, leaves) == 7.0
    assert (flags[0], dots[2]) == (5, 2.0)
    flags[1] = 5  # gone without publishing step 6: dead mid-run
    with pytest.raises(RuntimeError, match="helper process died mid-run"):
        dynamics._meet(flags, dots, 0, 6, 2.0, lambda: False)


KILLED_MID_RUN = """
import sys
import numpy as np
from polyvem import benchmarks, dynamics

class Announcing(dynamics.BcSchedule):
    def pulse(self, t):
        if t == 10 * DT:
            print("running", flush=True)
        return super().pulse(t)

DT = 1e-7
dynamics.PARALLEL_MIN_WORK = 0
mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
K, M = dynamics.assemble(mesh, "vem", alpha0="unit")
bcs = Announcing(fixed=np.array([0]), driven=np.array([1]), tau=1e-5)
dynamics.central_difference_run(K, M, bcs, DT, 1e6 * DT, [2])
"""


def _group_members(pgid):
    """Pids of the processes in process group pgid (from /proc/*/stat)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process is gone
            continue
        if int(fields[2]) == pgid:
            members.append(int(stat.parent.name))
    return members


@needs_helper
def test_killed_run_leaves_no_process():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(dynamics.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", KILLED_MID_RUN],
                            stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        assert proc.stdout.readline() == "running\n"
        assert len(_group_members(proc.pid)) == 2  # the run and its helper
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    deadline = time.monotonic() + 2.0
    while (left := _group_members(proc.pid)) and time.monotonic() < deadline:
        time.sleep(0.02)
    if left:
        os.killpg(proc.pid, signal.SIGKILL)  # leave nothing spinning
    assert left == []


class _Injected(BcSchedule):
    """A schedule whose driven value at one step is `value`."""

    def __init__(self, step, dt, value):
        super().__init__(fixed=np.array([0]), driven=np.array([1]), tau=1.0)
        self.t, self.value = step * dt, value

    def pulse(self, t):
        return self.value if t == self.t else 0.0


GATE_CASES = [
    (10.0, np.nextafter(10.0, np.inf)),     # one dof just above the limit
    (10.0, np.nan),
    (10.0, np.inf),
    (np.inf, np.inf),                       # limit^2 / 4 overflows
    (1e-200, 1e-170),                       # limit^2 / 4 underflows
]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("limit, value", GATE_CASES)
def test_divergence_gate_catches_every_excursion(limit, value):
    # Three uncoupled dofs at rest: only the driven one moves, and only at
    # step 7, so the gate sees one non-zero entry.
    K, M, dt = csr(np.eye(3)), np.ones(3), 0.1
    bcs = _Injected(7, dt, value)
    args = (K, M, bcs, dt, 20 * dt, [1, 2], limit)
    res = dynamics.central_difference_run(*args)
    assert res.diverged_step == 7
    _assert_same_run(res, _reference_run(*args))


def test_divergence_gate_lets_the_limit_itself_pass():
    K, M, dt = csr(np.eye(3)), np.ones(3), 0.1
    res = dynamics.central_difference_run(
        K, M, _Injected(7, dt, 10.0), dt, 20 * dt, [1], 10.0)
    assert not res.diverged and res.steps == 20
    assert res.probe_history[7, 0] == 10.0


def _chain(n, unreached=0):
    """A free spring chain of n dofs, plus `unreached` more dofs in a
    chain of their own."""
    def springs(m):
        return sp.diags([-np.ones(m - 1), np.full(m, 2.0), -np.ones(m - 1)],
                        [-1, 0, 1])
    blocks = [springs(n)] + ([springs(unreached)] if unreached else [])
    return csr(sp.block_diag(blocks, format="csr"))


class _Pulse(BcSchedule):
    def __init__(self, driven, dt):
        super().__init__(fixed=np.array([], dtype=int),
                         driven=np.array(driven, dtype=int), tau=40 * dt)


def _split_cases():
    """(id, run arguments) forced onto the split path."""
    for limit, value in GATE_CASES:
        K, M, dt = csr(np.eye(3)), np.ones(3), 0.1
        yield (f"gate-{limit}-{value}",
               (K, M, _Injected(7, dt, value), dt, 20 * dt, [1, 2], limit))
    dt = 0.5
    # The driven chain 0..3 reaches nothing of the chain 4..11: BFS puts
    # those last, and the half-nnz row falls among them.
    yield "unreached", (_chain(4, 8), np.ones(12), _Pulse([0], dt), dt,
                        200 * dt, [3, 0, 5], 1e3)
    yield "undriven", (_chain(6), np.ones(6), _Pulse([], dt), dt, 50 * dt,
                       [0, 5], None)
    # Only the helper's dof 1 (light, so unstable at dt) diverges: the
    # gate needs the helper's partial u @ u.
    yield "helper-diverges", (csr(np.array([[1.0, -1.0], [-1.0, 1.0]])),
                              np.array([1.0, 1e-4]), _Pulse([0], dt), dt,
                              200 * dt, [0, 1], 1e3)
    # Five of six dofs driven: the split row moves past the last of them.
    yield "driven-past-half", (_chain(6), np.ones(6),
                               _Pulse([4, 0, 1, 2, 3], dt), dt, 80 * dt,
                               [5, 4], 1e3)
    # The loop's edges: no step at all, and one step.
    yield "no-steps", (_chain(6), np.ones(6), _Pulse([0], dt), dt, 0.0,
                       [5, 0], 1e3)
    yield "one-step", (_chain(6), np.ones(6), _Pulse([0], dt), dt, dt,
                       [5, 0], 1e3)


SPLIT_CASES = dict(_split_cases())


@needs_helper
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", list(SPLIT_CASES))
def test_split_run_matches_reference_loop(name, monkeypatch, forks):
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", 0)
    args = SPLIT_CASES[name]
    res = dynamics.central_difference_run(*args)
    assert len(forks) == 1 and res.processes == 2
    _assert_same_run(res, _reference_run(*args))


@needs_helper
@pytest.mark.parametrize("name, steps", [("no-steps", 0), ("one-step", 1)])
def test_split_edge_runs_leave_no_child(name, steps, monkeypatch, forks):
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", 0)
    res = dynamics.central_difference_run(*SPLIT_CASES[name])
    assert len(forks) == 1 and res.steps == steps
    _no_child_left()


@pytest.mark.parametrize("name", list(SPLIT_CASES) + ["tet-beam", "wedge"])
def test_banded_order_is_a_permutation_with_driven_dofs_first(
        name, beam_meshes, unpruned):
    if name in SPLIT_CASES:
        K, _, bcs, *_ = SPLIT_CASES[name]
    else:
        K, _, (_, bcs, *_) = _reference_case(name, beam_meshes, unpruned)
    driven = np.asarray(bcs.driven, dtype=int)
    order, pos, r0 = dynamics._banded(K, driven)
    assert np.array_equal(np.sort(order), np.arange(K.shape[0]))
    assert np.array_equal(pos[order], np.arange(K.shape[0]))
    assert (pos[driven] < r0).all() and r0 <= K.shape[0]
    # Each process's gather keeps each row's entries in stored order,
    # relabelled, with the serial scaled row's bits.
    s = -np.random.default_rng(3).uniform(0.5, 2.0, K.shape[0])
    *_, serial = dynamics._scaled(K, s)
    for rows in (order[:r0], order[r0:]):
        n, cols, indptr, indices, data = dynamics._scaled(K, s, rows, order)
        assert (n, cols) == (len(rows), K.shape[1])
        assert indptr.dtype == indices.dtype == K.indices.dtype
        for row, dof in enumerate(rows):
            entries = slice(K.indptr[dof], K.indptr[dof + 1])
            mine = slice(indptr[row], indptr[row + 1])
            assert data[mine].tobytes() == serial[entries].tobytes()
            assert np.array_equal(indices[mine], pos[K.indices[entries]])
    if name == "driven-past-half":
        ends = np.append(0, np.cumsum(np.diff(K.indptr)[order]))
        assert r0 == 5 > np.searchsorted(ends, K.nnz // 2)


@needs_helper
def test_split_raising_pulse_past_half_surfaces(monkeypatch, forks):
    # The driven dofs fill the run's slice past the half-nnz row; a pulse
    # that raises still surfaces as its own error, and the helper is reaped.
    monkeypatch.setattr(dynamics, "PARALLEL_MIN_WORK", 0)
    K, M, bcs, dt, t_max, probes, limit = SPLIT_CASES["driven-past-half"]

    class Raising(_Pulse):
        def pulse(self, t):
            if t == 30 * dt:
                raise KeyError("pulse failed")
            return super().pulse(t)

    with pytest.raises(KeyError, match="pulse failed"):
        dynamics.central_difference_run(K, M, Raising(bcs.driven, dt), dt,
                                        t_max, probes, limit)
    _no_child_left()
    assert len(forks) == 1


@pytest.mark.parametrize("K", [
    np.eye(2),                                      # dense
    sp.identity(2, format="csr"),                   # scipy, not an eig.Csr
    csr(np.ones((2, 3))),                           # not square
    csr(np.eye(3)),                                 # 3 rows for 2 masses
])
def test_unusable_stiffness_rejected(K):
    # Before: AttributeError on 'nnz', or a mass-length error for 3 x 3.
    bcs = BcSchedule(fixed=np.array([], dtype=int),
                     driven=np.array([], dtype=int), tau=1.0)
    msg = r"^K must be a square eig\.Csr with 2 rows"
    with pytest.raises(ValidationError, match=msg):
        dynamics.central_difference_run(K, np.ones(2), bcs, 0.1, 1.0, [0])


@pytest.mark.parametrize("value, match", [
    (1.0 + 1.0j, "^K must be real, not complex128$"),
    (np.nan, "^K has a non-finite entry$"),
    (np.inf, "^K has a non-finite entry$"),
    (-np.inf, "^K has a non-finite entry$"),
])
def test_non_real_or_non_finite_stiffness_rejected(value, match):
    # Before: a raw UFuncTypeError for complex K; a NaN K ran two steps
    # and reported divergence.
    K = csr(np.array([[2.0, -1.0], [value, 2.0]]))
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=1.0)
    with pytest.raises(ValidationError, match=match):
        dynamics.central_difference_run(K, np.ones(2), bcs, 0.1, 1.0, [1],
                                        10.0)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, np.longdouble])
def test_stiffness_of_any_real_dtype_runs_as_float64(dtype):
    # The kernel takes float64 rows: an integer, single or extended
    # precision K with float64 values runs as the float64 K does.
    two = np.array([[2.0, -1.0], [-1.0, 2.0]])
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=1.0)
    runs = [dynamics.central_difference_run(
        csr(two.astype(d)), np.ones(2), bcs, 0.1, 1.0, [1])
        for d in (float, dtype)]
    assert runs[1].probe_history.tobytes() == runs[0].probe_history.tobytes()


@pytest.mark.parametrize("limit", [np.nan, -1.0, -np.inf])
def test_bad_divergence_limit_rejected(limit):
    # Before, NaN and -1 switched the check off: |u| reached 0.0148.
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=1.0)
    with pytest.raises(ValidationError, match="divergence limit"):
        dynamics.central_difference_run(two, np.ones(2), bcs, 0.1, 1.0, [1],
                                        limit)


@pytest.mark.parametrize("limit", [None, 0.0, 1e-200, 10.0, np.inf])
def test_divergence_limit_values_kept(limit):
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=1.0)
    args = (two, np.ones(2), bcs, 0.1, 1.0, [1], limit)
    res = dynamics.central_difference_run(*args)
    assert res.processes == 1
    assert res.diverged == (limit in (0.0, 1e-200))
    _assert_same_run(res, _reference_run(*args))


@pytest.mark.parametrize("dt, t_max, probes, fixed, driven, mass, match", [
    (np.nan, 1.0, [0], [], [], [1, 1], "time step"),
    (np.inf, 1.0, [0], [], [], [1, 1], "time step"),
    (-1.0, 1.0, [0], [], [], [1, 1], "time step"),
    (0.1, np.inf, [0], [], [], [1, 1], "t_max"),
    (0.1, np.nan, [0], [], [], [1, 1], "t_max"),
    (0.1, -1.0, [0], [], [], [1, 1], "t_max"),
    (1e-320, 1e300, [0], [], [], [1, 1], "finite number of steps"),
    (0.1, 1.0, [5], [], [], [1, 1], "probe dof"),
    (0.1, 1.0, [-1], [], [], [1, 1], "probe dof"),
    (0.1, 1.0, [0], [2], [], [1, 1], "fixed dof"),
    (0.1, 1.0, [0], [], [7], [1, 1], "driven dof"),
    (0.1, 1.0, [0], [], [], [1, 1, 1], "lumped mass"),
    (0.1, 1.0, [0], [], [], [1, np.nan], "lumped mass"),
])
def test_bad_run_inputs_rejected(dt, t_max, probes, fixed, driven, mass,
                                 match):
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array(fixed, dtype=int),
                     driven=np.array(driven, dtype=int), tau=1.0)
    with pytest.raises(ValidationError, match=match):
        dynamics.central_difference_run(two, np.array(mass, float), bcs, dt,
                                        t_max, probes)


@pytest.mark.parametrize("where, value", [("probe", 0.7), ("probe", np.nan),
                                          ("fixed", 0.9), ("driven", 0.5),
                                          ("driven", np.nan)])
def test_non_integral_dof_rejected(where, value):
    # Before: a probe at 0.7 recorded dof 0 and a fixed dof 0.9 clamped it.
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    dofs = {"probe": [1], "fixed": [], "driven": []} | {where: [value]}
    bcs = BcSchedule(fixed=np.array(dofs["fixed"]),
                     driven=np.array(dofs["driven"]), tau=1.0)
    with pytest.raises(ValidationError,
                       match=f"^{where} dof is not an integer$"):
        dynamics.central_difference_run(two, np.ones(2), bcs, 0.1, 1.0,
                                        dofs["probe"])


def test_integral_float_dofs_run_as_ints():
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    runs = [dynamics.central_difference_run(
        two, np.ones(2), BcSchedule(fixed=np.array(fixed),
                                    driven=np.array(driven), tau=1.0),
        0.1, 1.0, probes) for fixed, driven, probes in
        (([1.0], [0.0], [1.0, 0.0]), ([1], [0], [1, 0]))]
    assert runs[0].probe_history.tobytes() == runs[1].probe_history.tobytes()
    assert runs[0].probe_history[:, 1].any()


def test_infeasible_run_refused_before_allocating():
    # ~1e15 steps of time and probe history (16 PB) cannot fit in memory:
    # the run is refused by step count, not by a failed allocation.
    two = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array([], dtype=int),
                     driven=np.array([], dtype=int), tau=1.0)
    with pytest.raises(ValidationError,
                       match=r"^1000000000000000 steps need .* physical"):
        dynamics.central_difference_run(two, np.ones(2), bcs, 1e-15, 1.0,
                                        [0])


@pytest.mark.parametrize("case", ["A", "B"])
def test_beam_pulse_duration_is_the_vem_bound(beam_meshes, case):
    # The constant is 100 x the element bound of the case's VEM beam under
    # the default preset, to the last bit; the lookup returns it.
    tau = dynamics.BEAM_PULSE_DURATION[case]
    report = eig.critical_dt(beam_meshes[(case, "vem")], "vem", "auto")
    assert tau == 100.0 * report.dt_crit
    assert dynamics.beam_pulse_duration(case) == tau


@pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0, 0.0])
def test_bad_pulse_duration_rejected(beam_meshes, tau):
    with pytest.raises(ValidationError, match="pulse duration tau"):
        BcSchedule(fixed=np.array([0]), driven=np.array([1]), tau=tau)
    problem = dynamics.beam_problem(beam_meshes[("A", "vem")], "vem")
    with pytest.raises(ValidationError, match="pulse duration tau"):
        dynamics.run_beam(problem, problem.dt_crit("element"), 0.01, tau)


def test_unknown_dt_basis_refused(beam_meshes):
    problem = dynamics.beam_problem(beam_meshes[("A", "vem")], "vem")
    with pytest.raises(ValidationError, match="^unknown dt basis 'local'$"):
        problem.dt_crit("local")


def test_fem_run_takes_the_case_pulse_duration(monkeypatch):
    # With no tau a FEM run takes the case's pulse duration (the VEM
    # bound's), not a pulse from its own far smaller element bound.  The
    # pulse duration is part of the problem: a FEM run under another preset
    # is the default run, bit for bit, and builds no VEM beam.  An unknown
    # case is refused by name before any mesh is generated.
    default = dynamics.tapered_beam_experiment(
        "A", "fem", dt_basis="global", t_max_transits=0.01)
    given = dynamics.tapered_beam_experiment(
        "A", "fem", dt_basis="global", t_max_transits=0.01,
        tau=dynamics.beam_pulse_duration("A"))
    assert default.result.steps == given.result.steps > 0
    assert np.array_equal(default.t_norm, given.t_norm)
    assert np.array_equal(default.u_norm, given.u_norm)
    own = dynamics.tapered_beam_experiment(
        "A", "fem", dt_basis="global", t_max_transits=0.01,
        tau=100.0 * (2.0 / default.omega_star))
    assert not np.array_equal(own.u_norm, default.u_norm)
    generated = []
    generate = benchmarks.gen_benchmark

    def recorded(*args, **kwargs):
        generated.append((args, kwargs))
        return generate(*args, **kwargs)

    monkeypatch.setattr(benchmarks, "gen_benchmark", recorded)
    with pytest.raises(ValidationError, match="unknown beam case 'C'"):
        dynamics.tapered_beam_experiment("C", "vem", tau=1e-4)
    with pytest.raises(ValidationError, match="unknown beam case 'C'"):
        dynamics.beam_pulse_duration("C")
    assert generated == []
    other = dynamics.tapered_beam_experiment(
        "A", "fem", dt_basis="global", t_max_transits=0.01, alpha0=0.5)
    assert generated == [(("beamA",), {"variant": "fem"})]
    assert other.dt == default.dt
    assert np.array_equal(other.t_norm, default.t_norm)
    assert np.array_equal(other.u_norm, default.u_norm)
