"""Explicit integrator: assembly, stability dichotomy on a scalar
oscillator, linearity, determinism, and beam plumbing."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from polyvem import agglomerate, benchmarks, dynamics, eig
from polyvem.dynamics import BcSchedule
from polyvem.mesh import Element, Mesh, ValidationError, extrude, tet_element


def test_assemble_block_diagonal_for_disjoint_tets():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [5.0, 0, 0], [6, 0, 0], [5, 1, 0], [5, 0, 1]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3)),
                           tet_element((4, 5, 6, 7))])
    K, M = dynamics.assemble(mesh, "fem")
    K = K.toarray()
    n = 8
    for comp_a in range(3):
        for comp_b in range(3):
            block = K[comp_a * n:(comp_a + 1) * n, comp_b * n:(comp_b + 1) * n]
            assert np.abs(block[:4, 4:]).max() == 0.0
            assert np.abs(block[4:, :4]).max() == 0.0
    assert np.all(M > 0)


def test_assembled_symmetry(beam_meshes):
    K, _ = dynamics.assemble(beam_meshes[("A", "vem")], "vem", alpha0="auto")
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
                     tau=1.0, amplitude=0.0)
    res = dynamics.central_difference_run(K, M, bcs, 1e-9, 1e-6, [5])
    assert res.steps == 1000
    assert np.abs(res.probe_history).max() == 0.0
    assert not res.diverged


def _sdof_system(k=4.0, m=1.0):
    K = sp.csr_matrix(np.array([[k]]))
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
                     tau=2000 * 2.0 / omega * 1.05, amplitude=1.0)
    dt = 2.05 / omega  # beyond the stability limit
    res = dynamics.central_difference_run(
        K, M, bcs, dt, 4000 * dt, [0], divergence_limit=10.0)
    # The driven dof itself stays bounded; divergence cannot trigger there.
    assert not res.diverged
    two = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs2 = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                      tau=1e3, amplitude=1.0)
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
    histories = []
    for amp in (1.0, 2.0):
        bcs = BcSchedule(fixed=fixed, driven=driven, tau=200 * dt,
                         amplitude=amp)
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
    for variant in ("fem", "vem"):
        mesh = beam_meshes[("A", variant)]
        dof, exact = dynamics.find_probe_dof(mesh, (2.0, 0.5, 0.0))
        assert exact
        node = dof % mesh.num_vertices
        assert mesh.vertices[node] == pytest.approx([2.0, 0.5, 0.0])


def test_probe_fallback_warns():
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    dof, exact = dynamics.find_probe_dof(mesh, (9.0, 9.0, 9.0))
    assert not exact


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
                                  tau=50 * dt, amplitude=1.0)
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
    f = K @ u
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
    ("fem", 4e-4, 3),      # plane triangles, prisms, tetrahedra
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
    inv_m = 1.0 / np.asarray(M_lumped, float)
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
    times, history, diverged_step = ref
    assert res.times.tobytes() == times.tobytes()
    assert res.probe_history.tobytes() == history.tobytes()
    assert res.diverged_step == diverged_step
    assert res.diverged == (diverged_step is not None)
    assert res.steps == len(times) - 1


@pytest.fixture
def unpruned(monkeypatch):
    """assemble as it stands without dropping K's stored zeros."""
    def build(*args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(sp.csr_matrix, "eliminate_zeros", lambda self: None)
            return dynamics.assemble(*args, **kwargs)
    return build


def test_assembled_stiffness_stores_no_zeros(beam_meshes, unpruned):
    mesh = beam_meshes[("A", "fem")]
    K, M = dynamics.assemble(mesh, "fem")
    K0, M0 = unpruned(mesh, "fem")
    assert (K.data != 0).all()
    assert K.nnz < K0.nnz  # the tet beam's K holds cancelled sums
    assert np.array_equal(M, M0)
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
    for ids, nodes, K, ml, _ in systems:
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
    for _, nodes, K, _, _ in systems:
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


def test_run_matches_reference_loop_wedge(unpruned):
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    K, M = dynamics.assemble(mesh, "vem", alpha0="unit")
    K0, _ = unpruned(mesh, "vem", alpha0="unit")
    n = mesh.num_vertices
    bcs = BcSchedule(fixed=np.array([0, n, 2 * n]), driven=np.array([1]),
                     tau=1e-5)
    args = (M, bcs, 1e-7, 1e-4, [2, 0, 1, n + 2])
    _assert_same_run(dynamics.central_difference_run(K, *args),
                     _reference_run(K0, *args))


def test_run_matches_reference_loop_tet_beam(beam_meshes, unpruned):
    # Case-A tet beam, probed at the beam probe, a fixed and a driven dof.
    mesh = beam_meshes[("A", "fem")]
    K, M = dynamics.assemble(mesh, "fem")
    K0, _ = unpruned(mesh, "fem")
    fixed, driven = dynamics.beam_boundary_dofs(mesh)
    probe, _ = dynamics.find_probe_dof(mesh, dynamics.BEAM_PROBE)
    omega, _, _ = eig.global_max_frequency(
        K, M, np.concatenate([fixed, driven]))
    dt = 0.9 * 2.0 / omega
    bcs = BcSchedule(fixed=fixed, driven=driven, tau=100 * dt)
    args = (M, bcs, dt, 400 * dt, [probe, fixed[0], driven[0]], 1e3 / 16)
    _assert_same_run(dynamics.central_difference_run(K, *args),
                     _reference_run(K0, *args))


def test_run_matches_reference_loop_diverging():
    two = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array([], dtype=int), driven=np.array([0]),
                     tau=1e3)
    dt = 2.05 / np.sqrt(2.0)
    args = (two, np.ones(2), bcs, dt, 1e5 * dt, [1, 0], 10.0)
    res = dynamics.central_difference_run(*args)
    assert res.diverged
    _assert_same_run(res, _reference_run(*args))


class _Injected(BcSchedule):
    """A schedule whose driven value at one step is `value`."""

    def __init__(self, step, dt, value):
        super().__init__(fixed=np.array([0]), driven=np.array([1]), tau=1.0)
        self.t, self.value = step * dt, value

    def pulse(self, t):
        return self.value if t == self.t else 0.0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("limit, value", [
    (10.0, np.nextafter(10.0, np.inf)),     # one dof just above the limit
    (10.0, np.nan),
    (10.0, np.inf),
    (np.inf, np.inf),                       # limit^2 / 4 overflows
    (1e-200, 1e-170),                       # limit^2 / 4 underflows
])
def test_divergence_gate_catches_every_excursion(limit, value):
    # Three uncoupled dofs at rest: only the driven one moves, and only at
    # step 7, so the gate sees one non-zero entry.
    K, M, dt = sp.identity(3, format="csr"), np.ones(3), 0.1
    bcs = _Injected(7, dt, value)
    args = (K, M, bcs, dt, 20 * dt, [1, 2], limit)
    res = dynamics.central_difference_run(*args)
    assert res.diverged_step == 7
    _assert_same_run(res, _reference_run(*args))


def test_divergence_gate_lets_the_limit_itself_pass():
    K, M, dt = sp.identity(3, format="csr"), np.ones(3), 0.1
    res = dynamics.central_difference_run(
        K, M, _Injected(7, dt, 10.0), dt, 20 * dt, [1], 10.0)
    assert not res.diverged and res.steps == 20
    assert res.probe_history[7, 0] == 10.0


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
    two = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array(fixed, dtype=int),
                     driven=np.array(driven, dtype=int), tau=1.0)
    with pytest.raises(ValidationError, match=match):
        dynamics.central_difference_run(two, np.array(mass, float), bcs, dt,
                                        t_max, probes)


def test_infeasible_run_refused_before_allocating():
    # ~1e15 steps of time and probe history (16 PB) cannot fit in memory:
    # the run is refused by step count, not by a failed allocation.
    two = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    bcs = BcSchedule(fixed=np.array([], dtype=int),
                     driven=np.array([], dtype=int), tau=1.0)
    with pytest.raises(ValidationError,
                       match=r"^1000000000000000 steps need .* physical"):
        dynamics.central_difference_run(two, np.ones(2), bcs, 1e-15, 1.0,
                                        [0])


def test_beam_pulse_duration_is_the_vem_bound_memoized(beam_meshes,
                                                       monkeypatch):
    # The same bits as the pulse rule applied to the VEM beam problem's own
    # report (100 x its element bound); a second call for the same (case,
    # alpha0, lumping) generates no mesh.
    tau = dynamics.beam_pulse_duration("A")
    problem = dynamics.beam_problem(beam_meshes[("A", "vem")], "vem")
    assert tau == dynamics.pulse_duration(problem.report)
    assert tau == 100.0 * problem.report.dt_crit

    def no_generation(*args, **kwargs):
        raise AssertionError("gen_benchmark called")

    monkeypatch.setattr(benchmarks, "gen_benchmark", no_generation)
    assert dynamics.beam_pulse_duration("A") == tau


@pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0, 0.0])
def test_bad_pulse_duration_rejected(beam_meshes, tau):
    with pytest.raises(ValidationError, match="pulse duration tau"):
        BcSchedule(fixed=np.array([0]), driven=np.array([1]), tau=tau)
    problem = dynamics.beam_problem(beam_meshes[("A", "vem")], "vem")
    with pytest.raises(ValidationError, match="pulse duration tau"):
        dynamics.run_beam(problem, problem.dt_crit("element"), 0.01, tau)


def test_fem_run_takes_the_case_pulse_duration():
    # With no tau a FEM run takes the case's pulse duration (the VEM
    # bound's), not a pulse from its own far smaller element bound.
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
        tau=100.0 * default.dt_crit_element)
    assert not np.array_equal(own.u_norm, default.u_norm)
