"""Eigenvalue machinery: the omega -> dt rule, stacked vs one-by-one
element frequencies, the grouped element sweep against its one-element
views, frequency bounds, the power loop's refusals, scaling laws, and the
reference time-step tables."""

import numpy as np
import pytest

from polyvem import (agglomerate, benchmarks, cli, dynamics, eig,
                     mesh as meshmod)
from polyvem import vem
from polyvem.mesh import Mesh, ValidationError, tet_element

from conftest import csr, random_tet_mesh


def sweep(K, ml, ids=None):
    """A one-group element sweep of the stack K (batch, n, n) with lumped
    masses ml (batch, n), its rows elements `ids` (default 0, 1, ...)."""
    K, ml = np.asarray(K, float), np.asarray(ml, float)
    ids = np.arange(len(K)) if ids is None else np.asarray(ids)
    return [(ids, np.zeros((len(K), 1), int), K, ml)]


def test_stacked_group_matches_one_element_sweeps():
    # A stack of element problems gives the one-by-one frequencies.
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((7, 9, 9))
    mats = mats + mats.transpose(0, 2, 1)
    masses = rng.uniform(0.5, 2.0, size=(7, 9))
    batch = eig.time_step_report(sweep(mats, masses)).omega_elements
    assert batch.shape == (7,)
    for k in range(7):
        one = eig.time_step_report(sweep(mats[k:k + 1], masses[k:k + 1]))
        assert batch[k] == pytest.approx(one.omega_star, rel=1e-11)


def test_two_dof_closed_form():
    k, m = 7.0, 3.0
    K = np.array([[k, -k], [-k, k]])
    report = eig.time_step_report(sweep([K], [[m, m]]))
    assert report.omega_star == pytest.approx(np.sqrt(2 * k / m), rel=1e-12)
    assert report.dt_crit == 2.0 / report.omega_star


def test_zero_stiffness_zero_frequency():
    report = eig.time_step_report(sweep([np.zeros((3, 3))], [np.ones(3)]))
    assert report.omega_star == 0.0 and report.dt_crit == np.inf


def test_nonpositive_mass_rejected():
    with pytest.raises(ValidationError, match="^element 0: non-positive"):
        eig.time_step_report(sweep([np.eye(2)], [[1.0, 0.0]]))


def test_critical_step_is_two_over_omega():
    # Bit for bit 2 / omega, for a scalar (a float) and an array alike;
    # omega == 0 (of either sign) gives inf and a NaN stays NaN.
    omegas = np.array([3.0, 7.3e4, 1e-300, 5e-324, 0.0, -0.0, np.inf, np.nan])
    expected = [2.0 / w if w else np.inf for w in omegas.tolist()]
    dts = eig.critical_step(omegas)
    assert isinstance(dts, np.ndarray)
    np.testing.assert_array_equal(dts, expected)
    for w, dt in zip(omegas.tolist(), expected):
        one = eig.critical_step(w)
        assert type(one) is float
        assert one == dt or (np.isnan(one) and np.isnan(dt))


def test_frequency_scale_law():
    # omega scales as 1/s under uniform geometric scaling.
    base = random_tet_mesh(np.random.default_rng(8))
    r0 = eig.critical_dt(base, "fem")
    for s in (0.5, 3.0, 10.0):
        scaled = Mesh(3, base.vertices * s, base.elements, base.material)
        r = eig.critical_dt(scaled, "fem")
        assert r.omega_star == pytest.approx(r0.omega_star / s, rel=1e-9)


def test_single_regular_tet_fem_equals_vem():
    verts = np.array([[1.0, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    if meshmod.tet_volume(*verts) < 0:
        verts[[1, 2]] = verts[[2, 1]]
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3))])
    rf = eig.critical_dt(mesh, "fem")
    rv = eig.critical_dt(mesh, "vem", alpha0="unit")
    assert rv.omega_star == pytest.approx(rf.omega_star, rel=1e-12)


def test_kite_table(kite_meshes):
    refs = {(1e-1, "fem"): 6.0e4, (1e-1, "vem"): 3.1e4,
            (1e-5, "fem"): 6.0e8, (1e-5, "vem"): 5.2e4}
    for (eps, variant), ref in refs.items():
        report = eig.critical_dt(kite_meshes[(eps, variant)], variant,
                                 alpha0="unit")
        assert report.omega_star == pytest.approx(ref, rel=0.15), \
            f"kite {variant} eps={eps}"


def test_wedge_ratio():
    mf = benchmarks.gen_benchmark("wedge", 1e-1, "fem")
    mv = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    rf = eig.critical_dt(mf, "fem")
    rv = eig.critical_dt(mv, "vem", alpha0="unit")
    ratio = rv.dt_crit / rf.dt_crit
    assert 1.5 <= ratio <= 6.0  # reference ratio ~3


def test_spire_case_c_ratio():
    mf = benchmarks.gen_benchmark("spireC", 1e-5, "fem")
    mv = benchmarks.gen_benchmark("spireC", 1e-5, "vem")
    rf = eig.critical_dt(mf, "fem")
    rv = eig.critical_dt(mv, "vem", alpha0="unit")
    assert rv.dt_crit / rf.dt_crit >= 1e4


def test_monotone_pathology():
    eps_values = (1e-1, 1e-3, 1e-5)
    for name in ("kite", "wedge"):
        fem_omegas = [eig.critical_dt(
            benchmarks.gen_benchmark(name, e, "fem"), "fem").omega_star
            for e in eps_values]
        assert fem_omegas[0] < fem_omegas[1] < fem_omegas[2]
        vem_omegas = [eig.critical_dt(
            benchmarks.gen_benchmark(name, e, "vem"), "vem",
            alpha0="unit").omega_star for e in eps_values]
        assert vem_omegas[2] / vem_omegas[0] <= 2.0


def test_global_equals_element_for_single_element():
    mesh = random_tet_mesh(np.random.default_rng(12))
    report = eig.critical_dt(mesh, "fem")
    K, M = dynamics.assemble(mesh, "fem")
    omega, converged, _ = eig.global_max_frequency(K, M, [])
    assert converged
    assert omega == pytest.approx(report.omega_star, rel=1e-5)


def test_global_bounded_by_element_max(beam_meshes):
    mesh = beam_meshes[("A", "vem")]
    report = eig.critical_dt(mesh, "vem", alpha0="auto")
    K, M = dynamics.assemble(mesh, "vem", alpha0="auto")
    f, d = dynamics.beam_boundary_dofs(mesh)
    bc = np.unique(np.concatenate([f, d]))
    omega, converged, _ = eig.global_max_frequency(K, M, bc)
    assert converged
    assert omega <= report.omega_star * (1 + 1e-6)


def test_report_csv(tmp_path, kite_meshes):
    report = eig.critical_dt(kite_meshes[(1e-1, "fem")], "fem")
    mesh, path = tmp_path / "kite.json", tmp_path / "ts.csv"
    meshmod.save_mesh(kite_meshes[(1e-1, "fem")], mesh)
    assert cli.main(["timestep", "--mesh", str(mesh), "--method", "fem",
                     "--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "element_id,omega_max,dt_element"
    assert len(lines) == 2 + len(report.omega_elements)
    assert lines[-1].startswith("omega_star,")


def test_report_invariants(kite_meshes):
    report = eig.critical_dt(kite_meshes[(1e-5, "fem")], "fem")
    assert report.dt_crit > 0
    assert np.all(report.omega_elements <= report.omega_star)
    assert report.omega_elements[report.argmax_element] == report.omega_star


FAMILIES = ("tri2d", "prism3d", "wedge", "kite", "spireA", "spireB",
            "spireC")
SWEEP_CASES = (
    [(name, 1e-3, "fem", method) for name in FAMILIES
     for method in ("fem", "vem")]
    + [(name, 1e-3, "vem", "vem") for name in FAMILIES]
    # auto-agglomerated non-convex unions: scaled-diagonal masses
    + [("kite", 1e-5, "auto", "vem"), ("spireB", 1e-5, "auto", "vem")]
    + [("beam" + case, None, variant, variant) for case in "AB"
       for variant in ("fem", "vem")])


@pytest.mark.parametrize("name, eps, variant, method", SWEEP_CASES)
def test_group_sweep_matches_one_element_views(name, eps, variant, method):
    # Every row of the stacked sweep is the group_system of its element
    # alone (a stack of one) to rounding, with the same nodes; every
    # element sits in exactly one row.
    if variant == "auto":
        mesh = agglomerate.auto_agglomerate(
            benchmarks.gen_benchmark(name, eps, "fem"))[0]
    else:
        mesh = benchmarks.gen_benchmark(name, eps, variant)
    alpha0 = "auto" if name.startswith("beam") else "unit"
    systems = eig.element_systems(mesh, method, alpha0)
    rows = []
    for ids, group_nodes, group_K, group_ml in systems:
        for k, e in enumerate(ids):
            _, nodes, K, ml = eig.group_system(mesh, [e], method, alpha0)
            assert np.abs(group_K[k] - K[0]).max() <= 1e-13 * np.abs(K).max()
            assert np.abs(group_ml[k] - ml[0]).max() <= 1e-13 * ml.max()
            assert (group_nodes[k] == nodes[0]).all()
            rows.append(e)
    assert sorted(rows) == list(range(mesh.num_elements))
    if variant == "auto":  # the non-convex unions: the scaled diagonal
        assert not mesh.geometry.convex.all()
        dim, rho = mesh.dimension, mesh.material.density
        for ids, *_, ml in systems:
            diag = np.diagonal(vem.group_matrices(mesh, ids, alpha0).M,
                               axis1=1, axis2=2)
            scaled = diag * (dim * rho * mesh.geometry.volume[ids]
                             / diag.sum(axis=-1))[:, None]
            nonconvex = ~mesh.geometry.convex[ids]
            assert ml[nonconvex].tobytes() == scaled[nonconvex].tobytes()


def separate_tets(apexes):
    """Tetrahedra over the unit right triangle, shifted 2 apart along x,
    one per apex; element 1 is kind "poly", so the "tet" group is elements
    0, 2, 3, ...  Not validated."""
    verts, elements = [], []
    for k, apex in enumerate(apexes):
        base = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], apex])
        verts += list(base + [2.0 * k, 0, 0])
        tet = tet_element(tuple(range(4 * k, 4 * k + 4)))
        elements.append(meshmod.Element(faces=tet.faces) if k == 1 else tet)
    return Mesh(3, np.array(verts), elements)


GOOD_APEXES = [(0.2, 0.2, 1.0), (0.3, 0.3, 0.9), (0.1, 0.3, 0.8),
               (0.2, 0.1, 0.7)]


@pytest.mark.parametrize("method, message", [
    ("vem", "element 2: non-positive measure 0.0"),
    ("fem", "element 2: tetrahedron is inverted or degenerate"),
])
def test_degenerate_element_mid_batch_named(method, message):
    # Element 2 is flat and sits at position 1 of its group's stack.
    mesh = separate_tets(GOOD_APEXES[:2] + [(0.3, 0.3, 0.0)]
                         + GOOD_APEXES[3:])
    assert [grp.tolist() for grp in eig.element_groups(mesh)] == [
        [0, 2, 3], [1]]
    with pytest.raises(ValidationError) as info:
        eig.critical_dt(mesh, method)
    assert str(info.value) == message


def test_singular_projector_mid_batch_named():
    # Element 2's nodes are moved onto its centroid once the geometry table
    # is built (a stale table): its scaled coordinates, and so the rotation
    # rows of its projector system, are exactly zero.  (An infinite
    # diameter did this before the measure check refused it.)
    mesh = separate_tets(GOOD_APEXES)
    g = mesh.geometry
    assert np.isfinite(g.scaled_moments[(2, 0, 0)]).all()  # built first
    mesh.vertices[8:12] = g.centroid[2]
    with pytest.raises(ValidationError, match="^element 2: singular "
                       "projector system"):
        eig.critical_dt(mesh, "vem")


def test_nonpositive_lumped_mass_mid_batch_named():
    good = np.eye(2)
    with pytest.raises(ValidationError, match="^element 9: mass diagonal"):
        vem.lump(np.stack([good, good, -good]), 1.0, np.ones(3), 1,
                 np.ones(3, bool), ids=[5, 7, 9])
    group = (np.array([0, 2, 1]), np.zeros((3, 1), int), np.zeros((3, 2, 2)),
             np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValidationError, match="^element 2: non-positive"):
        eig.time_step_report([group])


@pytest.mark.parametrize("K, mass, match", [
    (np.eye(2), [1.0, np.nan], "non-positive or non-finite lumped mass"),
    (np.eye(2), [1.0, np.inf], "non-positive or non-finite lumped mass"),
    (np.eye(2), [1.0, -1.0], "non-positive or non-finite lumped mass"),
    (np.diag([1.0, np.nan]), [1.0, 1.0], "non-finite stiffness"),
    (np.diag([1.0, -np.inf]), [1.0, 1.0], "non-finite stiffness"),
])
def test_unsound_element_rejected(K, mass, match):
    with pytest.raises(ValidationError, match="^element 0: " + match):
        eig.time_step_report(sweep([K], [mass]))
    # In a sweep of two groups, the element (not the row) is named.
    stack_K, stack_m = np.stack([np.eye(2), K]), np.array([[1.0, 1.0], mass])
    group = (np.array([3, 1]), np.zeros((2, 1), int), stack_K, stack_m)
    sound = (np.array([0, 2]), np.zeros((2, 1), int),
             np.stack([np.eye(2)] * 2), np.ones((2, 2)))
    with pytest.raises(ValidationError, match="^element 1: " + match):
        eig.time_step_report([group, sound])


def test_first_unsound_element_named_across_groups():
    # Element 1 (stiffness) precedes element 2 (mass) in element order.
    nan_K = (np.array([0, 1]), np.zeros((2, 1), int),
             np.stack([np.eye(2), np.diag([np.nan, 1.0])]), np.ones((2, 2)))
    nan_m = (np.array([2]), np.zeros((1, 1), int), np.eye(2)[None],
             np.array([[np.nan, 1.0]]))
    for systems in ([nan_K, nan_m], [nan_m, nan_K]):
        with pytest.raises(ValidationError,
                           match="^element 1: non-finite stiffness"):
            eig.time_step_report(systems)


def test_nan_alpha0_named_not_linalg_error():
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
    with pytest.raises(ValidationError,
                       match="^alpha0 must be auto, unit or a positive "
                       "finite number, got nan$"):
        eig.critical_dt(mesh, "vem", alpha0=float("nan"))


def _scaled(mesh, factor):
    return meshmod.validate_mesh(Mesh(mesh.dimension, mesh.vertices * factor,
                                      mesh.elements, mesh.material))


@pytest.mark.filterwarnings("error")
def test_extreme_length_scale_named_not_linalg_error():
    # At 1e-150 the tri2d mesh is valid, but K m^-1/2 m^-1/2 overflows:
    # named, with no overflow warning (any warning fails the test).
    tiny = _scaled(benchmarks.gen_benchmark("tri2d", 1e-1, "fem"), 1e-150)
    with pytest.raises(ValidationError, match="^element 0: non-finite "
                       "mass-normalized stiffness"):
        eig.critical_dt(tiny, "fem")
    # A finite K and mass whose quotient overflows, alone and, in a sweep,
    # the lowest element id.
    K, mass = np.diag([1e300, 1.0]), np.array([1e-10, 1.0])
    with pytest.raises(ValidationError, match="^element 0: non-finite mass"):
        eig.time_step_report(sweep([K], [mass]))
    late = (np.array([0, 4]), np.zeros((2, 1), int), np.stack([np.eye(2), K]),
            np.stack([np.ones(2), mass]))
    early = (np.array([3, 1, 2]), np.zeros((3, 1), int),
             np.stack([np.eye(2), K, K]), np.stack([np.ones(2), mass, mass]))
    with pytest.raises(ValidationError, match="^element 1: non-finite mass"):
        eig.time_step_report([late, early])


@pytest.mark.parametrize("name, variant, measure", [
    ("wedge", "fem", "inf"), ("prism3d", "vem", "nan")])
def test_overflowing_measure_named_non_finite(name, variant, measure):
    # At 1e150 the element volume overflows to inf (or, through inf - inf,
    # NaN): validation names the measure non-finite, with both values (the
    # diameter stays finite), and no warning.
    mesh = benchmarks.gen_benchmark(name, 1e-1, variant)
    with pytest.raises(ValidationError, match=(
            fr"^element 0: non-finite measure \(volume {measure}, "
            r"diameter [0-9.]+e\+150\)$")):
        _scaled(mesh, 1e150)


def test_scaled_valid_mesh_keeps_its_frequencies():
    # The finiteness check leaves a valid mesh's frequencies untouched: a
    # scaled tri2d mesh keeps omega * length (2D elasticity) to rounding.
    mesh = benchmarks.gen_benchmark("tri2d", 1e-1, "fem")
    report = eig.critical_dt(mesh, "fem")
    assert np.isfinite(report.omega_elements).all()
    scaled = eig.critical_dt(_scaled(mesh, 1e-8), "fem")
    assert scaled.omega_star * 1e-8 == pytest.approx(report.omega_star,
                                                     rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["prism3d", "wedge", "kite", "spireC"])
def test_fem_step_scales_with_the_mesh_by_2_to_the_300(name):
    # A face area is computed from the face's own scale, so at 2^-300 m it
    # does not underflow to 0 (its squared components do) and the mesh is
    # valid: the FEM step scales as the length, 2^k dt, to rounding.
    mesh = benchmarks.gen_benchmark(name, 1e-3, "fem")
    dt = eig.critical_dt(mesh, "fem").dt_crit
    for k in (-300, 300):
        scaled = eig.critical_dt(_scaled(mesh, 2.0 ** k), "fem").dt_crit
        assert scaled == pytest.approx(2.0 ** k * dt, rel=1e-14, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-1, 1e-5])
@pytest.mark.parametrize("name", ["tri2d", "prism3d", "wedge", "kite",
                                  "spireA", "spireB", "spireC"])
def test_vem_auto_step_scales_with_the_mesh_by_2_to_the_300(name, eps):
    # The moments are built in units of a power of two near each element's
    # diameter, so their L^(d+2) terms neither underflow at 2^-300 m (dt
    # once came out 1.21x too large on prism3d, ~0 on the spires) nor
    # overflow at 2^300 m (once refused as a non-finite second moment).
    mesh = benchmarks.gen_benchmark(name, eps, "vem")
    dt = eig.critical_dt(mesh, "vem", alpha0="auto").dt_crit
    for k in (-300, 300):
        scaled = eig.critical_dt(_scaled(mesh, 2.0 ** k), "vem",
                                 alpha0="auto").dt_crit
        assert scaled == pytest.approx(2.0 ** k * dt, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("fixed", [[7], [-1], [0, 3]])
def test_global_fixed_dofs_out_of_range_rejected(fixed):
    K = csr(np.diag([1.0, 4.0, 9.0]))
    with pytest.raises(ValidationError,
                       match=r"fixed dof out of range \[0, 3\)"):
        eig.global_max_frequency(K, np.ones(3), fixed)
    omega, converged, _ = eig.global_max_frequency(K, np.ones(3), [2])
    assert converged and omega == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("fixed", [[0.5], [np.nan], [1, 0.5]])
def test_global_non_integral_fixed_dof_rejected(fixed):
    # Before: [0.5] fixed dof 0 and gave sqrt(2).
    K = csr(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    with pytest.raises(ValidationError, match="^fixed dof is not an integer$"):
        eig.global_max_frequency(K, np.ones(2), fixed)
    assert (eig.global_max_frequency(K, np.ones(2), [1.0])
            == eig.global_max_frequency(K, np.ones(2), [1]))


def test_power_loop_refuses_a_complex_stiffness():
    # Before: this Hermitian K (omega^2 = 1 and 3) gave omega = 0.0.
    K = csr(np.array([[2.0, 1j], [-1j, 2.0]]))
    with pytest.raises(ValidationError,
                       match="^K must be real, not complex128$"):
        eig.global_max_frequency(K, np.ones(2))


def test_power_loop_takes_only_a_square_csr_of_the_mass_length():
    # A dense or scipy K is no longer read: K is only ever an eig.Csr.
    import scipy.sparse as sp
    for K in (np.eye(2), sp.identity(2, format="csr"), csr(np.ones((2, 3))),
              csr(np.eye(3))):
        with pytest.raises(ValidationError,
                           match=r"^K must be a square eig\.Csr with 2 rows"):
            eig.global_max_frequency(K, np.ones(2))


def test_power_loop_refuses_every_dof_fixed():
    with pytest.raises(ValidationError, match="^every dof is fixed$"):
        eig.global_max_frequency(csr(np.eye(3)), np.ones(3), [0, 1, 2])


def test_power_loop_zero_only_for_an_exactly_zero_product():
    assert eig.global_max_frequency(csr(np.zeros((3, 3))), np.ones(3)) == (
        0.0, True, 1)


@pytest.mark.parametrize("K, mass, iteration", [
    (np.diag([1.0, np.nan]), [1.0, 1.0], 1),
    (np.diag([1e300, 1.0]), [1e-10, 1.0], 1),  # K x m^-1 overflows
])
def test_power_loop_stops_at_non_finite_rayleigh_quotient(K, mass,
                                                          iteration):
    # A NumericalError at the first non-finite quotient, with no warning
    # (any warning fails the test): neither a loop to POWER_MAX_ITER on
    # NaN nor an omega of 0 made up from a norm that underflowed.
    with pytest.raises(eig.NumericalError, match="non-finite Rayleigh "
                       f"quotient .* at iteration {iteration}$"):
        eig.global_max_frequency(csr(K), np.array(mass))


def test_power_loop_runs_where_the_norm_underflowed():
    # |K x|^2 underflows to 0 here: each iterate is normalized by an
    # exactly scaled norm, so the loop converges to omega = sqrt(2e-200)
    # instead of stopping at a NaN quotient.
    omega, converged, _ = eig.global_max_frequency(
        csr(np.diag([1e-200, 2e-200])), np.ones(2))
    assert converged
    assert omega == pytest.approx(np.sqrt(2e-200), rel=1e-6)


@pytest.mark.parametrize("call", [eig.critical_dt, dynamics.assemble,
                                  dynamics.beam_problem])
def test_unknown_method_is_a_validation_error(call):
    # Before: a plain ValueError, unlike every other bad library input.
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "fem")
    with pytest.raises(ValidationError, match="^unknown method 'FEM'$"):
        call(mesh, "FEM")
    assert cli.main(["timestep", "--mesh", "wedge.json", "--method",
                     "FEM"]) == 1  # a usage error: --method has choices


@pytest.mark.parametrize("call", [eig.critical_dt, dynamics.beam_problem,
                                  dynamics.assemble])
@pytest.mark.parametrize("alpha0", [0, -1, float("nan"), float("inf"),
                                    "Auto", None])
def test_library_refuses_a_bad_preset(call, alpha0):
    # vem.preset is the one rule, with the CLI's message, under either
    # method.  Before, 0 and -1 ran the floor-free stabilization (omega*
    # 4.9459e4 on this kite), "Auto" raised a raw numpy ValueError, and
    # the fem method ran with any preset (omega* 6.0202e8).
    message = ("alpha0 must be auto, unit or a positive finite number, "
               f"got {alpha0!r}")
    for method in ("vem", "fem"):
        mesh = benchmarks.gen_benchmark("kite", 1e-5, method)
        with pytest.raises(ValidationError) as info:
            call(mesh, method, alpha0=alpha0)
        assert str(info.value) == message


def test_preset_text_and_number_agree():
    mesh = benchmarks.gen_benchmark("kite", 1e-5, "vem")
    omegas = [eig.critical_dt(mesh, "vem", alpha0=a).omega_star
              for a in ("0.5", 0.5)]
    assert omegas[0] == omegas[1] != eig.critical_dt(
        mesh, "vem", alpha0="unit").omega_star
