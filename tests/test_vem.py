"""Virtual element matrices: projector identities, simplex equivalence,
mass consistency, and lumping."""

import numpy as np
import pytest

from polyvem import benchmarks, eig, fem, mesh as meshmod, vem
from polyvem.mesh import Element, Mesh, ValidationError, tet_element

from conftest import clustered_polygon, random_rotation, random_tet_mesh


def cube_mesh():
    square = Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                  [Element(loop=(0, 1, 2, 3))])
    return meshmod.extrude(square, 1.0)


def scaled_coords(mesh, em):
    """(x - centroid) / diameter at element 0's nodes, in dof order; `em`
    is the group_matrices stack of [0]."""
    g = mesh.geometry
    return (mesh.vertices[em.nodes[0]] - g.centroid[0]) / g.diameter[0]


def test_dof_matrix_against_direct_evaluation(kite_meshes):
    mesh = kite_meshes[(1e-1, "vem")]
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    D = em.D[0]
    n = em.nodes.shape[1]
    xi, eta, zeta = scaled_coords(mesh, em).T
    modes = [
        lambda: (np.ones(n), np.zeros(n), np.zeros(n)),
        lambda: (np.zeros(n), np.ones(n), np.zeros(n)),
        lambda: (np.zeros(n), np.zeros(n), np.ones(n)),
        lambda: (np.zeros(n), -zeta, eta),
        lambda: (zeta, np.zeros(n), -xi),
        lambda: (-eta, xi, np.zeros(n)),
        lambda: (np.zeros(n), zeta, eta),
        lambda: (zeta, np.zeros(n), xi),
        lambda: (eta, xi, np.zeros(n)),
        lambda: (xi, np.zeros(n), np.zeros(n)),
        lambda: (np.zeros(n), eta, np.zeros(n)),
        lambda: (np.zeros(n), np.zeros(n), zeta),
    ]
    for col, mode in enumerate(modes):
        ux, uy, uz = mode()
        expected = np.concatenate([ux, uy, uz])
        assert D[:, col] == pytest.approx(expected, abs=1e-14)


def test_dof_matrix_node_at_centroid():
    # A node exactly at the centroid has vanishing xi/eta/zeta entries.
    mesh = cube_mesh()
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    sc = scaled_coords(mesh, em)
    D = em.D[0]
    # no cube vertex sits at the centroid, so emulate by direct check of
    # the scaled coordinates entering D
    assert D[:8, 9] == pytest.approx(sc[:, 0])


def test_unit_tet_first_column_pattern():
    mesh = random_tet_mesh(np.random.default_rng(0))
    D = vem.group_matrices(mesh, [0], alpha0="unit").D[0]
    assert D.shape == (12, 12)
    assert D[:, 0] == pytest.approx([1, 1, 1, 1] + [0] * 8)


@pytest.mark.parametrize("builder", [
    cube_mesh,
    lambda: benchmarks.gen_benchmark("kite", 0.1, "vem"),
    lambda: benchmarks.gen_benchmark("kite", 1e-5, "vem"),
    lambda: benchmarks.gen_benchmark("spireC", 1e-3, "vem"),
    lambda: benchmarks.gen_benchmark("tri2d", 0.1, "vem"),
])
def test_projector_identities(builder):
    mesh = builder()
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    D, Pi = em.D[0], em.Pi[0]
    scale = np.abs(Pi).max()
    assert np.abs(Pi @ D - D).max() <= 1e-10 * max(1.0, np.abs(D).max())
    assert np.abs(Pi @ Pi - Pi).max() <= 1e-10 * scale
    # L2 projector reproduces linears and idempotency
    D0, S0 = em.D0[0], em.S0[0]
    Pi0 = D0 @ S0
    assert np.abs(Pi0 @ D0 - D0).max() <= 1e-10 * max(1.0, np.abs(D0).max())
    assert np.abs(Pi0 @ Pi0 - Pi0).max() <= 1e-10 * max(1.0,
                                                        np.abs(Pi0).max())


def test_stability_vanishes_on_polynomials(kite_meshes):
    mesh = kite_meshes[(1e-1, "vem")]
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    K, Kc, Ks, D = em.K[0], em.Kc[0], em.Ks[0], em.D[0]
    assert np.abs(Ks @ D).max() <= 1e-10 * np.abs(K).max()
    assert np.abs(K @ D - Kc @ D).max() <= 1e-10 * np.abs(K).max()


def test_rigid_modes_in_kernel(kite_meshes):
    mesh = kite_meshes[(1e-5, "vem")]
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    K, rigid = em.K[0], em.D[0, :, :6]
    assert np.abs(K @ rigid).max() <= 1e-9 * np.abs(K).max()


def test_simplex_equivalence_3d():
    rng = np.random.default_rng(11)
    for _ in range(5):
        mesh = random_tet_mesh(rng)
        C = vem.constitutive_matrix(mesh.material, 3)
        em = vem.group_matrices(mesh, [0], alpha0="unit")
        Kv, Ks, Mv, Ms = em.K[0], em.Ks[0], em.M[0], em.Ms[0]
        Kf, Mf = fem.tet4_matrices(mesh.vertices, C, mesh.material.density)
        assert np.abs(Kv - Kf).max() <= 1e-12 * np.abs(Kf).max()
        assert np.abs(Mv - Mf).max() <= 1e-12 * np.abs(Mf).max()
        assert np.abs(Ks).max() <= 1e-12 * np.abs(Kf).max()
        assert np.abs(Ms).max() <= 1e-12 * np.abs(Mf).max()


def test_simplex_equivalence_2d():
    verts = np.array([[0.2, -0.1], [1.3, 0.2], [0.4, 1.1]])
    mesh = Mesh(2, verts, [Element(loop=(0, 1, 2), kind="tri",
                                   nodes=(0, 1, 2))])
    C = vem.constitutive_matrix(mesh.material, 2)
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    Kv, Mv = em.K[0], em.M[0]
    Kf, Mf = fem.tri3_matrices(verts, C, mesh.material.density)
    assert np.abs(Kv - Kf).max() <= 1e-12 * np.abs(Kf).max()
    assert np.abs(Mv - Mf).max() <= 1e-12 * np.abs(Mf).max()


def test_mass_total_and_psd():
    mesh = cube_mesh()
    rho = mesh.material.density
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    M, volume = em.M[0], mesh.geometry.volume[0]
    n = em.nodes.shape[1]
    ones_x = np.zeros(3 * n)
    ones_x[:n] = 1.0
    assert ones_x @ M @ ones_x == pytest.approx(rho * volume, rel=1e-12)
    assert np.abs(M - M.T).max() <= 1e-12 * np.abs(M).max()
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() >= -1e-12 * rho * volume


def test_l2_projector_cube_oracle():
    """The cube's L2 system reproduced by brute-force face/moment quadrature.

    The projector equations only involve exact moments of linears, so an
    independent assembly of G0 and B0-hat (second path: direct integrals)
    pins S0; symmetry patterns of the cube add a structural check.
    """
    mesh = cube_mesh()
    em = vem.group_matrices(mesh, [0], alpha0="unit")
    D0, G0, B0, S0 = em.D0[0], em.G0[0], em.B0[0], em.S0[0]
    volume, h = mesh.geometry.volume[0], mesh.geometry.diameter[0]
    n = em.nodes.shape[1]
    # Independent G0: row 0 is the vertex-average of each monomial; rows
    # 1..3 are grad-grad volume integrals |E|/h^2 I.
    sc = scaled_coords(mesh, em)
    G0_ind = np.zeros((4, 4))
    G0_ind[0, 0] = 1.0
    G0_ind[0, 1:] = sc.mean(axis=0)
    G0_ind[1:, 1:] = volume / h ** 2 * np.eye(3)
    assert G0 == pytest.approx(G0_ind, abs=1e-14)
    # Independent B0-hat rows 1..3: sum over faces of n |f|/(3 h) per vertex.
    B0_ind = np.zeros((4, n))
    B0_ind[0] = 1.0 / n
    el = mesh.elements[0]
    for f in el.faces:
        area, normal = meshmod.triangle_area_normal(mesh.vertices[list(f)])
        for v in f:
            B0_ind[1:, v] += normal * area / (3.0 * h)
    assert B0 == pytest.approx(B0_ind, abs=1e-14)
    # The matched system pins S0 itself.
    S0_ind = np.linalg.solve(G0_ind, B0_ind)
    assert S0 == pytest.approx(S0_ind, abs=1e-13)
    # Column sums: projecting sum of all hats (the constant 1) gives (1,0,0,0)
    assert S0.sum(axis=1) == pytest.approx([1, 0, 0, 0], abs=1e-12)
    # Constant weights stay uniform; gradient weights follow each vertex's
    # octant in sign (their magnitudes differ with the cap triangulation).
    assert S0[0] == pytest.approx(np.full(n, 1.0 / 8.0), abs=1e-12)
    assert np.sign(S0[1:]) == pytest.approx(np.sign(sc).T)


def _scaled_diagonal(mesh, M):
    vol, diag = mesh.geometry.volume[0], np.diag(M)
    return diag * (mesh.dimension * mesh.material.density * vol / diag.sum())


def test_lumping_modes():
    # The two masses of the one lumping rule, bit for bit: row sums for a
    # convex element whose row sums are all positive, the diagonal scaled
    # to d rho |E| for a convex one with a non-positive row sum.  Both
    # conserve d rho |E| and are positive.
    for mesh, row_sums_positive in (
            (cube_mesh(), True),
            (clustered_polygon(np.linspace(0, 0.2, 5)), False)):
        rho, vol, d = (mesh.material.density, mesh.geometry.volume[0],
                       mesh.dimension)
        M = vem.group_matrices(mesh, [0], alpha0="unit").M[0]
        assert mesh.geometry.convex[0]
        assert bool((M.sum(axis=1) > 0).all()) is row_sums_positive
        expected = M.sum(axis=1) if row_sums_positive else _scaled_diagonal(
            mesh, M)
        ml = vem.lump(M, rho, vol, d, True)
        assert ml.tobytes() == expected.tobytes()
        assert ml.sum() == pytest.approx(d * rho * vol, rel=1e-12)
        assert np.all(ml > 0)
    # A stack: the convex middle element's negative row sum takes it to
    # its scaled diagonal; its neighbours keep their row sums.
    good, bad = np.eye(2), np.array([[1.0, -2.0], [-2.0, 1.0]])
    ml = vem.lump(np.stack([good, bad, good]), 1.0, np.ones(3), 1,
                  np.ones(3, bool))
    assert ml.tolist() == [[1.0, 1.0], [0.5, 0.5], [1.0, 1.0]]


def test_lump_auto_picks_by_convexity(kite_meshes):
    # The rule gives a non-convex element the scaled diagonal and a convex
    # one (row sums all positive) its row sums, bit for bit through
    # eig.group_system; the two masses differ on both.
    for mesh, convex in ((kite_meshes[(1e-5, "vem")], False),
                         (cube_mesh(), True)):
        M = vem.group_matrices(mesh, [0], alpha0="unit").M[0]
        assert bool(mesh.geometry.convex[0]) is convex
        assert (M.sum(axis=1) > 0).all()
        picked, other = M.sum(axis=1), _scaled_diagonal(mesh, M)
        if not convex:
            picked, other = other, picked
        ml = eig.group_system(mesh, [0], "vem", alpha0="unit")[3][0]
        assert ml.tobytes() == picked.tobytes()
        assert ml.tobytes() != other.tobytes()


@pytest.mark.parametrize("extruded", [False, True], ids=["plane", "prism"])
@pytest.mark.parametrize("size", [4, 5, 6])
def test_clustered_convex_element_gets_a_step(size, extruded):
    # Convex, but with clustered vertices: VEM row sums go non-positive on
    # the 7- and 8-gon and on the extruded 6-, 7- and 8-gon, which once
    # refused them.  The scaled diagonal gives a finite positive step and
    # masses that sum to d rho |E|.
    mesh = clustered_polygon(np.linspace(0, 0.2, size))
    if extruded:
        mesh = meshmod.extrude(mesh, 1.0)
    assert mesh.geometry.convex[0]
    dt = eig.critical_dt(mesh, "vem", "unit").dt_crit
    assert np.isfinite(dt) and dt > 0.0
    ml = eig.group_system(mesh, [0], "vem", alpha0="unit")[3][0]
    total = mesh.dimension * mesh.material.density * mesh.geometry.volume[0]
    assert ml.sum() == pytest.approx(total, rel=1e-12, abs=0.0)


def test_unit_tet_row_sum_quarter_mass():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3))])
    _, _, _, ml = eig.group_system(mesh, [0], "vem", "unit")
    rho = mesh.material.density
    assert ml[0] == pytest.approx(
        np.full(12, rho * (1.0 / 6.0) / 4.0), rel=1e-12)


def test_nonpositive_mass_diagonal_raises():
    M = np.array([[1.0, 2.0], [2.0, -1.0]])
    with pytest.raises(ValidationError, match="mass diagonal"):
        vem.lump(M, 1.0, 1.0, 1, True)


def test_rotation_objectivity():
    rng = np.random.default_rng(5)
    mesh = benchmarks.gen_benchmark("kite", 1e-3, "vem")
    _, _, K, ml = eig.group_system(mesh, [0], "vem", alpha0="unit")
    lam = np.linalg.eigvalsh(K[0] / np.sqrt(ml[0])[:, None]
                             / np.sqrt(ml[0])[None, :])
    for _ in range(3):
        R = random_rotation(rng)
        rotated = Mesh(3, mesh.vertices @ R.T, mesh.elements, mesh.material)
        _, _, K2, ml2 = eig.group_system(rotated, [0], "vem",
                                         alpha0="unit")
        lam2 = np.linalg.eigvalsh(K2[0] / np.sqrt(ml2[0])[:, None]
                                  / np.sqrt(ml2[0])[None, :])
        assert lam2[-1] == pytest.approx(lam[-1], rel=1e-9)


def test_singular_projector_reported():
    # A zero-volume element cannot pass validate_mesh, so build the
    # element matrices of an unvalidated flat tetrahedron.
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [0.4, 0.4, 0.0]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3))])
    with pytest.raises(ValidationError, match="element 0"):
        vem.group_matrices(mesh, [0], "unit")


def _scaled_meshes():
    """Catalog meshes and a unit tet at scales from subnormal to near
    overflow, some off powers of two, and unit tets whose volume sweeps up
    to where it overflows."""
    unit_tet = meshmod.tet_mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                                          [0, 0, 1]]), [(0, 1, 2, 3)])
    bases = [unit_tet] + [benchmarks.gen_benchmark(name, 1e-1, variant)
                          for name in ("tri2d", "wedge", "kite", "spireC")
                          for variant in ("fem", "vem")]
    for base in bases:
        for k in range(-1090, 1024, 23):
            for mantissa in (1.0, 1.37):
                yield base, np.ldexp(mantissa, k)
    for volume in np.geomspace(1e300, 1.7e308, 61):
        yield unit_tet, np.cbrt(6.0) * np.cbrt(volume)


def _unvalidated_tets(spread, count=3000, seed=0):
    """One mesh of `count` disjoint, unvalidated tets: corners uniform in
    [-1, 1]^3, each coordinate scaled by 2^k for k up to `spread` in size,
    each tet by 2^k for k anywhere in the float range (about half are
    inverted)."""
    rng = np.random.default_rng(seed)
    shape = (count, 4, 3)
    v = rng.uniform(-1.0, 1.0, shape) * np.ldexp(
        1.0, rng.integers(-spread, spread + 1, shape))
    v = np.ldexp(v, rng.integers(-1074, 1024, (count, 1, 1)))
    return Mesh(3, v.reshape(-1, 3), np.arange(4 * count).reshape(-1, 4))


def _measure_check_passes(g):
    """group_matrices' measure check: a finite, positive volume and a
    finite diameter."""
    return np.isfinite(g.volume) & np.isfinite(g.diameter) & (g.volume > 0.0)


def test_moments_finite_where_the_measure_check_passes():
    # The moments are built in element units and scaled back by 2^(dim e),
    # so a scaled moment is at most its element's volume: wherever
    # group_matrices' measure check passes, every moment is finite.
    passed = 0
    for base, scale in _scaled_meshes():
        with np.errstate(over="ignore", invalid="ignore"):
            mesh = Mesh(base.dimension, base.vertices * scale, base.cells)
        g = mesh.geometry
        ok = _measure_check_passes(g)
        for key, moment in g.scaled_moments.items():
            assert np.isfinite(moment[ok]).all(), (scale, key)
        passed += ok.sum()
    assert passed > 1000


def test_moments_finite_on_validated_tets_of_any_shape_and_scale():
    # On unvalidated tets the measure check does not suffice: a needle
    # whose volume underflows in units of its diameter has NaN moments, so
    # group_matrices keeps its moment check.  Every tet that reaches that
    # check is one validation refuses.
    valid = reached = 0
    for spread in (0, 30, 300, 1074):
        with np.errstate(over="ignore", invalid="ignore"):
            g = _unvalidated_tets(spread).geometry
            finite = np.all([np.isfinite(m) for m in
                             g.scaled_moments.values()], axis=0)
        ok = _measure_check_passes(g)
        assert (g.failed_check[ok & ~finite] >= 0).all(), spread
        valid += (ok & (g.failed_check < 0)).sum()
        reached += (ok & ~finite).sum()
    assert valid > 1000 and reached > 10


def test_non_finite_second_moment_names_an_unvalidated_element():
    # A tet whose volume is finite while its diameter overflows (two
    # vertices 2e308 apart) is a non-finite measure, as in the geometry
    # table's check.  A needle passes the measure check (volume 1.7e-151,
    # diameter 1e150) but its volume underflows in units of its diameter,
    # so its moments are NaN.  Validation refuses both; the kernel names
    # each.
    wide = [[0.0, 0, 0], [1e308, 0, 0], [-1e308, 1e-300, 0], [0, 0, 1]]
    needle = [[0.0, 0, 0], [1e150, 0, 0], [0, 1e-150, 0], [0, 0, 1e-150]]
    for verts, message in ((wide, r"non-finite measure \(volume "
                                  r"1.6666666666666666e\+07, diameter inf\)$"),
                           (needle, "non-finite second moment")):
        mesh = Mesh(3, np.array(verts), [tet_element((0, 1, 2, 3))])
        g = mesh.geometry
        assert 0.0 < g.volume[0] < np.inf and g.failed_check[0] >= 0
        with pytest.raises(ValidationError, match="^element 0: " + message):
            vem.group_matrices(mesh, [0], "unit")
