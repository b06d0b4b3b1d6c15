"""Virtual element matrices: projector identities, simplex equivalence,
mass consistency, and lumping."""

import numpy as np
import pytest

from polyvem import benchmarks, eig, fem, mesh as meshmod, vem
from polyvem.mesh import Element, Mesh, ValidationError, tet_element

from conftest import random_rotation, random_tet_mesh


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


def test_lumping_modes():
    mesh = cube_mesh()
    rho = mesh.material.density
    M = vem.group_matrices(mesh, [0], alpha0="unit").M[0]
    vol = mesh.geometry.volume[0]
    diag = np.diag(M)
    for mode, expected in (("row_sum", M.sum(axis=1)),
                           ("diag_scale", diag * (3 * rho * vol / diag.sum()))):
        ml = vem.lump(M, mode, rho, vol, 3)
        assert ml.tobytes() == expected.tobytes()
        assert ml.sum() == pytest.approx(3 * rho * vol, rel=1e-12)
        assert np.all(ml > 0)


def test_lump_auto_picks_by_convexity(kite_meshes):
    # "auto" gives a non-convex element the diag_scale masses and a convex
    # one the row_sum masses, bit for bit; the two modes differ on both.
    def masses(mesh, mode):
        return eig.group_system(mesh, [0], "vem", lumping=mode)[3].tobytes()

    for mesh, convex, mode, other in (
            (kite_meshes[(1e-5, "vem")], False, "diag_scale", "row_sum"),
            (cube_mesh(), True, "row_sum", "diag_scale")):
        assert bool(mesh.geometry.convex[0]) is convex
        assert masses(mesh, "auto") == masses(mesh, mode)
        assert masses(mesh, "auto") != masses(mesh, other)


def test_unit_tet_row_sum_quarter_mass():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3))])
    _, _, _, ml = eig.group_system(mesh, [0], "vem", lumping="row_sum")
    rho = mesh.material.density
    assert ml[0] == pytest.approx(
        np.full(12, rho * (1.0 / 6.0) / 4.0), rel=1e-12)


def test_row_sum_negative_entry_raises():
    M = np.array([[1.0, -2.0], [-2.0, 1.0]])
    with pytest.raises(ValidationError, match="diag_scale"):
        vem.lump(M, "row_sum", 1.0, 1.0, 1)


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
        vem.group_matrices(mesh, [0])
