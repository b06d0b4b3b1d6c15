"""Reference finite elements: kernels, mass totals, wedge quadrature, and
the reference pathological-element frequencies."""

import numpy as np
import pytest

from polyvem import benchmarks, eig, fem, mesh as meshmod, vem
from polyvem.mesh import Element, Mesh, STEEL, ValidationError


def test_tet4_rigid_modes_and_mass():
    verts = np.array([[0.0, 0, 0], [1.1, 0, 0], [0.1, 0.9, 0],
                      [0.2, 0.3, 1.2]])
    C = vem.constitutive_matrix(STEEL, 3)
    K, M = fem.tet4_matrices(verts, C, STEEL.density)
    w = np.linalg.eigvalsh(K)
    assert np.all(np.abs(w[:6]) <= 1e-8 * w[-1])
    assert np.all(w[6:] > 1e-8 * w[-1])
    vol = meshmod.tet_volume(*verts)
    assert np.trace(M) == pytest.approx(3 * STEEL.density * vol * 4 / 10,
                                        rel=1e-13)
    assert M.sum() == pytest.approx(3 * STEEL.density * vol, rel=1e-13)


def test_tet4_inverted_rejected():
    verts = np.array([[0.0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]])
    C = vem.constitutive_matrix(STEEL, 3)
    with pytest.raises(ValidationError):
        fem.tet4_matrices(verts, C, STEEL.density)


def test_tri3_rigid_modes():
    verts = np.array([[0.0, 0], [1, 0], [0.2, 0.8]])
    C = vem.constitutive_matrix(STEEL, 2)
    K, M = fem.tri3_matrices(verts, C, STEEL.density)
    w = np.linalg.eigvalsh(K)
    assert np.sum(np.abs(w) <= 1e-8 * w[-1]) == 3
    area = 0.5 * (1 * 0.8)
    assert M.sum() == pytest.approx(2 * STEEL.density * area, rel=1e-13)


def test_prism6_rigid_modes_and_volume():
    tri = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
               [Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1, 2))])
    prism = meshmod.extrude(tri, 0.7)
    C = vem.constitutive_matrix(STEEL, 3)
    K, M = fem.prism6_matrices(prism.vertices[list(prism.elements[0].nodes)],
                               C, STEEL.density)
    w = np.linalg.eigvalsh(K)
    assert np.sum(np.abs(w) <= 1e-8 * w[-1]) == 6
    # quadrature volume = cap area x height for the right prism
    assert M.sum() == pytest.approx(3 * STEEL.density * 0.5 * 0.7, rel=1e-12)


def test_prism6_negative_jacobian():
    tri = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
               [Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1, 2))])
    prism = meshmod.extrude(tri, 0.7)
    verts = prism.vertices[list(prism.elements[0].nodes)].copy()
    verts[3:, 2] = -0.7  # top cap pushed below the bottom
    C = vem.constitutive_matrix(STEEL, 3)
    with pytest.raises(ValidationError, match="Jacobian"):
        fem.prism6_matrices(verts, C, STEEL.density)


def test_fem_matches_vem_on_triangle():
    verts = np.array([[0.0, 0], [1, 0], [0, 1]])
    mesh = Mesh(2, verts, [Element(loop=(0, 1, 2), kind="tri",
                                   nodes=(0, 1, 2))])
    C = vem.constitutive_matrix(STEEL, 2)
    Kf, _ = fem.tri3_matrices(verts, C, STEEL.density)
    Kv = vem.group_matrices(mesh, [0], alpha0="unit").K[0]
    assert np.abs(Kf - Kv).max() <= 1e-12 * np.abs(Kf).max()


def test_kite_fem_frequency_table(kite_meshes):
    # Reference values: 6.0e4 at eps = 1e-1 and 6.0e8 at eps = 1e-5.
    for eps, ref in ((1e-1, 6.0e4), (1e-5, 6.0e8)):
        report = eig.critical_dt(kite_meshes[(eps, "fem")], "fem")
        assert report.omega_star == pytest.approx(ref, rel=0.15)


def test_reference_triangle_frequency():
    # The well-shaped right-triangle reference element sits near 2.0e4
    # rad/s at unit scale (order-of-magnitude reconstruction).
    mesh = benchmarks.gen_benchmark("tri2d", 0.1, "fem")
    report = eig.critical_dt(mesh, "fem")
    good = np.min(report.omega_elements)
    assert 2.0e4 / 3 <= good <= 2.0e4 * 3


def test_prism_mesh_frequency():
    mesh = benchmarks.gen_benchmark("prism3d", 0.1, "fem")
    report = eig.critical_dt(mesh, "fem")
    assert 1.7e5 / 3 <= report.omega_star <= 1.7e5 * 3


def test_unsupported_kind_rejected():
    mesh = benchmarks.gen_benchmark("kite", 0.1, "vem")
    with pytest.raises(ValidationError, match="reference finite element"):
        fem.group_matrices(mesh, [0])
