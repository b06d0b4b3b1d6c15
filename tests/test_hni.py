"""Boundary-reduction integration against closed forms and the simplicial
decomposition oracle."""

import numpy as np
import pytest

from polyvem import benchmarks, hni, mesh as meshmod

from conftest import exponents_up_to, polytope_monomial_oracle


def unit_tet_mesh():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return meshmod.Mesh(3, verts, [meshmod.tet_element((0, 1, 2, 3))])


def unit_cube_mesh():
    square = meshmod.Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                          [meshmod.Element(loop=(0, 1, 2, 3))])
    return meshmod.extrude(square, 1.0)


def test_unit_tet_basics():
    m = unit_tet_mesh()
    integ = meshmod.element_integrator(m, 0)
    assert integ.integrate((0, 0, 0)) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert integ.integrate((1, 1, 1)) == pytest.approx(1.0 / 720.0, rel=1e-13)


def test_unit_cube_product_integrals():
    m = unit_cube_mesh()
    integ = meshmod.element_integrator(m, 0)
    assert integ.integrate((1, 0, 0)) == pytest.approx(0.5, rel=1e-14)
    # closed-form product integral of x^2 * y * 1
    assert integ.integrate((2, 1, 0)) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert integ.integrate((4, 0, 0)) == pytest.approx(0.2, rel=1e-14)


def test_polygon_basics():
    tri = hni.PolygonIntegrator(np.array([[0.0, 0], [1, 0], [0, 1]]))
    assert tri.integrate((0, 0)) == pytest.approx(0.5, rel=1e-14)
    assert tri.integrate((1, 1)) == pytest.approx(1.0 / 24.0, rel=1e-14)
    sq = hni.PolygonIntegrator(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    assert sq.integrate((2, 1)) == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize("builder", [
    unit_tet_mesh,
    unit_cube_mesh,
    lambda: benchmarks.gen_benchmark("kite", 0.1, "fem"),
    lambda: benchmarks.gen_benchmark("kite", 0.1, "vem"),
    lambda: benchmarks.gen_benchmark("spireC", 1e-3, "vem"),
])
def test_matches_simplicial_oracle_to_degree_four(builder):
    mesh = builder()
    for e in range(mesh.num_elements):
        integ = meshmod.element_integrator(mesh, e)
        for exponent in exponents_up_to(3, 4):
            got = integ.integrate(exponent)
            want = polytope_monomial_oracle(mesh, e, exponent)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-16)


def test_polygon_matches_oracle():
    mesh = benchmarks.gen_benchmark("tri2d", 0.1, "vem")
    for e in range(mesh.num_elements):
        integ = meshmod.element_integrator(mesh, e)
        for exponent in exponents_up_to(2, 4):
            want = polytope_monomial_oracle(mesh, e, exponent)
            assert integ.integrate(exponent) == pytest.approx(
                want, rel=1e-12, abs=1e-16)


def test_translation_consistency():
    # Integrating scaled monomials on shifted coordinates must agree with
    # the binomial recombination of raw moments.
    mesh = benchmarks.gen_benchmark("kite", 0.1, "vem")
    geom = mesh.geometry
    el = mesh.elements[0]
    nodes = meshmod.element_nodes(mesh, [0])[0].tolist()
    local = {g: i for i, g in enumerate(nodes)}
    shifted = mesh.vertices[list(nodes)] - geom.centroid[0]
    faces = [tuple(local[v] for v in f) for f in el.faces]
    direct = hni.PolyhedronIntegrator(shifted, faces)
    h = geom.diameter[0]
    for key, val in geom.scaled_moments.items():
        q = sum(key)
        want = direct.integrate(key) / h ** q
        assert val[0] == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_additivity_under_agglomeration():
    fem = benchmarks.gen_benchmark("kite", 0.1, "fem")
    vem = benchmarks.gen_benchmark("kite", 0.1, "vem")
    merged = meshmod.element_integrator(vem, 0)
    parts = [meshmod.element_integrator(fem, e)
             for e in range(fem.num_elements)]
    for exponent in exponents_up_to(3, 3):
        total = sum(p.integrate(exponent) for p in parts)
        assert merged.integrate(exponent) == pytest.approx(
            total, rel=1e-12, abs=1e-15)


def test_centroid_zeroes_first_scaled_moments():
    mesh = benchmarks.gen_benchmark("spireC", 1e-2, "vem")
    geom = mesh.geometry
    for axis in range(3):
        key = tuple(1 if a == axis else 0 for a in range(3))
        assert abs(geom.scaled_moments[key][0]) < 1e-12 * geom.volume[0]


def test_scaled_moment_example_cube():
    mesh = unit_cube_mesh()
    # variance of x over the cube is 1/12; scaling by h^2 = 3 gives 1/36.
    assert mesh.geometry.scaled_moments[(2, 0, 0)][0] == pytest.approx(
        1.0 / 36.0, rel=1e-13)


def test_rejects_negative_exponent():
    # Before: a plain ValueError, unlike every other bad library input.
    m = unit_tet_mesh()
    integ = meshmod.element_integrator(m, 0)
    with pytest.raises(meshmod.ValidationError, match="nonnegative"):
        integ.integrate((-1, 0, 0))


@pytest.mark.parametrize("build, message", [
    (lambda: hni.PolygonIntegrator(np.eye(3)),
     "polygon vertices must be 2D"),
    (lambda: hni.PolygonIntegrator(np.array([[0.0, 0], [0, 0], [0, 1]])),
     "polygon has a zero-length edge"),
    (lambda: hni.PolyhedronIntegrator(np.eye(2), [(0, 1, 0)]),
     "polyhedron vertices must be 3D"),
    (lambda: hni.PolyhedronIntegrator(np.eye(3), [(0, 1, 1)]),
     "zero-area face in polyhedron")],
    ids=["polygon-3d", "zero-edge", "polyhedron-2d", "zero-face"])
def test_bad_integrator_input_is_a_validation_error(build, message):
    # Before: a plain ValueError for each.
    with pytest.raises(meshmod.ValidationError, match=f"^{message}$"):
        build()


def test_degree_six_closed_forms():
    # The reduction is exact at any degree, not just the order the mass
    # matrix needs: spot-check degree 6 against product integrals.
    cube = unit_cube_mesh()
    integ = meshmod.element_integrator(cube, 0)
    assert integ.integrate((6, 0, 0)) == pytest.approx(1.0 / 7.0, rel=1e-13)
    assert integ.integrate((2, 2, 2)) == pytest.approx(1.0 / 27.0, rel=1e-13)
    tet = unit_tet_mesh()
    integ_t = meshmod.element_integrator(tet, 0)
    # simplex factorial formula: a! b! c! d! / (a+b+c+3)! * 6V with d = 0
    import math
    want = (math.factorial(2) ** 3) / math.factorial(9)
    assert integ_t.integrate((2, 2, 2)) == pytest.approx(want, rel=1e-13)


def test_norm_of_one_vector_is_numpys_and_scales_exactly():
    # The power loop's normalization: np.linalg.norm's bits in range, and
    # at 2^-540 (whose squares underflow) the same bits scaled back.
    x = np.random.default_rng(5).standard_normal(3846)
    assert hni._norms(x) == np.linalg.norm(x)
    assert np.linalg.norm(np.ldexp(x, -540)) == 0.0
    assert hni._norms(np.ldexp(x, -540)) == np.ldexp(np.linalg.norm(x), -540)
