"""The per-mesh geometry table against the reference integrators.

The reference is each element's geometry as computed one element at a time
before the table existed: HNI in a frame anchored at the element's first node,
scaled_moment_table, and the per-face convexity rule.  The property test
checks the table against the simplicial oracle on random tetrahedra.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyvem import agglomerate, benchmarks, hni, mesh as meshmod

from conftest import polytope_monomial_oracle, random_tet_mesh

FAMILIES = ("tri2d", "prism3d", "wedge", "kite", "spireA", "spireB",
            "spireC")


def element_points(mesh, index):
    """The element's node coordinates, in dof order (anchor first)."""
    return mesh.vertices[meshmod.element_nodes(mesh, [index])[0]]


def reference_geometry(mesh, index):
    """(volume, centroid, diameter, scaled moments) from anchored HNI."""
    el, verts = mesh.elements[index], element_points(mesh, index)
    local = mesh.vertices - verts[0]
    integ = (hni.PolygonIntegrator(local[list(el.loop)]) if mesh.dimension == 2
             else hni.PolyhedronIntegrator(local, el.faces))
    volume = integ.integrate((0,) * mesh.dimension)
    first = np.array([integ.integrate(tuple(int(a == axis)
                                            for a in range(mesh.dimension)))
                      for axis in range(mesh.dimension)])
    centroid = first / volume
    h = meshmod._max_pairwise_distance(verts)
    moments = hni.scaled_moment_table(integ, centroid, h)
    return volume, centroid + verts[0], h, moments


def reference_convex(mesh, index):
    """Every vertex on or behind every face plane (edge line in 2D)."""
    el, verts = mesh.elements[index], element_points(mesh, index)
    tol = meshmod.TAU_GEOM * meshmod._max_pairwise_distance(verts)
    if mesh.dimension == 2:
        pts = mesh.vertices[list(el.loop)]
        t = np.roll(pts, -1, axis=0) - pts
        planes = [(p, np.array([d[1], -d[0]]) / np.linalg.norm(d))
                  for p, d in zip(pts, t)]
    else:
        planes = [(mesh.vertices[f[0]],
                   meshmod.triangle_area_normal(mesh.vertices[list(f)])[1])
                  for f in el.faces]
    return all(np.all((verts - p) @ n <= tol) for p, n in planes)


def assert_table_matches_reference(mesh):
    g = mesh.geometry
    for i in range(mesh.num_elements):
        volume, centroid, h, moments = reference_geometry(mesh, i)
        assert g.volume[i] == pytest.approx(volume, rel=1e-12, abs=0.0)
        assert g.diameter[i] == h
        assert np.abs(g.centroid[i] - centroid).max() <= 1e-12 * h
        assert g.scaled_moments.keys() == moments.keys()
        for key, value in moments.items():
            assert abs(g.scaled_moments[key][i] - value) <= 1e-12 * volume
        assert g.convex[i] == reference_convex(mesh, i)


@pytest.mark.parametrize("variant", ["fem", "vem"])
def test_beam_table_matches_reference(beam_meshes, variant):
    assert_table_matches_reference(beam_meshes[("A", variant)])


@pytest.mark.parametrize("eps", [1e-1, 1e-5, 1e-8])
@pytest.mark.parametrize("family", FAMILIES)
def test_catalog_table_matches_reference(family, eps):
    for variant in ("fem", "vem"):
        assert_table_matches_reference(
            benchmarks.gen_benchmark(family, eps, variant))
    merged, _, _ = agglomerate.auto_agglomerate(
        benchmarks.gen_benchmark(family, eps, "fem"))
    assert_table_matches_reference(merged)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tets=st.integers(1, 5),
       scale=st.floats(1e-4, 1e3), shift=st.floats(-1e2, 1e2))
def test_random_tets_match_simplicial_oracle(seed, n_tets, scale, shift):
    rng = np.random.default_rng(seed)
    verts = np.vstack([random_tet_mesh(rng, scale).vertices + shift
                       for _ in range(n_tets)])
    elements = [meshmod.tet_element(tuple(range(4 * k, 4 * k + 4)))
                for k in range(n_tets)]
    mesh = meshmod.validate_mesh(meshmod.Mesh(3, verts, elements))
    for i in range(n_tets):
        # The oracle integrates about the element's own first vertex, where
        # it keeps full relative accuracy for tiny elements far out.
        corner = verts[4 * i]
        one = meshmod.Mesh(3, verts[4 * i:4 * i + 4] - corner,
                           [meshmod.tet_element((0, 1, 2, 3))])

        class Oracle:
            @staticmethod
            def integrate(exponent):
                return polytope_monomial_oracle(one, 0, exponent)

        g, h = mesh.geometry, mesh.geometry.diameter[i]
        volume = Oracle.integrate((0, 0, 0))
        centroid = np.array([Oracle.integrate(e) for e in
                             ((1, 0, 0), (0, 1, 0), (0, 0, 1))]) / volume
        assert g.volume[i] == pytest.approx(volume, rel=1e-12)
        assert np.abs(g.centroid[i] - (centroid + corner)).max() <= \
            1e-12 * (h + np.abs(corner).max())
        assert g.convex[i]
        want = hni.scaled_moment_table(Oracle, centroid, h)
        for key, value in want.items():
            assert abs(g.scaled_moments[key][i] - value) <= 1e-12 * volume
