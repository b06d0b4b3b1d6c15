"""The per-mesh geometry table against the reference integrators.

The reference is each element's geometry as computed one element at a time
before the table existed: HNI in a frame anchored at the element's first node,
scaled_moment_table, and the per-face convexity rule.  The property test
checks the table against the simplicial oracle on random tetrahedra.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyvem import agglomerate, benchmarks, hni, mesh as meshmod
from polyvem.mesh import Mesh

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


# SHA-256 of each array of the geometry table (FIELDS, then the scaled
# moments by exponent), with its name, dtype and shape.  Recorded before
# the table build was cut to one pass per quantity; every bit was kept.
FIELDS = ("faces", "face_areas", "face_normals", "edge_lengths", "nodes",
          "node_start", "volume", "diameter", "degenerate", "failed_check",
          "centroid", "convex")
TABLE_SHA256 = {
    ('tri2d', 0.1, 'fem'):
        "97568405c55e18ade6441da1d033dde91eb66163b3f2bc0acb6690feb88da651",
    ('tri2d', 0.1, 'vem'):
        "ac06b4c38bb8d7236a0ed0c64b979f1135821cc67eef31e48732c4265ff5c227",
    ('tri2d', 1e-05, 'fem'):
        "4453aacaa22981600333c6e07525662a49c86d4e8529e585478985e4db27a088",
    ('tri2d', 1e-05, 'vem'):
        "d9688bd110a007facfd409c1b43ccd40368988c08f275b6a9ac3db038ad2b42c",
    ('prism3d', 0.1, 'fem'):
        "120ce3dc19abe7dcc8ddc16be3e7c04515df279edad62412ddfeef28520595f7",
    ('prism3d', 0.1, 'vem'):
        "1ec1dac67475b08d086b384fd17088589f76fe2ba3fa7669e1472342ea1823c3",
    ('prism3d', 1e-05, 'fem'):
        "01e13b53e1fa463961e98027719c733bb022e0fa9dd504acfdf2cce2eb82dead",
    ('prism3d', 1e-05, 'vem'):
        "b524177566ed4c2b03191ab98be8f34fd5bd4f172909e2a402b9652416e02733",
    ('wedge', 0.1, 'fem'):
        "aa5a63c88790af00c15e87fb84929318c738080c38d9c7c74321fc6234a37274",
    ('wedge', 0.1, 'vem'):
        "2f4f7ca04dc1b30b153e236ace38aa23f77ad8bd3dd523f73433d1d46ff813f4",
    ('wedge', 1e-05, 'fem'):
        "9962a9e45535bf4b14fc10ac4dad8544884de0edc8f0a5f3157d7d47dc3e7d0f",
    ('wedge', 1e-05, 'vem'):
        "e0f856139ce12725b79d445e9753d85a18bb02f3031a8d114a04654484473346",
    ('kite', 0.1, 'fem'):
        "4633cbb9bba2ae1a2d96493445f283a9a1f1a032aede76ec7475d7aed4e36471",
    ('kite', 0.1, 'vem'):
        "648f49ade3085e435df895fb03d4bc676f9294e04f9ced9ec46d8d3a2117ca16",
    ('kite', 1e-05, 'fem'):
        "b961f366bee706213844e3cadc8ccfeeb913112bfe07873ed73bc110349e5531",
    ('kite', 1e-05, 'vem'):
        "be08b790db1364a003cd82eba8f628be8f37b907015159dd29775fecc513c384",
    ('spireA', 0.1, 'fem'):
        "49d014f5eaaa22badab6dd58e62c4cec7463ff233063444a73b1d00239a5e603",
    ('spireA', 0.1, 'vem'):
        "83e3e95decf21aa276fa2ffa56383e8782c795cea60e938002ae229b89d3b178",
    ('spireA', 1e-05, 'fem'):
        "a97005104c4e7406c9865ff03a9eefb942c7f61068c7abf23ec9980254a5219a",
    ('spireA', 1e-05, 'vem'):
        "f0ccf8616964f261ae9df3f5bf69b4ace26da17dfa61400ec30d5e7d598d756a",
    ('spireB', 0.1, 'fem'):
        "0d01e36e3ce7a7f52e7729f86c38fc642fe86c2f3c9f9cc6943acfee128eb192",
    ('spireB', 0.1, 'vem'):
        "28441fedda4809d5f6c1007d89ef59ade3799ebb7c02bcbccc939ccabab43b23",
    ('spireB', 1e-05, 'fem'):
        "ee9380cc570fdbca84a1eeced93340452e703193adc1bff122d3d7ba3d7b12e2",
    ('spireB', 1e-05, 'vem'):
        "745a52de3a8fdd7dd6f5546b6040c861b2112bab63d2a701856a7dc7e1a3c242",
    ('spireC', 0.1, 'fem'):
        "c9a3e787851f580868c4c1d25a8e9c4a58ebca8e062adaaf3a85987e93c0a98f",
    ('spireC', 0.1, 'vem'):
        "95a8b7c6cc78719f81ce26f373a51e2a21543a4b13611f15d0a162284f219538",
    ('spireC', 1e-05, 'fem'):
        "293befd857b9624125a8cc8679fc45723dc3e2c19b34c8b38a41bb28c968137b",
    ('spireC', 1e-05, 'vem'):
        "ce403597463c21f41f9b6bb307ff9933d5f0791b4d90ff681974e349a9c3beae",
    ('beamA', None, 'fem'):
        "dea3866167e6f17c0db688963a6b42ec204fafc4a80ce203f7a6d044b883e646",
    ('beamA', None, 'vem'):
        "da95f8e2ffb51ad50744c4e0c962da3e02a0b9762d5d139afcfff9670bd9c1e2",
    ('beamB', None, 'fem'):
        "e5a48ed691edb7b32d5712affb56fb8dca7a0b190d4d0a5de36ad58b83249976",
    ('beamB', None, 'vem'):
        "41a039c2afcae5d7f66eaba053dc23d2a93639c42360a4eefc9a0339b485d257",
}


def table_digest(mesh):
    g, digest = mesh.geometry, hashlib.sha256()
    for name, a in [(name, getattr(g, name)) for name in FIELDS] + sorted(
            g.scaled_moments.items()):
        a = np.ascontiguousarray(a)
        digest.update(f"{name} {a.dtype} {a.shape}".encode() + a.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name, eps, variant", list(TABLE_SHA256))
def test_table_bytes_are_pinned(beam_meshes, name, eps, variant):
    mesh = (beam_meshes[(name[-1], variant)] if name.startswith("beam")
            else benchmarks.gen_benchmark(name, eps, variant))
    assert table_digest(mesh) == TABLE_SHA256[name, eps, variant]


# Meshes whose elements each fail several checks.  An element is named by
# its first fault, in the order of the checks: face rows, edges, measures,
# overlap with an earlier element, then the given nodes.
_UNIT = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
_TETS = [meshmod.tet_element(nodes).faces
         for nodes in ((0, 1, 2, 3), (0, 1, 2, 4), (4, 5, 6, 7))]
MULTI_FAULT = {
    # An out-of-range id, a repeated vertex, and three nodes for a tet.
    "3d-face-checks": Mesh(3, _UNIT, [meshmod.Element(
        faces=((0, 2, 1), (0, 1, 9), (0, 3, 3), (1, 2, 3)), kind="tet",
        nodes=(0, 1, 2))]),
    # Valid; inverted and overlapping; open; overlapping with 3 nodes.
    "3d-open-inward-overlap": Mesh(3, np.vstack([_UNIT, [[1.0, 1, 1]]]), [
        meshmod.tet_element((0, 1, 2, 3)), meshmod.tet_element((0, 2, 1, 3)),
        meshmod.Element(faces=_TETS[0][:3]),
        meshmod.Element(faces=_TETS[1], kind="tet", nodes=(0, 1, 2))]),
    # A node off the vertex set; a prism of 4 nodes, one repeated and one
    # out of range; that element again, its faces in reverse order.
    "3d-nodes": Mesh(3, np.vstack([_UNIT, _UNIT + 2.0]), [
        meshmod.Element(faces=_TETS[0], kind="tet", nodes=(0, 1, 2, 5)),
        meshmod.Element(faces=_TETS[2], kind="prism", nodes=(4, 5, 5, 9)),
        meshmod.Element(faces=_TETS[2][::-1], kind="tet",
                        nodes=(4, 5, 5, 9))]),
    # A repeated and an out-of-range vertex; a flat loop; a clockwise
    # triangle; a loop held before, with two nodes for a triangle.
    "2d-loops": Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1], [2, 0]]), [
        meshmod.Element(loop=(0, 1, 1, 9)), meshmod.Element(loop=(0, 1, 3)),
        meshmod.Element(loop=(0, 2, 1), kind="tri", nodes=(0, 2, 1)),
        meshmod.Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1))]),
    # Inverted, its volume -inf: the measure, by both values.
    "3d-huge-inverted": Mesh(3, _UNIT * 1e150,
                             [meshmod.tet_element((0, 2, 1, 3))]),
}
_OVERLAP = "overlaps an earlier element: holds one of its "
FIRST_FAULTS = {
    "3d-face-checks": ["element 0, face 1: vertex index out of range"],
    "3d-open-inward-overlap": [
        None, "element 1: faces oriented inward (volume -0.166667)",
        "element 2: fewer than 4 faces",
        "element 3: " + _OVERLAP + "faces in the same orientation"],
    "3d-nodes": [
        "element 0: nodes differ from the element's vertex set",
        "element 1: a prism needs 6 nodes, got 4",
        "element 2: " + _OVERLAP + "faces in the same orientation"],
    "2d-loops": [
        "element 0: repeated vertex in loop",
        "element 1: loop is not CCW or has vanishing area",
        "element 2: loop is not CCW or has vanishing area",
        "element 3: " + _OVERLAP + "loop edges in the same direction"],
    "3d-huge-inverted": [
        "element 0: non-finite measure (volume -inf, diameter "
        "1.4142135623730950e+150)"],
}


@pytest.mark.parametrize("label", list(MULTI_FAULT))
def test_first_fault_of_each_element_is_pinned(label):
    mesh = MULTI_FAULT[label]
    assert [mesh.geometry.error(e) for e in range(mesh.num_elements)] == \
        FIRST_FAULTS[label]
