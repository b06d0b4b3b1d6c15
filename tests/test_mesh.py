"""Mesh types, validation, geometry, extrusion, and file round trips."""

from collections import Counter

import numpy as np
import pytest

from polyvem import benchmarks, dynamics, eig, mesh as meshmod
from polyvem.mesh import (Element, MaterialParams, Mesh, ParseError,
                          ValidationError, tet_element)

def unit_tet():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return Mesh(3, verts, [tet_element((0, 1, 2, 3))])


def test_material_validation():
    with pytest.raises(ValidationError):
        MaterialParams(-1.0, 0.3, 7800.0)
    with pytest.raises(ValidationError):
        MaterialParams(210e9, 0.5, 7800.0)
    with pytest.raises(ValidationError):
        MaterialParams(210e9, 0.3, 0.0)


def test_unit_tet_geometry():
    g = unit_tet().geometry
    assert g.volume[0] == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert g.centroid[0] == pytest.approx([0.25, 0.25, 0.25])
    assert g.diameter[0] == pytest.approx(np.sqrt(2.0))
    assert not g.degenerate[0]


def test_unit_cube_geometry():
    square = Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                  [Element(loop=(0, 1, 2, 3))])
    cube = meshmod.extrude(square, 1.0)
    assert len(cube.elements[0].faces) == 12
    g = cube.geometry
    assert g.volume[0] == pytest.approx(1.0, rel=1e-14)
    assert g.centroid[0] == pytest.approx([0.5, 0.5, 0.5])
    assert g.diameter[0] == pytest.approx(np.sqrt(3.0))


def test_kite_volume_matches_split_oracle():
    # Split the kite about the y = 0 plane into two tets and sum.
    eps = 0.1
    mesh = benchmarks.gen_benchmark("kite", eps, "fem")
    v = mesh.vertices
    mid = np.array([0.0, 0.0, -eps])  # V3-V4 crosses the y=0 plane here
    t1 = abs(meshmod.tet_volume(v[0], v[1], v[3], mid))
    t2 = abs(meshmod.tet_volume(v[0], v[1], mid, v[2]))
    assert mesh.geometry.volume[0] == pytest.approx(t1 + t2, rel=1e-12)


def test_inward_face_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # Flip one face of the tet.
    faces = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 3, 2))
    bad = Mesh(3, verts, [Element(faces=faces)])
    with pytest.raises(ValidationError, match="element 0"):
        meshmod.validate_mesh(bad)


def test_all_faces_inward_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    faces = tuple(tuple(reversed(f)) for f in
                  ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)))
    bad = Mesh(3, verts, [Element(faces=faces)])
    with pytest.raises(ValidationError, match=r"^element 0: faces oriented "
                       r"inward \(volume -0.166667\)$"):
        meshmod.validate_mesh(bad)


def test_zero_volume_is_not_called_inward():
    # A valid prism mesh scaled by 1e-160 keeps its face areas but its
    # volume underflows to 0: a length scale out of range, not an
    # orientation fault (the inward tet above keeps that message).
    prism = benchmarks.gen_benchmark("prism3d", 1e-1, "fem")
    tiny = Mesh(3, prism.vertices * 1e-160, prism.elements, prism.material)
    with pytest.raises(ValidationError, match=r"^element 0: zero volume "
                       r"\(flat element or length scale out of range\)$"):
        meshmod.validate_mesh(tiny)


def test_clockwise_loop_rejected():
    bad = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
               [Element(loop=(0, 2, 1))])
    with pytest.raises(ValidationError, match="CCW"):
        meshmod.validate_mesh(bad)


def test_self_intersecting_loop_rejected():
    bad = Mesh(2, np.array([[0.0, 0], [4, 0], [4, 2], [3.9, -0.1],
                            [0, 2]]),
               [Element(loop=(0, 1, 2, 3, 4))])
    with pytest.raises(ValidationError, match="self-intersect"):
        meshmod.validate_mesh(bad)


def _rotated(el):
    """The element with its loop, or its faces and each face's corners,
    rotated: the same oriented element, no node list."""
    if el.loop is not None:
        return Element(loop=el.loop[1:] + el.loop[:1])
    return Element(faces=tuple(f[1:] + f[:1] for f in el.faces[::-1]))


@pytest.mark.parametrize("copy", [lambda el: el, _rotated],
                         ids=["verbatim", "rotated"])
@pytest.mark.parametrize("front", [False, True], ids=["end", "front"])
@pytest.mark.parametrize("name", ["kite", "tri2d"])
def test_overlapping_element_rejected(name, front, copy):
    # Neighbours hold their shared faces (3D) or loop edges (2D) in
    # opposite directions.  An element that holds one of an earlier
    # element's in the same direction overlaps it and is refused, by the
    # later element's id.
    mesh = benchmarks.gen_benchmark(name, 1e-1, "fem")
    first, n = mesh.elements[0], mesh.num_elements
    elements = ((copy(first),) + mesh.elements if front else
                mesh.elements + (copy(first),))
    what = ("faces in the same orientation" if mesh.dimension == 3 else
            "loop edges in the same direction")
    with pytest.raises(ValidationError, match=(
            f"^element {1 if front else n}: overlaps an earlier element: "
            f"holds one of its {what}$")):
        meshmod.validate_mesh(Mesh(mesh.dimension, mesh.vertices, elements,
                                   mesh.material))


def test_out_of_range_index_rejected():
    bad = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
               [Element(loop=(0, 1, 7))])
    with pytest.raises(ValidationError, match="range"):
        meshmod.validate_mesh(bad)


def test_extrude_triangle_prism():
    tri = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
               [Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1, 2))])
    prism = meshmod.extrude(tri, 1.0)
    el = prism.elements[0]
    assert el.kind == "prism"
    assert len(el.faces) == 8  # 2 caps + 3 quads split in two
    assert prism.geometry.volume[0] == pytest.approx(0.5, rel=1e-14)


def test_extrude_volume_and_layers():
    # One polyhedron per plane element, in order, between two vertex
    # layers: the plane at z = 0, then at z = thickness (ids + n2).
    plane = Mesh(2, np.array([[0.0, 0], [2, 0], [2, 1], [0, 1], [3, 0.5]]),
                 [Element(loop=(0, 1, 2, 3)),
                  Element(loop=(1, 4, 2), kind="tri", nodes=(1, 4, 2))])
    solid = meshmod.extrude(plane, 0.7)
    assert solid.num_elements == 2
    assert solid.vertices.tolist() == (
        [[x, y, 0.0] for x, y in plane.vertices.tolist()]
        + [[x, y, 0.7] for x, y in plane.vertices.tolist()])
    assert [el.kind for el in solid.elements] == ["poly", "prism"]
    assert solid.elements[1].nodes == (1, 4, 2, 6, 9, 7)
    assert solid.geometry.volume.tolist() == pytest.approx([1.4, 0.35],
                                                           rel=1e-13)


_TRIANGLE = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
                 [Element(loop=(0, 1, 2))])


@pytest.mark.parametrize("call, message", [
    (lambda: meshmod.validate_mesh(Mesh(4, np.zeros((5, 4)), [])),
     "unsupported dimension 4"),
    (lambda: meshmod.validate_mesh(Mesh(3, _TRIANGLE.vertices,
                                        [tet_element((0, 1, 2, 0))])),
     "vertex array shape does not match dimension"),
    (lambda: meshmod.extrude(meshmod.extrude(_TRIANGLE, 1.0), 1.0),
     "extrude expects a 2D mesh"),
    (lambda: meshmod.extrude(_TRIANGLE, 0.0), "extrude needs thickness > 0"),
    (lambda: meshmod.extrude(_TRIANGLE, -1.0),
     "extrude needs thickness > 0"),
], ids=["dimension", "vertex-shape", "extrude-3d", "zero-thickness",
        "negative-thickness"])
def test_mesh_level_input_refused(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_non_star_cap_names_its_element():
    # Element 1 is simple and valid in the plane, but its two notches leave
    # no vertex that sees the whole loop, so no fan triangulates its caps.
    verts = np.array([[0.0, 0], [2, 0], [2, 1.5], [2.5, 1.5], [2.5, 0],
                      [3, 0], [3, 2], [1, 2], [1, 0.5], [0.5, 0.5],
                      [0.5, 2], [0, 2], [4, 0]])
    plane = meshmod.validate_mesh(Mesh(2, verts, [
        Element(loop=(5, 12, 6), kind="tri", nodes=(5, 12, 6)),
        Element(loop=tuple(range(12)))]))
    with pytest.raises(ValidationError, match=(
            "^element 1: no valid fan root for cap polygon; "
            "cap is non-star-shaped$")):
        meshmod.extrude(plane, 1.0)


def _fan_one(vertices, loop):
    """The fan rule, one loop at a time: the triangles of the first root by
    ascending id whose fan triangles all pass the per-face zero-area rule,
    or None."""
    n, pts = len(loop), vertices[list(loop)]
    for r in sorted(range(n), key=lambda k: loop[k]):
        tris = [(r, (r + k) % n, (r + k + 1) % n) for k in range(1, n - 1)]
        for a, b, c in tris:
            u, v, w = pts[b] - pts[a], pts[c] - pts[a], pts[c] - pts[b]
            if u[0] * v[1] - u[1] * v[0] <= 2.0 * meshmod.TAU_GEOM * max(
                    u @ u, v @ v, w @ w):
                break
        else:
            return [tuple(loop[i] for i in t) for t in tris]
    return None


def test_fan_of_a_stack_is_the_rule_of_each_loop():
    # The beam's plane polygons and cells (3 to 6 vertices, some with
    # collinear runs that move the root off the lowest id), shuffled so
    # that the loop lengths interleave.
    verts, polygons, cells = benchmarks._beam_2d("A")
    loops = list(polygons) + list(cells)
    loops = [loops[i] for i in np.random.default_rng(5).permutation(
        len(loops))]
    caps = meshmod.fan(verts, loops)
    assert caps == [_fan_one(verts, loop) for loop in loops]
    assert {len(loop) for loop in loops} == {3, 4, 5, 6}
    assert any(cap[0][0] != min(loop) for cap, loop in zip(caps, loops))
    assert meshmod.fan(verts, []) == []


def test_fan_names_the_first_loop_without_a_root():
    # Loop 2 (12 vertices, two notches) and loop 3 (a flat triangle) have
    # no root; the error names the first of them in the stack's order.
    verts = np.array([[0.0, 0], [2, 0], [2, 1.5], [2.5, 1.5], [2.5, 0],
                      [3, 0], [3, 2], [1, 2], [1, 0.5], [0.5, 0.5],
                      [0.5, 2], [0, 2], [4, 0]])
    loops = [(5, 12, 6), (0, 1, 2, 11), tuple(range(12)), (0, 1, 4)]
    with pytest.raises(ValidationError, match="^element 2: no valid fan"):
        meshmod.fan(verts, loops)
    assert meshmod.fan(verts, loops[:2]) == [[(5, 12, 6)],
                                             [(0, 1, 2), (0, 2, 11)]]


def test_extrude_agglomerated_polygon_face_count(beam_meshes):
    counts = sorted({len(el.faces) for el in beam_meshes[("A", "vem")].elements})
    assert counts == [12, 20]  # hexahedral cells and merged hexagon prisms


def test_watertightness_of_generated_meshes():
    for name, eps in (("kite", 1e-1), ("wedge", 1e-3), ("spireB", 1e-1),
                      ("spireC", 1e-5)):
        for variant in ("fem", "vem"):
            mesh = benchmarks.gen_benchmark(name, eps, variant)
            for e, el in enumerate(mesh.elements):
                total = np.zeros(3)
                areas = []
                for f in el.faces:
                    area, n = meshmod.triangle_area_normal(
                        mesh.vertices[list(f)])
                    total += area * n
                    areas.append(area)
                assert np.linalg.norm(total) <= 1e-12 * max(areas)


def _split(prisms):
    """prism_tets of a prism mesh's node rows."""
    return meshmod.prism_tets(prisms.vertices,
                              prisms.geometry.nodes.reshape(-1, 6),
                              prisms.material)


def test_split_prisms_conforming_volume():
    tri = Mesh(2, np.array([[0.0, 0], [1, 0], [0.1, 1.2]]),
               [Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1, 2))])
    prism = meshmod.extrude(tri, 0.4)
    tets = _split(prism)
    assert tets.num_elements == 3
    vol = tets.geometry.volume.sum()
    assert vol == pytest.approx(prism.geometry.volume[0], rel=1e-13)


@pytest.mark.parametrize("reverse", [False, True])
def test_split_prisms_orients_each_tet_in_place(reverse):
    # A plane of four triangles extruded: each prism's three tets take its
    # slot in order, every tet is positive, and the side quads split as
    # extrude split them, so the tets meet face to face.  Listing each
    # prism's corners clockwise makes every tet of the split negative
    # before orientation; the result is the same tet mesh.
    plane = Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [2, 0.5], [0, 1],
                              [2, 1.5]]),
                 [Element(loop=t, kind="tri", nodes=t)
                  for t in ((0, 1, 2), (1, 3, 2), (0, 2, 4), (2, 3, 5))])
    solid = meshmod.extrude(plane, 0.5)
    given = solid
    if reverse:
        given = Mesh(3, solid.vertices, [
            Element(faces=el.faces, kind="prism",
                    nodes=tuple(el.nodes[i] for i in (0, 2, 1, 3, 5, 4)))
            for el in solid.elements])
    tets = _split(given)
    assert tets.elements == _split(solid).elements
    assert tets.num_elements == 3 * solid.num_elements
    for k, el in enumerate(tets.elements):
        assert set(el.nodes) <= set(solid.elements[k // 3].nodes)
        assert tet_element(el.nodes) == el
        assert meshmod.tet_volume(*solid.vertices[list(el.nodes)]) > 0

    def boundary(mesh):
        count = Counter(tuple(sorted(f)) for el in mesh.elements
                        for f in el.faces)
        assert max(count.values()) <= 2
        return {f for f, n in count.items() if n == 1}

    # Every tet face is shared by two tets or lies on a face of extrude's.
    assert boundary(tets) == boundary(solid)


def test_tet_mesh_flips_exactly_the_negative_rows():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [0, 0, -1], [1, 1, 1], [1, 1, -1]])
    tets = np.array([(0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 5),
                     (1, 2, 4, 6)])
    signs = [meshmod.tet_volume(*verts[t]) > 0 for t in tets]
    assert signs == [True, False, True, False]
    material = MaterialParams(1.0, 0.25, 2.0)
    mesh = meshmod.tet_mesh(verts, tets, material)
    assert [el.nodes for el in mesh.elements] == [
        (0, 1, 2, 3), (0, 2, 1, 4), (1, 2, 3, 5), (1, 4, 2, 6)]
    assert mesh.elements == tuple(tet_element(el.nodes)
                                  for el in mesh.elements)
    assert mesh.material == material
    assert tets[1].tolist() == [0, 1, 2, 4]  # the input is not modified
    assert (mesh.geometry.volume > 0).all()


def test_tet_mesh_names_an_out_of_range_id():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError, match=(
            "^element 0, face 1: vertex index out of range$")):
        meshmod.tet_mesh(verts, [(0, 1, 2, 9)])
    with pytest.raises(ValidationError, match="^mesh has no elements$"):
        meshmod.tet_mesh(verts, [])


def test_fem_path_builds_no_tet_element(monkeypatch):
    # A tet mesh keeps its array: the FEM beam run and a catalog tet
    # family's critical_dt read only the geometry table, never an Element.
    def refused(nodes):
        raise AssertionError("tet_element called on the FEM path")

    monkeypatch.setattr(meshmod, "tet_element", refused)
    exp = dynamics.tapered_beam_experiment("A", "fem", t_max_transits=0.01)
    assert not exp.result.diverged
    mesh = benchmarks.gen_benchmark("wedge", 1e-3, "fem")
    assert eig.critical_dt(mesh, "fem").omega_star > 0.0
    assert "elements" not in vars(mesh)
    with pytest.raises(AssertionError, match="tet_element called"):
        mesh.elements


def test_is_convex():
    assert unit_tet().geometry.convex[0]
    square = Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                  [Element(loop=(0, 1, 2, 3))])
    cube = meshmod.extrude(square, 1.0)
    assert cube.geometry.convex[0]
    kite = benchmarks.gen_benchmark("kite", 0.1, "vem")
    assert not kite.geometry.convex[0]
    # collinear boundary nodes do not break convexity
    quad = Mesh(2, np.array([[0.0, 0], [0.4, 0], [1, 0], [0, 1]]),
                [Element(loop=(0, 1, 2, 3))])
    assert quad.geometry.convex[0]
    lshape = Mesh(2, np.array([[0.0, 0], [2, 0], [2, 1], [1, 1],
                               [1, 2], [0, 2]]),
                  [Element(loop=(0, 1, 2, 3, 4, 5))])
    assert not lshape.geometry.convex[0]


def test_save_load_round_trip(tmp_path):
    mesh = benchmarks.gen_benchmark("spireC", 1e-3, "vem")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    meshmod.save_mesh(mesh, p1)
    loaded = meshmod.load_mesh(p1)
    meshmod.save_mesh(loaded, p2)
    again = meshmod.load_mesh(p2)
    assert np.array_equal(loaded.vertices, again.vertices)
    assert np.array_equal(mesh.vertices, loaded.vertices)
    assert [el.faces for el in loaded.elements] == \
        [el.faces for el in mesh.elements]
    assert loaded.material == mesh.material
    assert p1.read_text() == p2.read_text()


def test_round_trip_preserves_prism_metadata(tmp_path):
    mesh = benchmarks.gen_benchmark("prism3d", 0.1, "fem")
    path = tmp_path / "prisms.json"
    meshmod.save_mesh(mesh, path)
    loaded = meshmod.load_mesh(path)
    assert [el.kind for el in loaded.elements] == \
        [el.kind for el in mesh.elements]
    assert [el.nodes for el in loaded.elements] == \
        [el.nodes for el in mesh.elements]


def test_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        meshmod.load_mesh(path)
    path2 = tmp_path / "bad2.json"
    path2.write_text('{"dimension": 3, "vertices": [], "elements": [{}],'
                     ' "material": {"E": 1, "nu": 0, "rho": 1}}')
    with pytest.raises(ParseError):
        meshmod.load_mesh(path2)


def test_load_smallest_valid_mesh(tmp_path):
    mesh = unit_tet()
    path = tmp_path / "tet.json"
    meshmod.save_mesh(mesh, path)
    loaded = meshmod.load_mesh(path)
    assert loaded.num_vertices == 4
    assert loaded.num_elements == 1
    assert len(loaded.elements[0].faces) == 4
    assert loaded.elements[0].kind == "tet"


def test_empty_mesh_rejected(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"dimension": 3, "vertices": [[0,0,0],[1,0,0],[0,1,0]],'
                    ' "elements": [],'
                    ' "material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')
    with pytest.raises(ValidationError, match="mesh has no elements"):
        meshmod.load_mesh(path)


def test_generator_determinism():
    a = benchmarks.gen_benchmark("spireB", 1e-3, "vem")
    b = benchmarks.gen_benchmark("spireB", 1e-3, "vem")
    assert np.array_equal(a.vertices, b.vertices)
    assert [el.faces for el in a.elements] == [el.faces for el in b.elements]


def test_degenerate_element_flagged_not_fatal():
    eps = 1e-16
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [0.3, 0.3, eps]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3))])
    assert mesh.geometry.degenerate[0]
    assert mesh.geometry.volume[0] > 0


def test_polygonal_face_rejected(tmp_path):
    path = tmp_path / "quadface.json"
    path.write_text(
        '{"dimension": 3, '
        '"vertices": [[0,0,0],[1,0,0],[1,1,0],[0,1,0],[0.5,0.5,1]], '
        '"elements": [{"faces": [[0,3,2,1],[0,1,4],[1,2,4],[2,3,4],[3,0,4]]}], '
        '"material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')
    with pytest.raises(meshmod.ValidationError, match="triangles"):
        meshmod.load_mesh(path)


# ---------------------------------------------------------------------------
# Element.nodes validation and element-order error reporting

TWO_TETS = ('{"dimension": 3, "vertices": [[0,0,0],[1,0,0],[0,1,0],[0,0,1],'
            '[1,1,1]], "elements": [{"faces": [[0,2,1],[0,1,3],[0,3,2],'
            '[1,2,3]], "kind": "tet", "nodes": NODES}, {"faces": [[1,3,2],'
            '[1,2,4],[1,4,3],[2,3,4]], "kind": "tet", "nodes": [1,2,3,4]}],'
            ' "material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')

NODE_PROBES = [
    ("[0,1,2,999]", ValidationError,
     "element 0: node id out of range or not an integer"),
    ("[1,2,3,4]", ValidationError,
     "element 0: nodes differ from the element's vertex set"),
    ("[0,1,2]", ValidationError, "element 0: a tet needs 4 nodes, got 3"),
    ("[0.5,1,2,3]", ParseError, "element 0: non-integral vertex id 0.5"),
]


@pytest.mark.parametrize("nodes, error, match", NODE_PROBES)
def test_bad_tet_nodes_rejected(tmp_path, nodes, error, match):
    path = tmp_path / "bad.json"
    path.write_text(TWO_TETS.replace("NODES", nodes))
    with pytest.raises(error, match=match):
        meshmod.load_mesh(path)


def test_non_integral_dimension_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 2.9, "vertices": [[0,0],[1,0],[0,1]], '
                    '"elements": [{"loop": [0, 1, 2]}], '
                    '"material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')
    with pytest.raises(ParseError) as info:
        meshmod.load_mesh(path)
    assert str(info.value) == (
        f"malformed mesh file {path}: non-integral dimension 2.9")


def test_good_tet_nodes_accepted(tmp_path):
    path = tmp_path / "good.json"
    path.write_text(TWO_TETS.replace("NODES", "[0,1,2,3]"))
    assert meshmod.load_mesh(path).num_elements == 2


@pytest.mark.parametrize("nodes, match", [
    ((0.0, 1.0, 2.0, 3.0), "node id out of range or not an integer"),
    ((0, 1, 2, 2), "repeated node"),
    (None, "a tet needs 4 nodes, got 0"),
])
def test_bad_in_memory_nodes_rejected(nodes, match):
    tet = tet_element((0, 1, 2, 3))
    bad = Mesh(3, unit_tet().vertices,
               [Element(faces=tet.faces, kind="tet", nodes=nodes)])
    with pytest.raises(ValidationError, match="element 0: " + match):
        meshmod.validate_mesh(bad)


def test_first_bad_element_is_named():
    # Element 1 fails a late check (orientation), element 2 an early one
    # (index range): element order wins over check order.
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [1, 1, 1]])
    good = tet_element((0, 1, 2, 3))
    inward = Element(faces=tuple(tuple(reversed(f))
                                 for f in tet_element((1, 2, 3, 4)).faces))
    out_of_range = Element(faces=((0, 2, 1), (0, 1, 9), (0, 9, 2),
                                  (1, 2, 9)))
    mesh = Mesh(3, verts, [good, inward, out_of_range])
    with pytest.raises(ValidationError, match=r"^element 1: faces oriented"):
        meshmod.validate_mesh(mesh)
    assert mesh.geometry.error(2).startswith(
        "element 2, face 1: vertex index out of")
    square = Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                  [Element(loop=(0, 1, 2)), Element(loop=(0, 3, 2)),
                   Element(loop=(0, 1, 1))])
    with pytest.raises(ValidationError, match=r"^element 1: loop is not CCW"):
        meshmod.validate_mesh(square)


@pytest.mark.parametrize("elements", ["[5]", '{"a": 1}'])
def test_non_object_element_entry_rejected(tmp_path, elements):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 3, "vertices": [[0,0,0],[1,0,0],[0,1,0],'
                    f'[0,0,1]], "elements": {elements}, '
                    '"material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')
    with pytest.raises(ParseError, match="element 0: expected an object"):
        meshmod.load_mesh(path)


@pytest.mark.parametrize("faces", ["[]", "[[0,1],[0,1,3],[0,3,2],[1,2,3]]"])
def test_tet_faces_without_corners_rejected(tmp_path, capsys, faces):
    # The tet's corner nodes cannot be read off its faces: the load ends
    # in an error naming the element, not a raw IndexError.
    from polyvem import cli
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 3, "vertices": [[0,0,0],[1,0,0],[0,1,0],'
                    f'[0,0,1]], "elements": [{{"kind": "tet", "faces": {faces}'
                    '}], "material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')
    with pytest.raises((ParseError, ValidationError), match="^element 0"):
        meshmod.load_mesh(path)
    assert cli.main(["quality", "--mesh", str(path),
                     "--out", str(tmp_path / "q.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: element 0")


# ---------------------------------------------------------------------------
# Node lists of the geometry table


def _rule_nodes(el):
    """An element's nodes in dof order, by the stated rule: the given
    nodes, else the 2D loop, else the sorted vertex set of the faces."""
    if el.nodes is not None:
        return list(el.nodes)
    if el.loop is not None:
        return list(el.loop)
    return sorted({v for f in el.faces for v in f})


def _node_rule_meshes():
    from polyvem import agglomerate
    for name in ("tri2d", "prism3d", "wedge", "kite", "spireA", "spireB",
                 "spireC"):
        for eps in (1e-1, 1e-5, 1e-8):
            for variant in ("fem", "vem"):
                mesh = benchmarks.gen_benchmark(name, eps, variant)
                yield f"{name} {eps:g} {variant}", mesh
            fem = benchmarks.gen_benchmark(name, eps, "fem")
            yield f"{name} {eps:g} auto", agglomerate.auto_agglomerate(fem)[0]
    for case in ("A", "B"):
        for variant in ("fem", "vem"):
            yield f"beam{case} {variant}", benchmarks.gen_benchmark(
                "beam" + case, variant=variant)
        yield f"beam{case} 2d", benchmarks._beam_mesh_2d(case, "vem")


def test_table_node_lists_follow_the_rule():
    for label, mesh in _node_rule_meshes():
        g = mesh.geometry
        lists = [g.nodes[g.node_start[e]:g.node_start[e + 1]].tolist()
                 for e in range(mesh.num_elements)]
        assert lists == [_rule_nodes(el) for el in mesh.elements], label
        assert g.node_start[-1] == len(g.nodes), label
        for e, nodes in enumerate(lists):
            assert meshmod.element_nodes(mesh, [e]).tolist() == [nodes]


def test_face_owner_names_each_face_element():
    for label, mesh in _node_rule_meshes():
        g = mesh.geometry
        owners = [e for e in range(mesh.num_elements)
                  for _ in range(g.face_start[e], g.face_start[e + 1])]
        assert g.face_owner.tolist() == owners, label
        assert len(g.face_owner) == len(g.faces), label
        with pytest.raises(ValueError, match="read-only"):
            g.face_owner[...] = 0


def test_element_nodes_rejects_mixed_node_counts(beam_meshes):
    mesh = beam_meshes[("A", "vem")]
    sizes = np.diff(mesh.geometry.node_start)
    mixed = [int(np.flatnonzero(sizes == n)[0]) for n in (8, 12)]
    with pytest.raises(ValidationError, match="differ in node count"):
        meshmod.element_nodes(mesh, mixed)


# ---------------------------------------------------------------------------
# Fields of the geometry table built on first read

ON_DEMAND = ("_raw", "centroid", "scaled_moments", "convex")


def _fresh(mesh):
    """A new Mesh of the same data: its table is not built yet."""
    return Mesh(mesh.dimension, mesh.vertices, mesh.elements, mesh.material)


@pytest.mark.parametrize("name, variant", [
    ("tri2d", "fem"), ("tri2d", "vem"), ("prism3d", "fem"),
    ("kite", "vem"), ("spireC", "fem")])
def test_validation_builds_no_on_demand_field(name, variant):
    mesh = _fresh(benchmarks.gen_benchmark(name, 1e-3, variant))
    meshmod.validate_mesh(mesh)
    g = mesh.geometry
    assert not set(ON_DEMAND) & set(vars(g))
    # Each field is built by its first read, and only that one.
    g.convex
    assert set(ON_DEMAND) & set(vars(g)) == {"convex"}
    g.integrate((0,) * mesh.dimension)
    assert set(ON_DEMAND) & set(vars(g)) == {"convex", "_raw"}


def test_face_queries_build_no_on_demand_field(beam_meshes):
    # Shape quality, agglomeration and node lists read the eager part only,
    # on the input mesh and on the merged one.
    from polyvem import agglomerate, quality
    mesh = _fresh(beam_meshes[("A", "fem")])
    quality.mesh_report(mesh)
    merged, mapping, _ = agglomerate.auto_agglomerate(mesh)
    assert merged.num_elements < mesh.num_elements
    meshmod.element_nodes(mesh, [0, 1])
    for m in (mesh, merged):
        assert not set(ON_DEMAND) & set(vars(m.geometry))


@pytest.mark.parametrize("name, eps, variant", [
    ("kite", 1e-5, "vem"), ("beamA", None, "fem"), ("tri2d", 1e-3, "vem")])
def test_every_table_array_is_read_only(name, eps, variant):
    g = _fresh(benchmarks.gen_benchmark(name, eps, variant)).geometry
    eager = {k for k, v in vars(g).items() if isinstance(v, np.ndarray)}
    assert {"face_start", "failed_check", "nodes", "_V"} <= eager
    g.centroid, g.convex, g.scaled_moments  # build every on-demand field
    arrays = {}
    for k, v in vars(g).items():
        items = (v.items() if isinstance(v, dict) else enumerate(v)
                 if isinstance(v, tuple) else [(None, v)])
        arrays.update({(k, j): a for j, a in items
                       if isinstance(a, np.ndarray)})
    assert {k for k, _ in arrays} >= set(ON_DEMAND) | eager
    assert [k for k, a in arrays.items() if a.flags.writeable] == []


def test_table_leaves_mesh_vertices_writable():
    mesh = _fresh(benchmarks.gen_benchmark("wedge", 1e-3, "vem"))
    mesh.geometry
    assert mesh.vertices.flags.writeable


def test_on_demand_arrays_are_read_only():
    mesh = benchmarks.gen_benchmark("wedge", 1e-3, "vem")
    g = mesh.geometry
    arrays = [g.centroid, g.convex, *g.scaled_moments.values(), *g._raw,
              g.integrate((1, 0, 0)), g.integrate((0, 1, 1))]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
