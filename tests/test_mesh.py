"""Mesh types, validation, geometry, extrusion, and file round trips."""

import numpy as np
import pytest

from polyvem import benchmarks, mesh as meshmod
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
    cube = meshmod.extrude(square, 1.0, 1)
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
    with pytest.raises(ValidationError):
        meshmod.validate_mesh(bad)


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


def test_out_of_range_index_rejected():
    bad = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
               [Element(loop=(0, 1, 7))])
    with pytest.raises(ValidationError, match="range"):
        meshmod.validate_mesh(bad)


def test_extrude_triangle_prism():
    tri = Mesh(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
               [Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1, 2))])
    prism = meshmod.extrude(tri, 1.0, 1)
    el = prism.elements[0]
    assert el.kind == "prism"
    assert len(el.faces) == 8  # 2 caps + 3 quads split in two
    assert prism.geometry.volume[0] == pytest.approx(0.5, rel=1e-14)


def test_extrude_volume_and_layers():
    square = Mesh(2, np.array([[0.0, 0], [2, 0], [2, 1], [0, 1]]),
                  [Element(loop=(0, 1, 2, 3))])
    solid = meshmod.extrude(square, 0.7, 3)
    assert solid.num_elements == 3
    total = solid.geometry.volume.sum()
    assert total == pytest.approx(2.0 * 0.7, rel=1e-13)


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


def test_split_prisms_conforming_volume():
    tri = Mesh(2, np.array([[0.0, 0], [1, 0], [0.1, 1.2]]),
               [Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1, 2))])
    prism = meshmod.extrude(tri, 0.4, 1)
    tets = meshmod.split_prisms_to_tets(prism)
    assert tets.num_elements == 3
    vol = tets.geometry.volume.sum()
    assert vol == pytest.approx(prism.geometry.volume[0], rel=1e-13)


@pytest.mark.parametrize("reverse", [False, True])
def test_split_prisms_orients_each_tet_in_place(reverse):
    # A square (poly) beside a triangle (prism), extruded in two layers:
    # each prism's three tets take its slot in order, and each tet is
    # oriented as tet_element orients it from the vertices.  Listing the
    # prism's corners clockwise makes every tet of the split negative.
    plane = Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1], [2, 0.5]]),
                 [Element(loop=(0, 1, 2, 3)),
                  Element(loop=(1, 4, 2), kind="tri", nodes=(1, 4, 2))])
    solid = meshmod.extrude(plane, 0.5, 2)
    if reverse:
        solid = Mesh(3, solid.vertices, [
            el if el.kind != "prism" else Element(
                faces=el.faces, kind="prism",
                nodes=tuple(el.nodes[i] for i in (0, 2, 1, 3, 5, 4)))
            for el in solid.elements])
    tets = meshmod.split_prisms_to_tets(solid)
    assert [el.kind for el in tets.elements] == ["poly"] * 2 + ["tet"] * 6
    assert tets.elements[:2] == solid.elements[:2]
    for el in tets.elements[2:]:
        assert tet_element(el.nodes, solid.vertices) == el
        assert meshmod.tet_volume(*solid.vertices[list(el.nodes)]) > 0
    assert meshmod.split_prisms_to_tets(tets).elements == tets.elements


def test_is_convex():
    assert unit_tet().geometry.convex[0]
    square = Mesh(2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                  [Element(loop=(0, 1, 2, 3))])
    cube = meshmod.extrude(square, 1.0, 1)
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
            assert meshmod.element_local(mesh, e)[0] == tuple(nodes)


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
    with pytest.raises(ValueError, match="differ in node count"):
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
