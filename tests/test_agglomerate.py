"""Element merging: face bookkeeping, conservation, and the greedy
auto-agglomeration policy."""

import numpy as np
import pytest

from polyvem import agglomerate, benchmarks, cli, mesh as meshmod
from polyvem.agglomerate import MergeError
from polyvem.mesh import Element, Mesh, ValidationError, tet_element


def two_tets():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [1.0, 1.0, 1.0]])
    t1 = tet_element((0, 1, 2, 3))
    t2 = tet_element((1, 3, 2, 4)) \
        if meshmod.tet_volume(verts[1], verts[3], verts[2], verts[4]) > 0 \
        else tet_element((1, 2, 3, 4))
    return meshmod.validate_mesh(Mesh(3, verts, [t1, t2]))


def test_two_tets_merge_to_six_faces():
    mesh = two_tets()
    merged = agglomerate.merge(mesh, (0, 1))
    assert merged.num_elements == 1
    assert len(merged.elements[0].faces) == 6
    va = mesh.geometry.volume[0] + mesh.geometry.volume[1]
    vb = merged.geometry.volume[0]
    assert vb == pytest.approx(va, rel=1e-12)


def test_boundary_faces_preserved():
    mesh = two_tets()
    merged = agglomerate.merge(mesh, (0, 1))
    before = set()
    for el in mesh.elements:
        for f in el.faces:
            key = tuple(sorted(f))
            before.symmetric_difference_update({key})
    after = {tuple(sorted(f)) for f in merged.elements[0].faces}
    assert before == after


def test_kite_merge_six_faces(kite_meshes):
    merged = kite_meshes[(1e-1, "vem")]
    assert merged.num_elements == 1
    assert len(merged.elements[0].faces) == 6


def test_spire_case_c_merge():
    mesh = benchmarks.gen_benchmark("spireC", 1e-1, "vem")
    assert mesh.num_elements == 1
    assert len(mesh.elements[0].faces) == 8
    fem = benchmarks.gen_benchmark("spireC", 1e-1, "fem")
    va = sum(fem.geometry.volume.tolist())
    assert mesh.geometry.volume[0] == pytest.approx(va, rel=1e-12)


def test_merge_2d_polygon():
    mesh = benchmarks.gen_benchmark("tri2d", 0.1, "fem")
    merged = agglomerate.merge(mesh, (0, 1))
    assert merged.num_elements == 2
    assert len(merged.elements[0].loop) == 4
    area = sum(mesh.geometry.volume[i] for i in (0, 1))
    assert merged.geometry.volume[0] == pytest.approx(
        area, rel=1e-13)


def test_disconnected_group_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                      [10.0, 0, 0], [11, 0, 0], [10, 1, 0], [10, 0, 1]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3)),
                           tet_element((4, 5, 6, 7))])
    with pytest.raises(MergeError, match="connect|share"):
        agglomerate.merge(mesh, (0, 1))


def test_overlapping_orientation_rejected():
    # Two copies of one tet hold its faces in the same orientation: merging
    # validates the mesh first, which refuses the overlap.
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3)),
                           tet_element((0, 1, 2, 3))])
    with pytest.raises(ValidationError,
                       match="^element 1: overlaps an earlier element"):
        agglomerate.merge(mesh, (0, 1))


def mirror_slivers():
    # Mirror-image slivers about z=0 with microscopic total volume.
    eps = 1e-16
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0],
                      [0.3, 0.3, eps], [0.3, 0.3, -eps]])
    top = tet_element((0, 1, 2, 3))
    bot = tet_element((0, 2, 1, 4))
    return Mesh(3, verts, [top, bot])


def test_vanishing_volume_refused():
    mesh = mirror_slivers()
    with pytest.raises(MergeError, match="vanish"):
        agglomerate.merge(mesh, (0, 1))


def test_auto_agglomerate_refuses_vanishing_union():
    # Auto-agglomeration goes through the same union rebuild as merge, so
    # it refuses the same vanishing union instead of returning it.
    with pytest.raises(MergeError, match="vanish"):
        agglomerate.auto_agglomerate(mirror_slivers())


def pinched_tets():
    # Four valid tets in a chain about vertex 0, each sharing a face with
    # the next; the first and the last share only the edge (0, 1), so the
    # union holds that edge on four faces: closed, but not a manifold.
    verts = np.array([[0.0, 0, 0], [2, -2, 0], [-2, 0, 2], [1, -1, 2],
                      [1, 2, -2], [0, 2, 1]])
    return Mesh(3, verts, [tet_element(t) for t in (
        (0, 2, 1, 3), (0, 5, 2, 3), (0, 5, 4, 2), (0, 1, 4, 5))])


def side_by_side(*meshes):
    """The meshes' elements in one 3D mesh, each mesh shifted 4 along x
    from the one before."""
    verts, elements = [], []
    for k, m in enumerate(meshes):
        base = sum(len(v) for v in verts)
        verts.append(m.vertices + [4.0 * k, 0, 0])
        elements += [Element(faces=tuple(tuple(base + v for v in f)
                                         for f in el.faces))
                     for el in m.elements]
    return Mesh(3, np.vstack(verts), elements)


@pytest.mark.parametrize("first, later", [("vanishing", "invalid"),
                                          ("invalid", "vanishing")])
def test_first_bad_union_in_element_order_raises(first, later):
    # One merge_groups call with a good union and then two bad ones names
    # the earlier bad union by its new element id (1), with the error of
    # the check it fails; merged without it, the later one (new id 1 + the
    # earlier one's members) fails the other check.
    errors = {"vanishing": (MergeError, "merged element {} has vanishing"),
              "invalid": (ValidationError, "element {}, face 0: face "
                          "orientation mismatch on edge")}
    bad = {"vanishing": mirror_slivers(), "invalid": pinched_tets()}
    mesh = side_by_side(two_tets(), bad[first], bad[later])
    n = bad[first].num_elements
    early, late = (tuple(range(2, 2 + n)),
                   tuple(range(2 + n, mesh.num_elements)))
    for groups, new_id, kind in (([late, early, (0, 1)], 1, first),
                                 ([(0, 1), late], 1 + n, later)):
        with pytest.raises(ValidationError) as info:
            agglomerate.merge_groups(mesh, groups)
        error, message = errors[kind]
        assert info.type is error
        assert str(info.value).startswith(message.format(new_id))


def test_watertight_merged_elements():
    mesh = benchmarks.gen_benchmark("spireB", 1e-3, "vem")
    el = mesh.elements[0]
    total = np.zeros(3)
    areas = []
    for f in el.faces:
        area, n = meshmod.triangle_area_normal(mesh.vertices[list(f)])
        total += area * n
        areas.append(area)
    assert np.linalg.norm(total) <= 1e-12 * max(areas)


def test_auto_agglomerate_good_mesh_identity():
    mesh = two_tets()
    out, mapping, unmerged = agglomerate.auto_agglomerate(mesh)
    assert out is mesh  # nothing to merge: no copy, no second table
    assert mapping == {0: (0,), 1: (1,)}
    assert unmerged == []


def test_auto_agglomerate_wedge_pair():
    mesh = benchmarks.gen_benchmark("wedge", 1e-3, "fem")
    out, mapping, unmerged = agglomerate.auto_agglomerate(mesh)
    assert out.num_elements == 1
    assert len(out.elements[0].faces) == 6
    assert mapping == {0: (0, 1)}
    assert unmerged == []


def test_auto_agglomerate_isolated_bad_element():
    mesh = benchmarks.gen_benchmark("kite", 1e-5, "fem")
    solo = Mesh(3, mesh.vertices, [mesh.elements[0]], mesh.material)
    out, mapping, unmerged = agglomerate.auto_agglomerate(solo)
    assert unmerged == [0]
    assert out.num_elements == 1


def test_mapping_csv(tmp_path):
    mesh = tmp_path / "wedge.json"
    meshmod.save_mesh(benchmarks.gen_benchmark("wedge", 1e-3, "fem"), mesh)
    path = tmp_path / "map.csv"
    assert cli.main(["agglomerate", "--mesh", str(mesh), "--auto",
                     "--out", str(tmp_path / "merged.json"),
                     "--mapping", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "new_element_id,old_element_ids"
    assert lines[1] == '0,"0,1"'


def test_merge_groups_interleaved_indices():
    # Indices refer to the input mesh even when groups interleave.
    verts = []
    elements = []
    for k in range(3):
        base = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                         [1.0, 1.0, 1.0]])
        base[:, 0] += 4.0 * k
        idx = len(verts)
        verts.extend(base)
        t2 = (idx + 1, idx + 3, idx + 2, idx + 4)
        p = [np.asarray(v) for v in base[[1, 3, 2, 4]]]
        if meshmod.tet_volume(*p) < 0:
            t2 = (idx + 1, idx + 2, idx + 3, idx + 4)
        elements.append(tet_element((idx, idx + 1, idx + 2, idx + 3)))
        elements.append(tet_element(t2))
    mesh = meshmod.validate_mesh(Mesh(3, np.array(verts), elements))
    # pairs (0,1), (2,3), (4,5): interleave by merging (0,1) and (4,5)
    merged, mapping = agglomerate.merge_groups(mesh, [(4, 5), (0, 1)])
    assert merged.num_elements == 4
    assert mapping == {0: (0, 1), 1: (2,), 2: (3,), 3: (4, 5)}
    assert len(merged.elements[0].faces) == 6
    assert len(merged.elements[3].faces) == 6
    va = sum(mesh.geometry.volume.tolist())
    vb = sum(merged.geometry.volume.tolist())
    assert vb == pytest.approx(va, rel=1e-12)


def test_merge_groups_overlap_rejected():
    mesh = two_tets()
    with pytest.raises(MergeError, match="overlap"):
        agglomerate.merge_groups(mesh, [(0, 1), (1, 0)])


@pytest.mark.parametrize("call, message", [
    (lambda mesh: agglomerate.merge(mesh, [0]), "at least two"),
    (lambda mesh: agglomerate.merge(mesh, [1, 1]), "at least two"),
    (lambda mesh: agglomerate.merge(mesh, []), "at least two"),
    (lambda mesh: agglomerate.merge(mesh, [0, 2]), "out of range"),
    (lambda mesh: agglomerate.merge_groups(mesh, []), "no merge groups"),
    (lambda mesh: agglomerate.merge_groups(mesh, [(0, 1), (1,)]),
     "at least two"),
    (lambda mesh: agglomerate.merge_groups(mesh, [(0, -1)]), "out of range"),
], ids=["merge-one", "merge-one-twice", "merge-empty", "merge-range",
        "groups-empty", "groups-one", "groups-range"])
def test_one_group_rule(call, message):
    # merge and merge_groups judge groups by one rule: a non-empty list of
    # disjoint groups, each of at least two distinct in-range elements.  A
    # one-element group is refused, not rebuilt as a copy of itself.
    with pytest.raises(MergeError, match=message):
        call(two_tets())


def test_face_shared_by_three_members_rejected():
    # Tets 0 and 2 both sit above face {0, 1, 2}, tet 1 below it: they
    # overlap, so the mesh is built unvalidated, and merging refuses it.
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.2, 1],
                      [0.2, 0.2, -1], [0.3, 0.3, 2]])
    mesh = Mesh(3, verts, np.array([(0, 1, 2, 3), (0, 2, 1, 4),
                                    (0, 1, 2, 5)]))
    with pytest.raises(ValidationError,
                       match="^element 2: overlaps an earlier element"):
        agglomerate.merge(mesh, (0, 1, 2))


def plane_mesh(loops):
    verts = np.array([[0.0, 0], [1, 0], [0.5, 1], [1, 2], [0, 2],
                      [3, 0], [4, 0], [3.5, 1]])
    return Mesh(2, verts, [Element(loop=loop) for loop in loops])


@pytest.mark.parametrize("loops", [
    ((0, 1, 2), (5, 6, 7)),   # no shared vertex
    ((0, 1, 2), (2, 3, 4)),   # one shared vertex
])
def test_2d_group_without_shared_edge_rejected(loops):
    with pytest.raises(MergeError, match="connect"):
        agglomerate.merge(plane_mesh(loops), (0, 1))


def test_coincident_2d_triangles_rejected():
    with pytest.raises(ValidationError,
                       match="^element 1: overlaps an earlier element"):
        agglomerate.merge(plane_mesh(((0, 1, 2), (0, 1, 2))), (0, 1))
