"""Dihedral angles and pathological-shape classification."""

import math

import numpy as np
import pytest

from polyvem import agglomerate, benchmarks, cli, mesh as meshmod, quality
from polyvem.mesh import Element, Mesh, tet_element

from conftest import random_rotation


def regular_tet_mesh(scale=1.0):
    verts = scale * np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    if meshmod.tet_volume(*verts) < 0:
        verts[[1, 2]] = verts[[2, 1]]
    return Mesh(3, verts, [tet_element((0, 1, 2, 3))])


def tet_angles(mesh, index):
    """The six dihedral angles of tetrahedron `index` of the mesh."""
    nodes = meshmod.element_nodes(mesh, [index])
    return quality.tet_angles(mesh.vertices[nodes])[0].tolist()


def test_regular_tet_angles():
    angles = tet_angles(regular_tet_mesh(), 0)
    expected = math.degrees(math.acos(1.0 / 3.0))
    assert angles == pytest.approx([expected] * 6, abs=1e-10)


def test_kite_angles_split_180_and_0():
    mesh = benchmarks.gen_benchmark("kite", 1e-4, "fem")
    angles = sorted(tet_angles(mesh, 0))
    assert angles[0] < 0.1 and angles[3] < 0.1
    assert angles[4] > 179.9 and angles[5] > 179.9


def test_wedge_min_angle():
    mesh = benchmarks.gen_benchmark("wedge", 1e-3, "fem")
    angles = tet_angles(mesh, 0)
    assert min(angles) < 1.0


@pytest.mark.parametrize("name,eps,expected", [
    ("kite", 1e-5, "sliver_kite"),
    ("spireA", 1e-5, "spire"),
])
def test_classification_examples(name, eps, expected):
    mesh = benchmarks.gen_benchmark(name, eps, "fem")
    report = quality.mesh_report(mesh)[0]
    assert report.classification == expected


def test_wedge_branch():
    # Two large triangles nearly closed about a shared long edge: exactly
    # one dihedral angle collapses, none opens toward 180.
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 1.0, 0],
                      [0.5, 0.97, 0.01]])
    if meshmod.tet_volume(*verts) < 0:
        verts[[1, 2]] = verts[[2, 1]]
    mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3))])
    assert quality.mesh_report(mesh)[0].classification == "wedge"


def test_flat_wedge_benchmark_classification():
    # The reconstructed wedge element flattens into the base plane, so at
    # small eps it picks up a near-180 angle (and at 1e-5 a tiny face) and
    # lands in the sliver/spire bins; only its minimum angle is asserted
    # by the reference description.
    for eps, label in ((1e-3, "sliver_kite"), (1e-5, "spire"), (1e-1, "good")):
        mesh = benchmarks.gen_benchmark("wedge", eps, "fem")
        assert quality.mesh_report(mesh)[0].classification == label


def test_regular_tet_good():
    assert quality.mesh_report(regular_tet_mesh())[0].classification == "good"


def test_flat_triangle_is_degenerate():
    # Area 5e-16 against TAU_GEOM h^2 = 1e-14: the table's degeneracy flag
    # is the label, and no angles are reported.
    mesh = Mesh(2, np.array([[0.0, 0], [1, 0], [0.5, 1e-15]]),
                [Element(loop=(0, 1, 2), kind="tri", nodes=(0, 1, 2))])
    report = quality.mesh_report(mesh)[0]
    assert mesh.geometry.degenerate[0]
    assert report.classification == "degenerate"
    assert report.min_dihedral_deg is None


UNIT_TET = [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("mesh, message", [
    (Mesh(3, np.array(UNIT_TET), [tet_element((0, 1, 2, 7))]),
     "element 0, face 1: vertex index out of range"),
    (Mesh(3, np.array(UNIT_TET), [tet_element((0, 1, 2, 3)),
                                  tet_element((0, 1, 2, -1))]),
     "element 1, face 1: vertex index out of range"),
    (Mesh(3, np.array(UNIT_TET), [Element(
        faces=((0, 2, 1), (0, 1, 9), (0, 9, 2)), kind="tet",
        nodes=(0, 1, 2, 9))]), "element 0: fewer than 4 faces"),
    (Mesh(2, np.array(UNIT_TET)[:3, :2], [Element(
        loop=(0, 1, 5), kind="tri", nodes=(0, 1, 5))]),
     "element 0: vertex index out of range"),
    (Mesh(3, np.array(UNIT_TET), [Element(
        faces=tet_element((0, 1, 2, 3)).faces, kind="tet",
        nodes=(0, 1, 2, 4))]),
     "element 0: node id out of range or not an integer"),
], ids=["tet", "negative", "few-faces", "triangle", "node"])
def test_out_of_range_ids_refused_by_the_table_message(mesh, message):
    # Classification reads no coordinate of an id out of range: such an
    # element is refused by name with the table's message (its first
    # failed check), not an IndexError; auto-agglomeration validates first.
    assert mesh.geometry.error(int(message.split()[1].strip(":,"))) == message
    for call in (quality.mesh_report, agglomerate.auto_agglomerate):
        with pytest.raises(meshmod.ValidationError, match=f"^{message}$"):
            call(mesh)


def test_thin_prism_detected():
    mesh = benchmarks.gen_benchmark("prism3d", 1e-5, "fem")
    labels = [r.classification for r in quality.mesh_report(mesh)]
    assert labels[0] == "thin_prism"
    assert labels[-1] == "good"


def test_polyhedron_reports_metrics_only():
    mesh = benchmarks.gen_benchmark("kite", 0.1, "vem")
    report = quality.mesh_report(mesh)[0]
    assert report.classification == "not_applicable"
    assert report.volume > 0
    assert report.min_edge > 0


def test_scale_invariance():
    for scale in (1e-3, 1.0, 1e4):
        for name, eps in (("kite", 1e-5), ("spireA", 1e-3), ("wedge", 1e-3)):
            mesh = benchmarks.gen_benchmark(name, eps, "fem")
            scaled = Mesh(3, mesh.vertices * scale, mesh.elements,
                          mesh.material)
            a = quality.mesh_report(mesh)[0].classification
            b = quality.mesh_report(scaled)[0].classification
            assert a == b


def test_rotation_invariance():
    rng = np.random.default_rng(3)
    for name, eps in (("kite", 1e-5), ("spireA", 1e-3), ("wedge", 1e-3)):
        mesh = benchmarks.gen_benchmark(name, eps, "fem")
        R = random_rotation(rng)
        rotated = Mesh(3, mesh.vertices @ R.T, mesh.elements, mesh.material)
        assert (quality.mesh_report(mesh)[0].classification
                == quality.mesh_report(rotated)[0].classification)


def test_csv_report(tmp_path):
    mesh = benchmarks.gen_benchmark("kite", 1e-5, "fem")
    meshmod.save_mesh(mesh, tmp_path / "kite.json")
    path = tmp_path / "report.csv"
    assert cli.main(["quality", "--mesh", str(tmp_path / "kite.json"),
                     "--out", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("element_id,class,min_dihedral_deg,"
                        "max_dihedral_deg,min_edge,min_face_area,volume")
    assert len(lines) == 1 + mesh.num_elements
    assert lines[1].startswith("0,sliver_kite,")


FAMILIES = ("tri2d", "prism3d", "wedge", "kite", "spireA", "spireB",
            "spireC")
VIEW_CASES = (
    [(name, eps, variant) for name in FAMILIES for eps in (1e-1, 1e-5, 1e-8)
     for variant in ("fem", "vem", "auto")]
    + [("beam" + case, None, variant) for case in "AB"
       for variant in ("fem", "vem", "2d fem", "2d vem")])


@pytest.mark.parametrize("name, eps, variant", VIEW_CASES)
def test_classify_matches_mesh_report(name, eps, variant):
    # Row i of the one pass is element i, read from the geometry table:
    # tet, prism, triangle and polytope rows alike.  The "degenerate" label
    # is the table's degeneracy flag on an element no shape branch took.
    if variant == "auto":
        mesh = agglomerate.auto_agglomerate(
            benchmarks.gen_benchmark(name, eps, "fem"))[0]
    elif variant.startswith("2d"):
        mesh = benchmarks._beam_mesh_2d(name[-1], variant[3:])
    else:
        mesh = benchmarks.gen_benchmark(name, eps, variant)
    reports = quality.mesh_report(mesh)
    g = mesh.geometry
    assert [r.element for r in reports] == list(range(mesh.num_elements))
    assert [r.volume for r in reports] == g.volume.tolist()
    for r, flat in zip(reports, g.degenerate.tolist()):
        if r.classification in ("degenerate", "good"):
            assert flat == (r.classification == "degenerate")


def test_mesh_report_classifies_once_per_table(monkeypatch):
    # auto_agglomerate reads the reports mesh_report built for the same
    # mesh.  Each call returns a new list: mutating one leaves the next
    # unchanged.  A new mesh of the same data has its own table.
    calls, classify = [], quality._classify
    monkeypatch.setattr(quality, "_classify",
                        lambda mesh: calls.append(mesh) or classify(mesh))
    mesh = benchmarks.gen_benchmark("kite", 1e-5, "fem")
    reports = quality.mesh_report(mesh)
    expected = list(reports)
    assert agglomerate.auto_agglomerate(mesh)[0].num_elements == 1
    assert len(calls) == 1
    reports[0] = None
    reports.append(None)
    assert quality.mesh_report(mesh) == expected
    assert len(calls) == 1
    twin = Mesh(3, mesh.vertices, mesh.cells, mesh.material)
    assert quality.mesh_report(twin) == expected
    assert len(calls) == 2
