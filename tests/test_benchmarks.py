"""Benchmark generators: catalog counts, volume additivity, determinism."""

import numpy as np
import pytest

from polyvem import benchmarks, mesh as meshmod
from polyvem.mesh import ValidationError


def total_volume(mesh):
    return sum(mesh.geometry.volume.tolist())


def test_unknown_name_rejected():
    with pytest.raises(ValidationError):
        benchmarks.gen_benchmark("nope", 0.1, "fem")
    with pytest.raises(ValidationError):
        benchmarks.gen_benchmark("kite", 0.1, "nope")
    with pytest.raises(ValidationError):
        benchmarks.gen_benchmark("kite", 2.0, "fem")
    with pytest.raises(ValidationError):
        benchmarks.gen_benchmark("kite", None, "fem")


def test_kite_counts(kite_meshes):
    fem = kite_meshes[(1e-1, "fem")]
    assert fem.num_vertices == 5
    assert fem.num_elements == 2
    vem = kite_meshes[(1e-1, "vem")]
    assert vem.num_elements == 1
    assert len(vem.elements[0].faces) == 6
    assert not vem.geometry.convex[0]


def test_tri2d_counts():
    fem = benchmarks.gen_benchmark("tri2d", 0.1, "fem")
    assert fem.num_vertices == 5
    assert fem.num_elements == 3
    vem = benchmarks.gen_benchmark("tri2d", 0.1, "vem")
    assert vem.num_elements == 2
    assert len(vem.elements[0].loop) == 4


def test_spire_cases():
    for case, n_tets in (("A", 2), ("B", 3), ("C", 3)):
        fem = benchmarks.gen_benchmark(f"spire{case}", 0.1, "fem")
        assert fem.num_elements == n_tets
        vem = benchmarks.gen_benchmark(f"spire{case}", 0.1, "vem")
        assert vem.num_elements == 1


@pytest.mark.parametrize("name,eps", [
    ("tri2d", 1e-1), ("tri2d", 1e-5),
    ("prism3d", 1e-1), ("wedge", 1e-1), ("wedge", 1e-5),
    ("kite", 1e-1), ("kite", 1e-5),
    ("spireA", 1e-1), ("spireB", 1e-3), ("spireC", 1e-5),
])
def test_volume_additivity(name, eps):
    fem = benchmarks.gen_benchmark(name, eps, "fem")
    vem = benchmarks.gen_benchmark(name, eps, "vem")
    assert total_volume(vem) == pytest.approx(total_volume(fem), rel=1e-12)


def test_beam_counts(beam_meshes):
    for case in ("A", "B"):
        fem = beam_meshes[(case, "fem")]
        vem = beam_meshes[(case, "vem")]
        assert fem.num_vertices == 1282
        assert vem.num_vertices == 1282
        assert fem.num_elements == 3456
        assert vem.num_elements == 549
        assert all(el.kind == "tet" for el in fem.elements)
        faces = sorted({len(el.faces) for el in vem.elements})
        assert faces == [12, 20]
        assert sum(1 for el in vem.elements if len(el.faces) == 20) == 27


def test_beam_volume_additivity(beam_meshes):
    va = total_volume(beam_meshes[("A", "fem")])
    vb = total_volume(beam_meshes[("A", "vem")])
    assert vb == pytest.approx(va, rel=1e-12)


def test_beam_near_coincident_nodes(beam_meshes):
    # The cut line passes `gap` above a lattice node: the mesh must contain
    # a node pair at exactly that distance.
    for case, gap in (("A", benchmarks.BEAM_GAP["A"]),
                      ("B", benchmarks.BEAM_GAP["B"])):
        mesh = beam_meshes[(case, "fem")]
        v = mesh.vertices
        from scipy.spatial import cKDTree
        tree = cKDTree(v)
        dists, _ = tree.query(v, k=2)
        nearest = np.sort(dists[:, 1])
        assert nearest[0] == pytest.approx(gap, rel=1e-6)


def test_beam_material_nu_zero(beam_meshes):
    assert beam_meshes[("A", "fem")].material.poisson_ratio == 0.0
    c = np.sqrt(beam_meshes[("A", "fem")].material.youngs_modulus
                / beam_meshes[("A", "fem")].material.density)
    assert c == pytest.approx(5188.75, rel=1e-4)


def test_generator_determinism_bitwise():
    a = benchmarks.gen_benchmark("beamA", variant="vem")
    b = benchmarks.gen_benchmark("beamA", variant="vem")
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert [el.faces for el in a.elements] == [el.faces for el in b.elements]


def test_beam_explicit_pairing_reproduces_polytopal_mesh(beam_meshes):
    """Merging the recorded tet groups yields the 549-element mesh.

    Cap triangulations differ between the 2D-aggregate-then-extrude mesh
    and the union of tets (both are valid boundary triangulations of the
    same solid), so equivalence is asserted geometrically.
    """
    from polyvem import agglomerate
    groups = benchmarks.beam_agglomeration_groups("A")
    fem = beam_meshes[("A", "fem")]
    vem = beam_meshes[("A", "vem")]
    assert len(groups) == 549
    assert sorted(t for g in groups for t in g) == list(range(3456))
    rng = np.random.default_rng(0)
    spot = set(rng.choice(549, size=40, replace=False))
    spot |= {i for i, el in enumerate(vem.elements) if len(el.faces) == 20}
    elements = agglomerate._unions(fem, groups)
    union_mesh = meshmod.validate_mesh(
        benchmarks.Mesh(3, fem.vertices, elements, fem.material))
    assert union_mesh.num_elements == vem.num_elements
    for k in sorted(spot):
        a = set(meshmod.element_nodes(union_mesh, [k])[0].tolist())
        b = set(meshmod.element_nodes(vem, [k])[0].tolist())
        assert a == b, k
        va = union_mesh.geometry.volume[k]
        vb = vem.geometry.volume[k]
        assert vb == pytest.approx(va, rel=1e-12)
