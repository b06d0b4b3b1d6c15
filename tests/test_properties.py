"""Randomized property suite over valid inputs.

Seeded RNG sweeps (deterministic) exercising the quantified invariants:
projector identities, stability vanishing on polynomials, rotation
objectivity, watertightness, volume additivity, and lumped-mass positivity.
Together the loops cover well over a hundred randomized cases.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polyvem import (agglomerate, benchmarks, eig, mesh as meshmod, quality,
                     vem)
from polyvem.mesh import Element, Mesh, tet_element

from conftest import clustered_polygon, random_rotation, random_tet_mesh


def random_polygon_mesh(rng, n_max=8):
    """Random convex polygon as a 2D VEM element."""
    n = rng.integers(3, n_max + 1)
    angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    if np.min(np.diff(angles, append=angles[0] + 2 * np.pi)) < 0.05:
        return random_polygon_mesh(rng, n_max)
    radii = rng.uniform(0.5, 1.5, size=n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts += rng.uniform(-2, 2, size=2)
    mesh = Mesh(2, pts, [Element(loop=tuple(range(n)))])
    try:
        return meshmod.validate_mesh(mesh)
    except meshmod.ValidationError:
        return random_polygon_mesh(rng, n_max)


def random_tet_pair_mesh(rng):
    """Two tets sharing a face, jointly validated."""
    while True:
        base = rng.uniform(-1, 1, size=(3, 3))
        n = np.cross(base[1] - base[0], base[2] - base[0])
        norm = np.linalg.norm(n)
        if norm < 0.3:
            continue
        n /= norm
        c = base.mean(axis=0)
        apex1 = c + rng.uniform(0.3, 1.0) * n \
            + rng.uniform(-0.3, 0.3, size=3)
        apex2 = c - rng.uniform(0.3, 1.0) * n \
            + rng.uniform(-0.3, 0.3, size=3)
        verts = np.vstack([base, apex1, apex2])
        v1 = meshmod.tet_volume(*verts[[0, 1, 2, 3]])
        v2 = meshmod.tet_volume(*verts[[0, 2, 1, 4]])
        h = meshmod._max_pairwise_distance(verts)
        if min(v1, v2) < 0.02 * h ** 3:
            continue
        mesh = Mesh(3, verts, [tet_element((0, 1, 2, 3)),
                               tet_element((0, 2, 1, 4))])
        try:
            return meshmod.validate_mesh(mesh)
        except meshmod.ValidationError:
            continue


def random_extruded_mesh(rng):
    poly = random_polygon_mesh(rng)
    return meshmod.extrude(poly, float(rng.uniform(0.3, 1.5)))


def test_projector_identities_randomized():
    rng = np.random.default_rng(42)
    cases = 0
    for _ in range(20):
        for builder in (random_tet_mesh, random_polygon_mesh,
                        random_extruded_mesh):
            mesh = builder(rng)
            em = vem.group_matrices(mesh, [0], alpha0="unit")
            D, Pi, K, Ks = em.D[0], em.Pi[0], em.K[0], em.Ks[0]
            assert np.abs(Pi @ D - D).max() <= 1e-10 * max(1.0,
                                                           np.abs(D).max())
            assert np.abs(Pi @ Pi - Pi).max() <= 1e-10 * np.abs(Pi).max()
            assert np.abs(Ks @ D).max() <= 1e-10 * np.abs(K).max()
            cases += 1
    assert cases == 60


def test_rotation_objectivity_randomized():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mesh = random_tet_pair_mesh(rng)
        merged = agglomerate.merge(mesh, (0, 1))
        omega = eig.time_step_report(
            [eig.group_system(merged, [0], "vem", alpha0="unit")]).omega_star
        R = random_rotation(rng)
        rotated = Mesh(3, merged.vertices @ R.T, merged.elements,
                       merged.material)
        omega2 = eig.time_step_report(
            [eig.group_system(rotated, [0], "vem", alpha0="unit")]).omega_star
        assert omega2 == pytest.approx(omega, rel=1e-9)


def test_merge_conservation_randomized():
    rng = np.random.default_rng(19)
    for _ in range(25):
        mesh = random_tet_pair_mesh(rng)
        merged = agglomerate.merge(mesh, (0, 1))
        el = merged.elements[0]
        assert len(el.faces) == 6
        total = np.zeros(3)
        areas = []
        for f in el.faces:
            area, n = meshmod.triangle_area_normal(merged.vertices[list(f)])
            total += area * n
            areas.append(area)
        assert np.linalg.norm(total) <= 1e-12 * max(areas)
        va = sum(mesh.geometry.volume[i] for i in (0, 1))
        vb = merged.geometry.volume[0]
        assert vb == pytest.approx(va, rel=1e-12)


def test_lumped_mass_positivity_randomized():
    # Merged tet pairs, and convex polygons with clustered vertices, plane
    # and extruded, whose VEM row sums can go non-positive: the one
    # lumping rule gives each positive masses that sum to d rho |E|.
    rng = np.random.default_rng(23)
    meshes = [agglomerate.merge(random_tet_pair_mesh(rng), (0, 1))
              for _ in range(20)]
    for _ in range(10):
        arc = rng.uniform(0.1, 0.3)
        plane = clustered_polygon(np.linspace(0, arc, rng.integers(3, 7)))
        meshes += [plane, meshmod.extrude(plane, rng.uniform(0.2, 2.0))]
    for mesh in meshes:
        _, _, _, ml = eig.group_system(mesh, [0], "vem", alpha0="unit")
        assert np.all(ml[0] > 0)
        total = (mesh.dimension * mesh.material.density
                 * mesh.geometry.volume[0])
        assert ml[0].sum() == pytest.approx(total, rel=1e-12)


def test_kernel_dimension_randomized():
    rng = np.random.default_rng(31)
    for _ in range(15):
        mesh = random_extruded_mesh(rng)
        em = vem.group_matrices(mesh, [0], alpha0="unit")
        w = np.linalg.eigvalsh(em.K[0])
        lam_max = w[-1]
        assert np.sum(w < 1e-8 * lam_max) == 6
        assert np.all(w >= -1e-10 * lam_max)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n_tets=st.integers(1, 4))
def test_dihedral_angles_of_random_tets(seed, n_tets):
    # Six dihedral angles of a tetrahedron sum to between 2 pi and 3 pi;
    # they are invariant under rotation and scaling.  Several tets go
    # through one stacked pass.
    rng = np.random.default_rng(seed)
    verts = rng.uniform(-1.0, 1.0, size=(4 * n_tets, 3))
    for k in range(n_tets):
        p = verts[4 * k:4 * k + 4]
        assume(abs(meshmod.tet_volume(*p))
               > 1e-6 * meshmod._max_pairwise_distance(p) ** 3)
    elements = meshmod.tet_mesh(
        verts, np.arange(4 * n_tets).reshape(-1, 4)).elements

    def angles(vertices):
        mesh = Mesh(3, vertices, elements)
        return np.array([quality.tet_angles(
            mesh.vertices[meshmod.element_nodes(mesh, [k])])[0]
            for k in range(n_tets)])

    base = angles(verts)
    sums = base.sum(axis=1)
    assert np.all((sums > 360.0 - 1e-9) & (sums < 540.0 + 1e-9))
    report = quality.mesh_report(Mesh(3, verts, elements))
    assert [r.min_dihedral_deg for r in report] == base.min(axis=1).tolist()
    assert [r.max_dihedral_deg for r in report] == base.max(axis=1).tolist()
    well = base.min(axis=1) > 1.0
    for moved in (verts @ random_rotation(rng).T, verts * 1e-3, verts * 1e4):
        assert np.abs(angles(moved) - base)[well].max(initial=0.0) <= 1e-8


def _on_demand_fields(mesh, first):
    """The on-demand fields of a fresh table of the mesh, `first` read
    first, as raw bytes."""
    g = Mesh(mesh.dimension, mesh.vertices, mesh.elements,
             mesh.material).geometry
    getattr(g, first)
    fields = [g.centroid, g.convex, *g._raw,
              *(g.scaled_moments[k] for k in sorted(g.scaled_moments))]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in fields]


def test_on_demand_fields_independent_of_read_order(beam_meshes):
    # Each on-demand field is computed from the eager table alone, so the
    # order of first reads cannot change a bit of any of them.
    meshes = [benchmarks.gen_benchmark(name, eps, variant)
              for name in benchmarks.BENCHMARK_NAMES
              if not name.startswith("beam")
              for eps in (1e-1, 1e-5) for variant in ("fem", "vem")]
    meshes += [beam_meshes[("A", v)] for v in ("fem", "vem")]
    meshes += [beam_meshes[("B", v)] for v in ("fem", "vem")]
    for mesh in meshes:
        reference = _on_demand_fields(mesh, "convex")
        for first in ("scaled_moments", "centroid", "_raw"):
            assert _on_demand_fields(mesh, first) == reference


def _table_bytes(mesh):
    """Every array of the mesh's geometry table, eager then on demand, as
    raw bytes; its kinds; and every element's error text."""
    g = mesh.geometry
    arrays = [(k, a) for k, a in vars(g).items() if isinstance(a, np.ndarray)]
    arrays += [("centroid", g.centroid), ("convex", g.convex),
               *((f"raw{k}", a) for k, a in enumerate(g._raw)),
               *((str(k), g.scaled_moments[k])
                 for k in sorted(g.scaled_moments))]
    return ([(k, a.dtype.str, a.shape, a.tobytes()) for k, a in arrays],
            g.kinds, [g.error(e) for e in range(mesh.num_elements)])


def test_material_override_copies_the_tet_array():
    # A material override (`dataclasses.replace`) copies a tet mesh's
    # array: neither mesh builds its elements, and the copy's table is the
    # one tet_mesh builds.
    source = benchmarks.gen_benchmark("kite", 1e-3, "fem")
    material = meshmod.MaterialParams(1e9, 0.25, 1000.0)
    copy = dataclasses.replace(source, material=material)
    assert copy.material == material and copy.tets is source.tets
    assert _table_bytes(copy) == _table_bytes(
        meshmod.tet_mesh(source.vertices, source.tets, material))
    assert "elements" not in vars(source) and "elements" not in vars(copy)


def _assert_array_path_matches_elements(mesh):
    # A fresh table built from the tet array is the one built from the
    # elements, bit for bit, and the elements are tet_element's.
    expected = tuple(tet_element(tuple(int(v) for v in row))
                     for row in mesh.tets)
    assert _table_bytes(Mesh(3, mesh.vertices, mesh.tets)) == (
        _table_bytes(Mesh(3, mesh.vertices, expected)))
    assert mesh.elements == expected
    assert all(type(v) is int for el in mesh.elements for v in el.nodes)


# Rows of a tet on the four vertices of random_tet_mesh: positive,
# inverted, with a repeated node, with an out-of-range or negative id.
TET_ROWS = [(0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 1, 3), (0, 1, 2, 4),
            (3, 1, 2, -1), (1, 2, 3, 0), (0, 0, 0, 0)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       rows=st.lists(st.sampled_from(TET_ROWS), min_size=1, max_size=4))
def test_tet_array_table_matches_element_table(seed, rows):
    verts = random_tet_mesh(np.random.default_rng(seed)).vertices
    _assert_array_path_matches_elements(
        Mesh(3, verts, np.array(rows)))
    if all(max(r) < 4 and min(r) >= 0 and len(set(r)) == 4 for r in rows):
        if len(rows) == 1:
            _assert_array_path_matches_elements(meshmod.tet_mesh(verts, rows))
            return
        # Every row is the tet on vertices 0-3, so the later ones overlap.
        with pytest.raises(meshmod.ValidationError,
                           match="^element 1: overlaps an earlier element"):
            meshmod.tet_mesh(verts, rows)


def test_tet_array_table_matches_on_benchmark_meshes(beam_meshes):
    meshes = [benchmarks.gen_benchmark(name, eps, "fem")
              for name in ("wedge", "kite", "spireA", "spireB", "spireC")
              for eps in (1e-1, 1e-5)]
    meshes += [beam_meshes[(case, "fem")] for case in ("A", "B")]
    for mesh in meshes:
        assert mesh.tets is not None
        _assert_array_path_matches_elements(mesh)


@functools.cache
def _closed_elements():
    """(vertices, faces) of closed elements, each on its own vertices: a
    tet, an extruded triangle and hexagon, and the auto-agglomerated unions
    of the 3D catalog families."""
    hexagon = [(np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3]
    meshes = [Mesh(3, np.vstack([np.zeros(3), np.eye(3)]),
                   [tet_element((0, 1, 2, 3))])]
    meshes += [meshmod.extrude(Mesh(2, np.array(loop), [Element(
        loop=tuple(range(len(loop))))]), 0.7)
        for loop in ([(0.0, 0.0), (1.0, 0.2), (0.3, 0.9)], hexagon)]
    meshes += [agglomerate.auto_agglomerate(
        benchmarks.gen_benchmark(name, eps, "fem"))[0]
        for name in ("prism3d", "wedge", "kite", "spireA", "spireB",
                     "spireC") for eps in (1e-3, 1e-5)]
    out = []
    for mesh in meshes:
        for el in mesh.elements:
            if mesh.num_elements == 1 or el.kind == "poly":
                used, faces = np.unique(el.faces, return_inverse=True)
                out.append((mesh.vertices[used], faces.reshape(-1, 3)))
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pick=st.integers(0, 10 ** 6), seed=st.integers(0, 2 ** 32 - 1),
       exponent=st.floats(-100.0, 100.0),
       offset=st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3))
def test_paired_faces_are_watertight(pick, seed, exponent, offset):
    # An element whose faces pass their checks and whose half-edges pair is
    # a closed, oriented surface, so its area-weighted face normals cancel:
    # validation needs no separate watertightness check.  Jittered, scaled
    # by up to 1e+-100 and offset by up to 1e6, the table's own areas and
    # normals sum to zero within 1e-12 of the largest area wherever the
    # areas are finite.  (Face areas are computed from each face's own
    # scale, so at 1e+-100 they neither underflow nor overflow; the sum is
    # taken in units of the largest area, so its norm does not overflow.)
    verts, faces = _closed_elements()[pick % len(_closed_elements())]
    rng = np.random.default_rng(seed)
    jittered = verts + rng.uniform(-0.05, 0.05, verts.shape)
    moved = jittered * 10.0 ** exponent + np.array(offset)
    g = Mesh(3, moved, [Element(faces=tuple(map(tuple, faces.tolist())))]
             ).geometry
    assume(not (g._face_check.any() or g._unpaired.any())
           and np.isfinite(g.face_areas).all())
    weighted = (g.face_areas[:, None] * g.face_normals).sum(axis=0)
    assert np.linalg.norm(weighted / g.face_areas.max()) <= 1e-12
