"""Benchmark generators: catalog counts, volume additivity, determinism."""

import hashlib

import numpy as np
import pytest

from polyvem import benchmarks, cli, mesh as meshmod
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


@pytest.mark.parametrize("name", ["tri2d", "prism3d", "wedge", "kite",
                                  "spireA", "spireB", "spireC"])
def test_eps_range_is_open(name):
    # At eps = 1, tri2d's (and prism3d's) node 1 lands on node 2 and kite's
    # faces go flat, so every family refuses it; just below it they build.
    for variant in ("fem", "vem"):
        with pytest.raises(ValidationError,
                           match=r"^eps must lie in \(0, 1\)$"):
            benchmarks.gen_benchmark(name, 1.0, variant)
        assert benchmarks.gen_benchmark(name, 0.999, variant).num_elements


@pytest.mark.parametrize("eps", [7.0, float("nan"), 0.1])
@pytest.mark.parametrize("name", ["beamA", "beamB"])
def test_beam_refuses_eps(tmp_path, capsys, name, eps):
    # The beam's taper is fixed by its cut line: an eps is refused by the
    # beam's name instead of ignored, and mesh-gen writes no mesh.
    for variant in ("fem", "vem"):
        with pytest.raises(ValidationError,
                           match=f"^{name} takes no eps: its cut line"):
            benchmarks.gen_benchmark(name, eps, variant)
        out = tmp_path / "beam.json"
        assert cli.main(["mesh-gen", "--name", name, "--eps", str(eps),
                         "--variant", variant, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name} takes no")
        assert not out.exists()


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
    """Merging the derived tet groups yields the 549-element mesh.

    Each FEM tet belongs to the one VEM element whose vertex set holds all
    four of its nodes (both variants share the beam's vertices), so the
    groups come from the two meshes alone.  Cap triangulations differ
    between the 2D-aggregate-then-extrude mesh and the union of tets (both
    are valid boundary triangulations of the same solid), so equivalence
    is asserted geometrically.
    """
    from polyvem import agglomerate
    for case in ("A", "B"):
        fem = beam_meshes[(case, "fem")]
        vem = beam_meshes[(case, "vem")]
        g = vem.geometry
        holders = [set() for _ in range(vem.num_vertices)]
        for k, face in zip(g.face_owner.tolist(), g.faces.tolist()):
            for v in face:
                holders[v].add(k)
        owners = [set.intersection(*(holders[v] for v in tet))
                  for tet in fem.tets.tolist()]
        assert len(owners) == 3456
        assert all(len(owner) == 1 for owner in owners)
        groups = [[] for _ in range(vem.num_elements)]
        for t, (k,) in enumerate(owners):
            groups[k].append(t)
        assert len(groups) == 549 and all(groups)
        rng = np.random.default_rng(0)
        spot = set(rng.choice(549, size=40, replace=False))
        spot |= {i for i, el in enumerate(vem.elements)
                 if len(el.faces) == 20}
        elements = agglomerate._unions(fem, groups)
        union_mesh = meshmod.validate_mesh(
            benchmarks.Mesh(3, fem.vertices, elements, fem.material))
        assert union_mesh.num_elements == vem.num_elements
        for k in sorted(spot):
            a = set(meshmod.element_nodes(union_mesh, [k])[0].tolist())
            b = set(meshmod.element_nodes(vem, [k])[0].tolist())
            assert a == b, (case, k)
            va = union_mesh.geometry.volume[k]
            vb = vem.geometry.volume[k]
            assert vb == pytest.approx(va, rel=1e-12)


# SHA-256 of the save_mesh text of every benchmark mesh: the seven element
# families at three eps and both beams, each in both variants.  A change to
# mesh construction must leave every mesh, and so every result, as it is.
MESH_SHA256 = {
    ("tri2d", 1e-1, "fem"):
        "88a89bc0a419e32e18f65c3f43a98aed22ff3e423baf9af68eb81516a4da64d3",
    ("tri2d", 1e-1, "vem"):
        "3e322c7d886eab335266515a7afe94f821f4b77e038787c9cbf2b598a38e4cfe",
    ("tri2d", 1e-5, "fem"):
        "c4229b12979ff34f4e2e80f6f97c238a63304dc0d4f43874e444b08a9925861a",
    ("tri2d", 1e-5, "vem"):
        "a0fb16667c4b947f9898062077c0ec1b14f02860dfaff92962d0a5712dc9db25",
    ("tri2d", 1e-8, "fem"):
        "df8398dc7470f9e9297d2fa9ac69c851cc8c54c7d40b0980de3e1554078cf888",
    ("tri2d", 1e-8, "vem"):
        "47da0a41f783e8a89b445dd44b52245a5609d92fd3db54ad99f35ad6f6144820",
    ("prism3d", 1e-1, "fem"):
        "2d07a056f33e82c60248c15f2c0de7d4a3dbffe365acec7176c7cefbc4d1d38b",
    ("prism3d", 1e-1, "vem"):
        "e87d8dc361e95a2e3d807fcb2eaad6f323b1383a59dfe09cde019d5d665e677d",
    ("prism3d", 1e-5, "fem"):
        "e793f3b9c21fac812c654b409d386ad6e7b9b91271e28c77570c5a72b7ddf3b5",
    ("prism3d", 1e-5, "vem"):
        "e96d10ff05e0455b1ff6aa1321f3b560319d576fc1a7780d0e9601647f68de60",
    ("prism3d", 1e-8, "fem"):
        "e1882498a275bcc51dd39f15540591f69ad207c730a4b56f3bfef20bb638f43b",
    ("prism3d", 1e-8, "vem"):
        "f5a285c56827ab4506e8d97ff4e9ef8ee87b9c2c274c89e8eb893d9c8332cd6a",
    ("wedge", 1e-1, "fem"):
        "91d1b8d5aafe9464ddc2768668cda47b0e0c859533cd5b29ccd1bfe5a75df71e",
    ("wedge", 1e-1, "vem"):
        "9935a3e0aa00a0f958a5732629d6e9c5adefc6b73585a62a22515ead3f3a89bd",
    ("wedge", 1e-5, "fem"):
        "f6a7d513091b219a1d14bfcc558834bc051deadeb5f9698b26dd0dbb500f3523",
    ("wedge", 1e-5, "vem"):
        "14ab5003dbc38132d59462b58b86c2be8b34196e5205c5ab185074111ed7bd70",
    ("wedge", 1e-8, "fem"):
        "7f78744ef6207e9fb441edbf2d7048d9c0516578ac96139f7d6b7eacac058108",
    ("wedge", 1e-8, "vem"):
        "19212de3c3f8367bcca21a092a725d9ae68a4ec0083a8d073863d0f1c846a5cd",
    ("kite", 1e-1, "fem"):
        "310b35ae3565ad3a630416aa23b7ffd4066fabd52a39d878fb917f8e7507b007",
    ("kite", 1e-1, "vem"):
        "05039e5615005b85e60af5720847f1dde70d992ddfe6a3998226989e02053053",
    ("kite", 1e-5, "fem"):
        "3dbe2e0e08dafc896e6ef3ca4a955f875c6abfe4e5e819c61aa076bc1ea7491c",
    ("kite", 1e-5, "vem"):
        "502cc31f2189b30d47240b63babe5ab7c1abfbc9e76a3ee1fa8bec5ada24b5da",
    ("kite", 1e-8, "fem"):
        "4660da0130c717a9d2ddc81672143df8cdf0099d96e5c646a0d7408fa738f870",
    ("kite", 1e-8, "vem"):
        "c0f5fe4707a45ad1f6eb74851aa604b667c01033a4d3336040e94f633df4731a",
    ("spireA", 1e-1, "fem"):
        "c96ccc37b2493365d22d9d208804beb1bce80b6e76e72800cc037e0fb3ff9e47",
    ("spireA", 1e-1, "vem"):
        "5eb913ca5884cf9201bc8fa3f55921622153846a1ea184020c89c3bbd8677877",
    ("spireA", 1e-5, "fem"):
        "f0e5f709ad2625d3d29143ef49d7e1a8e69b84d198a6edae70f0ba0004201afa",
    ("spireA", 1e-5, "vem"):
        "74b5d5bef1de51fde240ea11a5d00fb5521fd8113590a242e9c513faa49d0e9a",
    ("spireA", 1e-8, "fem"):
        "70b75996b03e91ce7b2531de37648720402ce278b72fbaa6964087d00463cbf4",
    ("spireA", 1e-8, "vem"):
        "96d00bd3d96d675db31c52063e13245b459e53a5c80543f1a13fee4ac0864bd9",
    ("spireB", 1e-1, "fem"):
        "46a92a3b2ba08d7a3156fd71c846f774a073b1807e1e4ab26b1cf5b918a98a44",
    ("spireB", 1e-1, "vem"):
        "e7464839dcba5156728ab82d1f444f78eef75c14f9c30781944a8ba0358db24c",
    ("spireB", 1e-5, "fem"):
        "b57212c2508cc3c3c74cfd4c4364da0869f44432f15d9c0534da43160fb53e26",
    ("spireB", 1e-5, "vem"):
        "8c409dde0a4881fb70319ba1a9ac456d88636156f9d1790095faa9b65e9f347d",
    ("spireB", 1e-8, "fem"):
        "b2d6fa119b7c910427b6649ee9ef6b47f95bdf1a16695e4feb19413c607fcfd3",
    ("spireB", 1e-8, "vem"):
        "6feee88022c5687cd713c533c05474ebb90338d12a0ea25eafcb10b6d9ebc77d",
    ("spireC", 1e-1, "fem"):
        "325c56830f93321ba7552ade6b130e444dd7a809f6917aa11b7332d26a93f897",
    ("spireC", 1e-1, "vem"):
        "2766116ad2b7542b796db4ca68ffb1bfae171eb5e641884b969d5026c05ff038",
    ("spireC", 1e-5, "fem"):
        "f0b1b89917d0f854e617097e4a2916a388777f6813d57a0c5084ee323b4b1fce",
    ("spireC", 1e-5, "vem"):
        "da4e2cf32fba056031e86fb1822a47a6d1339319f155a41f54e372d4682eb469",
    ("spireC", 1e-8, "fem"):
        "de980af80515ad6e028e4d13bf4dac59c52bd33687b2f595623f03b2c2cd4979",
    ("spireC", 1e-8, "vem"):
        "b4e1fef4202de27ccd272f3fc18c19e4ccff4b9cf727bff2c3ff6c16da5c19ec",
    ("beamA", None, "fem"):
        "443c4eb57f1dcf5fb84e758e800d3f66fbb866af567b75196f0a6a8ff0de722b",
    ("beamA", None, "vem"):
        "74f86d4e9a0ea682747fab19e2c7f9d046b13a1041473e5d4cffe9bfcaf05dd5",
    ("beamB", None, "fem"):
        "db98e62c6253a15bc2c47e2e18af18e31c2bc8579f5c0f4d29889055f41dd21b",
    ("beamB", None, "vem"):
        "29fde1a8e8097d47d4f320d3d7123cd926009a9e1a6b134462024a0d34b21271",
}


def text_digest(mesh, tmp_path):
    """SHA-256 of the mesh's `save_mesh` text."""
    path = tmp_path / "mesh.json"
    meshmod.save_mesh(mesh, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name,eps,variant", list(MESH_SHA256))
def test_mesh_text_is_pinned(tmp_path, beam_meshes, name, eps, variant):
    mesh = (beam_meshes[(name[-1], variant)] if name.startswith("beam")
            else benchmarks.gen_benchmark(name, eps, variant))
    assert text_digest(mesh, tmp_path) == MESH_SHA256[name, eps, variant]


# The beams' plane meshes, which they extrude, in both variants, and the
# CLI's extruded unit cube.
PLANE_SHA256 = {
    ("A", "fem"):
        "8f2b0b846d9a376207b9aaad7feded4f36c99707bb8b296667973fe5e917b28b",
    ("A", "vem"):
        "7fa1292689411b2b5f9873945cdca289745c607563f5fa2a7a790e09ae06fab9",
    ("B", "fem"):
        "5c2ddfeabd0aa061d045b1811a1d85d973ee4c9f1a7132ba4df4aa61afccf799",
    ("B", "vem"):
        "e17c85d6bc3a38aa6f6515c1096538c881d7781c2132ee1275d50fcdb77cd7b1",
    ("unit", "cube"):
        "68f3d6137c6eeccdc9bf1151851713cf9b5bbc930df5171f776c1cb90199d3c7",
}


@pytest.mark.parametrize("case,variant", list(PLANE_SHA256))
def test_plane_mesh_text_is_pinned(tmp_path, case, variant):
    mesh = (cli._unit_shape(True) if case == "unit"
            else benchmarks._beam_mesh_2d(case, variant))
    assert text_digest(mesh, tmp_path) == PLANE_SHA256[case, variant]
