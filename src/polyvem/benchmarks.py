"""Benchmark mesh catalog: pathological-element configurations and the
tapered beam, each in an `fem` (simplicial/prismatic) and a `vem`
(agglomerated polytopal) variant.

Each element family builds its `fem` mesh only, with the group of elements
its `vem` variant merges; ``gen_benchmark`` derives that variant by one
``agglomerate.merge`` (the prism family extrudes the chosen 2D variant).
The beams build both variants from one plane construction, whose
polygons the `fem` variant splits by ``mesh.fan``.

Geometries with exact reference coordinates (kite, spire) are used verbatim;
figure-only configurations (2D family, wedge apexes, beam cut line) are
reconstructions chosen to reproduce the reference frequencies and mesh
counts.  All reconstructions are documented inline.
"""

from __future__ import annotations

import math

import numpy as np

from . import agglomerate, mesh as meshmod
from .mesh import Element, MaterialParams, Mesh, STEEL

BENCHMARK_NAMES = ("tri2d", "prism3d", "wedge", "kite",
                   "spireA", "spireB", "spireC", "beamA", "beamB")

# Beam material: longitudinal wave speed sqrt(E/rho) = 5188.75 m/s.
STEEL_NU0 = MaterialParams(youngs_modulus=210e9, poisson_ratio=0.0,
                           density=7800.0)

PRISM_THICKNESS = 0.5

# Cut-line clearance above the nearest mesh line, in meters.  Case A is
# sized so the element-eigenvalue time-step ratio VEM/FEM lands near the
# factor the tapered-beam reference results give; case B reproduces the
# reference global maximum frequency, with an FEM element bound ~3090x above
# the assembled one (making the element-eigenvalue estimate impractical
# there).
BEAM_GAP = {"A": 1.0e-4, "B": 3.6e-10}


def gen_benchmark(name, eps=None, variant="fem"):
    """Generate a benchmark mesh by name.

    eps is the mesh-degeneracy parameter in (0, 1) for the element
    families (at 1, tri2d's node 1 lands on node 2); the beam cases refuse
    it (their near-degeneracy is fixed by the cut line).
    """
    if name not in BENCHMARK_NAMES:
        raise meshmod.ValidationError(f"unknown benchmark {name!r}")
    if variant not in ("fem", "vem"):
        raise meshmod.ValidationError(f"unknown variant {variant!r}")
    if name.startswith("beam"):
        if eps is not None:
            raise meshmod.ValidationError(f"{name} takes no eps: its cut "
                                          "line fixes its taper")
        return _beam(name[-1], variant)
    if eps is None or not (0.0 < eps < 1.0):
        raise meshmod.ValidationError("eps must lie in (0, 1)")
    family = {"tri2d": _tri2d, "prism3d": _tri2d, "wedge": _wedge,
              "kite": _kite}.get(name)
    mesh, group = family(eps) if family else _spire(name[-1], eps)
    if variant == "vem":
        mesh = agglomerate.merge(mesh, group)
    if name == "prism3d":
        mesh = meshmod.extrude(mesh, PRISM_THICKNESS)
    return mesh


# ---------------------------------------------------------------------------
# 2D family and its prismatic extrusion.
#
# Figure-only reconstruction: a unit square split into three triangles with
# one extra node at distance eps along the bottom edge.  Element 0 is the
# thin triangle (interior angle -> 0), element 2 the well-shaped right
# triangle used as reference.  The polygonal variant merges the thin
# triangle with its neighbor into a quadrilateral with a short edge.


def _tri2d(eps):
    verts = np.array([
        [0.0, 0.0],   # corner
        [eps, 0.0],   # near-coincident node on the bottom edge
        [1.0, 0.0],
        [1.0, 1.0],
        [0.0, 1.0],
    ])
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4)]
    elements = [Element(loop=t, kind="tri", nodes=t) for t in tris]
    return meshmod.validate_mesh(Mesh(2, verts, elements, STEEL)), (0, 1)


# ---------------------------------------------------------------------------
# Wedge pair.  The apex coordinates are a reconstruction (figure only): a
# unit base triangle with an apex at height eps above its interior gives
# one dihedral angle -> 0; the element below the base plane is well shaped.


def _wedge(eps):
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.5, 0.5, eps],
        [1.0 / 3.0, 1.0 / 3.0, -0.5],
    ])
    return meshmod.tet_mesh(verts, [(0, 1, 2, 3), (0, 2, 1, 4)]), (0, 1)


# ---------------------------------------------------------------------------
# Sliver (kite) pair.  Two opposite vertices sit at z = +eps and two at
# z = -eps: two dihedral angles -> 180 degrees and four -> 0.  (With the
# fourth vertex at +eps instead, the element frequencies come out exactly
# twice the reference ones; the +-+- arrangement reproduces them.)  The
# neighbor apex (0, 0, 1) attaches to the face containing the +eps edge.


def _kite(eps):
    verts = np.array([
        [-1.0, 0.0, eps],
        [1.0, 0.0, eps],
        [0.0, -1.0, -eps],
        [0.0, 1.0, -eps],
        [0.0, 0.0, 1.0],
    ])
    return meshmod.tet_mesh(verts, [(0, 1, 2, 3), (0, 1, 3, 4)]), (0, 1)


# ---------------------------------------------------------------------------
# Spire: one tiny face, three long edges.  Neighbors are built from the
# three reference extra vertices.  Case A joins the spire with the element
# below its long face; case B adds the side element (the union stays a thin
# nonconvex shell whose volume vanishes with eps); case C instead chains the
# large element spanned by the two lower vertices, so the union keeps O(1)
# volume (figure-only reconstruction).


def _spire(case, eps):
    verts = np.array([
        [0.0, 0.0, 0.0],    # 0 apex of the tiny face
        [0.0, eps, 0.0],    # 1
        [0.0, 0.0, eps],    # 2
        [1.0, 0.0, 0.0],    # 3 far vertex
        [0.0, 0.0, -1.0],   # 4
        [0.0, -1.0, 0.0],   # 5
        [0.5, 1.0, 0.0],    # 6
    ])
    # The spire and the element below it, then case B's side element or
    # case C's big element (negative as listed: tet_mesh flips it).  Only
    # the vertices used are kept, renumbered in order.
    tets = [(0, 1, 2, 3), (0, 1, 3, 4)] + {
        "A": [], "B": [(0, 3, 2, 5)], "C": [(0, 3, 4, 5)]}[case]
    used, ids = np.unique(tets, return_inverse=True)
    return meshmod.tet_mesh(verts[used], ids.reshape(-1, 4)), range(len(tets))


# ---------------------------------------------------------------------------
# Tapered beam.  A 52 x 12 grid of bilinear cells on [0,4] x [0,~0.92] is
# cut by an inclined line ell(s) = 11 + delta0 - s/48 (in row units, s the
# column coordinate); material above the line is dropped.  The line passes
# within `gap` meters of a lattice node near columns 3 and 51, producing
# nearly co-located nodes joined by a tiny edge.  Cut-cell pieces shorter
# than about half a row merge with the cell below into hexagonal polygons
# (20 triangular faces once extruded); everything else stays quadrilateral.
# The construction yields 641 plane nodes, 1152 triangles (-> 3456 tets) and
# 549 polytopal elements, matching the reference mesh sizes.

BEAM_COLS = 52
BEAM_ROWS = 12
BEAM_DX = 4.0 / BEAM_COLS
BEAM_DY = 1.0 / BEAM_ROWS
_BEAM_SLOPE = 48.0  # columns per row of descent
_MERGE_HEIGHT = 0.47  # rows; cut pieces shorter than this merge downward


def _beam_2d(case):
    """(vertices, polygons, cells) of the beam's plane mesh: the polygons
    the `fem` variant splits into triangles, in order, and the loops of
    the `vem` variant's cells, in element order."""
    gap = BEAM_GAP[case]
    delta0 = 3.0 / _BEAM_SLOPE + gap / BEAM_DY

    def ell(s):
        return 11.0 + delta0 - s / _BEAM_SLOPE

    K = [int(math.floor(ell(i))) for i in range(BEAM_COLS + 1)]
    # The columns where the cut crosses row line K[i]: a turn node there
    # splits the cut cell into a triangle and a pentagon.
    turns = [i for i in range(BEAM_COLS) if K[i] != K[i + 1]]

    points = {}  # node key -> (id, (x, y)), in id order

    def add(key, s, j):
        """Id of the node `key` at column s and row j, added when new."""
        return points.setdefault(key, (len(points),
                                       (s * BEAM_DX, j * BEAM_DY)))[0]

    def node(i, j):
        return add(("g", i, j), i, j)

    def cut_node(i):
        return add(("p", i), i, ell(i))

    def turn_node(i):
        return add(("s", i), _BEAM_SLOPE * (11 - K[i] + delta0), K[i])

    for i in range(BEAM_COLS + 1):
        for j in range(K[i] + 1):
            node(i, j)
    for i in range(BEAM_COLS + 1):
        cut_node(i)
    for i in turns:
        turn_node(i)

    # fem fan-splits each polygon: the fully kept cells (quads), then the
    # cut-cell pieces.  The vem cells: the quads not merged, then each
    # piece, a thin one with the cell below it as a hexagon, then each turn
    # cell's triangle and pentagon, joined on their shared edge.
    quads, kept, pieces, cells, turn_cells = {}, {}, [], [], []
    for i in range(BEAM_COLS):
        for r in range(min(K[i], K[i + 1])):
            quads[i, r] = kept[i, r] = (node(i, r), node(i + 1, r),
                                        node(i + 1, r + 1), node(i, r + 1))
        row = K[i]
        if i in turns:
            tri = (node(i, row), turn_node(i), cut_node(i))
            pent = (node(i, row - 1), node(i + 1, row - 1),
                    cut_node(i + 1), turn_node(i), node(i, row))
            pieces += [tri, pent]
            turn_cells.append((*pent[:4], tri[2], tri[0]))
            continue
        piece = (node(i, row), node(i + 1, row), cut_node(i + 1),
                 cut_node(i))
        pieces.append(piece)
        if ell(i) - row < _MERGE_HEIGHT:  # ell falls: the piece's height
            piece = (*kept.pop((i, row - 1))[:2], *piece[1:], piece[0])
        cells.append(piece)
    return (np.array([xy for _, xy in points.values()]),
            [*quads.values(), *pieces], [*kept.values(), *cells, *turn_cells])


def _beam_mesh_2d(case, variant):
    verts, polygons, cells = _beam_2d(case)
    elements = ([Element(loop=t, kind="tri", nodes=t)
                 for cap in meshmod.fan(verts, polygons) for t in cap]
                if variant == "fem" else
                [Element(loop=loop) for loop in cells])
    return meshmod.validate_mesh(Mesh(2, verts, elements, STEEL_NU0))


def _beam(case, variant):
    plane = _beam_mesh_2d(case, variant)
    if variant == "vem":
        return meshmod.extrude(plane, BEAM_DY)
    tris = plane.geometry.nodes.reshape(-1, 3)  # rows of extrude's prisms
    return meshmod.prism_tets(meshmod._lifted(plane, BEAM_DY), np.hstack(
        [tris, tris + plane.num_vertices]), plane.material)
