"""Shape diagnostics for tetrahedra, prisms and triangles: dihedral angles,
sliver/wedge/spire/thin-prism classification, in one array pass over the
mesh's geometry table, once per table (``mesh_report``; ``tet_angles`` is
its kernel of a stack of tetrahedra's six angles).  The four cuts are
policy, not physics: module constants that separate the benchmark
pathologies (mesh parameter <= 0.1) from well-shaped reference elements.
All classification inputs are scale- and rotation-invariant ratios.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import hni, mesh as meshmod

ANGLE_DEG = 5.0          # dihedral angle cut for wedge/sliver
FACE_AREA_REL = 1e-4     # tiny-face cut, relative to h_E^2
FACE_SEPARATION = 100.0  # smallest face must be this much smaller
EDGE_REL = 1e-3          # thin-prism edge cut, relative to h_E


@dataclass(frozen=True)
class QualityReport:
    element: int
    classification: str
    min_dihedral_deg: float | None
    max_dihedral_deg: float | None
    min_edge: float
    min_face_area: float
    volume: float

# Tet corners: the face opposite each vertex, and per edge (01, 02, 03, 12,
# 13, 23) the two faces meeting there, those opposite its other vertices.
_OPPOSITE_FACES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_EDGE_FACES = np.array([[2, 3], [1, 3], [1, 2], [0, 3], [0, 2], [0, 1]])
_REPORTS = weakref.WeakKeyDictionary()  # geometry table -> its reports


def _degrees(cosines):
    """Angles in degrees of the cosines, clipped to [-1, 1].  math.acos
    per value: np.arccos differs from it in the last bit."""
    c = np.clip(cosines, -1.0, 1.0)
    return np.reshape([math.degrees(math.acos(x)) for x in c.ravel().tolist()],
                      c.shape)


def tet_angles(corners):
    """Interior dihedral angles (degrees) of tets with corners (m, 4, 3),
    one row of six per tet, in _EDGE_FACES order."""
    # Outward normals of the face opposite each vertex.  A power-of-two
    # rescale of each tet is exact and keeps the normals' products finite.
    corners = np.ldexp(corners, -np.frexp(np.abs(corners).max(axis=(1, 2)))[
        1][:, None, None])
    _, normals = meshmod.triangle_area_normal(corners[:, _OPPOSITE_FACES])
    apex = corners - corners[:, _OPPOSITE_FACES[:, 0]]
    normals[(apex * normals).sum(axis=-1) > 0] *= -1.0
    return _degrees(-hni._dots(normals[:, _EDGE_FACES[:, 0]],
                               normals[:, _EDGE_FACES[:, 1]]))


def _tri_angles(p):
    """Interior angles (degrees) of triangles with corners p (m, 3, 2)."""
    u, w = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    with np.errstate(divide="ignore", invalid="ignore"):
        return _degrees(hni._dots(u, w) / (hni._norms(u) * hni._norms(w)))


def _cap_edges(p):
    """Edge lengths of the two triangular caps of prisms with corners p
    (m, 6, 3), bottom then top."""
    caps = p.reshape(-1, 2, 3, 3)
    return hni._norms(np.roll(caps, -1, axis=2) - caps).reshape(-1, 6)


def mesh_report(mesh):
    """One QualityReport per element, in a new list; the mesh is classified
    (``_classify``) once per geometry table, kept while the table lives."""
    if mesh.geometry not in _REPORTS:
        _REPORTS[mesh.geometry] = _classify(mesh)
    return list(_REPORTS[mesh.geometry])


def _classify(mesh):
    """The QualityReports of the elements, classified in one array pass.
    Polytopes report metrics only."""
    g, dim = mesh.geometry, mesh.dimension
    n = mesh.num_elements
    ids = np.arange(n)
    owner, first = g.face_owner, g.face_start[:-1]
    ranked = g.face_areas[np.lexsort((g.face_areas, owner))]
    min_face = ranked[first]
    second = ranked[np.minimum(first + 1, len(ranked) - 1)]
    edges = g.edge_lengths.min(axis=1)
    min_edge = edges[np.lexsort((edges, owner))][first]
    volume, h, flat = g.volume, g.diameter, g.degenerate
    spire = ((second >= FACE_SEPARATION * min_face)
             & (min_face < FACE_AREA_REL * h * h))

    kind, nodes = np.array(g.kinds, object), np.diff(g.node_start)
    tet = (kind == "tet") & (dim == 3)
    prism = (kind == "prism") & (dim == 3)
    tri = (nodes == 3) & (dim == 2)
    meshmod.reject(tet & (nodes != 4), "not a tetrahedron", ids)
    # Smallest and largest angle (tets, triangles) or cap edge (prisms).
    lo, hi = np.full(n, np.nan), np.full(n, np.nan)
    for mask, values in ((tet, tet_angles), (tri, _tri_angles),
                         (prism, _cap_edges)):
        if np.count_nonzero(mask):
            a = values(mesh.vertices[meshmod.element_nodes(mesh, ids[mask])])
            lo[mask], hi[mask] = a.min(axis=1), a.max(axis=1)
    # Each kind's branches in order (the kind masks are disjoint), else the
    # last label.
    label = np.array(["spire", "sliver_kite", "wedge", "thin_prism",
                      "degenerate", "wedge", "degenerate", "good",
                      "not_applicable"])[meshmod._first(np.array(
        [tet & spire, tet & (hi > 180.0 - ANGLE_DEG) & (lo < ANGLE_DEG),
         tet & (lo < ANGLE_DEG), prism & (lo < EDGE_REL * h), tri & flat,
         tri & (lo < ANGLE_DEG), (tet | prism) & flat, tet | prism | tri]))]
    angled = tet | (tri & ~flat)
    lo_out, hi_out = np.full(n, None, object), np.full(n, None, object)
    lo_out[angled], hi_out[angled] = lo[angled], hi[angled]
    return tuple(QualityReport(*row) for row in zip(
        ids.tolist(), label.tolist(), lo_out.tolist(), hi_out.tolist(),
        min_edge.tolist(), min_face.tolist(), volume.tolist()))
