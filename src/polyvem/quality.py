"""Shape diagnostics for tetrahedra and prisms: dihedral angles, sliver/
wedge/spire/thin-prism classification.

Thresholds are policy, not physics: the defaults separate the benchmark
pathologies (mesh parameter <= 0.1) from well-shaped reference elements.
All classification inputs are scale- and rotation-invariant ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .mesh import TAU_GEOM, ValidationError


@dataclass(frozen=True)
class QualityThresholds:
    angle_deg: float = 5.0          # dihedral angle cut for wedge/sliver
    face_area_rel: float = 1e-4     # tiny-face cut, relative to h_E^2
    face_separation: float = 100.0  # smallest face must be this much smaller
    edge_rel: float = 1e-3          # thin-prism edge cut, relative to h_E


DEFAULT_THRESHOLDS = QualityThresholds()

CLASSES = ("good", "wedge", "sliver_kite", "spire", "thin_prism",
           "degenerate", "not_applicable")


@dataclass(frozen=True)
class QualityReport:
    element: int
    classification: str
    min_dihedral_deg: float | None
    max_dihedral_deg: float | None
    min_edge: float
    min_face_area: float
    volume: float

    def csv_row(self):
        def fmt(x):
            return "" if x is None else format(x, ".17g")

        return (f"{self.element},{self.classification},"
                f"{fmt(self.min_dihedral_deg)},{fmt(self.max_dihedral_deg)},"
                f"{fmt(self.min_edge)},{fmt(self.min_face_area)},"
                f"{fmt(self.volume)}")


CSV_HEADER = ("element_id,class,min_dihedral_deg,max_dihedral_deg,"
              "min_edge,min_face_area,volume")

_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_OPPOSITE_FACES = np.array([[k for k in range(4) if k != opp]
                            for opp in range(4)])


def dihedral_angles(mesh, index):
    """Interior dihedral angles (degrees) of a tetrahedron, one per edge."""
    nodes = meshmod.element_nodes(mesh, [index])[0]
    if mesh.dimension != 3 or len(nodes) != 4:
        raise ValidationError(f"element {index} is not a tetrahedron")
    v = mesh.vertices[nodes]
    # Outward normals of the face opposite each vertex.
    _, normals = meshmod.triangle_area_normal(v[_OPPOSITE_FACES])
    inward = ((v - v[_OPPOSITE_FACES[:, 0]]) * normals).sum(axis=1) > 0
    normals[inward] *= -1.0
    angles = []
    for a, b in _TET_EDGES:
        others = [k for k in range(4) if k not in (a, b)]
        n1 = normals[others[0]]
        n2 = normals[others[1]]
        cosang = float(np.clip(-(n1 @ n2), -1.0, 1.0))
        angles.append(math.degrees(math.acos(cosang)))
    return angles


def _element_metrics(mesh, index):
    geom = meshmod.element_geometry(mesh, index)
    g = mesh.geometry
    edges = g.edge_lengths[g.face_start[index]:g.face_start[index + 1]]
    return float(edges.min()), float(geom.face_areas.min()), geom


def classify(mesh, index, thresholds=DEFAULT_THRESHOLDS):
    """Classify one element; polytopes report metrics only."""
    el = mesh.elements[index]
    min_edge, min_face, geom = _element_metrics(mesh, index)
    h = geom.diameter
    nodes = meshmod.element_nodes(mesh, [index])[0]

    is_tet = mesh.dimension == 3 and el.kind == "tet"
    is_prism = mesh.dimension == 3 and el.kind == "prism"
    min_d = max_d = None
    label = "not_applicable"
    if is_tet:
        angles = dihedral_angles(mesh, index)
        min_d, max_d = min(angles), max(angles)
        areas = np.sort(geom.face_areas)
        one_tiny = (areas[1] >= thresholds.face_separation * areas[0])
        if min_face < thresholds.face_area_rel * h * h and one_tiny:
            label = "spire"
        elif (max_d > 180.0 - thresholds.angle_deg
              and min_d < thresholds.angle_deg):
            label = "sliver_kite"
        elif min_d < thresholds.angle_deg:
            label = "wedge"
        elif geom.volume < TAU_GEOM * h ** 3:
            label = "degenerate"
        else:
            label = "good"
    elif is_prism:
        # Smallest edge of the triangular caps.
        caps = [nodes[:3], nodes[3:]]
        cap_min = min(
            np.linalg.norm(mesh.vertices[c[(k + 1) % 3]] - mesh.vertices[c[k]])
            for c in caps for k in range(3))
        if cap_min < thresholds.edge_rel * h:
            label = "thin_prism"
        elif geom.volume < TAU_GEOM * h ** 3:
            label = "degenerate"
        else:
            label = "good"
    elif mesh.dimension == 2 and len(nodes) == 3:
        if geom.volume < TAU_GEOM * h * h:
            label = "degenerate"
        else:
            # Reuse the dihedral cut for interior angles of triangles.
            pts = mesh.vertices[nodes]
            angs = []
            for k in range(3):
                u = pts[(k + 1) % 3] - pts[k]
                w = pts[(k + 2) % 3] - pts[k]
                cosang = (u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
                angs.append(math.degrees(math.acos(np.clip(cosang, -1, 1))))
            min_d, max_d = min(angs), max(angs)
            label = "wedge" if min_d < thresholds.angle_deg else "good"
    return QualityReport(
        element=index,
        classification=label,
        min_dihedral_deg=min_d,
        max_dihedral_deg=max_d,
        min_edge=float(min_edge),
        min_face_area=float(min_face),
        volume=float(geom.volume),
    )


def mesh_report(mesh, thresholds=DEFAULT_THRESHOLDS):
    return [classify(mesh, i, thresholds) for i in range(mesh.num_elements)]


def write_csv(reports, path):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")
