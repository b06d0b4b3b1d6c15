"""Polytopal mesh: types, validation, JSON I/O, geometry queries, extrusion.

A mesh is dimension-tagged.  2D elements are CCW vertex loops; 3D elements are
watertight sets of outward-oriented triangular faces.  Simplices and extruded
prisms additionally carry an ordered corner-node list so the reference finite
elements can be built on them; purely polytopal elements do not need one.

Meshes are immutable by convention: nothing in this package mutates a mesh
after construction, so instances can be shared freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import hni

TAU_GEOM = 1e-14  # relative degeneracy tolerance (double-precision floor)


class MeshError(Exception):
    """Base error for mesh loading/validation problems."""


class ParseError(MeshError):
    """Malformed mesh file."""


class ValidationError(MeshError):
    """Mesh violates a structural invariant; message names the offender."""


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic linear elastic material (SI units)."""

    youngs_modulus: float
    poisson_ratio: float
    density: float

    def __post_init__(self):
        if not self.youngs_modulus > 0:
            raise ValidationError("Young's modulus must be positive")
        if not (0.0 <= self.poisson_ratio < 0.5):
            raise ValidationError("Poisson ratio must lie in [0, 0.5)")
        if not self.density > 0:
            raise ValidationError("density must be positive")


STEEL = MaterialParams(youngs_modulus=210e9, poisson_ratio=0.3, density=7800.0)


@dataclass(frozen=True)
class Element:
    """One polytopal element.

    2D: ``loop`` is the CCW boundary.  3D: ``faces`` are outward triangles.
    ``kind`` tags elements with classical connectivity ("tri", "tet",
    "prism"); ``nodes`` is the ordered corner list for those kinds (prisms:
    bottom triangle then top).  Generic polytopes use kind "poly" and take
    their node set from the loop/faces.
    """

    loop: tuple[int, ...] | None = None
    faces: tuple[tuple[int, int, int], ...] | None = None
    kind: str = "poly"
    nodes: tuple[int, ...] | None = None

    def node_ids(self):
        """Element node ids in the element's dof order."""
        if self.nodes is not None:
            return self.nodes
        if self.loop is not None:
            return self.loop
        seen = []
        have = set()
        for f in self.faces:
            for v in f:
                if v not in have:
                    have.add(v)
                    seen.append(v)
        return tuple(sorted(seen))


@dataclass(frozen=True)
class Mesh:
    dimension: int
    vertices: np.ndarray
    elements: tuple[Element, ...]
    material: MaterialParams = STEEL

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, float))
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.elements)


@dataclass(frozen=True)
class ElementGeometry:
    """Measure, centroid, diameter, face data and order-<=2 scaled moments."""

    volume: float
    centroid: np.ndarray
    diameter: float
    face_areas: np.ndarray
    face_normals: np.ndarray
    scaled_moments: dict
    degenerate: bool = False


# ---------------------------------------------------------------------------
# Construction helpers


def tet_element(nodes, vertices=None):
    """Tetrahedron element from 4 node ids (positively oriented)."""
    a, b, c, d = nodes
    faces = ((a, c, b), (a, b, d), (a, d, c), (b, c, d))
    return Element(faces=faces, kind="tet", nodes=tuple(nodes))


def tet_volume(p0, p1, p2, p3):
    return float(np.linalg.det(np.array([p1 - p0, p2 - p0, p3 - p0]))) / 6.0


def triangle_area_normal(tri):
    """(area, unit outward normal) of a 3D triangle, Newell form."""
    n = hni._newell_normal(np.asarray(tri, float))
    area = float(np.linalg.norm(n))
    if area == 0.0:
        return 0.0, np.zeros(3)
    return area, n / area


# ---------------------------------------------------------------------------
# Validation


def validate_element(mesh, index):
    """Check one element's structural invariants; raise ValidationError."""
    el = mesh.elements[index]
    n_vert = mesh.num_vertices
    if mesh.dimension == 2:
        if el.loop is None:
            raise ValidationError(f"element {index}: 2D element lacks a loop")
        loop = el.loop
        if len(loop) < 3:
            raise ValidationError(f"element {index}: loop has < 3 vertices")
        if len(set(loop)) != len(loop):
            raise ValidationError(f"element {index}: repeated vertex in loop")
        if any(v < 0 or v >= n_vert for v in loop):
            raise ValidationError(f"element {index}: vertex index out of range")
        pts = mesh.vertices[list(loop)]
        area = _polygon_signed_area(pts)
        h = _max_pairwise_distance(pts)
        if area <= TAU_GEOM * h * h:
            raise ValidationError(
                f"element {index}: loop is not CCW or has vanishing area")
        if not _polygon_is_simple(pts):
            raise ValidationError(f"element {index}: loop self-intersects")
        return

    if el.faces is None:
        raise ValidationError(f"element {index}: 3D element lacks faces")
    faces = el.faces
    if len(faces) < 4:
        raise ValidationError(f"element {index}: fewer than 4 faces")
    edge_count = {}
    areas = []
    weighted = np.zeros(3)
    for fi, f in enumerate(faces):
        if len(f) != 3:
            raise ValidationError(
                f"element {index}, face {fi}: faces must be triangles")
        if any(v < 0 or v >= n_vert for v in f):
            raise ValidationError(
                f"element {index}, face {fi}: vertex index out of range")
        if len(set(f)) != 3:
            raise ValidationError(
                f"element {index}, face {fi}: repeated vertex")
        tri = mesh.vertices[list(f)]
        area, normal = triangle_area_normal(tri)
        edge_len = max(np.linalg.norm(tri[k] - tri[(k + 1) % 3])
                       for k in range(3))
        if area <= TAU_GEOM * edge_len * edge_len:
            raise ValidationError(
                f"element {index}, face {fi}: zero-area face")
        areas.append(area)
        weighted += area * normal
        for k in range(3):
            a, b = f[k], f[(k + 1) % 3]
            edge_count[(a, b)] = edge_count.get((a, b), 0) + 1
    for fi, f in enumerate(faces):
        for k in range(3):
            a, b = f[k], f[(k + 1) % 3]
            if edge_count[(a, b)] != 1 or edge_count.get((b, a), 0) != 1:
                raise ValidationError(
                    f"element {index}, face {fi}: face orientation mismatch "
                    f"on edge ({a}, {b})")
    if np.linalg.norm(weighted) > 1e-12 * max(areas):
        raise ValidationError(f"element {index}: faces are not watertight")
    # Outward orientation: the divergence-theorem volume must be positive.
    # Integrate about the first vertex so tiny far-off elements survive.
    nodes = el.node_ids()
    local = {g: i for i, g in enumerate(nodes)}
    verts = mesh.vertices[list(nodes)] - mesh.vertices[nodes[0]]
    local_faces = [tuple(local[v] for v in f) for f in faces]
    vol = hni.PolyhedronIntegrator(verts, local_faces).integrate((0, 0, 0))
    if vol <= 0.0:
        raise ValidationError(
            f"element {index}: faces oriented inward (volume {vol:g})")


def validate_mesh(mesh):
    if mesh.dimension not in (2, 3):
        raise ValidationError(f"unsupported dimension {mesh.dimension}")
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != mesh.dimension:
        raise ValidationError("vertex array shape does not match dimension")
    if not np.all(np.isfinite(mesh.vertices)):
        raise ValidationError("non-finite vertex coordinate")
    if mesh.num_elements == 0:
        raise ValidationError("mesh has no elements")
    for i in range(mesh.num_elements):
        validate_element(mesh, i)
    return mesh


def _polygon_signed_area(pts):
    # Shoelace about the first vertex; absolute coordinates would drown
    # slivers far from the origin in cancellation noise.
    x = pts[:, 0] - pts[0, 0]
    y = pts[:, 1] - pts[0, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _max_pairwise_distance(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2).max()))


def _segments_intersect(p1, p2, p3, p4):
    """Proper intersection test for open segments (shared endpoints allowed)."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _polygon_is_simple(pts):
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2):
                return False
    return True


# ---------------------------------------------------------------------------
# Geometry


def element_local(mesh, index):
    """(node ids, local vertex array, local faces-or-loop) for one element."""
    el = mesh.elements[index]
    nodes = el.node_ids()
    local = {g: i for i, g in enumerate(nodes)}
    verts = mesh.vertices[list(nodes)]
    if mesh.dimension == 2:
        return nodes, verts, tuple(local[v] for v in el.loop)
    return nodes, verts, tuple(tuple(local[v] for v in f) for f in el.faces)


def element_integrator(mesh, index):
    nodes, verts, conn = element_local(mesh, index)
    if mesh.dimension == 2:
        return hni.PolygonIntegrator(verts[list(conn)])
    return hni.PolyhedronIntegrator(verts, conn)


def element_geometry(mesh, index):
    """Measure, centroid, diameter, per-face data and scaled moments.

    Moments are integrated in a frame anchored at the element's first
    vertex; scaled moments are translation-invariant, and the centroid is
    shifted back.  Anchoring keeps tiny elements far from the global
    origin at full relative accuracy.
    """
    el = mesh.elements[index]
    nodes, verts, conn = element_local(mesh, index)
    dim = mesh.dimension
    anchor = verts[0].copy()
    local = verts - anchor
    if dim == 2:
        integ = hni.PolygonIntegrator(local[list(conn)])
    else:
        integ = hni.PolyhedronIntegrator(local, conn)
    volume = integ.integrate((0,) * dim)
    first = np.array([
        integ.integrate(tuple(1 if a == axis else 0 for a in range(dim)))
        for axis in range(dim)
    ])
    centroid = first / volume if volume > 0 else np.full(dim, np.nan)
    diameter = _max_pairwise_distance(verts)
    if dim == 2:
        loop_pts = verts[list(conn)]
        n = len(loop_pts)
        areas = np.array([np.linalg.norm(loop_pts[(k + 1) % n] - loop_pts[k])
                          for k in range(n)])
        normals = []
        for k in range(n):
            t = loop_pts[(k + 1) % n] - loop_pts[k]
            nu = np.array([t[1], -t[0]])
            normals.append(nu / np.linalg.norm(nu))
        normals = np.array(normals)
    else:
        data = [triangle_area_normal(verts[list(f)]) for f in conn]
        areas = np.array([a for a, _ in data])
        normals = np.array([n for _, n in data])
    moments = hni.scaled_moment_table(integ, centroid, diameter)
    degenerate = volume <= TAU_GEOM * diameter ** dim
    return ElementGeometry(
        volume=float(volume),
        centroid=centroid + anchor,
        diameter=float(diameter),
        face_areas=areas,
        face_normals=normals,
        scaled_moments=moments,
        degenerate=degenerate,
    )


def is_convex(mesh, index):
    """True iff every vertex lies on or behind every face plane."""
    el = mesh.elements[index]
    nodes, verts, conn = element_local(mesh, index)
    h = _max_pairwise_distance(verts)
    tol = TAU_GEOM * h
    if mesh.dimension == 2:
        pts = verts[list(conn)]
        n = len(pts)
        for k in range(n):
            t = pts[(k + 1) % n] - pts[k]
            nu = np.array([t[1], -t[0]])
            nu /= np.linalg.norm(nu)
            if np.any((verts - pts[k]) @ nu > tol):
                return False
        return True
    for f in conn:
        tri = verts[list(f)]
        area, normal = triangle_area_normal(tri)
        if np.any((verts - tri[0]) @ normal > tol):
            return False
    return True


# ---------------------------------------------------------------------------
# Extrusion


def _fan_root(pts, loop_order):
    """Pick the fan root for a cap polygon.

    Roots are tried by ascending global vertex id; the first whose fan
    triangles all have strictly positive area (CCW) wins.  A bare
    lowest-index fan can hit collinear vertex runs (merged polygons keep
    them), which would emit zero-area cap faces.
    """
    n = len(loop_order)
    order = sorted(range(n), key=lambda k: loop_order[k])
    for root in order:
        ok = True
        for k in range(1, n - 1):
            i = (root + k) % n
            j = (root + k + 1) % n
            u = pts[i] - pts[root]
            v = pts[j] - pts[root]
            w = pts[j] - pts[i]
            cross = u[0] * v[1] - u[1] * v[0]
            # Positive area relative to the triangle's own longest edge,
            # mirroring the per-face zero-area rule: slivers with a tiny
            # edge stay admissible, exactly collinear runs do not.
            edge2 = max(u @ u, v @ v, w @ w)
            if cross <= 2.0 * TAU_GEOM * edge2:
                ok = False
                break
        if ok:
            return root
    raise ValidationError("no valid fan root for cap polygon; "
                          "cap is non-star-shaped")


def _fan_triangles(loop, root_pos):
    n = len(loop)
    tris = []
    for k in range(1, n - 1):
        i = (root_pos + k) % n
        j = (root_pos + k + 1) % n
        tris.append((loop[root_pos], loop[i], loop[j]))
    return tris


def extrude(mesh2d, thickness, layers=1):
    """Extrude a 2D mesh along +z into layered polyhedra.

    Every quadrilateral side face splits into two triangles by the diagonal
    from its lowest-index vertex; caps are fan-triangulated (see _fan_root).
    Prisms over triangles keep corner-node ordering for the reference wedge
    element.
    """
    if mesh2d.dimension != 2:
        raise ValidationError("extrude expects a 2D mesh")
    if thickness <= 0 or layers < 1:
        raise ValidationError("extrude needs thickness > 0 and layers >= 1")
    n2 = mesh2d.num_vertices
    dz = thickness / layers
    verts = np.zeros(((layers + 1) * n2, 3))
    for l in range(layers + 1):
        verts[l * n2:(l + 1) * n2, :2] = mesh2d.vertices
        verts[l * n2:(l + 1) * n2, 2] = l * dz

    def vid(i, l):
        return i + l * n2

    elements = []
    for el in mesh2d.elements:
        loop = el.loop
        n = len(loop)
        pts = mesh2d.vertices[list(loop)]
        root = _fan_root(pts, loop)
        for l in range(layers):
            faces = []
            bot = [vid(i, l) for i in loop]
            top = [vid(i, l + 1) for i in loop]
            for tri in _fan_triangles(bot, root):
                faces.append((tri[0], tri[2], tri[1]))  # outward -z
            faces.extend(_fan_triangles(top, root))     # outward +z
            for k in range(n):
                a, b = loop[k], loop[(k + 1) % n]
                quad = (vid(a, l), vid(b, l), vid(b, l + 1), vid(a, l + 1))
                start = int(np.argmin(quad))
                q = [quad[(start + s) % 4] for s in range(4)]
                faces.append((q[0], q[1], q[2]))
                faces.append((q[0], q[2], q[3]))
            if n == 3:
                nodes = tuple(bot) + tuple(top)
                elements.append(Element(faces=tuple(faces), kind="prism",
                                        nodes=nodes))
            else:
                elements.append(Element(faces=tuple(faces), kind="poly"))
    mesh = Mesh(3, verts, elements, mesh2d.material)
    return validate_mesh(mesh)


def split_prisms_to_tets(mesh):
    """Replace every prism element by three tetrahedra.

    The split honors the lowest-index diagonal of each quad side face, so
    shared faces of adjacent prisms stay conforming.
    """
    if mesh.dimension != 3:
        raise ValidationError("split_prisms_to_tets expects a 3D mesh")
    elements = []
    for el in mesh.elements:
        if el.kind != "prism":
            elements.append(el)
            continue
        a, b, c, d, e, f = el.nodes  # bottom (a,b,c), top (d,e,f)
        bottom = [a, b, c]
        top = [d, e, f]
        m = int(np.argmin(bottom))
        a, b, c = bottom[m], bottom[(m + 1) % 3], bottom[(m + 2) % 3]
        d, e, f = top[m], top[(m + 1) % 3], top[(m + 2) % 3]
        # Quad (b,c,f,e) splits toward min(b, c); both tets use vertex a.
        if b < c:
            tets = [(a, b, c, f), (a, b, f, e), (a, e, f, d)]
        else:
            tets = [(a, b, c, e), (a, e, c, f), (a, e, f, d)]
        for t in tets:
            p = mesh.vertices[list(t)]
            if tet_volume(*p) < 0:
                t = (t[0], t[2], t[1], t[3])
            elements.append(tet_element(t))
    return validate_mesh(Mesh(3, mesh.vertices, elements, mesh.material))


# ---------------------------------------------------------------------------
# File I/O (JSON, 17 significant digits)


def _fmt(x):
    return format(float(x), ".17g")


def save_mesh(mesh, path):
    lines = ["{"]
    lines.append(f'  "dimension": {mesh.dimension},')
    vrows = [
        "[" + ", ".join(_fmt(c) for c in row) + "]" for row in mesh.vertices
    ]
    lines.append('  "vertices": [')
    lines.append("    " + ",\n    ".join(vrows))
    lines.append("  ],")
    erows = []
    for el in mesh.elements:
        if mesh.dimension == 2:
            body = f'"loop": [{", ".join(str(v) for v in el.loop)}]'
        else:
            facestr = ", ".join(
                "[" + ", ".join(str(v) for v in f) + "]" for f in el.faces)
            body = f'"faces": [{facestr}]'
        if el.kind != "poly" and el.nodes is not None:
            body += (f', "kind": "{el.kind}", '
                     f'"nodes": [{", ".join(str(v) for v in el.nodes)}]')
        erows.append("{" + body + "}")
    lines.append('  "elements": [')
    lines.append("    " + ",\n    ".join(erows))
    lines.append("  ],")
    m = mesh.material
    lines.append(f'  "material": {{"E": {_fmt(m.youngs_modulus)}, '
                 f'"nu": {_fmt(m.poisson_ratio)}, "rho": {_fmt(m.density)}}}')
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse mesh file {path}: {exc}") from exc
    try:
        dim = int(data["dimension"])
        vertices = np.asarray(data["vertices"], dtype=float)
        material = MaterialParams(
            youngs_modulus=float(data["material"]["E"]),
            poisson_ratio=float(data["material"]["nu"]),
            density=float(data["material"]["rho"]),
        )
        elements = []
        for raw in data["elements"]:
            kind = raw.get("kind")
            nodes = tuple(raw["nodes"]) if "nodes" in raw else None
            if "loop" in raw:
                loop = tuple(int(v) for v in raw["loop"])
                if kind is None:
                    kind = "tri" if len(loop) == 3 else "poly"
                if kind == "tri" and nodes is None:
                    nodes = loop
                elements.append(Element(loop=loop, kind=kind, nodes=nodes))
            elif "faces" in raw:
                faces = tuple(tuple(int(v) for v in f) for f in raw["faces"])
                if kind is None:
                    node_set = {v for f in faces for v in f}
                    kind = ("tet" if len(faces) == 4 and len(node_set) == 4
                            else "poly")
                if kind == "tet" and nodes is None:
                    nodes = _tet_nodes_from_faces(faces)
                elements.append(Element(faces=faces, kind=kind, nodes=nodes))
            else:
                raise KeyError("element needs 'loop' or 'faces'")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed mesh file {path}: {exc}") from exc
    mesh = Mesh(dim, vertices, elements, material)
    return validate_mesh(mesh)


def _tet_nodes_from_faces(faces):
    f0 = faces[0]
    rest = {v for f in faces[1:] for v in f} - set(f0)
    apex = rest.pop()
    # Face 0 is outward, so (f0 reversed, apex) is positively oriented.
    return (f0[0], f0[2], f0[1], apex)
