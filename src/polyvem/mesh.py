"""Polytopal mesh: types, validation, JSON I/O, geometry queries, extrusion.

A mesh is dimension-tagged.  2D elements are CCW vertex loops; 3D elements are
watertight sets of outward-oriented triangular faces.  Simplices and extruded
prisms additionally carry an ordered corner-node list so the reference finite
elements can be built on them; purely polytopal elements do not need one.

Meshes are immutable by convention: nothing in this package mutates a mesh
after construction, so instances can be shared freely.  Each mesh builds its
geometry table (``Mesh.geometry``: stacked face data, each element's node
list in dof order, measures and the validation verdict of every element)
once, on the first geometry query or validation, and keeps it; moments and
convexity are added on first read.  The table alone decides element
connectivity: every reader of element nodes or face contacts reads it.
Mutating ``mesh.vertices`` in place after that leaves the table stale;
build a new ``Mesh`` instead.  The HNI integrators (``element_integrator``)
are the arbitrary-degree reference and are not used by the element
pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def geometry(self):
        """The element geometry table, built on first use (MeshGeometry)."""
        return MeshGeometry(self)


# ---------------------------------------------------------------------------
# Construction helpers


def tet_element(nodes, vertices=None):
    """Tetrahedron element from 4 node ids.  With the vertex array given,
    a negatively oriented node order is flipped (the middle two swap);
    without it the order must already be positive."""
    a, b, c, d = nodes
    if vertices is not None and tet_volume(
            *np.asarray(vertices, float)[[a, b, c, d]]) < 0:
        b, c = c, b
    faces = ((a, c, b), (a, b, d), (a, d, c), (b, c, d))
    return Element(faces=faces, kind="tet", nodes=(a, b, c, d))


def tet_volume(p0, p1, p2, p3):
    """Signed volume of the tet (p0, p1, p2, p3); one per row of stacks."""
    return np.linalg.det(np.stack([p1 - p0, p2 - p0, p3 - p0], axis=-2)) / 6.0


def triangle_area_normal(tri):
    """(area, unit outward normal) of a 3D triangle, Newell form; arrays of
    both for an (m, 3, 3) stack, bit for bit the per-triangle values.  A
    zero-area triangle gets a zero normal."""
    tri = np.asarray(tri, float)
    weighted = hni._newell_normal(tri)
    area = hni._norms(weighted)
    normal = _unit(weighted, area)
    return (float(area), normal) if tri.ndim == 2 else (area, normal)


def _unit(vectors, lengths):
    """Rows divided by their lengths; a zero-length row stays zero."""
    return np.divide(vectors, lengths[..., None], out=np.zeros_like(vectors),
                     where=lengths[..., None] > 0.0)


# ---------------------------------------------------------------------------
# Geometry table and validation

_KIND_NODES = {"tri": 3, "tet": 4, "prism": 6}
_NEXT = {2: np.array([1, 0]), 3: np.array([1, 2, 0])}  # corner successors
_FACE_CHECKS = ("faces must be triangles", "vertex index out of range",
                "repeated vertex", "zero-area face")


class MeshGeometry:
    """Geometry and validation verdict of every element of one mesh.

    3D elements contribute their triangles and 2D elements their loop edges
    to one stacked face table (vertex ids ``faces``, element ``face_owner``);
    ``face_start[e]: face_start[e + 1]`` slices element e's faces, in its
    own order.  The node lists are stacked the same way (``nodes``,
    ``node_start``), each in the element's dof order: its given ``nodes``,
    else its 2D loop, else the sorted vertex set of its faces.  These, the
    face areas, normals and edge lengths, ``volume``, ``diameter``,
    ``degenerate`` (volume <= TAU_GEOM x diameter^dim: the one degeneracy
    rule, which 2D validation, quality and merging read) and the verdict are
    built with the table; ``integrate``, ``centroid``, ``scaled_moments``
    and ``convex`` on first read, from it alone.  Moments are signed sums
    over the simplices joining each face to the element's anchor (its first
    node); ``integrate`` serves them to ``hni.scaled_moment_table``.
    ``failed_check[e]`` is the first check element e fails (-1: none) and
    ``error(e)`` words it.  Every array is read-only.
    """

    def __init__(self, mesh):
        dim, n_vert, els = mesh.dimension, mesh.num_vertices, mesh.elements
        V = self._V = (mesh.vertices if n_vert else np.zeros((1, dim))).view()
        n_el = len(els)
        conns = [el.loop if dim == 2 else el.faces for el in els]
        sizes = np.array([len(c or ()) for c in conns], np.int64)
        owner = self.face_owner = np.repeat(np.arange(n_el), sizes)
        starts = np.cumsum(sizes) - sizes
        self.face_start = np.append(starts, len(owner))
        if dim == 2:
            corners = _ids([v for c in conns if c for v in c])
            succ = np.arange(1, len(corners) + 1)
            succ[(starts + sizes - 1)[sizes > 0]] = starts[sizes > 0]
            faces = np.stack([corners, corners[succ]], axis=1)
            corner_owner = owner
        else:
            faces = _ids([v for c in conns if c for f in c
                          for v in (tuple(f) + (None,) * 3)[:3]])
            faces = faces.reshape(-1, 3)
            corners, corner_owner = faces.ravel(), np.repeat(owner, 3)
        pts = V.take(faces, 0, mode="clip")  # ids out of range clipped
        if dim == 2:
            t = pts[:, 1] - pts[:, 0]
            nu = np.stack([t[:, 1], -t[:, 0]], axis=1)
            areas, normals = hni._norms(t), _unit(nu, hni._norms(nu))
        else:
            areas, normals = triangle_area_normal(pts)
        self.edge_lengths = hni._norms(pts.take(_NEXT[dim], 1) - pts)
        self.faces, self.face_areas, self.face_normals = faces, areas, normals

        # Each element's vertex set, sorted.
        order, run = corner_runs = _runs(corner_owner, corners)
        count = np.bincount(run)
        head = order[np.cumsum(count) - count]
        set_owner, self._set_ids = corner_owner[head], corners[head]
        self._set_size = set_size = np.bincount(set_owner, minlength=n_el)
        self._set_start = np.cumsum(set_size) - set_size

        # Node lists in dof order: the given nodes, else the 2D loop, else
        # the sorted vertex set of the faces.  The first node anchors the
        # moments.
        node_lists = [el.nodes for el in els]
        given_count = np.array([len(x or ()) for x in node_lists], np.int64)
        given_ids = _ids([v for x in node_lists if x for v in x])
        given_owner = np.repeat(np.arange(n_el), given_count)
        has_nodes = np.array([x is not None for x in node_lists], bool)
        rule_owner, rule_ids = ((corner_owner, corners) if dim == 2 else
                                (set_owner, self._set_ids))
        derived = ~has_nodes[rule_owner]
        owners = np.concatenate([given_owner, rule_owner[derived]])
        pick = np.argsort(owners, kind="stable")
        self.nodes = np.concatenate([given_ids, rule_ids[derived]])[pick]
        self.node_start = np.searchsorted(owners[pick], np.arange(n_el + 1))
        self._origin = V.take(np.append(self.nodes, 0)[self.node_start[:-1]],
                              0, mode="clip")

        with np.errstate(invalid="ignore"):
            volume = np.bincount(owner, self._simplices()[2],
                                 minlength=n_el) / math.factorial(dim)
            diameter = np.zeros(n_el)
            for group, p in self._vertex_sets():
                diameter[group] = _max_pairwise_distance(p)
        self.volume, self.diameter = volume, diameter
        self.degenerate = volume <= TAU_GEOM * diameter ** dim

        # Validation: one (message, failing elements) pair per check, in
        # the order an element is checked.
        outside = (lambda ids: (ids < 0) | (ids >= n_vert))
        missing = np.array([c is None for c in conns], bool)
        if dim == 2:
            checks = [
                ("2D element lacks a loop", missing),
                ("loop has < 3 vertices", sizes < 3),
                ("repeated vertex in loop",
                 _repeated(owner, corner_runs, n_el)),
                ("vertex index out of range",
                 _any(owner[outside(corners)], n_el)),
                ("loop is not CCW or has vanishing area", self.degenerate),
                ("loop self-intersects", _crossing(pts[:, 0], starts, sizes))]
        else:
            lengths = np.array([len(f) for c in conns if c for f in c], int)
            edge = self.edge_lengths.max(axis=1)
            self._face_check = np.zeros(len(faces), np.int64)  # 0: none
            for k, bad in reversed(list(enumerate(
                    [lengths != 3, outside(faces).any(axis=1),
                     (faces == faces.take(_NEXT[3], 1)).any(axis=1),
                     areas <= TAU_GEOM * edge * edge], 1))):
                self._face_check[bad] = k
            self._unpaired = _unpaired(faces, corner_owner)
            weighted = _sum_per(owner, areas[:, None] * normals, n_el)
            largest = np.zeros(n_el)
            np.maximum.at(largest, owner, areas)
            checks = [
                ("3D element lacks faces", missing),
                ("fewer than 4 faces", sizes < 4),
                ("<face>", _any(owner[self._face_check > 0], n_el)),
                ("<edge>", _any(corner_owner[self._unpaired], n_el)),
                ("faces are not watertight",
                 hni._norms(weighted) > 1e-12 * largest),
                ("faces oriented inward (volume {volume:g})", volume <= 0.0)]
        self.kinds = [el.kind for el in els]
        self._expected = np.array([_KIND_NODES.get(k, -1)
                                   for k in self.kinds], np.int64)
        self._given_count = given_count
        # Sorted (owner, clipped id) keys of the vertex sets, searched.
        keys = set_owner * len(V) + self._set_ids.clip(0, len(V) - 1)
        query = given_owner * len(V) + given_ids.clip(0, len(V) - 1)
        in_set = np.append(keys, -1)[np.searchsorted(keys, query)] == query
        checks += [
            ("a {kind} needs {expected} nodes, got {count}",
             (self._expected >= 0) & (given_count != self._expected)),
            ("node id out of range or not an integer",
             _any(given_owner[outside(given_ids)], n_el)),
            ("repeated node", _repeated(
                given_owner, _runs(given_owner, given_ids), n_el)),
            ("nodes differ from the element's vertex set",
             has_nodes & (_any(given_owner[~in_set], n_el)
                          | (set_size != given_count)))]
        self._messages = [message for message, _ in checks]
        self.failed_check = np.full(n_el, -1)
        for k in reversed(range(len(checks))):
            self.failed_check[checks[k][1]] = k
        _frozen(*(a for a in vars(self).values() if isinstance(a, np.ndarray)))

    def _simplices(self):
        """(owner, local, det) of each face-to-anchor simplex: its element,
        its face's corners about the anchor and d! x its signed measure."""
        local = (self._V.take(self.faces, 0, mode="clip")
                 - self._origin[self.face_owner][:, None, :])
        if local.shape[-1] == 2:
            return self.face_owner, local, _cross2(local[:, 0], local[:, 1])
        return self.face_owner, local, (
            local[:, 0] * hni._cross(local[:, 1], local[:, 2])).sum(1)

    def _vertex_sets(self):
        """(elements, their sets' points (elements, size, dim)) per size
        of vertex set."""
        for k in np.flatnonzero(np.bincount(self._set_size)[1:]) + 1:
            group = np.flatnonzero(self._set_size == k)
            yield group, self._V.take(self._set_ids[self._set_start[group][
                :, None] + np.arange(k)], 0, mode="clip")

    @cached_property
    def _raw(self):
        """Order-0, 1 and 2 moments about each anchor (the simplices',
        summed d!-scaled and divided once per element: a unit cube's volume
        comes out exact), then the centroid about the anchor."""
        owner, local, det = self._simplices()
        n_el, dim = len(self.volume), local.shape[-1]
        scale, s = math.factorial(dim), local.sum(axis=1)
        first = _sum_per(owner, det[:, None] * s, n_el) / (scale * (dim + 1))
        second = _sum_per(owner, det[:, None, None] * (
            np.einsum("fki,fkj->fij", local, local)
            + s[:, :, None] * s[:, None, :]), n_el) / (
            scale * (dim + 1) * (dim + 2))
        with np.errstate(invalid="ignore", divide="ignore"):
            centroid = np.where((self.volume > 0.0)[:, None],
                                first / self.volume[:, None], np.nan)
        return self.volume, *_frozen(first, second, centroid)

    @cached_property
    def centroid(self):
        """Each element's centroid (NaN where its volume is not positive)."""
        return _frozen(self._raw[3] + self._origin)[0]

    @cached_property
    def scaled_moments(self):
        """Order-<=2 moments of the scaled monomials about each element's
        (centroid, diameter), one array per exponent tuple."""
        with np.errstate(invalid="ignore", divide="ignore"):
            table = hni.scaled_moment_table(self, self._raw[3], self.diameter)
        return dict(zip(table, _frozen(*table.values())))

    @cached_property
    def convex(self):
        """Per element: does no vertex lie above a face plane by more than
        TAU_GEOM x its diameter?"""
        owner = self.face_owner
        base = self._V.take(self.faces[:, :1], 0, mode="clip")
        convex = np.ones(len(self.volume), bool)
        for group, p in self._vertex_sets():
            row = np.full(len(self.volume), -1)
            row[group] = np.arange(len(group))
            f = np.flatnonzero(row[owner] >= 0)
            height = ((p[row[owner[f]]] - base[f])
                      @ self.face_normals[f, :, None])[..., 0]
            tol = TAU_GEOM * self.diameter[owner[f], None]
            convex[owner[f][(height > tol).any(axis=1)]] = False
        return _frozen(convex)[0]

    def integrate(self, exponent):
        """Raw integral of a degree <= 2 monomial over every element, about
        each element's anchor: one value per element."""
        axes = [a for a, e in enumerate(exponent) for _ in range(e)]
        return self._raw[len(axes)][(slice(None), *axes)]

    def error(self, index):
        """Message naming element `index` and its first failed check, or
        None."""
        k = self.failed_check[index]
        if k < 0:
            return None
        where, message = f"element {index}", self._messages[k]
        s = self.face_start[index]
        if message == "<face>":
            f = s + np.flatnonzero(self._face_check[s:])[0]
            where += f", face {f - s}"
            message = _FACE_CHECKS[self._face_check[f] - 1]
        elif message == "<edge>":
            f, j = divmod(3 * s + np.flatnonzero(self._unpaired[3 * s:])[0], 3)
            where += f", face {f - s}"
            message = ("face orientation mismatch on edge "
                       f"({self.faces[f, j]}, {self.faces[f, (j + 1) % 3]})")
        return f"{where}: " + message.format(
            volume=self.volume[index], kind=self.kinds[index],
            expected=self._expected[index], count=self._given_count[index])


def _ids(values):
    """Vertex ids as int64.  A non-integer entry becomes a distinct negative
    id: out of range, and never a repeat."""
    arr = np.array(values)
    if arr.dtype.kind in "iu" or arr.size == 0:
        return arr.astype(np.int64)
    return np.array([v if isinstance(v, (int, np.integer))
                     and -2 ** 62 < v < 2 ** 62 else -1 - k
                     for k, v in enumerate(values)], np.int64)


def _sum_per(owners, rows, n_elements):
    """Rows summed per owner, in row order."""
    out = np.zeros((n_elements,) + rows.shape[1:])
    np.add.at(out, owners, rows)
    return out


def _cross2(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _frozen(*arrays):
    """The arrays, each made read-only."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _any(owners, n_elements):
    """Per element: is it among `owners`?"""
    return np.bincount(owners, minlength=n_elements) > 0


def _runs(*keys):
    """(order, run): the lexicographic order of the rows (first key most
    significant) and, per sorted row, the number of its run of equal rows."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(len(order), bool)
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    new[:1] = True
    return order, np.cumsum(new) - 1


def _repeated(owners, runs, n_elements):
    """Per element: does one of its ids occur twice?  `runs` is
    _runs(owners, ids)."""
    order, run = runs
    return _any(owners[order][np.bincount(run)[run] > 1], n_elements)


def _unpaired(faces, owner):
    """Per half-edge (faces[f, k], faces[f, k + 1]), of element owner[3f+k]:
    is it not matched by exactly one opposite half-edge of its element, or
    not unique?  Each undirected edge must be crossed once each way."""
    a, b = faces.ravel(), faces.take(_NEXT[3], 1).ravel()
    order, run = _runs(owner, np.minimum(a, b), np.maximum(a, b))
    forward = np.bincount(run, (a < b)[order])
    bad = np.empty(len(a), bool)
    bad[order] = (np.bincount(run) != 2)[run] | (forward != 1)[run]
    return bad


def _crossing(corners, starts, sizes):
    """Per 2D loop (corner points, stacked): do two non-adjacent edges
    cross?  Loops are grouped by length; a group tests all edge pairs."""
    def orient(a, b, c):
        return _cross2(b - a, c - a)

    out = np.zeros(len(sizes), bool)
    for n in 4 + np.flatnonzero(np.bincount(sizes)[4:]):
        group = np.flatnonzero(sizes == n)
        p = corners[starts[group][:, None] + np.arange(n)]
        i, j = np.array([(i, j) for i in range(n) for j in range(i + 2, n)
                         if (j + 1) % n != i]).T
        p1, p2, p3, p4 = p[:, i], p[:, (i + 1) % n], p[:, j], p[:, (j + 1) % n]
        out[group] = (((orient(p3, p4, p1) > 0) != (orient(p3, p4, p2) > 0))
                      & ((orient(p1, p2, p3) > 0) != (orient(p1, p2, p4) > 0))
                      ).any(axis=1)
    return out


def reject(bad, message, ids=None):
    """Raise a ValidationError for the first element flagged in `bad` (one
    flag, or one per stacked element), named by its mesh index in `ids`."""
    first = np.flatnonzero(bad)
    if first.size:
        raise ValidationError(
            message if ids is None else f"element {ids[first[0]]}: {message}")


def validate_mesh(mesh):
    """Check the mesh and every element; the first failing element, in
    element order, is named in the ValidationError."""
    if mesh.dimension not in (2, 3):
        raise ValidationError(f"unsupported dimension {mesh.dimension}")
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != mesh.dimension:
        raise ValidationError("vertex array shape does not match dimension")
    if not np.all(np.isfinite(mesh.vertices)):
        raise ValidationError("non-finite vertex coordinate")
    if mesh.num_elements == 0:
        raise ValidationError("mesh has no elements")
    bad = np.flatnonzero(mesh.geometry.failed_check >= 0)
    if bad.size:
        raise ValidationError(mesh.geometry.error(bad[0]))
    return mesh


def _max_pairwise_distance(pts):
    """Largest distance between two of the points (k, dim), or per stack
    of a (..., k, dim) array."""
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1).max(axis=(-2, -1)))


# ---------------------------------------------------------------------------
# Element rows of Mesh.geometry


def element_local(mesh, index):
    """(node ids, local vertex array, local faces-or-loop) for one element."""
    el = mesh.elements[index]
    nodes = tuple(element_nodes(mesh, [index])[0].tolist())
    local = {g: i for i, g in enumerate(nodes)}
    verts = mesh.vertices[list(nodes)]
    if mesh.dimension == 2:
        return nodes, verts, tuple(local[v] for v in el.loop)
    return nodes, verts, tuple(tuple(local[v] for v in f) for f in el.faces)


def element_nodes(mesh, ids):
    """Node ids in dof order, (len(ids), n), of elements with n nodes each:
    rows of the geometry table's node lists."""
    g = mesh.geometry
    start, end = g.node_start[:-1][ids], g.node_start[1:][ids]
    if (end - start != end[0] - start[0]).any():
        raise ValueError("the elements of one stack differ in node count")
    return g.nodes[start[:, None] + np.arange(end[0] - start[0])]


def face_rows(mesh, ids):
    """(rows, owner): the geometry table's face rows of the elements `ids`,
    stacked in that order, and each row's position in `ids`."""
    start = mesh.geometry.face_start[ids]
    count = mesh.geometry.face_start[np.add(ids, 1)] - start
    owner = np.repeat(np.arange(len(count)), count)
    shift = start - (np.cumsum(count) - count)
    return np.arange(len(owner)) + np.repeat(shift, count), owner


def element_integrator(mesh, index):
    """Arbitrary-degree HNI integrator of one element (reference path)."""
    nodes, verts, conn = element_local(mesh, index)
    if mesh.dimension == 2:
        return hni.PolygonIntegrator(verts[list(conn)])
    return hni.PolyhedronIntegrator(verts, conn)


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
                start = quad.index(min(quad))
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
    elements, tets = [], []
    for el in mesh.elements:
        if el.kind != "prism":
            elements.append(el)
            continue
        a, b, c, d, e, f = el.nodes  # bottom (a,b,c), top (d,e,f)
        bottom, top = [a, b, c], [d, e, f]
        m = bottom.index(min(bottom))
        a, b, c = bottom[m], bottom[(m + 1) % 3], bottom[(m + 2) % 3]
        d, e, f = top[m], top[(m + 1) % 3], top[(m + 2) % 3]
        # Quad (b,c,f,e) splits toward min(b, c); both tets use vertex a.
        # Slots now, tets once all are oriented; nodes flat, 4 per tet.
        elements += (None, None, None)
        if b < c:
            tets += (a, b, c, f, a, b, f, e, a, e, f, d)
        else:
            tets += (a, b, c, e, a, e, c, f, a, e, f, d)
    # Orient every tet at once: a negative one swaps its middle two nodes.
    flip = (tet_volume(*mesh.vertices[
        np.array(tets, dtype=int).reshape(-1, 4).T]) < 0).tolist()
    made = (tet_element((a, c, b, d) if f else (a, b, c, d))
            for (a, b, c, d), f in zip(zip(*[iter(tets)] * 4), flip))
    elements = [next(made) if e is None else e for e in elements]
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
    where = ""
    try:
        dim = int(data["dimension"])
        vertices = np.asarray(data["vertices"], dtype=float)
        material = MaterialParams(
            youngs_modulus=float(data["material"]["E"]),
            poisson_ratio=float(data["material"]["nu"]),
            density=float(data["material"]["rho"]),
        )
        elements = []
        for e, raw in enumerate(data["elements"]):
            where = f"element {e}: "
            if not isinstance(raw, dict):
                raise TypeError(f"expected an object, got {raw!r}")
            kind = raw.get("kind")
            nodes = (tuple(_vertex_id(v) for v in raw["nodes"])
                     if "nodes" in raw else None)
            if "loop" in raw:
                loop = tuple(_vertex_id(v) for v in raw["loop"])
                if kind is None:
                    kind = "tri" if len(loop) == 3 else "poly"
                if kind == "tri" and nodes is None:
                    nodes = loop
                elements.append(Element(loop=loop, kind=kind, nodes=nodes))
            elif "faces" in raw:
                faces = tuple(tuple(_vertex_id(v) for v in f)
                              for f in raw["faces"])
                if kind is None:
                    node_set = {v for f in faces for v in f}
                    kind = ("tet" if len(faces) == 4 and len(node_set) == 4
                            else "poly")
                if kind == "tet" and nodes is None:
                    nodes = _tet_nodes_from_faces(faces)
                elements.append(Element(faces=faces, kind=kind, nodes=nodes))
            else:
                raise KeyError("element needs 'loop' or 'faces'")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed mesh file {path}: {where}{exc}") from exc
    mesh = Mesh(dim, vertices, elements, material)
    return validate_mesh(mesh)


def _vertex_id(value):
    """A vertex id read from a file: an integral number."""
    vid = int(value)
    if vid != value:
        raise ValueError(f"non-integral vertex id {value!r}")
    return vid


def _tet_nodes_from_faces(faces):
    """A tet's corners from its outward faces, or None (validation then
    names the fault) when face 0 is no triangle with an apex off it."""
    f0 = faces[0] if faces else ()
    rest = {v for f in faces[1:] for v in f} - set(f0)
    # Face 0 is outward, so (f0 reversed, apex) is positively oriented.
    return (f0[0], f0[2], f0[1], rest.pop()) if len(f0) == 3 and rest else None
