"""Polytopal mesh: types, validation, JSON I/O, geometry queries, extrusion.

A mesh is dimension-tagged.  2D elements are CCW vertex loops; 3D elements are
closed sets of outward-oriented triangular faces.  Simplices and extruded
prisms additionally carry an ordered corner-node list so the reference finite
elements can be built on them; purely polytopal elements do not need one.
A mesh's one connectivity field, ``cells``, holds its elements or a tet
mesh's (m, 4) node rows.  ``tet_mesh`` is the one constructor of tet meshes
(the benchmark tets, ``prism_tets``): it orients every row in one stacked
pass and validates; the table reads the rows (``Mesh.tets``), and
``Mesh.elements`` (a ``tet_element`` per row) is built when read, by
``save_mesh``, ``agglomerate.merge`` or HNI.  ``fan`` is the one fan
rule: of the beam's plane split and of ``extrude``'s caps.

Meshes are immutable by convention: nothing in this package mutates a mesh
after construction, so instances can be shared freely.  Each mesh builds its
geometry table (``Mesh.geometry``: stacked face data, each element's node
list in dof order, measures and the validation verdict of every element)
once, in one array pass per quantity, on the first geometry query or
validation, and keeps it, as it keeps the moments and convexity it adds on
first read and ``quality.mesh_report``'s reports.  The table alone decides
element connectivity: every reader of element nodes or face contacts reads
it.  Mutating ``mesh.vertices`` in place after that leaves the table stale;
build a new ``Mesh`` instead.  The HNI integrators (``element_integrator``)
are the arbitrary-degree reference, not used by the element pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

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
        for name, value in (("Young's modulus", self.youngs_modulus),
                            ("density", self.density)):
            if not 0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite")
        if not (0.0 <= self.poisson_ratio < 0.5):
            raise ValidationError("Poisson ratio must lie in [0, 0.5)")


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
    cells: tuple[Element, ...] | np.ndarray  # elements, or (m, 4) tet ids
    material: MaterialParams = STEEL

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, float))
        if self.tets is None:
            object.__setattr__(self, "cells", tuple(self.cells))

    @property
    def tets(self):
        """A tet mesh's (m, 4) int64 node ids, else None."""
        return self.cells if isinstance(self.cells, np.ndarray) else None

    @cached_property
    def elements(self):
        """The elements: the given tuple, or a tet_element per tets row."""
        if self.tets is None:
            return self.cells
        used, ids = np.unique(self.tets, return_inverse=True)
        rows = used.astype(object)[ids.reshape(-1, 4)]  # ints shared by tets
        return tuple(map(tet_element, zip(*rows.T.tolist())))

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_elements(self):
        return len(self.cells)

    @cached_property
    def geometry(self):
        """The element geometry table, built on first use (MeshGeometry)."""
        return MeshGeometry(self)


# ---------------------------------------------------------------------------
# Construction helpers


def tet_element(nodes):
    """Tetrahedron element from 4 positively ordered node ids."""
    a, b, c, d = nodes
    faces = ((a, c, b), (a, b, d), (a, d, c), (b, c, d))
    return Element(faces=faces, kind="tet", nodes=(a, b, c, d))


def tet_mesh(vertices, tets, material=STEEL):
    """Validated tetrahedral mesh from (m, 4) node ids.  Every tet is
    oriented in one stacked pass: a negative one swaps its middle two
    nodes.  The vertices are taken with ids clipped, so an out-of-range id
    reaches validation, which names it."""
    vertices = np.asarray(vertices, float)
    tets = np.array(tets, np.int64).reshape(-1, 4)
    flip = tet_volume(*vertices.take(tets.T, 0, mode="clip")) < 0
    tets[flip, 1:3] = tets[flip, 2:0:-1]
    return validate_mesh(Mesh(3, vertices, tets, material))


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
    return np.divide(vectors, lengths[..., None], out=np.zeros(vectors.shape),
                     where=lengths[..., None] > 0.0)


# ---------------------------------------------------------------------------
# Geometry table and validation

_KIND_NODES = {"tri": 3, "tet": 4, "prism": 6}
_TET_FACES = np.array(tet_element(range(4)).faces)  # rows of a tet's nodes
_NEXT = {2: np.array([1, 0]), 3: np.array([1, 2, 0])}  # corner successors
_TURNS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])  # a triangle from corner k
NON_FINITE = ("non-finite measure (volume {volume:.16e}, "
              "diameter {diameter:.16e})")
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
    built with the table, one array pass each (the verdict: one ``argmax``
    over the stacked check flags; the vertex sets serve ``convex`` too);
    ``integrate``, ``centroid``, ``scaled_moments`` and ``convex`` once, on
    first read, from it alone.  Moments are signed sums
    over the simplices joining each face to the element's anchor (its first
    node), in units of a power of two near the element's diameter;
    ``integrate`` serves them to ``hni.scaled_moment_table``.
    ``failed_check[e]`` is the first check element e fails (-1: none) and
    ``error(e)`` words it.  Every array is read-only.
    """

    @np.errstate(over="ignore", invalid="ignore")  # checks name inf, NaN
    def __init__(self, mesh):
        dim, n_vert = mesh.dimension, mesh.num_vertices
        V = self._V = (mesh.vertices if n_vert else np.zeros((1, dim))).view()
        if mesh.tets is not None:  # a tet mesh: faces in tet_element's order
            faces = mesh.tets.take(_TET_FACES, 1).reshape(-1, 3)
            n_el, lengths = len(mesh.tets), np.full(len(faces), 3)
            sizes = given_count = np.full(n_el, 4)
            missing, self.kinds = np.zeros(n_el, bool), ["tet"] * n_el
            given_ids, has_nodes = mesh.tets.ravel(), ~missing
        else:
            els, n_el = mesh.elements, mesh.num_elements
            conns = [el.loop if dim == 2 else el.faces for el in els]
            sizes = np.array([len(c or ()) for c in conns], np.int64)
            missing = np.array([c is None for c in conns], bool)
            if dim == 2:
                corners = _ids([v for c in conns if c for v in c])
            else:
                faces = _ids([v for c in conns if c for f in c for v in (
                    tuple(f) + (None,) * 3)[:3]]).reshape(-1, 3)
                lengths = np.array([len(f) for c in conns if c for f in c])
            nodes = [el.nodes for el in els]
            given_count = np.array([len(x or ()) for x in nodes], np.int64)
            given_ids = _ids([v for x in nodes if x for v in x])
            has_nodes = np.array([x is not None for x in nodes], bool)
            self.kinds = [el.kind for el in els]
        owner = self.face_owner = np.arange(n_el).repeat(sizes)
        self.face_start = np.concatenate([[0], sizes.cumsum()])
        starts = self.face_start[:-1]
        if dim == 2:
            succ = np.arange(1, len(corners) + 1)
            succ[(starts + sizes - 1)[sizes > 0]] = starts[sizes > 0]
            faces = np.stack([corners, corners[succ]], axis=1)
            corner_owner = owner
        else:
            corners, corner_owner = faces.ravel(), owner.repeat(3)
        pts = V.take(faces, 0, mode="clip")  # ids out of range clipped
        if dim == 3:
            areas, normals = triangle_area_normal(pts)
        edges = pts.take(_NEXT[dim], 1)  # each corner's edge to the next
        edges -= pts
        del pts  # the table holds one (faces, 3, dim) stack at a time
        self.edge_lengths = hni._norms(edges)
        if dim == 2:  # a loop edge's length is its area
            nu = np.stack([edges[:, 0, 1], -edges[:, 0, 0]], axis=1)
            areas, normals = self.edge_lengths[:, 0], _unit(nu, hni._norms(nu))
        del edges
        self.faces, self.face_areas, self.face_normals = faces, areas, normals
        if dim == 3:  # before the vertex sets, for a lower memory peak
            self._unpaired = _unpaired(faces, corner_owner)
            unpaired = _any(corner_owner[self._unpaired], n_el)

        # Each element's vertex set, sorted, and the sets' ids per set size.
        order, run = _runs(corner_owner, corners)
        count = np.bincount(run)
        if dim == 2:  # a loop's runs also find a repeated vertex
            repeated = _any(owner.take(order)[count.take(run) > 1], n_el)
        head = order[count.cumsum() - count]
        set_owner, set_ids = corner_owner[head], corners[head]
        set_size = np.bincount(set_owner, minlength=n_el)
        set_start = set_size.cumsum() - set_size
        self._sets = [(group, set_ids[set_start[group][:, None] + np.arange(k)])
                      for k in np.bincount(set_size)[1:].nonzero()[0] + 1
                      for group in [(set_size == k).nonzero()[0]]]
        del order, run, count, head, corner_owner

        # Node lists in dof order: the given nodes, else the 2D loop, else
        # the sorted vertex set of the faces.  The first node anchors the
        # moments.
        given_owner = np.arange(n_el).repeat(given_count)
        rule_owner, rule_ids = ((owner, corners) if dim == 2 else
                                (set_owner, set_ids))
        derived = ~has_nodes[rule_owner]
        owners = np.concatenate([given_owner, rule_owner[derived]])
        pick = owners.argsort(kind="stable")
        self.nodes = np.concatenate([given_ids, rule_ids[derived]])[pick]
        self.node_start = np.searchsorted(owners[pick], np.arange(n_el + 1))
        self._origin = V.take(np.concatenate([self.nodes, [0]])[
            self.node_start[:-1]], 0, mode="clip")

        volume = np.bincount(owner, self._simplices()[2],
                             minlength=n_el) / math.factorial(dim)
        diameter = np.zeros(n_el)
        for group, ids in self._sets:
            diameter[group] = _max_pairwise_distance(V.take(ids, 0,
                                                            mode="clip"))
        self.volume, self.diameter = volume, diameter
        self.degenerate = volume <= TAU_GEOM * diameter ** dim
        infinite = (NON_FINITE,
                    ~(np.isfinite(volume) & np.isfinite(diameter)))

        # Validation: one (message, failing elements) pair per check, in
        # the order an element is checked.
        outside = (lambda ids: (ids < 0) | (ids >= n_vert))
        if dim == 2:
            checks = [
                ("2D element lacks a loop", missing),
                ("loop has < 3 vertices", sizes < 3),
                ("repeated vertex in loop", repeated),
                ("vertex index out of range",
                 _any(owner[outside(corners)], n_el)),
                infinite,
                ("loop is not CCW or has vanishing area", self.degenerate),
                ("loop self-intersects", _crossing(
                    V.take(corners, 0, mode="clip"), starts, sizes))]
        else:
            edge = self.edge_lengths.max(axis=1)
            self._face_check = 1 + _first(np.array(  # 0: none
                [lengths != 3, outside(faces).any(axis=1),
                 (faces == faces.take(_NEXT[3], 1)).any(axis=1),
                 areas <= TAU_GEOM * edge * edge]))
            checks = [
                ("3D element lacks faces", missing),
                ("fewer than 4 faces", sizes < 4),
                ("<face>", _any(owner[self._face_check > 0], n_el)),
                ("<edge>", unpaired),
                infinite,
                ("zero volume (flat element or length scale out of range)",
                 volume == 0.0),
                ("faces oriented inward (volume {volume:g})", volume < 0.0)]
        checks.append(("overlaps an earlier element: holds one of its " + (
            "loop edges in the same direction" if dim == 2 else
            "faces in the same orientation"), _held_before(faces, owner, n_el)))
        self._expected = np.array([_KIND_NODES.get(k, -1)
                                   for k in self.kinds], np.int64)
        self._given_count = given_count
        # (owner, clipped id) keys: the vertex sets' (sorted), searched for
        # the given nodes'; a sorted run of equal node keys is a repeat.
        # Where clipping merges ids, an earlier check refuses the element.
        top = len(V) - 1
        keys = set_owner * len(V) + np.minimum(np.maximum(set_ids, 0), top)
        query = given_owner * len(V) + np.minimum(np.maximum(given_ids, 0), top)
        in_set = np.concatenate([keys, [-1]])[keys.searchsorted(query)] == query
        query.sort()
        repeat = query[1:][query[1:] == query[:-1]] // len(V)
        checks += [
            ("a {kind} needs {expected} nodes, got {count}",
             (self._expected >= 0) & (given_count != self._expected)),
            ("node id out of range or not an integer",
             _any(given_owner[outside(given_ids)], n_el)),
            ("repeated node", _any(repeat, n_el)),
            ("nodes differ from the element's vertex set",
             has_nodes & (_any(given_owner[~in_set], n_el)
                          | (set_size != given_count)))]
        self._messages = [message for message, _ in checks]
        self.failed_check = _first(np.array([bad for _, bad in checks]))
        _frozen(*[a for a in vars(self).values() if type(a) is np.ndarray])

    def _simplices(self, unit=None):
        """(owner, local, det) of each face-to-anchor simplex: its element,
        its face's corners about the anchor (over 2^unit[element], if
        given) and d! x its signed measure."""
        local = self._V.take(self.faces, 0, mode="clip")
        local -= self._origin[self.face_owner][:, None, :]
        if unit is not None:
            np.ldexp(local, -unit[self.face_owner][:, None, None], out=local)
        if local.shape[-1] == 2:
            return self.face_owner, local, _cross2(local[:, 0], local[:, 1])
        return self.face_owner, local, (
            local[:, 0] * hni._cross(local[:, 1], local[:, 2])).sum(1)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def _raw(self):
        """Order-0, 1 and 2 moments about each anchor (the simplices',
        summed d!-scaled and divided once per element: a unit cube's volume
        comes out exact) and the centroid about it, in units of 2^unit near
        the element's diameter, then unit.  The scaling is exact: an
        in-range moment keeps its bits, and none under- or overflows."""
        unit = np.frexp(self.diameter)[1]
        owner, local, det = self._simplices(unit)
        n_el, dim = len(self.volume), local.shape[-1]
        scale, s = math.factorial(dim), local.sum(axis=1)
        volume = np.bincount(owner, det, minlength=n_el) / scale
        first = _sum_per(owner, det[:, None] * s, n_el) / (scale * (dim + 1))
        second = _sum_per(owner, det[:, None, None] * (
            np.einsum("fki,fkj->fij", local, local)
            + s[:, :, None] * s[:, None, :]), n_el) / (
            scale * (dim + 1) * (dim + 2))
        centroid = np.where((self.volume > 0.0)[:, None],
                            first / volume[:, None], np.nan)
        return _frozen(volume, first, second, centroid, unit)

    @cached_property
    def centroid(self):
        """Each element's centroid (NaN where its volume is not positive)."""
        return _frozen(np.ldexp(self._raw[3], self._raw[4][:, None])
                       + self._origin)[0]

    @cached_property
    def scaled_moments(self):
        """Order-<=2 moments of the scaled monomials about each element's
        (centroid, diameter), one array per exponent tuple: built in the
        element's unit and scaled back by 2^(dim x unit), which is exact."""
        unit = self._raw[4]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            table = hni.scaled_moment_table(self, self._raw[3], np.ldexp(
                self.diameter, -unit))
            rows = np.ldexp(np.array(list(table.values())),
                            self._V.shape[1] * unit)
        return dict(zip(table, _frozen(rows)[0]))

    @cached_property
    def convex(self):
        """Per element: does no vertex lie above a face plane by more than
        TAU_GEOM x its diameter?"""
        owner = self.face_owner
        base = self._V.take(self.faces[:, :1], 0, mode="clip")
        convex = np.ones(len(self.volume), bool)
        for group, ids in self._sets:
            row = np.full(len(self.volume), -1)
            row[group] = np.arange(len(group))
            f = (row[owner] >= 0).nonzero()[0]
            e = owner[f]
            p = self._V.take(ids[row[e]], 0, mode="clip")
            height = ((p - base[f]) @ self.face_normals[f, :, None])[..., 0]
            tol = TAU_GEOM * self.diameter[e, None]
            convex[e[(height > tol).any(axis=1)]] = False
        return _frozen(convex)[0]

    def integrate(self, exponent):
        """Raw integral of a degree <= 2 monomial over every element, about
        its anchor and in its unit (``_raw``): one value per element."""
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
            volume=float(self.volume[index]),
            diameter=float(self.diameter[index]), kind=self.kinds[index],
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
        arr.setflags(write=False)
    return arrays


def _first(flags):
    """Per column of the stacked flags (checks, items): the first check
    that flags it, or -1."""
    return np.where(flags.any(axis=0), flags.argmax(axis=0), -1)


def _any(owners, n_elements):
    """Per element: is it among `owners`?"""
    return np.bincount(owners, minlength=n_elements) > 0


def _runs(*keys):
    """(order, run): the lexicographic order of the rows (first key most
    significant) and, per sorted row, the number of its run of equal rows."""
    order = np.lexsort(keys[::-1])
    rows = np.array(keys).take(order, 1)  # the keys in sorted order
    run = np.zeros(len(order), np.int64)
    (rows[:, 1:] != rows[:, :-1]).any(axis=0).cumsum(out=run[1:])
    return order, run


def _unpaired(faces, owner):
    """Per half-edge (faces[f, k], faces[f, k + 1]), of element owner[3f+k]:
    is it not matched by exactly one opposite half-edge of its element, or
    not unique?  Each undirected edge must be crossed once each way."""
    a, b = faces.ravel(), faces.take(_NEXT[3], 1).ravel()
    ahead, high, low = a < b, np.maximum(a, b), np.minimum(a, b, out=b)
    order, run = _runs(owner, low, high)
    forward = np.bincount(run, ahead.take(order))
    bad = np.empty(len(a), bool)
    bad[order] = ((np.bincount(run) != 2) | (forward != 1)).take(run)
    return bad


def _held_before(faces, owner, n_elements):
    """Per element: does it hold a face row (3D: an oriented triangle, 2D: a
    directed loop edge) that an earlier row holds in the same direction?"""
    if faces.shape[1] == 3:  # each triangle turned to start at its least id
        faces = faces[np.arange(len(faces))[:, None],
                      _TURNS[faces.argmin(axis=1)]]
    order, run = _runs(*faces.T)
    return _any(owner.take(order[1:][run[1:] == run[:-1]]), n_elements)


def _crossing(corners, starts, sizes):
    """Per 2D loop (corner points, stacked): do two non-adjacent edges
    cross?  Loops are grouped by length; a group tests all its pairs."""
    def orient(a, b, c):
        return _cross2(b - a, c - a)

    out = np.zeros(len(sizes), bool)
    for n in 4 + np.flatnonzero(np.bincount(sizes)[4:]):
        group = np.flatnonzero(sizes == n)
        p = corners[starts[group][:, None] + np.arange(n)]
        i, j = _apart(n)
        p1, p2, p3, p4 = p[:, i], p[:, (i + 1) % n], p[:, j], p[:, (j + 1) % n]
        out[group] = (((orient(p3, p4, p1) > 0) != (orient(p3, p4, p2) > 0))
                      & ((orient(p1, p2, p3) > 0) != (orient(p1, p2, p4) > 0))
                      ).any(axis=1)
    return out


@cache
def _apart(n):
    """The pairs (i, j), i < j, of an n-gon's non-adjacent edges (edge k
    joins corners k and k + 1), read-only."""
    return _frozen(*np.array([(i, j) for i in range(n) for j in range(
        i + 2, n) if (j + 1) % n != i]).T)


def reject(bad, message, ids=None):
    """Raise a ValidationError for the first element flagged in `bad` (one
    flag, or one per stacked element), named by its mesh index in `ids`."""
    first = np.asarray(bad).ravel().nonzero()[0]
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
    if not np.isfinite(mesh.vertices).all():
        raise ValidationError("non-finite vertex coordinate")
    if mesh.num_elements == 0:
        raise ValidationError("mesh has no elements")
    bad = mesh.geometry.failed_check >= 0
    if np.count_nonzero(bad):
        raise ValidationError(mesh.geometry.error(bad.argmax()))
    return mesh


def _max_pairwise_distance(pts):
    """Largest distance between two of the points (k, dim), or per stack
    of a (..., k, dim) array: one pass over the pairs i < j (0 if k < 2)."""
    i, j = _pairs(pts.shape[-2])
    diff = pts.take(j, -2) - pts.take(i, -2)
    return np.sqrt((diff ** 2).sum(axis=-1).max(axis=-1, initial=0.0))


@cache
def _pairs(k):
    """The index pairs (i, j), i < j, of k points, read-only."""
    return _frozen(*np.triu_indices(k, 1))


# ---------------------------------------------------------------------------
# Element rows of Mesh.geometry


def element_nodes(mesh, ids):
    """Node ids in dof order, (len(ids), n), of elements with n nodes each:
    rows of the geometry table's node lists."""
    g = mesh.geometry
    start, end = g.node_start[:-1][ids], g.node_start[1:][ids]
    if np.count_nonzero(end - start != end[0] - start[0]):
        raise ValidationError("the elements of one stack differ in node "
                              "count")
    return g.nodes[start[:, None] + np.arange(end[0] - start[0])]


def face_rows(mesh, ids):
    """(rows, owner): the geometry table's face rows of the elements `ids`,
    stacked in that order, and each row's position in `ids`."""
    start = mesh.geometry.face_start.take(ids)
    count = mesh.geometry.face_start.take(np.add(ids, 1)) - start
    owner = np.arange(len(count)).repeat(count)
    shift = start - (count.cumsum() - count)
    return np.arange(len(owner)) + shift.repeat(count), owner


def element_integrator(mesh, index):
    """Arbitrary-degree HNI integrator of one element (reference path)."""
    el = mesh.elements[index]
    if mesh.dimension == 2:
        return hni.PolygonIntegrator(mesh.vertices[list(el.loop)])
    return hni.PolyhedronIntegrator(mesh.vertices, el.faces)


# ---------------------------------------------------------------------------
# Extrusion


def fan(vertices, loops):
    """The fan triangles of each CCW loop, as vertex-id triples in fan
    order, in one array pass per loop length.  A loop's root is its first
    vertex by ascending id whose fan triangles all have positive area
    relative to their own longest edge (the per-face zero-area rule), so
    collinear runs that merged polygons keep are skipped.  A loop with no
    root is refused by its place in ``loops``."""
    caps, bad = [None] * len(loops), []
    sizes = np.array([len(loop) for loop in loops], np.int64)
    for n in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == n)
        ids = np.array([loops[i] for i in at], np.int64).reshape(len(at), n)
        k = np.arange(1, n - 1)  # root r's triangles: r, r + k, r + k + 1
        tri = (np.arange(n)[:, None, None] + np.c_[0 * k, k, k + 1]) % n
        p = vertices[ids][:, tri]  # (loop, root, triangle, corner, axis)
        e = p[..., [1, 2, 2], :] - p[..., [0, 0, 1], :]  # its u, v and w
        flat = (e[..., 0, 0] * e[..., 1, 1] - e[..., 0, 1] * e[..., 1, 0]
                <= 2.0 * TAU_GEOM * (e * e).sum(-1).max(-1))
        rank = np.argsort(ids, axis=1)
        ok = np.take_along_axis(~flat.any(-1), rank, 1)  # roots by id
        bad += at[~ok.any(1)].tolist()
        row = np.arange(len(at))
        tris = ids[row[:, None, None], tri[rank[row, ok.argmax(1)]]]
        for i, cap in zip(at.tolist(), tris.tolist()):
            caps[i] = list(map(tuple, cap))
    if bad:
        raise ValidationError(f"element {min(bad)}: no valid fan root for "
                              "cap polygon; cap is non-star-shaped")
    return caps


def extrude(mesh2d, thickness):
    """The 2D mesh extruded along +z: one polyhedron per plane element.

    Vertices are the plane's at z = 0, then at z = thickness (id + n2).
    The caps are the element's ``fan``, reversed at the bottom; each side
    quad splits by the diagonal from its lower-id vertex.  A triangle
    becomes a ``prism`` with nodes (bottom loop, top loop), as the reference
    wedge element and ``prism_tets`` read them.
    """
    if mesh2d.dimension != 2:
        raise ValidationError("extrude expects a 2D mesh")
    if thickness <= 0:
        raise ValidationError("extrude needs thickness > 0")
    n2, verts = mesh2d.num_vertices, _lifted(mesh2d, thickness)
    loops = [tuple(el.loop) for el in mesh2d.elements]
    elements = []
    for loop, cap in zip(loops, fan(mesh2d.vertices, loops)):
        faces = [(a, c, b) for a, b, c in cap]                  # outward -z
        faces += [(a + n2, b + n2, c + n2) for a, b, c in cap]  # outward +z
        for a, b in zip(loop, loop[1:] + loop[:1]):
            faces += ([(a, b, b + n2), (a, b + n2, a + n2)] if a < b else
                      [(b, b + n2, a + n2), (b, a + n2, a)])
        elements.append(
            Element(faces=tuple(faces), kind="prism",
                    nodes=loop + tuple(i + n2 for i in loop))
            if len(loop) == 3 else Element(faces=tuple(faces), kind="poly"))
    return validate_mesh(Mesh(3, verts, elements, mesh2d.material))


def _lifted(mesh2d, thickness):
    """The plane's vertices at z = 0, then at z = thickness (id + n2)."""
    z = np.repeat([0.0, thickness], mesh2d.num_vertices)[:, None]
    return np.hstack([np.tile(mesh2d.vertices, (2, 1)), z])


# The three tets of a prism (a, b, c, d, e, f) turned so that a is the
# bottom's smallest node: side quad (b, c, f, e) splits toward min(b, c).
_PRISM_SPLIT = np.array([[0, 1, 2, 5, 0, 1, 5, 4, 0, 4, 5, 3],    # b < c
                         [0, 1, 2, 4, 0, 4, 2, 5, 0, 4, 5, 3]])   # b > c


def prism_tets(vertices, prisms, material):
    """The tet mesh of (m, 6) prism node rows (bottom triangle, then top):
    three tetrahedra per prism, in order.  Each prism splits along the
    lowest-index diagonal of its quad side faces, as ``extrude``
    triangulates them, so shared faces of adjacent prisms stay conforming.
    """
    turn = (prisms[:, :3].argmin(axis=1)[:, None] + np.arange(3)) % 3
    nodes = np.take_along_axis(prisms, np.hstack([turn, turn + 3]), 1)
    split = _PRISM_SPLIT[(nodes[:, 1] > nodes[:, 2]).astype(np.int64)]
    return tet_mesh(vertices, np.take_along_axis(nodes, split, 1), material)


# ---------------------------------------------------------------------------
# File I/O (JSON, 17 significant digits)


def _fmt(x):
    return format(float(x), ".17g")


def _list(ids):
    return "[" + ", ".join(map(str, ids)) + "]"


def save_mesh(mesh, path):
    rows = []
    for el in mesh.elements:
        body = (f'"loop": {_list(el.loop)}' if mesh.dimension == 2 else
                f'"faces": [{", ".join(map(_list, el.faces))}]')
        if el.kind != "poly" and el.nodes is not None:
            body += f', "kind": "{el.kind}", "nodes": {_list(el.nodes)}'
        rows.append("{" + body + "}")
    m = mesh.material
    vertices = ("[" + ", ".join(map(_fmt, row)) + "]" for row in mesh.vertices)
    with open(path, "w") as fh:
        fh.write("\n".join([
            "{", f'  "dimension": {mesh.dimension},', '  "vertices": [',
            "    " + ",\n    ".join(vertices), "  ],", '  "elements": [',
            "    " + ",\n    ".join(rows), "  ],",
            f'  "material": {{"E": {_fmt(m.youngs_modulus)}, '
            f'"nu": {_fmt(m.poisson_ratio)}, "rho": {_fmt(m.density)}}}',
            "}"]) + "\n")


def load_mesh(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse mesh file {path}: {exc}") from exc
    where = ""
    try:
        dim = _integral(data["dimension"], "dimension")
        vertices = np.asarray(data["vertices"], dtype=float)
        material = data.get("material")
        if not isinstance(material, dict):
            raise ValueError('no "material" object')
        material = MaterialParams(*(_number(material, key)
                                    for key in ("E", "nu", "rho")))
        elements = []
        for e, raw in enumerate(data["elements"]):
            where = f"element {e}: "
            if not isinstance(raw, dict):
                raise TypeError(f"expected an object, got {raw!r}")
            kind = raw.get("kind")
            nodes = (tuple(_integral(v) for v in raw["nodes"])
                     if "nodes" in raw else None)
            if "loop" in raw:
                loop = tuple(_integral(v) for v in raw["loop"])
                if kind is None:
                    kind = "tri" if len(loop) == 3 else "poly"
                if kind == "tri" and nodes is None:
                    nodes = loop
                elements.append(Element(loop=loop, kind=kind, nodes=nodes))
            elif "faces" in raw:
                faces = tuple(tuple(_integral(v) for v in f)
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
    return validate_mesh(Mesh(dim, vertices, elements, material))


def _number(material, key):
    """A material value read from a file: a number, or refused by key."""
    try:
        return float(material.get(key))
    except (TypeError, ValueError):
        raise ValueError(f'material "{key}" is not a number: '
                         f'{material.get(key)!r}') from None


def _integral(value, what="vertex id"):
    """A vertex id (or the dimension) read from a file: an integral number."""
    number = int(value)
    if number != value:
        raise ValueError(f"non-integral {what} {value!r}")
    return number


def _tet_nodes_from_faces(faces):
    """A tet's corners from its outward faces, or None (validation then
    names the fault) when face 0 is no triangle with an apex off it."""
    f0 = faces[0] if faces else ()
    rest = {v for f in faces[1:] for v in f} - set(f0)
    # Face 0 is outward, so (f0 reversed, apex) is positively oriented.
    return (f0[0], f0[2], f0[1], rest.pop()) if len(f0) == 3 and rest else None
