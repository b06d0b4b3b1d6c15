"""Exact integration of monomials over polytopes.

Monomial integrals over a polygon or a polyhedron with planar (triangular)
faces are reduced to integrals over the boundary facets, and recursively down
to vertex evaluations, using the homogeneity of x^a y^b z^c.  The reduction is
exact for watertight, consistently oriented polytopes, convex or not.  All
lower-degree facet integrals appearing in the recursion are memoized, so a
full order-<=2 moment table costs a handful of vertex evaluations per face.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PolygonIntegrator",
    "PolyhedronIntegrator",
    "monomial_value",
    "scaled_moment_table",
    "SCALED_EXPONENTS_2D",
    "SCALED_EXPONENTS_3D",
]

# Scaled-moment table keys, by exponent of (xi, eta[, zeta]).
SCALED_EXPONENTS_2D = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
SCALED_EXPONENTS_3D = [
    (0, 0, 0),
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, 0, 1), (0, 1, 1),
    (2, 0, 0), (0, 2, 0), (0, 0, 2),
]


def monomial_value(point, exponent):
    """Evaluate x^a y^b (z^c) at a point. 0^0 is treated as 1."""
    out = 1.0
    for x, e in zip(point, exponent):
        if e:
            out *= x ** e
    return out


def _lowered(exponent, axis):
    e = list(exponent)
    e[axis] -= 1
    return tuple(e)


class _EdgeTerm:
    """One boundary edge of a facet: endpoint data for the 1D reduction."""

    __slots__ = ("a", "b", "length", "distance")

    def __init__(self, a, b, distance):
        self.a = a
        self.b = b
        self.length = float(np.linalg.norm(b - a))
        self.distance = float(distance)


class PolygonIntegrator:
    """Exact monomial integrals over a simple polygon given as a CCW loop.

    Vertices are (n, 2) coordinates; the loop is implicit in their order.
    """

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.shape[1] != 2:
            raise ValueError("polygon vertices must be 2D")
        self._edges = []
        n = len(self.vertices)
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            t = b - a
            # Outward normal of a CCW loop.
            nu = np.array([t[1], -t[0]])
            norm = np.linalg.norm(nu)
            if norm == 0.0:
                raise ValueError("polygon has a zero-length edge")
            nu /= norm
            self._edges.append((_EdgeTerm(a, b, 0.0), float(nu @ a)))
        self._edge_memo = [dict() for _ in self._edges]
        self._memo = {}

    def integrate(self, exponent):
        exponent = tuple(int(e) for e in exponent)
        if any(e < 0 for e in exponent):
            raise ValueError("monomial exponents must be nonnegative")
        return self._element(exponent)

    def _element(self, exponent):
        if exponent in self._memo:
            return self._memo[exponent]
        q = sum(exponent)
        total = 0.0
        for i, (edge, dist) in enumerate(self._edges):
            if dist != 0.0:
                total += dist * self._edge(i, exponent)
        value = total / (2 + q)
        self._memo[exponent] = value
        return value

    def _edge(self, i, exponent):
        memo = self._edge_memo[i]
        if exponent in memo:
            return memo[exponent]
        edge = self._edges[i][0]
        q = sum(exponent)
        total = edge.length * monomial_value(edge.b, exponent)
        for axis, e in enumerate(exponent):
            if e and edge.a[axis] != 0.0:
                total += edge.a[axis] * e * self._edge(i, _lowered(exponent, axis))
        value = total / (1 + q)
        memo[exponent] = value
        return value


class PolyhedronIntegrator:
    """Exact monomial integrals over a polyhedron with triangular faces.

    ``vertices`` is (n, 3); ``faces`` is a sequence of CCW-from-outside vertex
    index triples.  Watertightness and orientation are the caller's problem
    (the mesh module validates them); a flipped face silently corrupts the
    integral, just as it corrupts the divergence theorem.
    """

    def __init__(self, vertices, faces):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.shape[1] != 3:
            raise ValueError("polyhedron vertices must be 3D")
        self._faces = []
        for face in faces:
            tri = self.vertices[list(face)]
            normal = _newell_normal(tri)
            area2 = np.linalg.norm(normal)
            if area2 == 0.0:
                raise ValueError("zero-area face in polyhedron")
            unit = normal / area2
            x0 = tri[0]
            plane_dist = float(unit @ x0)
            edges = []
            for k in range(3):
                a = tri[k]
                b = tri[(k + 1) % 3]
                t = b - a
                t = t / np.linalg.norm(t)
                nu = np.cross(t, unit)  # in-plane outward normal
                edges.append(_EdgeTerm(a, b, float(nu @ (a - x0))))
            self._faces.append((x0, plane_dist, edges))
        self._memo = {}
        self._face_memo = [dict() for _ in self._faces]
        self._edge_memo = [[dict() for _ in range(3)] for _ in self._faces]

    def integrate(self, exponent):
        exponent = tuple(int(e) for e in exponent)
        if any(e < 0 for e in exponent):
            raise ValueError("monomial exponents must be nonnegative")
        return self._element(exponent)

    def _element(self, exponent):
        if exponent in self._memo:
            return self._memo[exponent]
        q = sum(exponent)
        total = 0.0
        for i, (_, plane_dist, _) in enumerate(self._faces):
            if plane_dist != 0.0:
                total += plane_dist * self._face(i, exponent)
        value = total / (3 + q)
        self._memo[exponent] = value
        return value

    def _face(self, i, exponent):
        memo = self._face_memo[i]
        if exponent in memo:
            return memo[exponent]
        x0, _, edges = self._faces[i]
        q = sum(exponent)
        total = 0.0
        for k, edge in enumerate(edges):
            if edge.distance != 0.0:
                total += edge.distance * self._edge(i, k, exponent)
        for axis, e in enumerate(exponent):
            if e and x0[axis] != 0.0:
                total += x0[axis] * e * self._face(i, _lowered(exponent, axis))
        value = total / (2 + q)
        memo[exponent] = value
        return value

    def _edge(self, i, k, exponent):
        memo = self._edge_memo[i][k]
        if exponent in memo:
            return memo[exponent]
        edge = self._faces[i][2][k]
        q = sum(exponent)
        total = edge.length * monomial_value(edge.b, exponent)
        for axis, e in enumerate(exponent):
            if e and edge.a[axis] != 0.0:
                total += edge.a[axis] * e * self._edge(i, k, _lowered(exponent, axis))
        value = total / (1 + q)
        memo[exponent] = value
        return value


def _newell_normal(tri):
    """Area-weighted normal of a triangle.

    Computed from edge differences about the first vertex (for a triangle
    this equals the Newell edge-sum normal), which keeps tiny faces far
    from the origin accurate.
    """
    u = tri[1] - tri[0]
    v = tri[2] - tri[0]
    return 0.5 * np.cross(u, v)


def scaled_moment_table(integrator, centroid, diameter):
    """Order-<=2 integrals of the scaled monomials about (centroid, diameter).

    Raw monomial moments are combined through the binomial expansion of
    ((x - x_E)/h_E)^a ..., so a single integrator instance (with its memo of
    raw moments) serves both the raw and the scaled table.
    """
    dim = len(centroid)
    h = float(diameter)
    v = integrator.integrate((0,) * dim)
    first = []
    for axis in range(dim):
        e = [0] * dim
        e[axis] = 1
        first.append(integrator.integrate(tuple(e)))

    def second(i, j):
        e = [0] * dim
        e[i] += 1
        e[j] += 1
        return integrator.integrate(tuple(e))

    c = np.asarray(centroid, dtype=float)
    table = {(0,) * dim: v}
    for axis in range(dim):
        key = [0] * dim
        key[axis] = 1
        table[tuple(key)] = (first[axis] - c[axis] * v) / h
    for i in range(dim):
        for j in range(i, dim):
            key = [0] * dim
            key[i] += 1
            key[j] += 1
            if i == j:
                raw = second(i, i) - 2.0 * c[i] * first[i] + c[i] ** 2 * v
            else:
                raw = (second(i, j) - c[j] * first[i] - c[i] * first[j]
                       + c[i] * c[j] * v)
            table[tuple(key)] = raw / h ** 2
    return table
