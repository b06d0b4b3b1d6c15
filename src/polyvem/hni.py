"""Exact integration of monomials over polytopes.

Monomial integrals over a polygon or a polyhedron with planar (triangular)
faces are reduced to integrals over the boundary facets, and recursively down
to vertex evaluations, using the homogeneity of x^a y^b z^c.  The reduction is
exact for watertight, consistently oriented polytopes, convex or not.  All
lower-degree facet integrals appearing in the recursion are memoized.

The integrators are the arbitrary-degree reference (``polyvem integrate``,
the exactness tests).  The element pipeline takes its order-<=2 moments from
``mesh.MeshGeometry``'s closed forms instead, through the same
``scaled_moment_table``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PolygonIntegrator",
    "PolyhedronIntegrator",
    "monomial_value",
    "scaled_moment_table",
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


def _checked(exponent):
    """An exponent tuple of nonnegative ints, or ValueError."""
    exponent = tuple(int(e) for e in exponent)
    if any(e < 0 for e in exponent):
        raise ValueError("monomial exponents must be nonnegative")
    return exponent


class _Vertex:
    """A facet's end point: the base case of the reduction."""

    __slots__ = ("point",)

    def __init__(self, point):
        self.point = point

    def integrate(self, exponent):
        return monomial_value(self.point, exponent)


class _Facet:
    """A k-dimensional facet (an edge, a face or the polytope itself) and
    the homogeneous reduction of its monomial integrals

        (k + q) I_F(x^a) = sum_G d_G I_G(x^a) + sum_i x0_i a_i I_F(x^a / x_i)

    over its boundary facets G at signed distance d_G from x0, a point of
    F's affine hull (q = |a|).  Integrals are memoized per facet.
    """

    __slots__ = ("x0", "subs", "k", "memo")

    def __init__(self, x0, subs, k):
        self.x0 = x0
        self.subs = subs      # (d_G, facet G) pairs
        self.k = k
        self.memo = {}

    def integrate(self, exponent):
        if exponent in self.memo:
            return self.memo[exponent]
        total = 0.0
        for d, sub in self.subs:
            if d != 0.0:
                total += d * sub.integrate(exponent)
        for axis, e in enumerate(exponent):
            if e and self.x0[axis] != 0.0:
                total += self.x0[axis] * e * self.integrate(
                    _lowered(exponent, axis))
        value = total / (self.k + sum(exponent))
        self.memo[exponent] = value
        return value


def _edge(a, b, length):
    """Edge a -> b as a facet: its one end point b lies at distance
    `length` from a along the edge."""
    return _Facet(a, [(float(length), _Vertex(b))], 1)


class PolygonIntegrator:
    """Exact monomial integrals over a simple polygon given as a CCW loop.

    Vertices are (n, 2) coordinates; the loop is implicit in their order.
    """

    def __init__(self, vertices):
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.shape[1] != 2:
            raise ValueError("polygon vertices must be 2D")
        edges = []
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
            edges.append((float(nu @ a), _edge(a, b, np.linalg.norm(b - a))))
        self._polygon = _Facet(np.zeros(2), edges, 2)

    def integrate(self, exponent):
        return self._polygon.integrate(_checked(exponent))


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
        tris = self.vertices[np.asarray(faces, dtype=int).reshape(-1, 3)]
        normals = _newell_normal(tris)
        area2 = _norms(normals)
        if np.any(area2 == 0.0):
            raise ValueError("zero-area face in polyhedron")
        units = normals / area2[:, None]
        x0 = tris[:, 0]
        plane_dists = _dots(units, x0)
        edge_vecs = np.roll(tris, -1, axis=1) - tris      # b - a per edge
        lengths = _norms(edge_vecs)
        # In-plane outward edge normals of all faces, one cross product.
        nus = np.cross(edge_vecs / lengths[..., None], units[:, None, :])
        edge_dists = _dots(nus, tris - x0[:, None, :])
        faces = []
        for i, tri in enumerate(tris):
            edges = [(float(edge_dists[i, k]),
                      _edge(tri[k], tri[(k + 1) % 3], lengths[i, k]))
                     for k in range(3)]
            faces.append((float(plane_dists[i]), _Facet(x0[i], edges, 2)))
        self._polyhedron = _Facet(np.zeros(3), faces, 3)

    def integrate(self, exponent):
        return self._polyhedron.integrate(_checked(exponent))


def _newell_normal(tri):
    """Area-weighted normal of a triangle, or of each of a (..., 3, 3) stack.

    Computed from edge differences about the first vertex (for a triangle
    this equals the Newell edge-sum normal), which keeps tiny faces far
    from the origin accurate.  A stacked cross product gives the same bits
    as one call per triangle.
    """
    u = tri[..., 1, :] - tri[..., 0, :]
    v = tri[..., 2, :] - tri[..., 0, :]
    return 0.5 * _cross(u, v)


def _cross(u, v):
    """Row-wise 3D cross products: np.cross's bits, at less cost per call."""
    i, j = np.array([[1, 2, 0], [2, 0, 1]])
    out, other = u[..., i] * v[..., j], u[..., j]
    return np.subtract(out, np.multiply(other, v[..., i], out=other), out=out)


def _dots(x, y):
    """Row-wise dot products of (..., k) stacks, reduced as ``x @ y`` is
    for one pair, so stacked results equal the per-row ones bit for bit."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norms(x):
    """Row-wise Euclidean norms, np.linalg.norm's bits for each row whose
    sum of squares is normal.  Each row is divided by a power of two near
    its largest |component| and its norm scaled back, which is exact, so a
    norm neither underflows nor overflows where the squares would."""
    e = np.frexp(np.abs(x).max(axis=-1))[1]
    y = np.ldexp(x, -e[..., None])
    return np.ldexp(np.sqrt(_dots(y, y)), e)


def scaled_moment_table(integrator, centroid, diameter):
    """Order-<=2 integrals of the scaled monomials about (centroid, diameter).

    Raw monomial moments are combined through the binomial expansion of
    ((x - x_E)/h_E)^a ..., so a single integrator instance (with its memo of
    raw moments) serves both the raw and the scaled table.  The integrator
    may also return one raw moment per element (``mesh.MeshGeometry``); with
    (n, dim) centroids and (n,) diameters every entry is then an (n,) array.
    """
    c = np.asarray(centroid, dtype=float)
    dim = c.shape[-1]
    h = np.asarray(diameter, dtype=float)
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

    table = {(0,) * dim: v}
    for axis in range(dim):
        key = [0] * dim
        key[axis] = 1
        table[tuple(key)] = (first[axis] - c[..., axis] * v) / h
    for i in range(dim):
        for j in range(i, dim):
            key = [0] * dim
            key[i] += 1
            key[j] += 1
            ci, cj = c[..., i], c[..., j]
            if i == j:
                raw = second(i, i) - 2.0 * ci * first[i] + ci ** 2 * v
            else:
                raw = (second(i, j) - cj * first[i] - ci * first[j]
                       + ci * cj * v)
            table[tuple(key)] = raw / h ** 2
    return table
