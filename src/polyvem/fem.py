"""Reference linear finite elements: tri3 (plane strain), tet4, prism6.

Dof ordering matches the virtual elements: [all-x | all-y | all-z] over the
element's corner nodes, so FEM and VEM matrices are directly comparable on
simplices.
"""

from __future__ import annotations

import numpy as np

from .mesh import ValidationError
from .vem import constitutive_matrix, strain_operator


def _simplex_matrices(grads, measure, C, rho):
    """Constant-strain stiffness and consistent mass of a linear simplex."""
    n = len(grads)
    B = strain_operator(grads)
    K = measure * B.T @ C @ B
    m = rho * measure / (n * (n + 1)) * (np.ones((n, n)) + np.eye(n))
    return K, np.kron(np.eye(n - 1), m)


def tri3_matrices(verts, C, rho):
    """Constant-strain triangle stiffness and consistent mass."""
    verts = np.asarray(verts, float)
    x = verts[:, 0]
    y = verts[:, 1]
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])
    if area2 <= 0.0:
        raise ValidationError("triangle is degenerate or clockwise")
    b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]]) / area2
    c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]]) / area2
    return _simplex_matrices(np.stack([b, c], axis=1), 0.5 * area2, C, rho)


def tet4_matrices(verts, C, rho):
    """Linear tetrahedron stiffness and consistent mass."""
    verts = np.asarray(verts, float)
    J = verts[1:] - verts[0]
    vol6 = float(np.linalg.det(J))
    if vol6 <= 0.0:
        raise ValidationError("tetrahedron is inverted or degenerate")
    # grad N_i: rows of [ -sum ; inv(J)^T ] in the right arrangement
    grads = np.zeros((4, 3))
    grads[1:, :] = np.linalg.inv(J).T
    grads[0, :] = -grads[1:, :].sum(axis=0)
    return _simplex_matrices(grads, vol6 / 6.0, C, rho)


_TRI3_POINTS = [(1 / 6, 1 / 6), (2 / 3, 1 / 6), (1 / 6, 2 / 3)]
_LINE2_POINTS = [-1 / np.sqrt(3.0), 1 / np.sqrt(3.0)]


def prism6_matrices(verts, C, rho):
    """Isoparametric 6-node wedge, 3x2 point quadrature.

    Node order: bottom triangle (0,1,2), top triangle (3,4,5).  The rule is
    exact for prisms with affine (planar, translated) caps, which is all the
    extrusion generator produces.
    """
    verts = np.asarray(verts, float)
    if verts.shape != (6, 3):
        raise ValidationError("prism needs 6 nodes")
    K = np.zeros((18, 18))
    m = np.zeros((6, 6))
    for r, s in _TRI3_POINTS:
        for t in _LINE2_POINTS:
            N, dN = _wedge_shape(r, s, t)
            J = dN.T @ verts
            detJ = float(np.linalg.det(J))
            if detJ <= 0.0:
                raise ValidationError(
                    "prism has non-positive Jacobian at a quadrature point")
            w = detJ * (1.0 / 6.0)  # (1/3 * 1/2) triangle x 1 line weight
            B = strain_operator(dN @ np.linalg.inv(J).T)
            K += w * B.T @ C @ B
            m += w * rho * np.outer(N, N)
    return K, np.kron(np.eye(3), m)


def _wedge_shape(r, s, t):
    """Shape values and natural-coordinate gradients of the linear wedge."""
    u = 1.0 - r - s
    lower = 0.5 * (1.0 - t)
    upper = 0.5 * (1.0 + t)
    N = np.array([u * lower, r * lower, s * lower,
                  u * upper, r * upper, s * upper])
    dN = np.zeros((6, 3))
    dN[:, 0] = [-lower, lower, 0.0, -upper, upper, 0.0]
    dN[:, 1] = [-lower, 0.0, lower, -upper, 0.0, upper]
    dN[:, 2] = [-0.5 * u, -0.5 * r, -0.5 * s, 0.5 * u, 0.5 * r, 0.5 * s]
    return N, dN


def element_matrices(mesh, index):
    """Reference-FEM (K, M) for a tri/tet/prism element of a mesh."""
    el = mesh.elements[index]
    kernel = {"tri": tri3_matrices, "tet": tet4_matrices,
              "prism": prism6_matrices}.get(el.kind)
    if kernel is None:
        raise ValidationError(f"element {index} (kind {el.kind!r}) has no "
                              "reference finite element")
    try:
        return kernel(mesh.vertices[list(el.nodes)],
                      constitutive_matrix(mesh.material, mesh.dimension),
                      mesh.material.density)
    except ValidationError as exc:
        raise ValidationError(f"element {index}: {exc}") from exc
