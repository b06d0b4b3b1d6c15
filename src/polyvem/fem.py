"""Reference linear finite elements: tri3 (plane strain), tet4, prism6.

Dof ordering matches the virtual elements: [all-x | all-y | all-z] over the
element's corner nodes, so FEM and VEM matrices are directly comparable on
simplices.  Each kernel takes one element's corners or a stack of them and
returns K and M likewise; ``group_matrices`` runs one over elements of one
kind.
"""

from __future__ import annotations

import numpy as np

from .mesh import ValidationError, element_nodes, reject
from .vem import block_diagonal, constitutive_matrix, strain_operator


def _simplex_matrices(grads, measure, C, rho):
    """Constant-strain stiffness and consistent mass of linear simplices."""
    n = grads.shape[-2]
    B = strain_operator(grads)
    measure = np.asarray(measure)[..., None, None]
    K = measure * np.swapaxes(B, -1, -2) @ C @ B
    m = rho * measure / (n * (n + 1)) * (np.ones((n, n)) + np.eye(n))
    return K, block_diagonal(m, n - 1)


def tri3_matrices(verts, C, rho, ids=None):
    """Constant-strain triangle stiffness and consistent mass.  Errors name
    the element by its index in `ids`, here and in the other kernels."""
    verts = np.asarray(verts, float)
    x, y = verts[..., 0], verts[..., 1]
    b = np.roll(y, -1, axis=-1) - np.roll(y, -2, axis=-1)  # y[i+1] - y[i+2]
    c = np.roll(x, -2, axis=-1) - np.roll(x, -1, axis=-1)  # x[i+2] - x[i+1]
    area2 = c[..., 2] * b[..., 1] - c[..., 1] * b[..., 2]
    reject(area2 <= 0.0, "triangle is degenerate or clockwise", ids)
    grads = np.stack([b, c], axis=-1) / area2[..., None, None]
    return _simplex_matrices(grads, 0.5 * area2, C, rho)


def tet4_matrices(verts, C, rho, ids=None):
    """Linear tetrahedron stiffness and consistent mass."""
    verts = np.asarray(verts, float)
    J = verts[..., 1:, :] - verts[..., :1, :]
    vol6 = np.linalg.det(J)
    reject(vol6 <= 0.0, "tetrahedron is inverted or degenerate", ids)
    # grad N_i: rows of [ -sum ; inv(J)^T ]
    grads = np.swapaxes(np.linalg.inv(J), -1, -2)
    grads = np.concatenate([-grads.sum(axis=-2, keepdims=True), grads], -2)
    return _simplex_matrices(grads, vol6 / 6.0, C, rho)


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


# Shape values (6 points, 6 nodes) and gradients (6 points, 6 nodes, 3) at
# the 3x2 wedge quadrature points (triangle points x line points).
_WEDGE_N, _WEDGE_DN = map(np.array, zip(*(
    _wedge_shape(r, s, t)
    for r, s in [(1 / 6, 1 / 6), (2 / 3, 1 / 6), (1 / 6, 2 / 3)]
    for t in [-1 / np.sqrt(3.0), 1 / np.sqrt(3.0)])))


def prism6_matrices(verts, C, rho, ids=None):
    """Isoparametric 6-node wedge, 3x2 point quadrature.

    Node order: bottom triangle (0,1,2), top triangle (3,4,5).  The rule is
    exact for prisms with affine (planar, translated) caps, which is all the
    extrusion generator produces.
    """
    verts = np.asarray(verts, float)
    J = np.swapaxes(_WEDGE_DN, -1, -2) @ verts[..., None, :, :]
    detJ = np.linalg.det(J)
    reject((detJ <= 0.0).any(axis=-1),
           "prism has non-positive Jacobian at a quadrature point", ids)
    w = (detJ * (1.0 / 6.0))[..., None, None]  # (1/3 * 1/2) x 1 weight
    B = strain_operator(_WEDGE_DN @ np.swapaxes(np.linalg.inv(J), -1, -2))
    K = (w * np.swapaxes(B, -1, -2) @ C @ B).sum(axis=-3)
    m = (w * rho * (_WEDGE_N[:, :, None] * _WEDGE_N[:, None, :])).sum(-3)
    return K, block_diagonal(m, 3)


_KERNELS = {"tri": tri3_matrices, "tet": tet4_matrices,
            "prism": prism6_matrices}


def group_matrices(mesh, ids):
    """Reference-FEM (K, M) stacks of tri/tet/prism elements of one kind:
    row k is mesh element ids[k]."""
    kind = mesh.geometry.kinds[ids[0]]
    kernel = _KERNELS.get(kind)
    if kernel is None:
        raise ValidationError(f"element {ids[0]} (kind {kind!r}) has no "
                              "reference finite element")
    return kernel(mesh.vertices[element_nodes(mesh, ids)],
                  constitutive_matrix(mesh.material, mesh.dimension),
                  mesh.material.density, ids)
