"""First-order virtual element stiffness and mass matrices.

Works on polygons (plane strain) and on polyhedra with triangular faces.
Element dofs are ordered [all-x | all-y | all-z] over the element's nodes.
``group_matrices`` builds the stiffness and consistent mass of elements of
equal node and face counts as stacks: the strain-energy and L2 projectors
come from nodal values of the scaled monomials plus one-point face
integration (exact on simplex faces), each scattered with one
``np.add.at`` over the group's stacked faces and solved with batched
``np.linalg.solve``.  ``lump`` diagonalizes a mass stack of either method
and returns the masses; ``eig.group_system`` is its one caller in the
package.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from . import mesh as meshmod
from .mesh import ValidationError, reject

# The refusal of an element whose stiffness is exactly zero.
UNDERFLOW = ("stiffness underflows to zero (length scale or material out "
             "of range)")


@functools.cache
def constitutive_matrix(material, dim):
    """Isotropic Hooke matrix in Voigt notation with engineering shear,
    built once per (material, dim) and read-only.

    2D is plane strain (3x3); 3D is the full 6x6 with Voigt order
    (xx, yy, zz, yz, xz, xy).
    """
    E = material.youngs_modulus
    nu = material.poisson_ratio
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    normal, shear = range(dim), range(dim, 3 * dim - 3)
    C = np.zeros((3 * dim - 3, 3 * dim - 3))
    C[:dim, :dim] = lam
    C[normal, normal] += 2 * mu
    C[shear, shear] = mu
    C.setflags(write=False)
    return C


# (Voigt row, displacement component, gradient axis) of each strain entry.
_VOIGT = {2: ((0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0)),
          3: ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1),
              (4, 0, 2), (4, 2, 0), (5, 0, 1), (5, 1, 0))}


def strain_operator(grads):
    """Voigt strain of [all-x | all-y | all-z] nodal dofs from the nodal
    gradients (..., n, dim).  With one unit normal in place of the
    gradients, its transpose maps a Voigt stress to the face traction."""
    grads = np.asarray(grads, float)
    n, dim = grads.shape[-2:]
    B = np.zeros(grads.shape[:-2] + (3 * dim - 3, dim * n))
    for row, comp, axis in _VOIGT[dim]:
        B[..., row, comp * n:(comp + 1) * n] = grads[..., axis]
    return B


def _table(shape, entries):
    table = np.zeros(shape)
    for *index, value in entries:
        table[tuple(index)] = value
    return table


# Symmetric gradients (Voigt) of the vector monomial basis, times h.
_MODES = {2: _table((3, 6), [(2, 3, 2.0),      # (eta, xi)
                             (0, 4, 1.0),      # (xi, 0)
                             (1, 5, 1.0)]),    # (0, eta)
          3: _table((6, 12), [(3, 6, 2.0),     # (0, zeta, eta)
                              (4, 7, 2.0),     # (zeta, 0, xi)
                              (5, 8, 2.0),     # (eta, xi, 0)
                              (0, 9, 1.0),     # (xi, 0, 0)
                              (1, 10, 1.0),    # (0, eta, 0)
                              (2, 11, 1.0)])}  # (0, 0, zeta)
# The vector monomial basis: entry (displacement component, scalar
# monomial of [1, xi, eta, zeta], column) is the sign of that monomial.
_BASIS = {2: _table((2, 3, 6), [
              (0, 0, 0, 1), (1, 0, 1, 1), (0, 2, 2, -1), (1, 1, 2, 1),
              (0, 2, 3, 1), (1, 1, 3, 1), (0, 1, 4, 1), (1, 2, 5, 1)]),
          3: _table((3, 4, 12), [
              (0, 0, 0, 1), (1, 0, 1, 1), (2, 0, 2, 1),
              (1, 3, 3, -1), (2, 2, 3, 1), (0, 3, 4, 1), (2, 1, 4, -1),
              (0, 2, 5, -1), (1, 1, 5, 1), (1, 3, 6, 1), (2, 2, 6, 1),
              (0, 3, 7, 1), (2, 1, 7, 1), (0, 2, 8, 1), (1, 1, 8, 1),
              (0, 1, 9, 1), (1, 2, 10, 1), (2, 3, 11, 1)])}
# Exponents of the moments of [1, xi, eta, zeta] x [1, xi, eta, zeta].
_MOMENTS = {dim: [tuple((a + b).tolist()) for a in e for b in e]
            for dim in (2, 3) for e in [np.eye(dim + 1, dim, -1, int)]}


def block_diagonal(block, dim):
    """kron(eye(dim), block) of a block or of each block of a stack."""
    *lead, n, _ = block.shape
    out = np.zeros((*lead, dim, n, dim, n))
    for comp in range(dim):
        out[..., comp, :, comp, :] = block
    return out.reshape(*lead, dim * n, dim * n)


def _scatter(out, flat, values):
    """out.flat[flat] += values (broadcast to flat's shape), with one
    np.add.at that adds in C order of `flat`."""
    np.add.at(out.reshape(-1), flat, values)


def _solve(A, B, ids, message):
    """Batched solve; a singular system names its element."""
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        for k in range(len(A)):
            try:
                np.linalg.solve(A[k], B[k])
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"element {ids[k]}: {message}") from exc
        raise


def lump(M, rho, volume, dim, convex, ids=None):
    """Diagonal (lumped) mass of one element matrix or a stack, by the one
    lumping rule: a convex element whose row sums are all positive gets its
    row sums; every other element gets its diagonal scaled to d rho |E|
    (Hinton, Rock & Zienkiewicz 1976).  Both conserve d rho |E|.  A
    non-positive diagonal entry raises a ValidationError naming the element
    by its index in `ids`.
    """
    row_sum = M.sum(axis=-1)
    diag = M.diagonal(0, -2, -1)
    reject(diag.min(axis=-1) <= 0.0, "mass diagonal has a non-positive "
           "entry", ids)
    row = np.asarray(convex) & (row_sum.min(axis=-1) > 0.0)
    scale = dim * rho * volume / diag.sum(axis=-1)
    return np.where(row[..., None], row_sum, diag * scale[..., None])


# Stiffness/mass bundle of a group of elements, stacked along a leading
# axis, with the projector systems it comes from: D (nodal dofs of the
# vector monomials), Pi (energy projector), D0, G0, B0, S0 (L2 projector).
ElementMatrices = namedtuple(
    "ElementMatrices", "K Kc Ks M Ms nodes D Pi D0 G0 B0 S0")


def preset(alpha0):
    """The stabilization preset alpha0: "auto", "unit", or a positive
    finite number or its text, as a float; any other value is refused."""
    if alpha0 in ("auto", "unit"):
        return alpha0
    try:
        value = float(alpha0)
    except (TypeError, ValueError):
        value = np.nan
    if not 0.0 < value < np.inf:
        raise ValidationError("alpha0 must be auto, unit or a positive "
                              f"finite number, got {alpha0!r}")
    return value


def group_matrices(mesh, ids, alpha0="unit"):
    """K_E and the consistent M_E of virtual elements with equal node and
    face counts, stacked: row k is mesh element ids[k].

    K is the consistency part plus the diagonally scaled stability; M is the
    L2-projector mass plus its rank correction; alpha0 is read by
    ``preset``.  A non-positive or non-finite measure (volume or diameter),
    a non-finite scaled moment, strain modes whose material block
    underflows to zero or a singular projector system raises a
    ValidationError naming the element.
    """
    alpha0 = preset(alpha0)
    g = mesh.geometry
    dim, rho = mesh.dimension, mesh.material.density
    ids = np.asarray(ids)
    vol, h = g.volume[ids], g.diameter[ids]
    ok = np.isfinite(vol) & np.isfinite(h) & (vol > 0.0)
    if not ok.all():
        k = ok.argmin()
        raise ValidationError(f"element {ids[k]}: " + (
            f"non-positive measure {float(vol[k])!r}" if np.isfinite(
                [vol[k], h[k]]).all() else meshmod.NON_FINITE.format(
                    volume=vol[k], diameter=h[k])))
    moments = np.array([g.scaled_moments[key] for key in _MOMENTS[dim]]).take(
        ids, 1).T
    reject(~np.isfinite(moments).all(axis=1), "non-finite second moment "
           "(length scale out of range)", ids)
    nodes = meshmod.element_nodes(mesh, ids)
    n_el, n = nodes.shape
    n_rigid = dim * (dim + 1) // 2
    f = g.face_start[ids][:, None] + np.arange(
        g.face_start[ids[0] + 1] - g.face_start[ids[0]])
    local = (g.faces[f][..., None] == nodes[:, None, None, :]).argmax(-1)
    el = np.arange(n_el)[:, None, None, None]
    areas, normals = g.face_areas[f], g.face_normals[f]

    # Nodal values of the scalar monomials [1, xi, eta, zeta] (D0) and of
    # the vector basis (D).
    D0 = np.ones((n_el, n, dim + 1))
    D0[..., 1:] = (mesh.vertices[nodes] - g.centroid[ids][:, None]) / h[
        :, None, None]
    D = (D0[:, None] @ _BASIS[dim]).reshape(n_el, dim * n, -1)
    DT = D.swapaxes(1, 2)

    # Strain-energy projector.
    C = constitutive_matrix(mesh.material, dim)
    B = _MODES[dim] / h[:, None, None]
    stress_modes = C @ B
    Gfull = B.swapaxes(1, 2) @ stress_modes * vol[:, None, None]
    reject(~Gfull.any(axis=(1, 2)) & B.any(axis=(1, 2)), UNDERFLOW, ids)
    G = Gfull.copy()
    G[:, :n_rigid] = (DT @ D)[:, :n_rigid] / n
    Bhat = np.zeros((n_el, 2 * n_rigid, dim * n))
    Bhat[:, :n_rigid] = DT[:, :n_rigid] / n
    # Face tractions of the modes, weighted by the one-point rule (a hat
    # integrates to area / dim over a simplex), scattered in face order.
    traction = np.ascontiguousarray(strain_operator(
        normals[..., None, :]).swapaxes(-1, -2)) @ stress_modes[:, None]
    w = (areas / dim)[..., None, None] * traction[..., n_rigid:]
    rows = el[..., None] * 2 * n_rigid + np.arange(n_rigid, 2 * n_rigid)
    dofs = np.arange(dim) * n + local[..., None]
    _scatter(Bhat, rows * dim * n + dofs[..., None], w[:, :, None])
    PiStar = _solve(G, Bhat, ids,
                    "singular projector system (degenerate element)")
    Pi = D @ PiStar
    Kc = PiStar.swapaxes(1, 2) @ Gfull @ PiStar
    # Stabilization scale alpha0: "auto" is 1 in 2D and h_E in 3D.
    a0 = {"auto": 1.0 if dim == 2 else h, "unit": 1.0}.get(alpha0, alpha0)
    floor = np.asarray(a0, float) * C.trace() / (3 * dim - 3)
    Sd = np.maximum(floor.reshape(-1, 1), Kc.diagonal(0, 1, 2))
    I_Pi = np.eye(dim * n) - Pi
    Ks = I_Pi.swapaxes(1, 2) @ (Sd[..., None] * I_Pi)

    # Scalar L2 (= elliptic) projector and the mass, one block per
    # displacement component.
    G0 = np.zeros((n_el, dim + 1, dim + 1))
    G0[:, 0] = (D0.swapaxes(1, 2) @ D0)[:, 0] / n
    G0[:, 1:, 1:] = (vol / h ** 2)[:, None, None] * np.eye(dim)
    B0 = np.zeros((n_el, dim + 1, n))
    B0[:, 0] = 1.0 / n
    _scatter(B0, (el * (dim + 1) + 1 + np.arange(dim)) * n + local[..., None],
             (normals * areas[..., None] * (1.0 / (dim * h))[:, None, None])[
                 :, :, None])
    S0 = _solve(G0, B0, ids,
                "singular L2 projector system (degenerate element)")
    H = rho * moments.reshape(n_el, dim + 1, dim + 1)
    I_Pi0 = np.eye(n) - D0 @ S0
    Ms = (rho * vol)[:, None, None] * I_Pi0.swapaxes(1, 2) @ I_Pi0
    M = block_diagonal(S0.swapaxes(1, 2) @ H @ S0 + Ms, dim)
    return ElementMatrices(Kc + Ks, Kc, Ks, M, block_diagonal(Ms, dim),
                           nodes, D, Pi, D0, G0, B0, S0)

