"""First-order virtual element stiffness and mass matrices.

Works on polygons (plane strain) and on polyhedra with triangular faces.
Element dofs are ordered [all-x | all-y | all-z] over the element's nodes.
The strain-energy projector and the L2 projector are assembled from nodal
values of the scaled monomials plus one-point face integration, which is
exact because every face is a simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .mesh import ValidationError

__all__ = [
    "constitutive_matrix",
    "strain_operator",
    "build_dof_matrix",
    "energy_projector",
    "l2_projector",
    "stiffness",
    "mass",
    "lump",
    "element_matrices",
    "ElementContext",
    "ElementMatrices",
]


def constitutive_matrix(material, dim):
    """Isotropic Hooke matrix in Voigt notation with engineering shear.

    2D is plane strain (3x3); 3D is the full 6x6 with Voigt order
    (xx, yy, zz, yz, xz, xy).
    """
    E = material.youngs_modulus
    nu = material.poisson_ratio
    lam = E * nu / ((1 + nu) * (1 - 2 * nu))
    mu = E / (2 * (1 + nu))
    if dim == 2:
        return np.array([
            [lam + 2 * mu, lam, 0.0],
            [lam, lam + 2 * mu, 0.0],
            [0.0, 0.0, mu],
        ])
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[0, 0] = C[1, 1] = C[2, 2] = lam + 2 * mu
    C[3, 3] = C[4, 4] = C[5, 5] = mu
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


def _strain_modes(dim, h):
    """Symmetric gradients of the scaled vector monomial basis (Voigt)."""
    if dim == 2:
        B = np.zeros((3, 6))
        B[2, 3] = 2.0   # (eta, xi)
        B[0, 4] = 1.0   # (xi, 0)
        B[1, 5] = 1.0   # (0, eta)
        return B / h
    B = np.zeros((6, 12))
    B[3, 6] = 2.0       # (0, zeta, eta)
    B[4, 7] = 2.0       # (zeta, 0, xi)
    B[5, 8] = 2.0       # (eta, xi, 0)
    B[0, 9] = 1.0       # (xi, 0, 0)
    B[1, 10] = 1.0      # (0, eta, 0)
    B[2, 11] = 1.0      # (0, 0, zeta)
    return B / h


@dataclass(frozen=True)
class ElementContext:
    """Per-element data shared by the projector and matrix builders."""

    dim: int
    nodes: tuple[int, ...]
    verts: np.ndarray              # local vertex coordinates (n, dim)
    conn: tuple                    # local loop (2D) or local faces (3D)
    geometry: meshmod.ElementGeometry

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def faces(self):
        """Local vertex ids of each face (loop edges in 2D), in face order."""
        conn = np.array(self.conn)
        if self.dim == 2:
            return np.stack([conn, np.roll(conn, -1)], axis=1)
        return conn

    @property
    def scaled_coords(self):
        g = self.geometry
        return (self.verts - g.centroid) / g.diameter


def element_context(mesh, index):
    nodes, verts, conn = meshmod.element_local(mesh, index)
    geom = meshmod.element_geometry(mesh, index)
    if not (np.isfinite(geom.volume) and geom.volume > 0.0):
        raise ValidationError(
            f"element {index}: non-positive measure {geom.volume!r}")
    return ElementContext(mesh.dimension, nodes, verts, conn, geom)


def build_dof_matrix(ctx):
    """Nodal dofs of the scaled vector monomials, [all-x | all-y | all-z]."""
    dim = ctx.dim
    n = ctx.n_nodes
    sc = ctx.scaled_coords
    xi = sc[:, 0]
    eta = sc[:, 1]
    if dim == 2:
        D = np.zeros((2 * n, 6))
        one = np.ones(n)
        # columns: (1,0) (0,1) (-eta,xi) (eta,xi) (xi,0) (0,eta)
        D[:n, 0] = one
        D[n:, 1] = one
        D[:n, 2] = -eta
        D[n:, 2] = xi
        D[:n, 3] = eta
        D[n:, 3] = xi
        D[:n, 4] = xi
        D[n:, 5] = eta
        return D
    zeta = sc[:, 2]
    D = np.zeros((3 * n, 12))
    one = np.ones(n)
    x, y, z = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    D[x, 0] = one
    D[y, 1] = one
    D[z, 2] = one
    D[y, 3] = -zeta
    D[z, 3] = eta
    D[x, 4] = zeta
    D[z, 4] = -xi
    D[x, 5] = -eta
    D[y, 5] = xi
    D[y, 6] = zeta
    D[z, 6] = eta
    D[x, 7] = zeta
    D[z, 7] = xi
    D[x, 8] = eta
    D[y, 8] = xi
    D[x, 9] = xi
    D[y, 10] = eta
    D[z, 11] = zeta
    return D


def energy_projector(ctx, C):
    """Strain-energy projector system (G, B-hat, Pi*, Pi)."""
    dim = ctx.dim
    n = ctx.n_nodes
    g = ctx.geometry
    n_rigid = dim * (dim + 1) // 2
    n_modes = 2 * n_rigid

    D = build_dof_matrix(ctx)
    B = _strain_modes(dim, g.diameter)
    Gfull = B.T @ (C @ B) * g.volume
    G = Gfull.copy()
    G[:n_rigid, :] = (D.T @ D)[:n_rigid, :] / n

    stress_modes = C @ B  # Voigt stress of each basis mode
    Bhat = np.zeros((n_modes, dim * n))
    Bhat[:n_rigid, :] = D[:, :n_rigid].T / n
    # Face tractions of the modes, weighted by the one-point rule (a hat
    # integrates to area / dim over a simplex), scattered in face order.
    traction = np.ascontiguousarray(np.swapaxes(
        strain_operator(g.face_normals[:, None, :]), 1, 2)) @ stress_modes
    w = (g.face_areas / dim)[:, None, None] * traction[:, :, n_rigid:]
    cols = np.arange(dim) * n + ctx.faces[:, :, None]
    np.add.at(Bhat[n_rigid:].T, cols, w[:, None])

    try:
        PiStar = np.linalg.solve(G, Bhat)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            "singular projector system (degenerate element)") from exc
    Pi = D @ PiStar
    return D, G, Gfull, Bhat, PiStar, Pi


def l2_projector(ctx):
    """Scalar L2 (= elliptic) projector system (D0, G0, B0-hat, S0)."""
    dim = ctx.dim
    n = ctx.n_nodes
    g = ctx.geometry
    sc = ctx.scaled_coords
    D0 = np.hstack([np.ones((n, 1)), sc])
    G0 = np.zeros((dim + 1, dim + 1))
    G0[0, :] = (D0.T @ D0)[0, :] / n
    G0[1:, 1:] = g.volume / g.diameter ** 2 * np.eye(dim)
    B0 = np.zeros((dim + 1, n))
    B0[0, :] = 1.0 / n
    w = 1.0 / (dim * g.diameter)
    np.add.at(B0[1:].T, ctx.faces,
              (g.face_normals * g.face_areas[:, None] * w)[:, None])
    try:
        S0 = np.linalg.solve(G0, B0)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            "singular L2 projector system (degenerate element)") from exc
    return D0, G0, B0, S0


def resolve_alpha0(alpha0, dim, diameter):
    """Stabilization scale: 1 in 2D; h_E in 3D unless overridden."""
    if alpha0 == "auto":
        return 1.0 if dim == 2 else diameter
    if alpha0 == "unit":
        return 1.0
    return float(alpha0)


def stiffness(ctx, C, alpha0="unit"):
    """Element stiffness: consistency + diagonally scaled stability."""
    dim = ctx.dim
    g = ctx.geometry
    proj = energy_projector(ctx, C)
    D, G, Gfull, Bhat, PiStar, Pi = proj
    Kc = PiStar.T @ Gfull @ PiStar
    m = 3 if dim == 2 else 6
    a0 = resolve_alpha0(alpha0, dim, g.diameter)
    floor = a0 * np.trace(C) / m
    Sd = np.maximum(floor, np.diag(Kc))
    I = np.eye(Pi.shape[0])
    Ks = (I - Pi).T @ (Sd[:, None] * (I - Pi))
    K = Kc + Ks
    return K, Kc, Ks, Sd


def mass(ctx, rho):
    """Consistent element mass from the L2 projector plus rank correction."""
    dim = ctx.dim
    n = ctx.n_nodes
    g = ctx.geometry
    D0, G0, B0, S0 = l2_projector(ctx)
    mom = g.scaled_moments
    basis = np.vstack([np.zeros(dim, int), np.eye(dim, dtype=int)])
    H = rho * np.array([[mom[tuple(a + b)] for b in basis] for a in basis])
    Pi0 = D0 @ S0
    # One scalar block per displacement component.
    Mc = np.kron(np.eye(dim), S0.T @ H @ S0)
    Ms = np.kron(np.eye(dim),
                 rho * g.volume * (np.eye(n) - Pi0).T @ (np.eye(n) - Pi0))
    return Mc + Ms, Mc, Ms


def lump(M, mode, rho, volume, dim, convex=None):
    """Diagonal (lumped) mass by row-sum or diagonal scaling.

    Mode "auto" picks row-sum for convex elements and diagonal scaling for
    nonconvex ones, which keeps every entry positive.
    """
    if mode == "auto":
        if convex is None:
            raise ValueError("auto lumping needs the convexity flag")
        mode = "row_sum" if convex else "diag_scale"
    if mode == "row_sum":
        ml = M.sum(axis=1)
        if np.any(ml <= 0.0):
            raise ValidationError(
                "row-sum lumping produced a non-positive entry; "
                "use diag_scale")
        return ml, mode
    if mode == "diag_scale":
        diag = np.diag(M).copy()
        if np.any(diag <= 0.0):
            raise ValidationError("mass diagonal has a non-positive entry")
        return diag * (dim * rho * volume / np.trace(M)), mode
    raise ValueError(f"unknown lumping mode {mode!r}")


@dataclass(frozen=True)
class ElementMatrices:
    """Stiffness/mass bundle for one element."""

    K: np.ndarray
    Kc: np.ndarray
    Ks: np.ndarray
    M: np.ndarray
    Mc: np.ndarray
    Ms: np.ndarray
    M_lumped: np.ndarray
    lumping: str
    nodes: tuple[int, ...]
    volume: float
    convex: bool


def write_matrix_csv(matrix, path):
    """Row-major CSV dump of one element matrix, 17 significant digits."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def element_matrices(mesh, index, alpha0="unit", lumping="auto"):
    """Build K_E, M_E and the lumped mass for one virtual element."""
    ctx = element_context(mesh, index)
    C = constitutive_matrix(mesh.material, mesh.dimension)
    K, Kc, Ks, _ = stiffness(ctx, C, alpha0)
    M, Mc, Ms = mass(ctx, mesh.material.density)
    convex = meshmod.is_convex(mesh, index)
    ml, used = lump(M, lumping, mesh.material.density,
                    ctx.geometry.volume, mesh.dimension, convex=convex)
    return ElementMatrices(K=K, Kc=Kc, Ks=Ks, M=M, Mc=Mc, Ms=Ms,
                           M_lumped=ml, lumping=used, nodes=ctx.nodes,
                           volume=ctx.geometry.volume, convex=convex)
