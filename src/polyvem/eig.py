"""Element and global maximum frequencies; critical-time-step estimates.

One element sweep (``element_systems``) builds every element's stiffness and
lumped mass once; ``time_step_report`` reduces it to the element bound, and
``dynamics.assemble_systems`` reduces the same sweep to the global matrices.
The element problems are small symmetric dense matrices, solved with LAPACK
(``eigvalsh``) one stack per element size.  The global bound comes from
power iteration on the mass-normalized stiffness with homogeneous
constraints eliminated.  The element-eigenvalue inequality makes
max_E omega_E an upper bound for the global omega, so dt = 2 / max_E omega_E
is a safe explicit step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, mesh as meshmod, vem


def element_max_frequency(K, M_lumped):
    """Largest natural frequency of one element, or of a same-size stack.

    Solves the symmetric standard problem L^-1 K L^-T with L = sqrt(M);
    omega = sqrt(lambda_max).  ``K`` is (n, n) with ``M_lumped`` (n,), giving
    a float, or (batch, n, n) with (batch, n), giving a (batch,) array.
    """
    ml = np.asarray(M_lumped, float)
    if np.any(ml <= 0.0):
        raise meshmod.ValidationError("non-positive lumped mass entry")
    inv_sqrt = 1.0 / np.sqrt(ml)
    A = np.asarray(K, float) * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    lam = np.linalg.eigvalsh(A)[..., -1]
    omega = np.sqrt(np.maximum(lam, 0.0))
    return float(omega) if omega.ndim == 0 else omega


@dataclass
class TimeStepReport:
    """Per-element frequencies and the element-eigenvalue time-step bound."""

    method: str
    lumping: str
    omega_elements: np.ndarray
    omega_star: float
    dt_crit: float
    argmax_element: int

    def rows(self):
        for i, w in enumerate(self.omega_elements):
            dt = 2.0 / w if w > 0 else float("inf")
            yield i, float(w), dt

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("element_id,omega_max,dt_element\n")
            for i, w, dt in self.rows():
                fh.write(f"{i},{w:.17g},{dt:.17g}\n")
            fh.write(f"omega_star,{self.omega_star:.17g},"
                     f"{self.dt_crit:.17g},argmax={self.argmax_element}\n")


def element_system(mesh, index, method, alpha0="unit", lumping="auto"):
    """(K, lumped M, node ids, lumping used) for one element and method."""
    if method == "vem":
        em = vem.element_matrices(mesh, index, alpha0=alpha0, lumping=lumping)
        return em.K, em.M_lumped, em.nodes, em.lumping
    if method == "fem":
        K, M = fem.element_matrices(mesh, index)
        ml, used = vem.lump(M, lumping, mesh.material.density,
                            mesh.geometry.volume[index], mesh.dimension,
                            convex=meshmod.is_convex(mesh, index))
        return K, ml, mesh.elements[index].node_ids(), used
    raise ValueError(f"unknown method {method!r}")


def element_systems(mesh, method, alpha0="unit", lumping="auto"):
    """Element sweep: element_system of every element, in element order."""
    return [element_system(mesh, i, method, alpha0, lumping)
            for i in range(mesh.num_elements)]


def time_step_report(systems, method):
    """Element-eigenvalue critical time step from an element sweep.

    Element problems of equal size are eigensolved as one stack.
    """
    groups = {}
    for i, (_, ml, _, _) in enumerate(systems):
        if np.any(ml <= 0.0):
            raise meshmod.ValidationError(
                f"element {i}: non-positive lumped mass entry")
        groups.setdefault(len(ml), []).append(i)
    omegas = np.zeros(len(systems))
    for ids in groups.values():
        omegas[ids] = element_max_frequency(
            np.array([systems[i][0] for i in ids]),
            np.array([systems[i][1] for i in ids]))
    arg = int(np.argmax(omegas))
    omega_star = float(omegas[arg])
    dt = 2.0 / omega_star if omega_star > 0 else float("inf")
    return TimeStepReport(
        method=method,
        lumping=",".join(sorted({used for *_, used in systems})),
        omega_elements=omegas,
        omega_star=omega_star,
        dt_crit=dt,
        argmax_element=arg,
    )


def critical_dt(mesh, method, alpha0="unit", lumping="auto"):
    """Element-eigenvalue critical time step for the whole mesh."""
    return time_step_report(element_systems(mesh, method, alpha0, lumping),
                            method)


def global_max_frequency(K, M_lumped, fixed_dofs=(), tol=1e-6,
                         max_iter=200000, seed=0):
    """Largest global frequency by power iteration on L^-1 K L^-T.

    ``K`` may be dense or scipy-sparse; ``fixed_dofs`` are eliminated before
    iterating.  Returns (omega, converged, iterations).
    """
    n = K.shape[0]
    free = np.setdiff1d(np.arange(n), np.asarray(list(fixed_dofs), dtype=int))
    ml = np.asarray(M_lumped, float)[free]
    if np.any(ml <= 0.0):
        raise meshmod.ValidationError("non-positive lumped mass entry")
    Kff = K[np.ix_(free, free)] if isinstance(K, np.ndarray) else \
        K.tocsr()[free, :][:, free]
    inv_sqrt = 1.0 / np.sqrt(ml)

    def apply(x):
        return inv_sqrt * (Kff @ (inv_sqrt * x))

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(len(free))
    x /= np.linalg.norm(x)
    lam = 0.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        y = apply(x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0, True, it
        lam_new = float(x @ y)
        x = y / norm
        if it > 1 and abs(lam_new - lam) <= tol * abs(lam_new):
            lam = lam_new
            converged = True
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0))), converged, it
