"""Element and global maximum frequencies; critical-time-step estimates.

One element sweep (``element_systems``) builds every element's stiffness and
lumped mass once, elements of equal kind, node and face count as one stack
``(ids, nodes, K, ml)``: ``group_system`` lumps the consistent mass of either
kernel (``vem.group_matrices``, ``fem.group_matrices``) with ``vem.lump``.
``time_step_report`` checks the sweep for faults once and reduces it to the
element bound; ``dynamics.assemble_systems`` reduces it to the global
matrices.  The element problems are solved with LAPACK (``eigvalsh``) one
stack per group; the global bound by power iteration on the mass-normalized
stiffness with homogeneous constraints eliminated.  The element-eigenvalue
inequality makes max_E omega_E an upper bound for the global omega, so
dt = 2 / max_E omega_E is a safe explicit step.  A power iteration that
stops at its cap (POWER_MAX_ITER) raises NumericalError: no global omega,
and so no time step, comes from a stalled Rayleigh quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem, mesh as meshmod, vem


class NumericalError(RuntimeError):
    """An iterative solve did not converge."""


def element_max_frequency(K, M_lumped):
    """Largest natural frequency of one element, or of a same-size stack.

    Solves the symmetric standard problem L^-1 K L^-T with L = sqrt(M);
    omega = sqrt(lambda_max).  ``K`` is (n, n) with ``M_lumped`` (n,), giving
    a float, or (batch, n, n) with (batch, n), giving a (batch,) array.
    """
    K, ml = np.asarray(K, float), np.asarray(M_lumped, float)
    _reject_faults(np.atleast_1d(_faults(K, ml)), ml.ndim > 1)
    omega = _max_frequency(K, ml)
    _reject_faults(np.atleast_1d(3 * np.isnan(omega)), ml.ndim > 1)
    return omega


@np.errstate(over="ignore", invalid="ignore")  # the NaN is the signal
def _max_frequency(K, ml):
    """element_max_frequency of fault-free arrays; NaN, not eigensolved,
    where K m^-1/2 m^-1/2 is not finite (an extreme length scale)."""
    inv_sqrt = 1.0 / np.sqrt(ml)
    A = K * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    finite = np.isfinite(A).all(axis=(-2, -1))
    A[~finite] = 0.0
    lam = np.where(finite, np.linalg.eigvalsh(A)[..., -1], np.nan)
    omega = np.sqrt(np.maximum(lam, 0.0))
    return float(omega) if omega.ndim == 0 else omega


def _faults(K, ml):
    """Per element of a stack (or one element): 1 if a lumped mass entry
    is not positive and finite, else 2 if a stiffness entry is not finite,
    else 0."""
    return np.where(~((ml > 0.0) & (ml < np.inf)).all(axis=-1), 1,
                    2 * ~np.isfinite(K).all(axis=(-2, -1)))


def _reject_faults(fault, named=True):
    """A ValidationError for the first element with a fault (_faults codes,
    or 3 for _max_frequency's NaN; by element id), named when `named`."""
    bad = np.flatnonzero(fault)
    if bad.size:
        e = bad[0]
        raise meshmod.ValidationError((f"element {e}: " if named else "") + (
            "non-positive or non-finite lumped mass entry",
            "non-finite stiffness entry",
            "non-finite mass-normalized stiffness")[fault[e] - 1])


@dataclass
class TimeStepReport:
    """Per-element frequencies and the element-eigenvalue time-step bound."""

    omega_elements: np.ndarray
    omega_star: float
    dt_crit: float
    argmax_element: int

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("element_id,omega_max,dt_element\n")
            for i, w in enumerate(self.omega_elements):
                dt = 2.0 / w if w > 0 else float("inf")
                fh.write(f"{i},{w:.17g},{dt:.17g}\n")
            fh.write(f"omega_star,{self.omega_star:.17g},"
                     f"{self.dt_crit:.17g},argmax={self.argmax_element}\n")


# Entries of the largest stack of (dim n)^2 matrices built at once.  Each
# of the ~20 stacked arrays a VEM kernel holds then stays within 128 KiB,
# which keeps a beam run's peak memory where one element at a time had it.
STACK_ENTRIES = 1 << 14


def element_groups(mesh):
    """Element ids in groups of equal kind, node count and face count, in
    order of each group's first element; a group is split into stacks of
    at most STACK_ENTRIES // (dim n)^2 elements."""
    g = mesh.geometry
    groups = {}
    for e, key in enumerate(zip(g.kinds, np.diff(g.node_start).tolist(),
                                np.diff(g.face_start).tolist())):
        groups.setdefault(key, []).append(e)
    out = []
    for (_, n, _), ids in groups.items():
        size = max(1, STACK_ENTRIES // (mesh.dimension * n) ** 2)
        out += [np.array(ids[s:s + size]) for s in range(0, len(ids), size)]
    return out


@np.errstate(over="ignore", invalid="ignore")  # _faults names inf, NaN
def group_system(mesh, ids, method, alpha0="unit", lumping="auto"):
    """(ids, node ids, K, lumped M) of elements `ids`, one group of
    element_groups, under one method; all but ids are stacks whose row k
    is element ids[k]."""
    if method == "vem":
        em = vem.group_matrices(mesh, ids, alpha0=alpha0)
        nodes, K, M = em.nodes, em.K, em.M
    elif method == "fem":
        K, M = fem.group_matrices(mesh, ids)
        nodes = meshmod.element_nodes(mesh, ids)
    else:
        raise ValueError(f"unknown method {method!r}")
    g = mesh.geometry
    ml = vem.lump(M, lumping, mesh.material.density, g.volume[ids],
                  mesh.dimension, convex=g.convex[ids], ids=ids)
    return ids, nodes, K, ml


def element_systems(mesh, method, alpha0="unit", lumping="auto"):
    """Element sweep: the group_system of every group of element_groups."""
    return [group_system(mesh, ids, method, alpha0, lumping)
            for ids in element_groups(mesh)]


def time_step_report(systems):
    """Element-eigenvalue critical time step from an element sweep.

    The sweep is checked once: its first element with a fault (see _faults)
    is named in a ValidationError.  Each group is eigensolved as one stack.
    """
    fault = np.zeros(sum(len(ids) for ids, *_ in systems), np.int64)
    for ids, _, K, ml in systems:
        fault[ids] = _faults(K, ml)
    _reject_faults(fault)
    omegas = np.zeros(len(fault))
    for ids, _, K, ml in systems:
        omegas[ids] = _max_frequency(K, ml)
    _reject_faults(3 * np.isnan(omegas))
    arg = int(np.argmax(omegas))
    omega_star = float(omegas[arg])
    dt = 2.0 / omega_star if omega_star > 0 else float("inf")
    return TimeStepReport(omega_elements=omegas, omega_star=omega_star,
                          dt_crit=dt, argmax_element=arg)


def critical_dt(mesh, method, alpha0="unit", lumping="auto"):
    """Element-eigenvalue critical time step for the whole mesh."""
    return time_step_report(element_systems(mesh, method, alpha0, lumping))


# Power iteration: stopping change of the Rayleigh quotient, cap, seed.
POWER_TOL, POWER_MAX_ITER, POWER_SEED = 1e-6, 200000, 0


def global_max_frequency(K, M_lumped, fixed_dofs=()):
    """Largest global frequency by power iteration on L^-1 K L^-T.

    ``K`` is dense or CSR; ``fixed_dofs`` are eliminated before iterating;
    a fixed dof outside [0, n) is a ValidationError.  Returns (omega,
    converged, iterations), converged always True: a loop that reaches
    POWER_MAX_ITER raises NumericalError.
    """
    n = K.shape[0]
    fixed = np.asarray(list(fixed_dofs), dtype=int)
    if fixed.size and not (0 <= fixed.min() and fixed.max() < n):
        raise meshmod.ValidationError(f"fixed dof out of range [0, {n})")
    free = np.setdiff1d(np.arange(n), fixed)
    ml = np.asarray(M_lumped, float)[free]
    if not np.all(ml > 0.0):
        raise meshmod.ValidationError("non-positive lumped mass entry")
    Kff = K[:, free][free]  # C-ordered when dense: the same bits as np.ix_
    inv_sqrt = 1.0 / np.sqrt(ml)

    def apply(x):
        return inv_sqrt * (Kff @ (inv_sqrt * x))

    rng = np.random.default_rng(POWER_SEED)
    x = rng.standard_normal(len(free))
    x /= np.linalg.norm(x)
    lam = 0.0
    for it in range(1, POWER_MAX_ITER + 1):
        y = apply(x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0, True, it
        lam_new = float(x @ y)
        x = y / norm
        if it > 1 and abs(lam_new - lam) <= POWER_TOL * abs(lam_new):
            return float(np.sqrt(max(lam_new, 0.0))), True, it
        lam = lam_new
    raise NumericalError(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations "
        f"(best estimate omega={np.sqrt(max(lam, 0.0)):.6e})")
