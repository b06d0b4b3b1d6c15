"""Element and global maximum frequencies; critical-time-step estimates.

One element sweep (``element_systems``) builds every element's stiffness and
lumped mass once, elements of equal kind, node and face count as one stack
``(ids, nodes, K, ml)``: ``group_system`` lumps the consistent mass of either
kernel (``vem.group_matrices``, ``fem.group_matrices``) with ``vem.lump``.
``time_step_report`` checks the sweep for faults once and reduces it to the
element bound; ``dynamics.assemble_systems`` reduces it to K, which is only
ever a ``Csr`` (CSR arrays that scipy's kernel, ``csr_kernel``, applies
without ``scipy.sparse``), and the lumped mass.  The element problems are
solved with LAPACK (``eigvalsh``) one stack per group; the global bound by
power iteration on the mass-normalized K_ff, K's free rows and columns.
The element-eigenvalue inequality makes max_E omega_E an upper bound for
the global omega, so dt = 2 / max_E omega_E is a safe explicit step;
``critical_step`` is the one omega -> dt rule.  A power iteration that
meets a non-finite Rayleigh quotient or stops at its cap (POWER_MAX_ITER)
raises NumericalError: no global omega comes from a stalled or overflowed loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import machinery, util
from typing import NamedTuple

import numpy as np

from . import fem, hni, mesh as meshmod, vem


class NumericalError(RuntimeError):
    """An iterative solve did not converge."""


@np.errstate(over="ignore", invalid="ignore")  # the NaN is the signal
def _max_frequency(K, ml):
    """Largest natural frequency of each element of a fault-free stack,
    K (batch, n, n) with lumped masses (batch, n): omega = sqrt(lambda_max)
    of L^-1 K L^-T, L = sqrt(M); NaN, not eigensolved, where
    K m^-1/2 m^-1/2 is not finite (an extreme length scale)."""
    inv_sqrt = 1.0 / np.sqrt(ml)
    A = K * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]
    A = 0.5 * (A + A.swapaxes(-1, -2))
    finite = np.isfinite(A).all(axis=(-2, -1))
    A[~finite] = 0.0
    lam = np.where(finite, np.linalg.eigvalsh(A)[..., -1], np.nan)
    return np.sqrt(np.maximum(lam, 0.0))


def _faults(K, ml):
    """Per element of a stack: 1 if a lumped mass entry is not positive and
    finite, else 2 if a stiffness entry is not finite, else 0."""
    return np.where(~((ml > 0.0) & (ml < np.inf)).all(axis=-1), 1,
                    2 * ~np.isfinite(K).all(axis=(-2, -1)))


def _reject_faults(fault):
    """A ValidationError naming the first element with a fault (_faults
    codes, 3 for a NaN omega, 4 for an infinite 2 / omega; by element id)."""
    bad = fault.nonzero()[0]
    if bad.size:
        e = bad[0]
        raise meshmod.ValidationError(f"element {e}: " + (
            "non-positive or non-finite lumped mass entry",
            "non-finite stiffness entry",
            "non-finite mass-normalized stiffness",
            "mass-normalized stiffness underflows (length scale or "
            "material out of range)")[fault[e] - 1])


def critical_step(omega):
    """The explicit step dt = 2 / omega of a scalar or an array omega: inf
    where omega == 0, and every other value divided (a NaN stays NaN)."""
    with np.errstate(divide="ignore", over="ignore"):
        dt = np.where(omega == 0, np.inf, np.divide(2.0, omega))
    return dt if np.ndim(omega) else float(dt)


@dataclass
class TimeStepReport:
    """Per-element frequencies and the element-eigenvalue time-step bound."""

    omega_elements: np.ndarray
    omega_star: float
    dt_crit: float
    argmax_element: int


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
def group_system(mesh, ids, method, alpha0="unit"):
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
        raise meshmod.ValidationError(f"unknown method {method!r}")
    meshmod.reject(~K.any(axis=(-2, -1)), vem.UNDERFLOW, ids)
    g = mesh.geometry
    ml = vem.lump(M, mesh.material.density, g.volume[ids], mesh.dimension,
                  g.convex[ids], ids)
    return ids, nodes, K, ml


def element_systems(mesh, method, alpha0="unit"):
    """Element sweep: the group_system of every group of element_groups.
    The preset is read by ``vem.preset`` first, under either method."""
    alpha0 = vem.preset(alpha0)
    return [group_system(mesh, ids, method, alpha0)
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
        omegas[ids] = w = _max_frequency(K, ml)
        fault[ids] = np.where(np.isnan(w), 3, 4 * (
            K.any(axis=(-2, -1)) & ~np.isfinite(critical_step(w))))
    _reject_faults(fault)
    arg = int(omegas.argmax())
    omega_star = float(omegas[arg])
    return TimeStepReport(omegas, omega_star, critical_step(omega_star), arg)


def critical_dt(mesh, method, alpha0="unit"):
    """Element-eigenvalue critical time step for the whole mesh."""
    return time_step_report(element_systems(mesh, method, alpha0))


class Csr(NamedTuple):
    """A sparse matrix in scipy's CSR arrays: row i stores data[indptr[i]:
    indptr[i + 1]] in those columns of indices, in that (stored) order."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return len(self.data)

    def __matmul__(self, x):
        """A x, each row summed from zero in stored order (scipy's bits)."""
        y = np.zeros(self.shape[0])
        csr_kernel()(*self.shape, self.indptr, self.indices,
                     self.data.astype(float, copy=False), x, y)
        return y

    def where(self, keep):
        """The entries where keep holds, each row in stored order."""
        gone = np.searchsorted(np.flatnonzero(~keep), self.indptr)
        return Csr(self.data[keep], self.indices[keep],
                   self.indptr - gone.astype(self.indptr.dtype), self.shape)

    def entries(self, rows):
        """Positions of the rows' stored entries, row by row, in order."""
        start, count = self.indptr[rows], np.diff(self.indptr)[rows]
        return (np.repeat(start - np.cumsum(count) + count, count)
                + np.arange(count.sum()))

    def take(self, rows, cols):
        """The rows and columns given, in the order given."""
        at, label = self.entries(rows), np.full(self.shape[1], -1)
        label[cols] = np.arange(len(cols))
        kept = label[self.indices[at]]
        indptr = np.append(0, np.cumsum(np.diff(self.indptr)[rows]))
        return Csr(self.data[at], kept.astype(self.indices.dtype),
                   indptr.astype(self.indptr.dtype),
                   (len(rows), len(cols))).where(kept >= 0)


SPARSETOOLS = "sparse/_sparsetools"  # the kernel's file under scipy's


@functools.cache
def csr_kernel():
    """scipy's csr_matvec(rows, cols, indptr, indices, data, x, y), which
    adds each row of A x into y in stored order: loaded from its file, so
    that scipy.sparse (~20 MB) stays unloaded, or imported if that fails."""
    try:
        root, = util.find_spec("scipy").submodule_search_locations
        spec = util.spec_from_file_location(
            "scipy.sparse._sparsetools",
            f"{root}/{SPARSETOOLS}{machinery.EXTENSION_SUFFIXES[0]}")
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.csr_matvec
    except (ImportError, AttributeError, ValueError):  # not found or loaded
        from scipy.sparse._sparsetools import csr_matvec
        return csr_matvec


# Power iteration: stopping change of the Rayleigh quotient, cap, seed.
POWER_TOL, POWER_MAX_ITER, POWER_SEED = 1e-6, 200000, 0


def dof_ids(dofs, name, n):
    """The dofs as ints; a non-integral or out-of-range dof is refused."""
    d = np.asarray(dofs)
    if d.dtype.kind not in "biu" and not np.all(d == np.trunc(d)):
        raise meshmod.ValidationError(f"{name} dof is not an integer")
    if d.size and not (0 <= d.min() and d.max() < n):
        raise meshmod.ValidationError(f"{name} dof out of range [0, {n})")
    return d.astype(int)


def check_stiffness(K, n):
    """Refuse a K that is not a square Csr of n rows with real entries."""
    if not (isinstance(K, Csr) and K.shape == (n, n)):
        raise meshmod.ValidationError(f"K must be a square eig.Csr with {n} "
                                      "rows, one per lumped mass entry")
    if K.data.dtype.kind not in "biuf":
        raise meshmod.ValidationError(f"K must be real, not {K.data.dtype}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def global_max_frequency(K, M_lumped, fixed_dofs=()):
    """Largest global frequency by power iteration on L^-1 K_ff L^-T.

    ``K`` is a square ``Csr`` of real entries, one row per lumped mass
    entry (``check_stiffness``); ``fixed_dofs`` are eliminated first; a
    fixed dof that is not an integer in [0, n), or no free dof, is a
    ValidationError.  K_ff keeps each row's stored order, so ``Kff @ x``
    has the bits of scipy's ``K[:, free][free] @ x``.
    Returns (omega, converged, iterations), converged always True: a
    non-finite Rayleigh quotient, or a loop that reaches POWER_MAX_ITER,
    raises NumericalError.  omega is 0 only when K_ff x is exactly zero.
    """
    ml = np.asarray(M_lumped, float)
    n = len(ml)
    check_stiffness(K, n)
    free = np.setdiff1d(np.arange(n), dof_ids(list(fixed_dofs), "fixed", n))
    if not free.size:
        raise meshmod.ValidationError("every dof is fixed")
    ml = ml[free]
    if not np.all(ml > 0.0):
        raise meshmod.ValidationError("non-positive lumped mass entry")
    Kff = K.take(free, free)
    inv_sqrt = 1.0 / np.sqrt(ml)

    def apply(x):
        return inv_sqrt * (Kff @ (inv_sqrt * x))

    rng = np.random.default_rng(POWER_SEED)
    x = rng.standard_normal(len(free))
    x /= hni._norms(x)
    lam = 0.0
    for it in range(1, POWER_MAX_ITER + 1):
        y = apply(x)
        if not y.any():
            return 0.0, True, it
        lam_new = float(x @ y)
        if not np.isfinite(lam_new):
            raise NumericalError(f"power iteration: non-finite Rayleigh "
                                 f"quotient {lam_new} at iteration {it}")
        x = y / hni._norms(y)  # exact scaling: no underflow
        if it > 1 and abs(lam_new - lam) <= POWER_TOL * abs(lam_new):
            return float(np.sqrt(max(lam_new, 0.0))), True, it
        lam = lam_new
    raise NumericalError(
        f"power iteration did not converge in {POWER_MAX_ITER} iterations "
        f"(best estimate omega={np.sqrt(max(lam, 0.0)):.6e})")
