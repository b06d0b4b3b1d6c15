"""Global assembly, explicit central-difference integration, and the
tapered-beam experiment driver.

Assembly reduces an element sweep (``eig.element_systems``: stacked element
groups), adding each group straight into K's CSR arrays, which are laid
out once from the coupled node pairs: each stored entry sums its element
terms in sweep order.  A beam problem (``beam_problem``) builds one sweep
per beam mesh and feeds it to both the time-step bound and the assembly.
The integrator is the central-difference update with a diagonal mass, in
displacement-increment form; fixed dofs are held at rest and driven dofs
are overwritten each step.  ``run_beam``, the one beam driver, reproduces
the pulse-loaded tapered-beam runs: fixed at x = 0, an axial quartic pulse
at x = 4, histories probed mid-beam and reported in normalized time and
displacement.  A case's pulse duration is a constant of the problem,
``BEAM_PULSE_DURATION``, whatever the method or stabilization preset.

K is only an ``eig.Csr``, polyvem's own CSR arrays; a run refuses any other
K and applies it with scipy's C++ kernel loaded from its file
(``eig.csr_kernel``), so nothing here loads ``scipy.sparse``.  The step is
written once, as the ``_steps`` generator; a long run splits it with a
forked helper process that steps a band of the dofs through its own
``_steps``, bit for bit (``_domains``).
"""

from __future__ import annotations

import os
import platform
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import eig
from .mesh import ValidationError

BEAM_PULSE_AMPLITUDE = 1.0 / 16.0  # peak of (t/tau)^4 - 2(t/tau)^3 + (t/tau)^2
BEAM_PROBE = (2.0, 0.5, 0.0)  # mid-beam node whose x displacement is recorded
# The pulse duration tau of each beam case: 100 x the element bound of its
# VEM beam under the default preset, to the last bit.
BEAM_PULSE_DURATION = {"A": 0.0004194336679103224,
                       "B": 0.00041816473926542167}
# A beam run's schedule: dt = BEAM_DT_FACTOR x the bound, for BEAM_TRANSITS
# transit times.
BEAM_DT_FACTOR, BEAM_TRANSITS = 0.9, 3.0
# n_steps * K.nnz from which a run splits (~3x the pinned split's break-even)
PARALLEL_MIN_WORK = 1e8


def assemble(mesh, method, alpha0="unit"):
    """Assembled stiffness (``eig.Csr``) and lumped mass vector for a mesh."""
    return assemble_systems(mesh, eig.element_systems(mesh, method, alpha0))


def assemble_systems(mesh, systems):
    """Scatter-add an element sweep into the global stiffness (an
    ``eig.Csr``) and lumped mass vector.  K's pattern is laid out from the
    node pairs the elements couple: row (a, i) holds columns b n + j, b =
    0..dim-1, for the nodes j coupled to node i, in order.  Each group's
    stack is added into its slots of ``K.data`` with one ``np.add.at``, so
    each stored entry is the sequential sum of its element terms in sweep
    order (groups in ``eig.element_groups`` order, stack rows in order);
    exact zeros, summed terms that cancel, are then dropped.  Each mass
    entry sums its element terms in element order."""
    dim, n = mesh.dimension, mesh.num_vertices
    size = np.zeros(mesh.num_elements, np.int64)
    for ids, _, _, ml in systems:
        size[ids] = ml.shape[1]
    start = np.cumsum(size) - size
    dofs, masses = np.empty(size.sum(), np.int64), np.empty(size.sum())

    def pairs(nodes):  # the node pairs i n + j the elements couple
        return nodes[:, :, None] * n + nodes[:, None, :]
    keys = np.sort(np.concatenate([np.empty(0, np.int64), *(
        pairs(nodes).ravel() for _, nodes, *_ in systems)]))
    keys = keys[np.diff(keys, prepend=-1) > 0]  # the coupled pairs
    # Pair p = (i, j) in column block b of row (a, i) has slot
    # a dim P + offset[i] + b deg[i] + p of K.data, P = len(keys).
    row, col = np.divmod(keys, n)
    deg = np.bincount(row, minlength=n)
    offset, comp = (dim - 1) * (np.cumsum(deg) - deg), np.arange(dim)[:, None]
    block = dim * len(keys)
    idx = np.int32 if max(dim * block, dim * n) < 2 ** 31 else np.int64
    indices, indptr = np.empty(block, idx), np.zeros(dim * n + 1, idx)
    indices[offset[row] + comp * deg[row] + np.arange(len(keys))] = (
        comp * n + col)
    np.cumsum(np.tile(dim * deg, dim), out=indptr[1:])
    data = np.zeros(dim * block)
    for ids, nodes, K, ml in systems:
        n_el, nn = nodes.shape
        at = start[ids][:, None] + np.arange(dim * nn)
        dofs[at] = (comp * n + nodes[:, None, :]).reshape(n_el, dim * nn)
        masses[at] = ml
        at = offset[nodes][:, :, None] + np.searchsorted(keys, pairs(nodes))
        at = (block * comp[:, :, None, None] + at[:, None, :, None, :]
              + comp * deg[nodes][:, None, :, None, None])  # (el, a, i, b, j)
        np.add.at(data, at.ravel(), K.ravel())  # 1-D: numpy's fast path
    K = eig.Csr(data, np.tile(indices, dim), indptr, (dim * n,) * 2)
    return K.where(data != 0.0), np.bincount(dofs, masses, minlength=dim * n)


@dataclass
class BcSchedule:
    """Fixed dofs plus driven dofs following a smooth finite pulse.

    The pulse g(t) = (t/tau)^4 - 2 (t/tau)^3 + (t/tau)^2 for t < tau and 0
    afterwards is C1 at both ends; its peak value is 1/16.  tau must be
    positive and finite.
    """

    fixed: np.ndarray
    driven: np.ndarray
    tau: float

    def __post_init__(self):
        if not 0.0 < self.tau < np.inf:
            raise ValidationError("pulse duration tau must be positive and "
                                  "finite")

    def pulse(self, t):
        if t >= self.tau or t <= 0.0:
            return 0.0
        s = t / self.tau
        return s ** 4 - 2.0 * s ** 3 + s ** 2


@dataclass
class RunResult:
    times: np.ndarray
    probe_history: np.ndarray    # (steps+1, n_probes)
    steps: int
    diverged: bool
    diverged_step: int | None
    wall_seconds: float
    processes: int               # 1, or 2 when the step was split


def _banded(K, driven):
    """(the breadth-first order from the driven dofs or dof 0, unreached
    dofs last; each dof's place in it; its half-nnz row r0, moved past the
    driven dofs)."""
    seen, levels = np.zeros(K.shape[0], bool), []
    front = np.unique(driven) if driven.size else np.arange(K.shape[0])[:1]
    while front.size:
        seen[front] = True
        levels.append(front)
        reached = np.bincount(K.indices[K.entries(front)],
                              minlength=len(seen))
        front = np.flatnonzero((reached > 0) & ~seen)
    order = np.concatenate(levels + [np.flatnonzero(~seen)])
    pos = np.argsort(order)
    ends = np.append(0, np.cumsum(np.diff(K.indptr)[order]))
    return order, pos, max(int(np.searchsorted(ends, K.nnz // 2)),
                           int(pos[driven].max(initial=-1)) + 1)


def _meet(flags, dots, me, step, dot, alive):
    """The step's barrier: publish this process's partial u @ u, then its
    step, wait for the other's (spin 64 reads, then yield between reads),
    and return its partial u @ u, or None once it has stopped."""
    dots[2 * (step & 1) + me], flags[me] = dot, step  # in this order
    spin = 0
    while flags[1 - me] == step - 1:
        spin += 1
        if spin > 64:
            if not alive():  # in the helper: its parent died
                raise RuntimeError("the helper process died mid-run")
            os.sched_yield()
    return dots[2 * (step & 1) + 1 - me] if flags[1 - me] >= step else None


def _scaled(K, s, rows=None, order=None):
    """The kernel's arguments for K's rows (all, sharing K's pattern, or
    ``rows`` gathered in order, columns in ``order``), row i scaled by s[i]
    in float64 (the kernel's type), entries in stored order."""
    if rows is not None:
        K, s = K.take(rows, order), s[rows]
    data = np.repeat(s, np.diff(K.indptr))
    np.multiply(data, K.data, out=data, dtype=float)
    return (*K.shape, K.indptr, K.indices, data)


def _steps(kernel, w, bufs, start, n_steps):
    """Steps 1..n_steps of one process's dofs start : start + len(w) (its
    ``_scaled`` rows of K, and w = dt v at the half step): move them by w
    into u's buffer for the step, yield (step, u, own), and on resume
    accumulate their rows of K @ u into w, each row in stored order."""
    csr_matvec = eig.csr_kernel()
    owns = [b[start:start + len(w)] for b in bufs]
    for step in range(1, n_steps + 1):
        u, own = bufs[step & 1], owns[step & 1]
        np.add(owns[~step & 1], w, out=own)
        yield step, u, own
        csr_matvec(*kernel, u, w)


@contextmanager
def _domains(K, scale, driven, n_steps, split):
    """This process's part of a run: (its ``_steps``, dof -> index in u,
    meet(step) -> the other process's partial u @ u).  Split, u's two
    buffers sit in a shared anonymous mmap and a forked helper steps the
    rows from r0 on, each process on its own CPU building only its rows; it
    leaves by os._exit when told, orphaned or on error, and is reaped on
    exit, when the CPUs are restored; its death mid-run raises RuntimeError."""
    ndof = K.shape[0]
    w = np.zeros(ndof)  # dt v at dt/2 from rest
    if not split:
        u = np.zeros(ndof)
        yield (_steps(_scaled(K, scale), w, (u, u), 0, n_steps),
               np.arange(ndof), lambda step: 0.0)
        return
    import mmap
    order, pos, r0 = _banded(K, driven)
    shared = mmap.mmap(-1, 48 + 16 * ndof)  # anonymous: no name, no file
    flags = memoryview(shared)[:16].cast("q")
    dots = memoryview(shared)[16:48].cast("d")
    bufs = tuple(np.frombuffer(shared, float, 2 * ndof, 48).reshape(2, ndof))
    cpus = os.sched_getaffinity(0)
    parent, pid = os.getpid(), os.fork()
    if pid == 0:  # the helper: rows r0: until told to stop or orphaned
        try:
            os.sched_setaffinity(0, sorted(cpus)[1:2])
            has_parent = lambda: os.getppid() == parent  # noqa: E731
            rows = _scaled(K, scale, order[r0:], order)
            for step, _, own in _steps(rows, w[r0:], bufs, r0, n_steps):
                if _meet(flags, dots, 1, step, own @ own, has_parent) is None:
                    break
            os._exit(0)
        finally:
            os._exit(1)
    alive = lambda: os.waitpid(pid, os.WNOHANG)[0] == 0  # noqa: E731
    try:
        os.sched_setaffinity(0, sorted(cpus)[:1])
        yield (_steps(_scaled(K, scale, order[:r0], order), w[:r0], bufs, 0,
                      n_steps), pos,
               lambda step: _meet(flags, dots, 0, step, 0.0, alive))
    finally:
        flags[0] = -1
        with suppress(ChildProcessError):  # reaped if it died mid-run
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, cpus)


def step_count(t_max, dt):
    """Steps of dt a run takes to cover t_max."""
    return int(np.ceil(t_max / dt))


def central_difference_run(K, M_lumped, bcs, dt, t_max, probes,
                           divergence_limit=None):
    """Explicit central-difference run of M a + K u = 0 under the schedule.

    K is a square ``eig.Csr`` of real, finite entries, one row per lumped
    mass entry (``eig.check_stiffness``); probes are global dof indices
    recorded every step.  Divergence (any |u| beyond divergence_limit, None
    or >= 0, or a non-finite u) aborts and flags the result.  A run whose
    time and probe history would not fit in physical memory is refused
    before anything is allocated.  The run keeps w = dt v at the half step
    and folds s = -dt^2/m (0 on the fixed and driven dofs) into K's rows
    once: a step is u = u_prev + w and one ``csr_matvec`` adding those rows
    of K @ u into w.  A fixed dof keeps w = 0 and so u = 0, and the exact
    max|u| check runs only when u @ u > limit^2 / 4.

    With n_steps * K.nnz >= PARALLEL_MIN_WORK, two allowed CPUs, x86-64
    (whose store order publishes u before the flag after it) and no other
    thread (safe to fork), a forked helper owns the dofs from row r0 of
    ``_banded``'s order, this process the rest and every driven dof.  Each,
    pinned to its own CPU, steps its own rows through ``_steps``, bit for
    bit; at one barrier per step this process alone takes the pulse, the
    probes and divergence (u @ u sums the slices' partial dots).
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError("time step must be positive and finite")
    if not (t_max >= 0.0 and np.isfinite(t_max / dt)):
        raise ValidationError("t_max must be non-negative and span a "
                              "finite number of steps")
    if divergence_limit is not None and not divergence_limit >= 0.0:
        raise ValidationError("divergence limit must be None or >= 0")
    ml = np.asarray(M_lumped, float)
    if ml.ndim != 1 or not np.all(ml > 0.0):
        raise ValidationError("lumped mass must be a positive vector")
    ndof = len(ml)
    eig.check_stiffness(K, ndof)
    if not np.isfinite(K.data).all():
        raise ValidationError("K has a non-finite entry")
    probes, fixed, driven = [eig.dof_ids(d, name, ndof) for d, name in zip(
        (probes, bcs.fixed, bcs.driven), ("probe", "fixed", "driven"))]
    n_steps = step_count(t_max, dt)
    need = (n_steps + 1) * (1 + len(probes)) * 8
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ValidationError(
            f"{n_steps} steps need {need / 2 ** 30:.3g} GiB of time and "
            f"probe history, more than the {memory / 2 ** 30:.3g} GiB of "
            "physical memory")
    scale = -(dt * dt) / ml
    scale[fixed] = scale[driven] = 0.0
    times = np.arange(n_steps + 1, dtype=float)
    times *= dt
    history = np.zeros((n_steps + 1, len(probes)))
    # u @ u <= gate proves max|u| < limit; the gate is off (-1) where
    # limit^2 / 4 would overflow or underflow.
    limit = 0.0 if divergence_limit is None else divergence_limit
    gate = 0.25 * limit * limit
    gate = gate if np.finfo(float).tiny <= gate < np.inf else -1.0
    diverged_step = None
    split = (n_steps * K.nnz >= PARALLEL_MIN_WORK
             and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) >= 2
             and platform.machine() == "x86_64"
             and threading.active_count() == 1)
    start = time.perf_counter()
    with _domains(K, scale, driven, n_steps, split) as (steps, pos, meet):
        driven, probes = pos[driven], pos[probes]
        for step, u, own in steps:
            u[driven] = bcs.pulse(float(times[step]))
            dot = meet(step)
            history[step] = u[probes]
            if divergence_limit is not None and not (own @ own + dot <= gate):
                peak = float(np.abs(u).max())
                if not np.isfinite(peak) or peak > limit:
                    diverged_step = step
                    times = times[:step + 1]
                    history = history[:step + 1]
                    break
    wall = time.perf_counter() - start
    return RunResult(times=times, probe_history=history,
                     steps=len(times) - 1,
                     diverged=diverged_step is not None,
                     diverged_step=diverged_step, wall_seconds=wall,
                     processes=1 + split)


# ---------------------------------------------------------------------------
# Tapered-beam experiment


def beam_boundary_dofs(mesh):
    """(fixed dofs, driven x-dofs) for the beam: clamp x=0, drive x=4.  A
    mesh with no node at either end is not a beam and is refused."""
    n = mesh.num_vertices
    x = mesh.vertices[:, 0]
    left = np.where(np.abs(x) < 1e-12)[0]
    right = np.where(np.abs(x - 4.0) < 1e-12)[0]
    if not (left.size and right.size):
        raise ValidationError("beam boundary conditions need nodes at "
                              "x = 0 and x = 4 (not a beam mesh)")
    fixed = np.concatenate([left, left + n, left + 2 * n,
                            right + n, right + 2 * n])
    driven = right.copy()
    return np.unique(fixed), driven


def find_probe_dof(mesh, point):
    """(x dof of the node nearest `point`, is the node at `point`?)"""
    d2 = ((mesh.vertices - np.asarray(point)) ** 2).sum(axis=1)
    node = int(np.argmin(d2))
    return node, d2[node] < 1e-20


@dataclass
class BeamExperiment:
    method: str
    dt: float
    omega_star: float
    result: RunResult
    t_norm: np.ndarray
    u_norm: np.ndarray


@dataclass
class BeamProblem:
    """A beam mesh under one method: the element bound's report, K and
    lumped M of one sweep (not kept: ``beam_problem`` derives from it), and
    the boundary dofs.  The global omega and transit time are on demand."""

    mesh: object
    method: str
    report: eig.TimeStepReport
    K: eig.Csr
    M: np.ndarray
    fixed: np.ndarray
    driven: np.ndarray

    @property
    def constrained(self):
        """Fixed and driven dofs (a dof may appear twice)."""
        return np.concatenate([self.fixed, self.driven])

    @cached_property
    def omega_global(self):
        return eig.global_max_frequency(self.K, self.M, self.constrained)[0]

    @property
    def transit(self):
        """Time a longitudinal wave takes to cross the 4 m beam."""
        m = self.mesh.material
        return 4.0 / np.sqrt(m.youngs_modulus / m.density)

    def dt_crit(self, basis):
        """Critical step on the "element" or the "global" bound."""
        if basis == "element":
            return self.report.dt_crit
        if basis == "global":
            return eig.critical_step(self.omega_global)
        raise ValidationError(f"unknown dt basis {basis!r}")


def beam_problem(mesh, method, alpha0="auto"):
    """Build a BeamProblem from one element sweep of the mesh."""
    systems = eig.element_systems(mesh, method, alpha0)
    report = eig.time_step_report(systems)
    K, M = assemble_systems(mesh, systems)
    return BeamProblem(mesh, method, report, K, M, *beam_boundary_dofs(mesh))


def beam_pulse_duration(case):
    """Pulse duration of the case, the same for every method and preset."""
    if case not in BEAM_PULSE_DURATION:
        raise ValidationError(f"unknown beam case {case!r}")
    return BEAM_PULSE_DURATION[case]


def tapered_beam_experiment(case, method, dt_factor=BEAM_DT_FACTOR,
                            dt_basis="element", t_max_transits=BEAM_TRANSITS,
                            alpha0="auto", tau=None):
    """Run the pulse-loaded beam case and return the normalized history.

    dt_basis "element" uses the element-eigenvalue bound 2/max_E omega_E;
    "global" uses the assembled-eigenproblem bound (the element bound can be
    hopelessly conservative on nearly degenerate meshes).  tau=None takes
    the case's pulse duration.
    """
    from . import benchmarks
    if tau is None or case not in BEAM_PULSE_DURATION:
        tau = beam_pulse_duration(case)  # refuses an unknown case
    problem = beam_problem(
        benchmarks.gen_benchmark("beam" + case, variant=method), method,
        alpha0)
    dt = dt_factor * problem.dt_crit(dt_basis)
    return run_beam(problem, dt, t_max_transits, tau)


def run_beam(problem, dt, t_max_transits, tau):
    """The pulse-loaded central-difference run of a beam problem: the
    pulse of duration tau drives the x = 4 end for t_max_transits transit
    times, probed at BEAM_PROBE, with the history normalized by the
    transit time and the pulse peak."""
    bcs = BcSchedule(fixed=problem.fixed, driven=problem.driven, tau=tau)
    probe_dof, exact = find_probe_dof(problem.mesh, BEAM_PROBE)
    if not exact:
        import warnings
        warnings.warn("probe point is not a mesh node; using nearest node")
    result = central_difference_run(
        problem.K, problem.M, bcs, dt, t_max_transits * problem.transit,
        [probe_dof], divergence_limit=1e3 * BEAM_PULSE_AMPLITUDE)
    return BeamExperiment(
        method=problem.method,
        dt=dt,
        omega_star=problem.report.omega_star,
        result=result,
        t_norm=result.times / problem.transit,
        u_norm=result.probe_history[:, 0] / BEAM_PULSE_AMPLITUDE,
    )
