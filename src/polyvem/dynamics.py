"""Global assembly, explicit central-difference integration, and the
tapered-beam experiment driver.

Assembly reduces an element sweep (``eig.element_systems``: stacked element
groups), scattering each group with array operations; a beam problem
(``beam_problem``) builds one sweep per beam mesh and feeds it to both the
time-step bound and the assembly.  The integrator is the standard half-step-velocity
central-difference update with a diagonal mass; fixed dofs are held at rest
and driven dofs are overwritten each step.  The beam driver reproduces the
pulse-loaded tapered-beam runs: fixed at x = 0, an axial quartic pulse at
x = 4, histories probed mid-beam and reported in normalized time and
displacement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import eig
from .mesh import ValidationError

BEAM_PULSE_AMPLITUDE = 1.0 / 16.0  # peak of (t/tau)^4 - 2(t/tau)^3 + (t/tau)^2
BEAM_PROBE = (2.0, 0.5, 0.0)  # mid-beam node whose x displacement is recorded


def assemble(mesh, method, alpha0="unit", lumping="auto"):
    """Assembled stiffness (CSR) and lumped mass vector for a mesh."""
    return assemble_systems(
        mesh, eig.element_systems(mesh, method, alpha0, lumping))


def assemble_systems(mesh, systems):
    """Scatter-add an element sweep into the global stiffness (CSR) and
    lumped mass vector.  Each group is scattered with array operations
    into slots laid out in element order, so every shared entry sums its
    element terms in element order."""
    dim, n = mesh.dimension, mesh.num_vertices
    size = np.zeros(mesh.num_elements, np.int64)
    for ids, _, _, ml, _ in systems:
        size[ids] = ml.shape[1]
    start, start2 = np.cumsum(size) - size, np.cumsum(size ** 2) - size ** 2
    dofs, masses = np.empty(size.sum(), np.int64), np.empty(size.sum())
    rows, cols = np.empty((2, (size ** 2).sum()), np.int64)
    vals = np.empty(len(rows))
    for ids, nodes, K, ml, _ in systems:
        n_el, dn = ml.shape
        gdof = (np.arange(dim)[:, None] * n + nodes[:, None, :]).reshape(
            n_el, dn)
        at = start[ids][:, None] + np.arange(dn)
        dofs[at], masses[at] = gdof, ml
        at = start2[ids][:, None] + np.arange(dn * dn)
        rows[at], cols[at] = np.repeat(gdof, dn, axis=1), np.tile(gdof, dn)
        vals[at] = K.reshape(n_el, -1)
    K = sp.coo_matrix((vals, (rows, cols)), shape=(dim * n, dim * n)).tocsr()
    K.eliminate_zeros()  # exact zeros: summed terms that cancel
    return K, np.bincount(dofs, masses, minlength=dim * n)


@dataclass
class BcSchedule:
    """Fixed dofs plus driven dofs following a smooth finite pulse.

    The pulse g(t) = (t/tau)^4 - 2 (t/tau)^3 + (t/tau)^2 for t < tau and 0
    afterwards is C1 at both ends; its peak value is 1/16.
    """

    fixed: np.ndarray
    driven: np.ndarray
    tau: float
    amplitude: float = 1.0

    def pulse(self, t):
        if t >= self.tau or t <= 0.0:
            return 0.0
        s = t / self.tau
        return self.amplitude * (s ** 4 - 2.0 * s ** 3 + s ** 2)


@dataclass
class RunResult:
    times: np.ndarray
    probe_history: np.ndarray    # (steps+1, n_probes)
    steps: int
    dt: float
    diverged: bool
    diverged_step: int | None
    wall_seconds: float


def central_difference_run(K, M_lumped, bcs, dt, t_max, probes,
                           divergence_limit=None):
    """Explicit central-difference run of M a + K u = 0 under the schedule.

    probes are global dof indices recorded every step.  Divergence (any
    |u| beyond divergence_limit, or a non-finite u) aborts and flags the
    result.  A step is one ``K @ u`` (an assembled K stores no zeros) and
    in-place updates of preallocated vectors: -1/m is one scale that is 0
    on the fixed and driven dofs, a fixed dof keeps v_half = 0 and so
    u = 0, and the exact max|u| check runs only when u @ u > limit^2 / 4.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValidationError("time step must be positive and finite")
    if not (t_max >= 0.0 and np.isfinite(t_max / dt)):
        raise ValidationError("t_max must be non-negative and span a "
                              "finite number of steps")
    ndof = K.shape[0]
    ml = np.asarray(M_lumped, float)
    if ml.shape != (ndof,) or not np.all(ml > 0.0):
        raise ValidationError(f"lumped mass needs {ndof} positive entries")
    probes, fixed, driven = dofs = [np.asarray(d, dtype=int)
                                    for d in (probes, bcs.fixed, bcs.driven)]
    for name, d in zip(("probe", "fixed", "driven"), dofs):
        if d.size and not (0 <= d.min() and d.max() < ndof):
            raise ValidationError(f"{name} dof out of range [0, {ndof})")
    scale = -1.0 / ml
    scale[fixed] = 0.0
    scale[driven] = 0.0
    n_steps = int(np.ceil(t_max / dt))
    times = np.arange(n_steps + 1, dtype=float)
    times *= dt
    history = np.zeros((n_steps + 1, len(probes)))
    u, work = np.zeros(ndof), np.empty(ndof)
    v_half = 0.5 * dt * ((K @ u) * scale)  # v at t = dt/2 from rest
    # u @ u <= gate proves max|u| < limit; the gate is off (-1) where
    # limit^2 / 4 would overflow or underflow.
    limit = 0.0 if divergence_limit is None else divergence_limit
    gate = 0.25 * limit * limit
    gate = gate if np.finfo(float).tiny <= gate < np.inf else -1.0
    diverged_step = None
    start = time.perf_counter()
    for step in range(1, n_steps + 1):
        np.add(u, np.multiply(v_half, dt, out=work), out=u)
        u[driven] = bcs.pulse(float(times[step]))
        np.multiply(K @ u, scale, out=work)
        np.add(v_half, np.multiply(work, dt, out=work), out=v_half)
        history[step] = u[probes]
        if divergence_limit is not None and not (u @ u <= gate):
            peak = float(np.abs(u).max())
            if not np.isfinite(peak) or peak > limit:
                diverged_step = step
                times = times[:step + 1]
                history = history[:step + 1]
                break
    wall = time.perf_counter() - start
    return RunResult(times=times, probe_history=history,
                     steps=len(times) - 1, dt=dt,
                     diverged=diverged_step is not None,
                     diverged_step=diverged_step, wall_seconds=wall)


# ---------------------------------------------------------------------------
# Tapered-beam experiment


def beam_boundary_dofs(mesh):
    """(fixed dofs, driven x-dofs) for the beam: clamp x=0, drive x=4."""
    n = mesh.num_vertices
    x = mesh.vertices[:, 0]
    left = np.where(np.abs(x) < 1e-12)[0]
    right = np.where(np.abs(x - 4.0) < 1e-12)[0]
    fixed = np.concatenate([left, left + n, left + 2 * n,
                            right + n, right + 2 * n])
    driven = right.copy()
    return np.unique(fixed), driven


def find_probe_dof(mesh, point, comp=0):
    """Dof index of the node nearest `point`; warns when not coincident."""
    d2 = ((mesh.vertices - np.asarray(point)) ** 2).sum(axis=1)
    node = int(np.argmin(d2))
    exact = d2[node] < 1e-20
    return comp * mesh.num_vertices + node, exact


@dataclass
class BeamExperiment:
    mesh: object
    method: str
    dt: float
    dt_crit_element: float
    omega_star: float
    result: RunResult
    t_norm: np.ndarray
    u_norm: np.ndarray
    probe_exact: bool


@dataclass
class BeamProblem:
    """A beam mesh under one method: its element sweep, assembled K and
    lumped M, and the beam's boundary dofs.  The element bound, the global
    omega and the wave transit time are derived on demand."""

    mesh: object
    method: str
    systems: list
    K: object
    M: np.ndarray
    fixed: np.ndarray
    driven: np.ndarray

    @cached_property
    def report(self):
        return eig.time_step_report(self.systems, self.method)

    @property
    def constrained(self):
        """Fixed and driven dofs (a dof may appear twice)."""
        return np.concatenate([self.fixed, self.driven])

    @property
    def pulse_duration(self):
        """tau = 100 x this problem's element bound: the case's pulse
        duration when the problem is the VEM one (beam_pulse_duration)."""
        return 100.0 * self.report.dt_crit

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
            return 2.0 / self.omega_global
        raise ValidationError(f"unknown dt basis {basis!r}")

    def run(self, dt, t_max_transits, tau=None):
        """The pulse-loaded run: the pulse of duration tau drives the x = 4
        end for t_max_transits transit times.  tau=None takes this
        problem's pulse_duration."""
        if tau is None:
            tau = self.pulse_duration
        bcs = BcSchedule(fixed=self.fixed, driven=self.driven, tau=tau)
        return run_beam(self.mesh, self.K, self.M, bcs, dt,
                        t_max_transits * self.transit, self.transit,
                        report=self.report, method=self.method)


def beam_problem(mesh, method, alpha0="auto", lumping="auto"):
    """Build a BeamProblem from one element sweep of the mesh."""
    systems = eig.element_systems(mesh, method, alpha0, lumping)
    K, M = assemble_systems(mesh, systems)
    return BeamProblem(mesh, method, systems, K, M, *beam_boundary_dofs(mesh))


def beam_pulse_duration(case, alpha0="auto", lumping="auto"):
    """The pulse duration of the case: the pulse_duration of its VEM beam
    problem.

    The pulse duration is part of the problem statement, so FEM and VEM
    runs of the same case share it.
    """
    from . import benchmarks
    mesh = benchmarks.gen_benchmark("beam" + case, variant="vem")
    return beam_problem(mesh, "vem", alpha0, lumping).pulse_duration


def tapered_beam_experiment(case, method, dt_factor=0.9, dt_basis="element",
                            t_max_transits=3.0, alpha0="auto",
                            lumping="auto", tau=None):
    """Run the pulse-loaded beam case and return the normalized history.

    dt_basis "element" uses the element-eigenvalue bound 2/max_E omega_E;
    "global" uses the assembled-eigenproblem bound (the element bound can be
    hopelessly conservative on nearly degenerate meshes).  tau=None takes
    the pulse duration of beam_pulse_duration.
    """
    from . import benchmarks
    if case not in ("A", "B"):
        raise ValidationError(f"unknown beam case {case!r}")
    problem = beam_problem(
        benchmarks.gen_benchmark("beam" + case, variant=method), method,
        alpha0, lumping)
    dt = dt_factor * problem.dt_crit(dt_basis)
    if tau is None and method == "fem":
        tau = beam_pulse_duration(case, alpha0=alpha0, lumping=lumping)
    return problem.run(dt, t_max_transits, tau)


def run_beam(mesh, K, M, bcs, dt, t_max, transit, report, method):
    """Central-difference beam run, probed at BEAM_PROBE, with the history
    normalized by the transit time and the pulse peak."""
    probe_dof, exact = find_probe_dof(mesh, BEAM_PROBE, comp=0)
    if not exact:
        import warnings
        warnings.warn("probe point is not a mesh node; using nearest node")
    limit = 1e3 * BEAM_PULSE_AMPLITUDE * bcs.amplitude
    result = central_difference_run(K, M, bcs, dt, t_max, [probe_dof],
                                    divergence_limit=limit)
    t_norm = result.times / transit
    u_norm = result.probe_history[:, 0] / (BEAM_PULSE_AMPLITUDE
                                           * bcs.amplitude)
    return BeamExperiment(
        mesh=mesh,
        method=method,
        dt=dt,
        dt_crit_element=report.dt_crit,
        omega_star=report.omega_star,
        result=result,
        t_norm=t_norm,
        u_norm=u_norm,
        probe_exact=exact,
    )


def write_history_csv(experiment, path):
    with open(path, "w") as fh:
        fh.write("t_norm,u_x_norm\n")
        for t, u in zip(experiment.t_norm, experiment.u_norm):
            fh.write(f"{t:.17g},{u:.17g}\n")


def run_summary(experiment):
    return {
        "method": experiment.method,
        "steps": experiment.result.steps,
        "dt": experiment.dt,
        "omega_star": experiment.omega_star,
        "diverged": experiment.result.diverged,
        "wall_seconds": experiment.result.wall_seconds,
    }
