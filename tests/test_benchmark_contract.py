"""The library surface the benchmark in ``perfbench/`` depends on.

``perfbench/workloads.py`` runs the beams through ``tapered_beam_experiment``
with keyword arguments and reads a few fields of its result;
``perfbench/tracing.py`` replaces module attributes of ``eig`` and
``dynamics`` with wrappers and reads some of their arguments and return
values.  These tests pin that surface on short case-A runs, by wrapping the
same module attributes, so that a change which would break the benchmark
fails here first.
"""

import numpy as np
import pytest

from polyvem import dynamics, eig


@pytest.fixture
def calls(monkeypatch):
    """{name: [(args, kwargs, out), ...]} of the module attributes the
    benchmark wraps, recorded through those attributes."""
    record = {}
    for module, name in ((dynamics, "central_difference_run"),
                         (dynamics, "run_beam"),
                         (dynamics, "beam_pulse_duration"),
                         (eig, "global_max_frequency")):
        inner = getattr(module, name)

        def wrapper(*args, _inner=inner, _name=name, **kwargs):
            out = _inner(*args, **kwargs)
            record.setdefault(_name, []).append((args, kwargs, out))
            return out

        monkeypatch.setattr(module, name, wrapper)
    return record


def _check_run(exp, calls):
    # The result fields the workload checker reads.
    assert np.isfinite(exp.omega_star) and exp.omega_star > 0.0
    assert np.isfinite(exp.dt) and exp.dt > 0.0
    assert not exp.result.diverged
    assert exp.result.steps > 0
    assert len(exp.u_norm) == exp.result.steps + 1
    # One time loop, with the assembled K first: the tracer counts the
    # bytes of K's CSR arrays per step and the steps of the result.
    [(args, _, out)] = calls["central_difference_run"]
    K = args[0]
    assert K.shape == (K.shape[0], K.shape[0])
    assert all(a.nbytes > 0 for a in (K.data, K.indices, K.indptr))
    assert out.steps == exp.result.steps
    assert len(calls["run_beam"]) == 1


def test_element_route_surface(calls):
    # The beam-vem workload's call.
    exp = dynamics.tapered_beam_experiment(
        case="A", method="vem", dt_factor=0.9, dt_basis="element",
        t_max_transits=0.01)
    _check_run(exp, calls)
    assert exp.dt == 0.9 * (2.0 / exp.omega_star)


def test_global_route_surface(calls):
    # The beam-fem workload's call: the pulse duration passed as tau, the
    # step from the global bound, whose (omega, converged, iterations) the
    # workload and the tracer read.
    tau = dynamics.beam_pulse_duration("A")
    calls.clear()
    exp = dynamics.tapered_beam_experiment(
        case="A", method="fem", dt_factor=0.9, dt_basis="global", tau=tau,
        t_max_transits=0.01)
    _check_run(exp, calls)
    assert "beam_pulse_duration" not in calls
    (_, _, out), = calls["global_max_frequency"]
    omega, converged, iterations = out
    assert converged and iterations == int(iterations) > 0
    assert exp.dt == 0.9 * (2.0 / omega)


def test_pulse_duration_is_looked_up_when_tau_is_not_given(calls):
    exp = dynamics.tapered_beam_experiment(
        case="A", method="fem", dt_basis="global", t_max_transits=0.01)
    _check_run(exp, calls)
    assert len(calls["beam_pulse_duration"]) == 1
