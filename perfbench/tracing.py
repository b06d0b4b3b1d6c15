"""Span tracing of polyvem's layers from outside the package.

The tracer replaces chosen functions and methods of the polyvem modules
with timing wrappers, in every module namespace that binds them, so that
calls made inside the package (``eig.element_system`` calling
``vem.element_matrices``, ``quality.mesh_report`` calling ``classify``) are
caught as well as the workload's own calls.  Nothing under ``src/`` is
edited.

Spans stay in memory as tuples ``(name, start, end, parent)`` and are
written out once, at the end of a run.  A layer's self time is the sum,
over its spans, of the span's duration minus the durations of its direct
child spans; the self times of all spans add up to the time covered by
root spans, and the rest of a workload's wall time is the unwrapped
remainder (the workload's own glue and output checks).
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "polyvem"


def _assembled(counts, args, kwargs, out):
    counts["dynamics.assemble_calls"] += 1
    counts["dynamics.assembled_nnz"] += int(out[0].nnz)


def _jacobi_stack(counts, args, kwargs, out):
    shape = getattr(args[0], "shape", None) or (len(args[0]),) * 2
    batch, n = (1, shape[0]) if len(shape) == 2 else (shape[0], shape[1])
    counts["eig.eigenproblems"] += batch
    counts["eig.eig_flops_computed"] += batch * n ** 3


def _global_iters(counts, args, kwargs, out):
    counts["eig.global_iters"] += int(out[2])


def _run_steps(counts, args, kwargs, out):
    # Bytes one step must stream at least once: the CSR arrays of K and the
    # four length-ndof vectors u, v_half, a and 1/M (computed, not measured).
    K = args[0]
    per_step = (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
                + 4 * K.shape[0] * 8)
    counts["dynamics.steps"] += int(out.steps)
    counts["dynamics.step_bytes_total"] += per_step * int(out.steps)


def _merged_groups(counts, args, kwargs, out):
    mapping = out[1]
    counts["agglomerate.merged_groups"] += sum(
        1 for members in mapping.values() if len(members) > 1)


def _one_merge(counts, args, kwargs, out):
    counts["agglomerate.merged_groups"] += 1


def _io_bytes(position):
    def count(counts, args, kwargs, out):
        path = kwargs.get("path", args[position] if len(args) > position
                          else None)
        counts["mesh.io_bytes"] += os.path.getsize(path)
    return count


def _calls(key):
    def count(counts, args, kwargs, out):
        counts[key] += 1
    return count


# (module, attribute, span name, counter).  An attribute "Class.method"
# wraps the method on the class, which every namespace shares.  Helpers
# called once per face or per monomial (triangle_area_normal,
# monomial_value, ...) are left unwrapped on purpose: a wrapper there would
# cost more than the call, and their time lands in the caller's self time.
LAYERS = (
    ("benchmarks", "gen_benchmark", "benchmarks.gen",
     _calls("benchmarks.gen_calls")),
    ("mesh", "validate_mesh", "mesh.validate",
     _calls("mesh.validate_calls")),
    ("mesh", "validate_element", "mesh.validate",
     _calls("mesh.validated_elements")),
    ("mesh", "extrude", "mesh.extrude", None),
    ("mesh", "split_prisms_to_tets", "mesh.split", None),
    ("mesh", "element_geometry", "mesh.geometry",
     _calls("mesh.geometry_calls")),
    ("mesh", "is_convex", "mesh.convexity", None),
    ("mesh", "save_mesh", "mesh.io", _io_bytes(1)),
    ("mesh", "load_mesh", "mesh.io", _io_bytes(0)),
    ("hni", "PolyhedronIntegrator.__init__", "hni.integrator",
     _calls("hni.integrators")),
    ("hni", "PolygonIntegrator.__init__", "hni.integrator",
     _calls("hni.integrators")),
    ("hni", "PolyhedronIntegrator.integrate", "hni.integrator", None),
    ("hni", "PolygonIntegrator.integrate", "hni.integrator", None),
    ("hni", "scaled_moment_table", "hni.integrator", None),
    ("quality", "mesh_report", "quality.classify", None),
    ("quality", "classify", "quality.classify", _calls("quality.elements")),
    ("agglomerate", "auto_agglomerate", "agglomerate.auto", _merged_groups),
    ("agglomerate", "merge_groups", "agglomerate.merge", _merged_groups),
    ("agglomerate", "merge", "agglomerate.merge", _one_merge),
    ("vem", "element_matrices", "vem.element_matrices",
     _calls("vem.elements")),
    ("fem", "element_matrices", "fem.element_matrices",
     _calls("fem.elements")),
    ("eig", "critical_dt", "eig.critical_dt", _calls("eig.critical_dt_calls")),
    ("eig", "element_system", "eig.element_system", None),
    ("eig", "jacobi_eigenvalues_batch", "eig.jacobi", _jacobi_stack),
    ("eig", "jacobi_eigenvalues", "eig.jacobi", _jacobi_stack),
    ("eig", "global_max_frequency", "eig.global", _global_iters),
    ("dynamics", "assemble", "dynamics.assemble", _assembled),
    ("dynamics", "central_difference_run", "dynamics.loop", _run_steps),
    ("dynamics", "beam_pulse_duration", "dynamics.pulse_duration", None),
    ("dynamics", "tapered_beam_experiment", "dynamics.experiment", None),
    ("dynamics", "run_beam", "dynamics.experiment", None),
)


class Tracer:
    """Wraps polyvem layer functions and records one span per call."""

    def __init__(self, run_id, layers=LAYERS):
        self.run_id = run_id
        self.layers = layers
        self.spans = []
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = [-1]
        self._undo = []

    def _wrap(self, fn, name, counter):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function; names that no longer exist are
        collected in ``self.missing`` instead of raising."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr, name, counter in self.layers:
            full = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(full)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = None if owner is None else owner.__dict__.get(method)
                if not callable(fn):
                    self.missing.append(full)
                    continue
                self._set(owner, method, self._wrap(fn, name, counter))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(full)
                continue
            wrapper = self._wrap(fn, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapper)
        return self.missing

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self):
        """{span name: self seconds}, plus the total covered by root spans."""
        child = [0.0] * len(self.spans)
        roots = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                roots += end - start
        out = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out), roots

    def total(self, name):
        """Summed duration of every span with this name."""
        return sum(end - start for n, start, end, _ in self.spans
                   if n == name)

    def write(self, path):
        """Write all spans once, gzip-compressed JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        record = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
            "missing": self.missing,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(record, fh)
