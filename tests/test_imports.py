"""Import surface: what a fresh interpreter loads, and `python -m polyvem`.

Each test starts its own interpreter, pointed at this checkout's sources,
so that no module another test imported can hide a load.
"""

import os
import subprocess
import sys
from pathlib import Path

from conftest import helper_capable

SRC = Path(__file__).resolve().parents[1] / "src"

# One catalog case (both variants, a JSON round trip, the element bound,
# quality and auto-agglomeration), then one global assembly.
COLD_START = """
import os, sys, tempfile
import polyvem, polyvem.cli
from polyvem import agglomerate, benchmarks, dynamics, eig, quality
from polyvem import mesh as meshmod

meshes = {}
with tempfile.TemporaryDirectory() as tmp:
    for variant in ("fem", "vem"):
        path = os.path.join(tmp, variant + ".json")
        meshmod.save_mesh(benchmarks.gen_benchmark("kite", 1e-5, variant),
                          path)
        meshes[variant] = meshmod.load_mesh(path)
        eig.critical_dt(meshes[variant], variant, alpha0="unit")
quality.mesh_report(meshes["fem"])
merged, _, _ = agglomerate.auto_agglomerate(meshes["fem"])
eig.critical_dt(merged, "vem", alpha0="unit")
print("scipy.sparse" in sys.modules)
K, M = dynamics.assemble(merged, "vem", alpha0="unit")
print("scipy.sparse" in sys.modules, K.format)
"""


# A wedge run forced onto the split step: its breadth-first order is numpy
# only, so scipy.sparse.csgraph (~11 MB) stays unloaded.
SPLIT_RUN = """
import sys
import numpy as np
from polyvem import benchmarks, dynamics
dynamics.PARALLEL_MIN_WORK = 0
mesh = benchmarks.gen_benchmark("wedge", 1e-1, "vem")
K, M = dynamics.assemble(mesh, "vem", alpha0="unit")
bcs = dynamics.BcSchedule(fixed=np.array([0]), driven=np.array([1]),
                          tau=1e-5)
res = dynamics.central_difference_run(K, M, bcs, 1e-7, 1e-5, [2])
print(res.processes, "scipy.sparse.csgraph" in sys.modules)
"""


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_element_studies_do_not_load_scipy_sparse():
    proc = _python("-c", COLD_START)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "csr"]


def test_import_does_not_load_hashlib():
    # hashlib (~3 ms of import) is loaded by config_hash, its one user.
    proc = _python("-c", "import sys, polyvem, polyvem.cli; "
                   "print('hashlib' in sys.modules); "
                   "polyvem.config.RunConfig().config_hash(); "
                   "print('hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_split_run_does_not_load_csgraph():
    proc = _python("-c", SPLIT_RUN)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2" if helper_capable() else "1", "False"]


def test_python_m_polyvem_version():
    proc = _python("-m", "polyvem", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("polyvem 0.1.0")
