"""Import surface: what a fresh interpreter loads, and `python -m polyvem`.

Each test starts its own interpreter, pointed at this checkout's sources,
so that no module another test imported can hide a load.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_python_m_polyvem_version():
    proc = _python("-m", "polyvem", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("polyvem 0.1.0")
