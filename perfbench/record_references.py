"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_references.py

Writes ``references/beams.json`` (omega_star, dt, steps and the global
omega of both beam workloads), ``references/<beam>-u_norm.npy`` (the
normalized probe histories) and ``references/catalog.json`` (the three
omega_star values of every table-grid catalog case).  Run it only when a
change is meant to alter polyvem's numbers; the references record the
outputs of the commit that defined the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import numpy as np

import workloads
from workloads import REFERENCES, TABLE_EPS, dynamics


def main():
    tau = dynamics.beam_pulse_duration("A")
    if tau != workloads.TAU_A:
        print(f"TAU_A in workloads.py is {workloads.TAU_A!r}, but "
              f"beam_pulse_duration('A') gives {tau!r}", file=sys.stderr)
        return 1
    REFERENCES.mkdir(exist_ok=True)
    beams = {}
    for name in workloads.BEAMS:
        out = workloads.beam_outputs(name)
        np.save(REFERENCES / f"{name}-u_norm.npy", out.pop("u_norm"))
        out.pop("diverged")
        beams[name] = out
        print(name, out)
    (REFERENCES / "beams.json").write_text(json.dumps(beams, indent=1) + "\n")

    workloads.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=workloads.OUT_DIR)
    cases = {}
    try:
        for family, values in TABLE_EPS.items():
            for eps in values:
                out = workloads.case_outputs(family, eps, workdir)
                cases[workloads.case_key(family, eps)] = {
                    key: out[key] for key in ("fem", "vem", "agglomerated")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    catalog = {"alpha0": "unit", "cases": cases}
    (REFERENCES / "catalog.json").write_text(
        json.dumps(catalog, indent=1) + "\n")
    print(f"{len(cases)} catalog cases recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
