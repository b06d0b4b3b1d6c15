"""Mutated catalog mesh files: each is refused by name or gets a step.

Each example takes the file of a catalog mesh (one of the seven element
families at eps 1e-1, either variant), mutates it (a coordinate, a vertex
id, the orientation of a loop or faces, a dropped face or loop vertex, a
duplicated element, or a material value, or nothing), rescales it by 10**k
for k in [-150, 150], and runs it through ``load_mesh``, ``critical_dt``,
``mesh_report`` and ``auto_agglomerate``.  Every mutant must be refused in
the ``MeshError`` family, naming an element when the mutation was to one,
or get a finite positive dt with the other two finishing; a duplicated
element overlaps its original and is always refused.  The CLI twin runs a
sample of the same mutants through ``cli.main`` (``timestep`` under both
methods, ``quality``, ``agglomerate --auto``): each exits 0, 1 or 2, and
a failure writes one stderr line, ``error: ...`` or ``numerical failure:
...``.  Warnings are errors in this suite, so an overflow warning on the
way fails too, as does any exception that escapes ``cli.main``.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyvem import (agglomerate, benchmarks, cli, eig, mesh as meshmod,
                     quality)
from polyvem.mesh import MeshError

# (family, variant, method): fem files run both methods, vem files vem.
SOURCES = [(family, variant, method)
           for family in benchmarks.BENCHMARK_NAMES[:7]
           for variant, method in (("fem", "fem"), ("fem", "vem"),
                                   ("vem", "vem"))]
# Mutations of one element, whose refusal must name an element.
ELEMENT_KINDS = ("vertex id", "orientation", "dropped face", "duplicate")
KINDS = ELEMENT_KINDS + ("coordinate", "material", "none")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """{(family, variant): the parsed mesh file}, and the mutant's path."""
    folder = tmp_path_factory.mktemp("fuzz")
    parsed = {}
    for family, variant, _ in SOURCES:
        path = folder / f"{family}-{variant}.json"
        meshmod.save_mesh(benchmarks.gen_benchmark(family, 1e-1, variant),
                          path)
        parsed[family, variant] = json.loads(path.read_text())
    return parsed, folder / "mutant.json"


def _mutate(data, kind, rng):
    """Apply one mutation of `kind` to the parsed file `data` in place."""
    elements, vertices = data["elements"], data["vertices"]
    el = elements[rng.integers(len(elements))]
    key = "loop" if "loop" in el else "faces"
    if kind == "coordinate":
        row = vertices[rng.integers(len(vertices))]
        j = rng.integers(len(row))
        row[j] = [row[j] + rng.normal() * 10.0 ** rng.uniform(-16, 1),
                  math.nan, math.inf, 0.0][rng.integers(4)]
    elif kind == "vertex id":
        new = [int(rng.integers(len(vertices))), len(vertices), -1,
               0.5][rng.integers(4)]
        ids = el[key] if key == "loop" else el[key][
            rng.integers(len(el[key]))]
        ids[rng.integers(len(ids))] = new
        if "nodes" in el and rng.random() < 0.5:
            el["nodes"][rng.integers(len(el["nodes"]))] = new
    elif kind == "orientation":
        faces = [el[key]] if key == "loop" else (
            el[key] if rng.random() < 0.5
            else [el[key][rng.integers(len(el[key]))]])
        for ids in faces:
            ids.reverse()
    elif kind == "dropped face":
        del el[key][rng.integers(len(el[key]))]
    elif kind == "duplicate":
        elements.insert(rng.integers(len(elements) + 1),
                        json.loads(json.dumps(el)))
    elif kind == "material":
        data["material"][["E", "nu", "rho"][rng.integers(3)]] = [
            -1.0, 0.0, 0.5, 0.4999999, -0.99, 1e-300, 1e300, math.inf,
            math.nan, 10.0 ** rng.uniform(-30, 30)][rng.integers(10)]


def _write_mutant(files, source, kind, seed, exponent):
    """Write the mutant of the source's file to the fixture's path; return
    the mutated data."""
    parsed, path = files
    data = json.loads(json.dumps(parsed[source[:2]]))
    _mutate(data, kind, np.random.default_rng(seed))
    data["vertices"] = [[x * 10.0 ** exponent for x in row]
                        for row in data["vertices"]]
    path.write_text(json.dumps(data))
    return data


MUTANTS = dict(source=st.sampled_from(SOURCES), kind=st.sampled_from(KINDS),
               seed=st.integers(0, 2 ** 32 - 1),
               exponent=st.one_of(st.just(0.0), st.floats(-150.0, 150.0)))


@settings(max_examples=800, deadline=None, derandomize=True)
@given(**MUTANTS)
def test_mutated_mesh_file_refused_by_name_or_stepped(files, source, kind,
                                                      seed, exponent):
    path, method = files[1], source[2]
    data = _write_mutant(files, source, kind, seed, exponent)
    try:
        mesh = meshmod.load_mesh(path)
        dt = eig.critical_dt(mesh, method).dt_crit
        reports = quality.mesh_report(mesh)
        _, mapping, _ = agglomerate.auto_agglomerate(mesh)
    except MeshError as exc:
        if kind in ELEMENT_KINDS:
            named = re.search(r"elements? (\d+)", str(exc))
            assert named, str(exc)
            assert int(named.group(1)) < len(data["elements"]), str(exc)
        return
    assert kind != "duplicate", "a duplicated element was accepted"
    assert math.isfinite(dt) and dt > 0.0
    assert len(reports) == mesh.num_elements
    assert sorted(i for ids in mapping.values() for i in ids) == list(
        range(mesh.num_elements))


COMMANDS = (["timestep", "--method", "fem"], ["timestep", "--method", "vem"],
            ["quality", "--out", "OUT"], ["agglomerate", "--auto",
                                          "--out", "OUT"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**MUTANTS)
def test_mutated_mesh_file_through_the_cli(files, source, kind, seed,
                                           exponent):
    path = files[1]
    _write_mutant(files, source, kind, seed, exponent)
    out = str(path.with_name("out"))
    for command in COMMANDS:
        argv = [out if a == "OUT" else a for a in command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv + ["--mesh", str(path)])
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith("numerical failure: " if code == 2
                                  else "error: "), err
