"""Command-line surface: subcommands, exit codes, file round trips."""

import argparse
import ast
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from polyvem import cli, config as cfgmod, mesh as meshmod


def run(args):
    return cli.main(args)


def test_version(capsys):
    import polyvem
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("polyvem 0.1.0 (config ")
    # One version string: the CLI prints the package's own.
    assert cli.__version__ is polyvem.__version__


def _options(parser):
    """The --options of a parser and its subcommands, --help aside."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _options(sub)
        elif not isinstance(action, argparse._HelpAction):
            options |= {o for o in action.option_strings
                        if o.startswith("--")}
    return options


def test_readme_documents_exactly_the_cli():
    # README and the parser name the same options, both ways, and README's
    # --config key list is exactly the configuration's keys.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    options = _options(cli._build_parser())
    assert named - {"--no-build-isolation"} - options == set()
    assert options - named == set()
    keys = re.search(r"`--config\s+FILE`.*?keys:(.*?)\.", readme, re.S)
    assert keys, "README lists no --config keys"
    listed = re.findall(r"`(\w+)`", keys.group(1))
    assert sorted(listed) == sorted(cfgmod._KEYS)


def test_common_options():
    # --config and --alpha0 are the only options every subcommand takes.
    parser = cli._build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices
    common = set.intersection(*map(_options, subs.values()))
    assert common == {"--config", "--alpha0"}
    top = {o for a in parser._actions for o in a.option_strings}
    assert top == common | {"--version", "-h", "--help"}


def test_no_command_usage():
    assert run([]) == 1


def test_integrate_unit_tet(capsys):
    assert run(["integrate", "--unit-tet", "--exp", "0,0,0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_integrate_unit_cube(capsys):
    assert run(["integrate", "--unit-cube", "--exp", "2,1,0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize("element", ["1", "-1"])
def test_integrate_element_out_of_range(capsys, element):
    assert run(["integrate", "--unit-tet", "--element", element,
                "--exp", "0,0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: element {element} out of range")
    assert "Traceback" not in err


def test_moments_table(capsys):
    # The header and one row per exponent of order <= 2, lowest first.
    assert run(["integrate", "--unit-cube", "--moments"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "exponent,value" and len(lines) == 1 + 10
    assert lines[1] == '"0,0,0",1'


def test_mesh_gen_round_trip(tmp_path, capsys):
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    assert run(["mesh-gen", "--name", "spireC", "--eps", "1e-3",
                "--variant", "vem", "--out", str(p1)]) == 0
    mesh = meshmod.load_mesh(p1)
    meshmod.save_mesh(mesh, p2)
    assert p1.read_text() == p2.read_text()


def test_timestep_kite(tmp_path, capsys):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-5", "--variant", "vem",
         "--out", str(mesh_path)])
    out_path = tmp_path / "ts.csv"
    assert run(["timestep", "--mesh", str(mesh_path), "--method", "vem",
                "--alpha0", "unit", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "omega_star=5.19" in out
    assert out_path.exists()


def test_quality_csv(tmp_path):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-5", "--variant", "fem",
         "--out", str(mesh_path)])
    out_path = tmp_path / "q.csv"
    assert run(["quality", "--mesh", str(mesh_path),
                "--out", str(out_path)]) == 0
    assert "sliver_kite" in out_path.read_text()


def test_agglomerate_groups(tmp_path):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--variant", "fem",
         "--out", str(mesh_path)])
    out_path = tmp_path / "merged.json"
    map_path = tmp_path / "map.csv"
    assert run(["agglomerate", "--mesh", str(mesh_path), "--groups", "0,1",
                "--out", str(out_path), "--mapping", str(map_path)]) == 0
    merged = meshmod.load_mesh(out_path)
    assert merged.num_elements == 1
    assert len(merged.elements[0].faces) == 6


def test_agglomerate_applies_config_material(tmp_path, capsys):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--out",
         str(mesh_path)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("E = 1e9\nnu = 0\nrho = 1000\n")
    out_path = tmp_path / "merged.json"
    assert run(["agglomerate", "--mesh", str(mesh_path), "--groups", "0,1",
                "--out", str(out_path), "--config", str(cfg)]) == 0
    assert meshmod.load_mesh(out_path).material == meshmod.MaterialParams(
        1e9, 0.0, 1000.0)


def test_agglomerate_auto(tmp_path):
    mesh_path = tmp_path / "wedge.json"
    run(["mesh-gen", "--name", "wedge", "--eps", "1e-3", "--variant", "fem",
         "--out", str(mesh_path)])
    out_path = tmp_path / "auto.json"
    assert run(["agglomerate", "--mesh", str(mesh_path), "--auto",
                "--out", str(out_path)]) == 0
    assert meshmod.load_mesh(out_path).num_elements == 1


def test_eig_global(tmp_path, capsys):
    mesh_path = tmp_path / "w.json"
    run(["mesh-gen", "--name", "wedge", "--eps", "1e-1", "--variant", "vem",
         "--out", str(mesh_path)])
    assert run(["eig-global", "--mesh", str(mesh_path), "--method", "vem",
                "--alpha0", "unit"]) == 0
    assert "omega_global=" in capsys.readouterr().out


def test_missing_file_exit_code(capsys):
    assert run(["quality", "--mesh", "/nonexistent.json",
                "--out", "/tmp/x.csv"]) == 1


def test_invalid_mesh_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "vertices": [[0,0],[1,0],[0,1]], '
                   '"elements": [{"loop": [0, 2, 1]}], '
                   '"material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')
    assert run(["quality", "--mesh", str(bad), "--out",
                str(tmp_path / "q.csv")]) == 1


def test_empty_mesh_timestep_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"dimension": 3, "vertices": [[0,0,0],[1,0,0],[0,1,0]],'
                     ' "elements": [],'
                     ' "material": {"E": 1e9, "nu": 0.3, "rho": 1000}}')
    assert run(["timestep", "--mesh", str(empty), "--method", "vem"]) == 1
    assert "error: mesh has no elements" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_extreme_length_scale_timestep_names_element(tmp_path, capsys):
    # A valid mesh at 1e-150 m: a validation error naming the element
    # (exit 1), not numpy's "Eigenvalues did not converge" (exit 2), and
    # no overflow warning before it (any warning fails the run).
    from polyvem import benchmarks
    mesh = benchmarks.gen_benchmark("tri2d", 1e-1, "fem")
    path = tmp_path / "tiny.json"
    meshmod.save_mesh(meshmod.Mesh(mesh.dimension, mesh.vertices * 1e-150,
                                   mesh.elements, mesh.material), path)
    assert run(["timestep", "--mesh", str(path), "--method", "fem"]) == 1
    assert capsys.readouterr().err == (
        "error: element 0: non-finite mass-normalized stiffness\n")


@pytest.mark.parametrize("name, method, message", [
    ("wedge", "fem", "non-finite measure inf"),
    ("kite", "vem", "non-finite measure inf"),
    ("prism3d", "vem", "non-finite measure nan"),
    ("tri2d", "vem", None), ("tri2d", "fem", None)])
def test_overflowing_length_scale_timestep_names_element(
        tmp_path, capsys, name, method, message):
    # A mesh at 1e150 m: where its measures (3D) overflow, one error line
    # names the element (exit 1), with no overflow warning before it; the
    # tri2d mesh keeps a finite dt under both methods (VEM builds its
    # moments in element units).
    from polyvem import benchmarks
    mesh = benchmarks.gen_benchmark(name, 1e-1, method)
    path = tmp_path / "huge.json"
    meshmod.save_mesh(meshmod.Mesh(mesh.dimension, mesh.vertices * 1e150,
                                   mesh.elements, mesh.material), path)
    code = run(["timestep", "--mesh", str(path), "--method", method])
    out, err = capsys.readouterr()
    if message is None:
        assert code == 0 and err == ""
        assert 0.0 < float(out.split("dt_crit=")[1].split()[0]) < np.inf
    else:
        assert code == 1
        assert err == f"error: element 0: {message}\n"


@pytest.mark.parametrize("method, scale, message", [
    pytest.param("fem", 1e-40, "stiffness underflows to zero",
                 id="1e-40-stiffness underflows to zero"),
    pytest.param("vem", 1e-40, "stiffness underflows to zero",
                 id="vem-1e-40-stiffness underflows to zero"),
    pytest.param("fem", 1e85, "mass-normalized stiffness underflows",
                 id="1e+85-mass-normalized stiffness underflows")])
def test_underflowing_stiffness_timestep_names_element(tmp_path, capsys,
                                                       method, scale,
                                                       message):
    # E = 1e-300 (positive and finite, so accepted) on a wedge at 1e-40 m
    # has a stiffness of exactly 0 (VEM: its projector's material block,
    # refused before the solve), and at 1e85 m a mass-normalized stiffness
    # that underflows to 0: refused by element, not dt = inf.
    from polyvem import benchmarks
    mesh = benchmarks.gen_benchmark("wedge", 1e-1, "fem")
    path = tmp_path / "soft.json"
    soft = meshmod.MaterialParams(1e-300, 0.3, 7800.0)
    meshmod.save_mesh(meshmod.Mesh(3, mesh.vertices * scale, mesh.elements,
                                   soft), path)
    assert run(["timestep", "--mesh", str(path), "--method", method]) == 1
    assert capsys.readouterr().err == (
        f"error: element 0: {message} (length scale or material out of "
        "range)\n")


@pytest.mark.parametrize("key", ["threads", "angle_deg", "face_area_rel",
                                 "face_separation", "edge_rel"])
def test_retired_config_key_rejected(tmp_path, capsys, key):
    # Retired keys are refused with their line: the thread pool is gone and
    # the four quality cuts are constants of `quality`.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha0 = unit\n{key} = 2\n")
    assert run(["mesh-gen", "--name", "kite", "--eps", "1e-1",
                "--out", str(tmp_path / "kite.json"),
                "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: unknown key {key!r}\n")
    assert run(["--config", str(cfg), "--version"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:2: unknown key {key!r}\n")


def test_lumping_option_and_key_rejected(tmp_path, capsys):
    # One lumping rule: there is no --lumping flag and no lumping key.
    assert run(["--lumping", "row_sum", "--version"]) == 1
    assert capsys.readouterr().err.startswith("usage: polyvem")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lumping = auto\n")
    assert run(["--config", str(cfg), "--version"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}:1: unknown key 'lumping'\n")


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# test config\nE = 100e9\nnu = 0.25\nrho = 2000\n"
                   "alpha0 = unit\n")
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--variant", "fem",
         "--out", str(mesh_path), "--config", str(cfg)])
    mesh = meshmod.load_mesh(mesh_path)
    assert mesh.material.youngs_modulus == pytest.approx(100e9)
    assert mesh.material.poisson_ratio == pytest.approx(0.25)


def test_config_flag_overrides_file(tmp_path, capsys):
    # alpha0 = 5 from the file changes the configuration hash; --alpha0
    # unit overrides it, giving the hash of --alpha0 unit alone.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha0 = 5\n")

    def version(*argv):
        assert run([*argv, "--version"]) == 0
        return capsys.readouterr().out

    assert version("--config", str(cfg)) != version()
    assert version("--config", str(cfg), "--alpha0", "unit") == version(
        "--alpha0", "unit") != version("--config", str(cfg))


def test_mesh_gen_eps_one_rejected(tmp_path, capsys):
    out = tmp_path / "tri.json"
    assert run(["mesh-gen", "--name", "tri2d", "--eps", "1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: eps must lie in (0, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--case", "A", "--method", "vem", "--transits", "0.01",
     "--out", "{tmp}/hist.csv", "--summary", "{tmp}/run.json"],
    ["tables", "--out", "{tmp}/tables"],
], ids=["simulate", "tables"])
def test_beam_commands_refuse_a_material_override(tmp_path, capsys, command):
    # simulate and tables build their meshes with the benchmark material, so
    # a config material would be silently ignored: it is refused instead.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("E = 1e9\nnu = 0\nrho = 1000\n")
    argv = [a.format(tmp=tmp_path) for a in command]
    assert run(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        f"error: {command[0]} keeps the benchmark material; "
        "remove E, nu, rho from --config\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_simulate_vem(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    summary = tmp_path / "run.json"
    assert run(["simulate", "--case", "A", "--method", "vem",
                "--dt-factor", "0.9", "--transits", "0.5",
                "--out", str(hist), "--summary", str(summary)]) == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "t_norm,u_x_norm"
    assert len(lines) > 50
    info = json.loads(summary.read_text())
    assert info["method"] == "vem"
    assert not info["diverged"]
    # A short VEM run stays serial; a step's cost is the loop's per step.
    assert info["processes"] == 1
    assert info["step_us"] == pytest.approx(
        1e6 * info["wall_seconds"] / info["steps"], rel=1e-12)


def test_unknown_flag_rejected(capsys):
    assert run(["timestep", "--mesh", "x.json", "--method", "vem",
                "--frobnicate"]) == 1
    assert run(["--help"]) == 0


def test_matrix_dump(tmp_path):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--variant", "vem",
         "--out", str(mesh_path)])
    dump = tmp_path / "dump"
    assert run(["timestep", "--mesh", str(mesh_path), "--method", "vem",
                "--alpha0", "unit", "--dump-matrices", str(dump)]) == 0
    K = np.loadtxt(dump / "K_0.csv", delimiter=",")
    assert K.shape == (15, 15)
    assert np.abs(K - K.T).max() <= 1e-9 * np.abs(K).max()


# Doubles whose text is easy to get wrong: signed zeros, infinities, NaN,
# the smallest subnormal, the largest double and a 17-digit fraction.
AWKWARD = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                    np.finfo(float).max, -1.0 / 3.0])


def test_history_csv_prints_each_double_to_17_digits(tmp_path, monkeypatch):
    from types import SimpleNamespace
    from polyvem import dynamics
    t, u = AWKWARD, AWKWARD[::-1]
    experiment = SimpleNamespace(t_norm=t, u_norm=u, dt=1.0, result=(
        SimpleNamespace(diverged=False, steps=len(t) - 1)))
    monkeypatch.setattr(dynamics, "tapered_beam_experiment",
                        lambda *args, **kwargs: experiment)
    hist = tmp_path / "hist.csv"
    assert run(["simulate", "--case", "A", "--method", "vem",
                "--out", str(hist)]) == 0
    assert hist.read_text().splitlines(keepends=True) == [
        "t_norm,u_x_norm\n"] + [f"{a:.17g},{b:.17g}\n" for a, b in zip(t, u)]


def test_matrix_dump_prints_each_double_to_17_digits(tmp_path, monkeypatch):
    from polyvem import eig
    K = np.resize(AWKWARD, (2, 3, 3))
    ml = np.resize(AWKWARD[::-1], (2, 3))
    monkeypatch.setattr(eig, "element_systems", lambda *args: [
        (np.array([0, 1]), np.zeros((2, 1), int), K, ml)])
    monkeypatch.setattr(eig, "time_step_report",
                        lambda systems: eig.TimeStepReport(
                            np.ones(2), 1.0, 2.0, 0))
    mesh_path, dump = tmp_path / "tri.json", tmp_path / "dump"
    assert run(["mesh-gen", "--name", "tri2d", "--eps", "1e-1",
                "--out", str(mesh_path)]) == 0
    assert run(["timestep", "--mesh", str(mesh_path), "--method", "fem",
                "--dump-matrices", str(dump)]) == 0

    def lines(rows):
        return [",".join(format(v, ".17g") for v in row) + "\n"
                for row in rows]

    for e in (0, 1):
        assert (dump / f"K_{e}.csv").read_text().splitlines(
            keepends=True) == lines(K[e])
        assert (dump / f"Ml_{e}.csv").read_text().splitlines(
            keepends=True) == lines([ml[e]])


def test_tables(tmp_path):
    out = tmp_path / "report"
    assert run(["tables", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"table{i}.csv" for i in range(1, 8)]
    kite_rows = (out / "table4.csv").read_text().strip().splitlines()
    assert kite_rows[0].startswith("eps,method,")
    # kite at 1e-1: FEM around 6e4
    row = [r for r in kite_rows if r.startswith("0.1,fem")][0]
    assert float(row.split(",")[2]) == pytest.approx(6.0e4, rel=0.15)
    beam_rows = (out / "table6.csv").read_text().strip().splitlines()
    assert len(beam_rows) == 5
    # table1-5 run the paper's "unit" preset whatever --alpha0 is.
    other = tmp_path / "other"
    assert run(["--alpha0", "5", "tables", "--out", str(other)]) == 0
    for k in range(1, 6):
        name = f"table{k}.csv"
        assert (other / name).read_bytes() == (out / name).read_bytes()


def test_tables_reuse_beam_problems(tmp_path, monkeypatch):
    from polyvem import benchmarks
    beams = []
    generate = benchmarks.gen_benchmark

    def counted(name, *args, **kwargs):
        if name.startswith("beam"):
            beams.append(name)
        return generate(name, *args, **kwargs)

    monkeypatch.setattr(benchmarks, "gen_benchmark", counted)
    out = tmp_path / "report"
    assert run(["tables", "--out", str(out), "--with-dynamics"]) == 0
    # One mesh per (case, variant); the VEM runs reuse the table-6 beams.
    assert sorted(beams) == ["beamA", "beamA", "beamB", "beamB"]
    rows = [r.split(",") for r in
            (out / "table7.csv").read_text().strip().splitlines()[1:]]
    # The step counts of `simulate --case A|B --method vem`.
    assert {r[0]: int(r[3]) for r in rows if r[1] == "vem"} == {
        "A": 613, "B": 615}


def test_eig_global_beam_bcs(tmp_path, capsys):
    mesh_path = tmp_path / "beam.json"
    run(["mesh-gen", "--name", "beamA", "--variant", "vem",
         "--out", str(mesh_path)])
    assert run(["eig-global", "--mesh", str(mesh_path), "--method", "vem",
                "--beam-bcs"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    # Power iteration on the clamped, driven beam (ARPACK: 377766.4).
    assert out.startswith("omega_global=3.777558e+05 rad/s")


def test_eig_global_beam_bcs_refuses_a_non_beam_mesh(tmp_path, capsys):
    # The kite has nodes at x = 0 but none at x = 4: refused, not run
    # with whatever nodes sit at x = 0 clamped.
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--out",
         str(mesh_path)])
    capsys.readouterr()
    assert run(["eig-global", "--mesh", str(mesh_path), "--method", "fem",
                "--beam-bcs"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: beam boundary conditions need nodes at x = 0 "
                   "and x = 4 (not a beam mesh)\n")


@pytest.mark.parametrize("groups, message", [
    (";", "no merge groups"), (" ; ;", "no merge groups"),
    ("0", "merge groups need at least two elements"),
    ("0,0", "merge groups need at least two elements")])
def test_agglomerate_degenerate_groups_refused(tmp_path, capsys, groups,
                                               message):
    # Only separators, or a group of one distinct element, is refused
    # (exit 1, one error line, no output written), not a copy of the input.
    mesh_path, out_path = tmp_path / "kite.json", tmp_path / "merged.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--out",
         str(mesh_path)])
    capsys.readouterr()
    assert run(["agglomerate", "--mesh", str(mesh_path), "--groups", groups,
                "--out", str(out_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_agglomerate_mapping_records_groups(tmp_path):
    mesh_path = tmp_path / "spire.json"
    run(["mesh-gen", "--name", "spireC", "--eps", "1e-2", "--variant", "fem",
         "--out", str(mesh_path)])
    out_path = tmp_path / "merged.json"
    map_path = tmp_path / "map.csv"
    assert run(["agglomerate", "--mesh", str(mesh_path),
                "--groups", "0,1,2", "--out", str(out_path),
                "--mapping", str(map_path)]) == 0
    assert meshmod.load_mesh(out_path).num_elements == 1
    lines = map_path.read_text().strip().splitlines()
    assert lines[1] == '0,"0,1,2"'


def test_family_table_deterministic():
    a, b = (list(cli._family_rows("tri2d", (1e-1, 1e-3))) for _ in "ab")
    assert a == b


@pytest.mark.parametrize("nodes", ["[0,1,2,999]", "[1,2,3,4]", "[0,1,2]",
                                   "[0.5,1,2,3]", "[0,2,1,3]"])
def test_bad_tet_nodes_timestep_rejected(tmp_path, capsys, nodes):
    from test_mesh import TWO_TETS
    path = tmp_path / "bad.json"
    path.write_text(TWO_TETS.replace("NODES", nodes))
    assert run(["timestep", "--mesh", str(path), "--method", "fem"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "element 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("node", ["999", "-1"])
def test_eig_global_fixed_node_out_of_range(tmp_path, capsys, node):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-3", "--variant", "vem",
         "--out", str(mesh_path)])
    capsys.readouterr()
    assert run(["eig-global", "--mesh", str(mesh_path), "--method", "vem",
                "--fixed-nodes", node]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: node {node} out of range\n"
    assert "omega_global" not in captured.out


@pytest.mark.parametrize("option", ["--transits", "--dt-factor"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_simulate_nonpositive_option_rejected(tmp_path, capsys, option,
                                              value):
    assert run(["simulate", "--case", "A", "--method", "vem", option, value,
                "--out", str(tmp_path / "hist.csv")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {option} must be positive, got {float(value)}\n"
    assert not (tmp_path / "hist.csv").exists()


def _refused_simulate(hist, summary):
    # 1e-9 x the stable step is ~7e11 steps, terabytes of history: refused
    # before the time and history arrays are allocated.
    return run(["simulate", "--case", "A", "--method", "vem",
                "--dt-factor", "1e-9", "--out", str(hist),
                "--summary", str(summary)])


def test_simulate_infeasible_run_is_an_error(tmp_path, capsys):
    # The refused run leaves neither output file behind.
    hist, summary = tmp_path / "hist.csv", tmp_path / "run.json"
    assert _refused_simulate(hist, summary) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "steps need" in err
    assert "Traceback" not in err
    assert not hist.exists() and not summary.exists()


def test_simulate_refused_run_keeps_an_existing_output(tmp_path, capsys):
    # Only the files the run created are removed: an --out that existed
    # before keeps its bytes.
    hist, summary = tmp_path / "hist.csv", tmp_path / "run.json"
    hist.write_bytes(b"t_norm,u_x_norm\n0,0\n")
    assert _refused_simulate(hist, summary) == 1
    assert "steps need" in capsys.readouterr().err
    assert hist.read_bytes() == b"t_norm,u_x_norm\n0,0\n"
    assert not summary.exists()


@pytest.mark.parametrize("bad", ["--out", "--summary"])
def test_simulate_checks_outputs_before_the_run(tmp_path, capsys,
                                                monkeypatch, bad):
    def no_run(*args, **kwargs):
        raise AssertionError("tapered_beam_experiment called")

    monkeypatch.setattr(cli.dynamics, "tapered_beam_experiment", no_run)
    (tmp_path / "blocker").write_text("")
    paths = {"--out": str(tmp_path / "hist.csv"),
             "--summary": str(tmp_path / "run.json")}
    paths[bad] = str(tmp_path / "blocker" / "out")
    assert run(["simulate", "--case", "A", "--method", "vem",
                *[a for option, path in paths.items()
                  for a in (option, path)]]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {paths[bad]}: ")


@pytest.mark.parametrize("option, omega", [
    (["--alpha0", "5"], "8.536960e+04"),
    (["--config", "CFG"], "8.536960e+04"),
], ids=["alpha0", "config"])
def test_common_option_before_or_after_subcommand(tmp_path, capsys, option,
                                                  omega):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-3", "--variant", "vem",
         "--out", str(mesh_path)])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha0 = 5\n")
    option = [str(cfg) if v == "CFG" else v for v in option]
    timestep = ["timestep", "--mesh", str(mesh_path), "--method", "vem"]
    capsys.readouterr()
    assert run(timestep) == 0
    assert "omega_star=5.893823e+04" in capsys.readouterr().out
    for argv in (option + timestep, timestep + option):
        assert run(argv) == 0
        assert f"omega_star={omega}" in capsys.readouterr().out, argv


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc"])
def test_bad_alpha0_rejected(tmp_path, capsys, value):
    from polyvem import config as cfgmod
    with pytest.raises(meshmod.ValidationError, match="alpha0"):
        cfgmod.build_config(alpha0=value)
    assert run(["--alpha0", value, "--version"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha0 must be") and repr(value) in err


@pytest.mark.parametrize("key, value", [("E", "abc")])
def test_bad_config_value_rejected(tmp_path, capsys, key, value):
    # A value that is no number is refused with its key named.
    from polyvem import config as cfgmod
    values = {"E": "2e11", "nu": "0.3", "rho": "7800", key: value}
    with pytest.raises(meshmod.ValidationError, match=f"^{key} must be"):
        cfgmod.build_config(values)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert run(["--config", str(path), "--version"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be") and repr(value) in err


def test_config_thresholds_read(monkeypatch):
    # The config hash reads the quality cuts from their constants.
    from polyvem import config as cfgmod, quality
    assert (quality.ANGLE_DEG, quality.FACE_AREA_REL, quality.FACE_SEPARATION,
            quality.EDGE_REL) == (5.0, 1e-4, 100.0, 1e-3)
    default = cfgmod.build_config().config_hash()
    monkeypatch.setattr(quality, "EDGE_REL", 1e-2)
    assert cfgmod.build_config().config_hash() != default


def test_config_hash_is_pinned(capsys):
    # The hash names an experiment manifest: the default one, and one
    # that overrides every key, keep their values.
    from polyvem import config as cfgmod
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.endswith("(config c02e2ff8f6bc)\n")
    every = {"E": "1e9", "nu": "0.25", "rho": "2000", "alpha0": "0.5"}
    assert set(every) == set(cfgmod._KEYS)
    assert cfgmod.build_config(every).config_hash() == "e5306b30abda"


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-3", "--variant", "vem",
         "--out", str(mesh_path)])
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(cli.eig, "time_step_report", fail)
    assert run(["timestep", "--mesh", str(mesh_path), "--method", "vem"]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: Eigenvalues did not converge\n"


def test_stalled_power_iteration_sets_no_time_step(tmp_path, capsys,
                                                   monkeypatch, beam_meshes):
    # Three iterations leave case A's VEM omega ~20% low: a step on it
    # would be unsafe, so the global bound raises instead of returning it.
    from polyvem import dynamics
    monkeypatch.setattr(cli.eig, "POWER_MAX_ITER", 3)
    problem = dynamics.beam_problem(beam_meshes[("A", "vem")], "vem")
    with pytest.raises(cli.NumericalError):
        problem.dt_crit("global")
    out = tmp_path / "history.csv"
    assert run(["simulate", "--case", "A", "--method", "vem", "--dt-basis",
                "global", "--transits", "0.01", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: power iteration did not converge in 3 "
        "iterations")
    assert not out.exists()


# Each output option, pointed below a regular file ("blocker/...").
@pytest.mark.parametrize("args", [
    ["mesh-gen", "--name", "kite", "--eps", "1e-5", "--out", "{bad}"],
    ["quality", "--mesh", "{mesh}", "--out", "{bad}"],
    ["agglomerate", "--mesh", "{mesh}", "--auto", "--out", "{bad}"],
    ["agglomerate", "--mesh", "{mesh}", "--auto", "--out", "{ok}",
     "--mapping", "{bad}"],
    ["timestep", "--mesh", "{mesh}", "--method", "vem", "--out", "{bad}"],
    ["timestep", "--mesh", "{mesh}", "--method", "vem",
     "--dump-matrices", "{bad}"],
    ["simulate", "--case", "A", "--method", "vem", "--transits", "0.05",
     "--out", "{bad}"],
    ["simulate", "--case", "A", "--method", "vem", "--transits", "0.05",
     "--out", "{ok}", "--summary", "{bad}"],
    ["tables", "--out", "{bad}"],
], ids=lambda args: args[0] + args[args.index("{bad}") - 1])
def test_unwritable_output_is_an_error(tmp_path, capsys, args):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-5", "--out",
         str(mesh_path)])
    (tmp_path / "blocker").write_text("")
    bad = str(tmp_path / "blocker" / "out")
    capsys.readouterr()
    assert run([a.format(mesh=mesh_path, ok=tmp_path / "ok", bad=bad)
                for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ")
    assert "Traceback" not in err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    missing = tmp_path / "none.cfg"
    assert run(["--config", str(missing), "--version"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {missing}: ")


def test_moments_without_exp(capsys):
    assert run(["integrate", "--unit-cube", "--moments"]) == 0
    assert '"0,0,0",1' in capsys.readouterr().out


def test_integrate_without_exp_or_moments(capsys):
    assert run(["integrate", "--unit-cube"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--exp" in err


@pytest.mark.parametrize("option, value, args", [
    ("--exp", "1,a,0", ["integrate"]),
    ("--groups", "0,1;a", ["agglomerate", "--out", "{out}"]),
    ("--fixed-nodes", "0,a", ["eig-global", "--method", "vem"]),
], ids=["exp", "groups", "fixed-nodes"])
def test_non_integer_list_rejected(tmp_path, capsys, option, value, args):
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-5", "--out",
         str(mesh_path)])
    capsys.readouterr()
    argv = [a.format(out=tmp_path / "m.json") for a in args]
    assert run(argv + ["--mesh", str(mesh_path), option, value]) == 1
    assert capsys.readouterr().err == (
        f"error: {option}: expected comma-separated integers, got 'a'\n")


@pytest.mark.parametrize("key, name", [("E", "Young's modulus"),
                                       ("rho", "density")])
def test_non_finite_material_rejected(tmp_path, capsys, key, name):
    # E or rho = inf, from a config file or a mesh file ("1e999" parses to
    # inf), is refused before any element is built.
    mesh_path = tmp_path / "kite.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--out",
         str(mesh_path)])
    cfg = tmp_path / "run.cfg"
    values = {"E": "2e11", "nu": "0.3", "rho": "7800", key: "inf"}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    huge = tmp_path / "huge.json"
    text = mesh_path.read_text()
    material = json.loads(text)["material"]
    huge.write_text(text.replace(f'"{key}": {material[key]!r}',
                                 f'"{key}": 1e999'))
    capsys.readouterr()
    for argv in (["--config", str(cfg), "--mesh", str(mesh_path)],
                 ["--mesh", str(huge)]):
        assert run(["timestep", "--method", "fem"] + argv) == 1
        assert capsys.readouterr().err == (
            f"error: {name} must be positive and finite\n")


def _tri2d_mesh(path, factor=1.0):
    from polyvem import benchmarks
    mesh = benchmarks.gen_benchmark("tri2d", 1e-1, "fem")
    meshmod.save_mesh(meshmod.Mesh(mesh.dimension, mesh.vertices * factor,
                                   mesh.elements, mesh.material), path)
    return mesh


@pytest.mark.parametrize("factor", [1e-150])
def test_eig_global_extreme_length_scale_is_a_numerical_failure(
        tmp_path, capsys, factor):
    # At 1e-150 m the power loop's product overflows: one "numerical
    # failure" line at the first non-finite Rayleigh quotient (exit 2), no
    # warning and no ZeroDivisionError.
    path = tmp_path / "scaled.json"
    _tri2d_mesh(path, factor)
    assert run(["eig-global", "--mesh", str(path), "--method", "fem"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("numerical failure: power iteration: non-finite "
                          "Rayleigh quotient")


def test_eig_global_large_length_scale_scales_omega(tmp_path, capsys):
    # At 1e150 m the power loop's iterates are ~1e-300: each is normalized
    # by an exactly scaled norm, which does not underflow, so omega comes
    # out as the unscaled omega / 1e150 (2 ulp off, measured).
    from polyvem import dynamics, eig
    path = tmp_path / "scaled.json"
    mesh = _tri2d_mesh(path, 1e150)
    omega = eig.global_max_frequency(*dynamics.assemble(mesh, "fem"))[0]
    huge = meshmod.load_mesh(path)
    scaled = eig.global_max_frequency(*dynamics.assemble(huge, "fem"))[0]
    assert scaled * 1e150 == pytest.approx(omega, rel=1e-15)
    assert run(["eig-global", "--mesh", str(path), "--method", "fem"]) == 0
    assert capsys.readouterr().out.startswith(
        f"omega_global={scaled:.6e} rad/s")


def test_eig_global_every_node_fixed_rejected(tmp_path, capsys):
    path = tmp_path / "tri.json"
    mesh = _tri2d_mesh(path)
    nodes = ",".join(str(n) for n in range(mesh.num_vertices))
    assert run(["eig-global", "--mesh", str(path), "--method", "fem",
                "--fixed-nodes", nodes]) == 1
    assert capsys.readouterr().err == "error: every dof is fixed\n"


@pytest.mark.parametrize("command, first, second", [
    (["agglomerate", "--out", "{out}", "--mesh", "{mesh}"],
     ["--groups", "0,1"], ["--auto"]),
    (["eig-global", "--method", "fem", "--mesh", "{beam}"],
     ["--fixed-nodes", "0"], ["--beam-bcs"]),
    (["integrate", "--exp", "0,0,0"], ["--mesh", "{mesh}"], ["--unit-tet"]),
    (["integrate", "--exp", "0,0,0"], ["--mesh", "{mesh}"], ["--unit-cube"]),
    (["integrate", "--exp", "0,0,0"], ["--unit-tet"], ["--unit-cube"]),
    (["integrate", "--unit-cube"], ["--exp", "0,0,0"], ["--moments"]),
], ids=["groups-auto", "fixed-nodes-beam-bcs", "mesh-unit-tet",
        "mesh-unit-cube", "unit-tet-unit-cube", "exp-moments"])
def test_conflicting_options_refused(tmp_path, capsys, command, first,
                                     second):
    # Each option alone runs; together they are a usage error (exit 1)
    # instead of one of them being ignored.  The beam conditions need
    # nodes at x = 0 and x = 4: the kite stretched from x in [-1, 1].
    mesh_path, beam_path = tmp_path / "kite.json", tmp_path / "beam.json"
    run(["mesh-gen", "--name", "kite", "--eps", "1e-1", "--out",
         str(mesh_path)])
    kite = meshmod.load_mesh(mesh_path)
    meshmod.save_mesh(meshmod.Mesh(3, kite.vertices * [2.0, 1.0, 1.0]
                                   + [2.0, 0.0, 0.0], kite.elements,
                                   kite.material), beam_path)

    def argv(*options):
        return [a.format(out=tmp_path / "m.json", mesh=mesh_path,
                         beam=beam_path)
                for a in command + [o for opt in options for o in opt]]

    for alone in (first, second):
        assert run(argv(alone)) == 0
    capsys.readouterr()
    for pair in ((first, second), (second, first)):
        assert run(argv(*pair)) == 1
        assert "not allowed with argument" in capsys.readouterr().err


# SHA-256 of the result files, in the way MESH_SHA256 pins the meshes:
# `quality` and `agglomerate --auto --mapping` on the kite fem mesh at eps
# 1e-5, `timestep --alpha0 unit --out` on its fem and vem variants, and
# the tables of `tables` (table7 without --with-dynamics: no wall seconds).
RESULT_SHA256 = {
    "quality.csv":
        "8bab4770f042e7f4ab81e870166865d7d49d514f40c5655b07b0eb0d3286bb81",
    "mapping.csv":
        "87cfa37b2dff4a61ded60fb6fa9ba8fe0d59499f48f67d7678f26c9db0bcf82c",
    "timestep_fem.csv":
        "633afda587e818dfc0cc7ad896a3a91017bc79b932d76f6ac0f2a1b1dbabf021",
    "timestep_vem.csv":
        "cbd311705268d12cc0991675d074d0d61a7219877ae2ed5875dfe3c38dc2120d",
    "table1.csv":
        "0a40af7992d7ae89e193d6c3e345c6b5359f0c713f2562e223c674c5fd422707",
    "table2.csv":
        "3fef2c54359117cbed4130245e5339a066b674d2b5af2895eee74a533f3bccd4",
    "table3.csv":
        "86fa62e729a94d5c9aafe7622ddefc10fe16f9f13d166fa18d35934dad45656e",
    "table4.csv":
        "c4ceaf43fe09c4b3bb3150ef43ceb8cf3d6a0d9a30a74eaec9bf352b2ab169e6",
    "table5.csv":
        "0426232b8e932b2fd7950618ad86bb16d8fac05d192931d39d110515493b0920",
    "table6.csv":
        "3a549360b99cf6706b7209a935f9df37baf58b4dc573984804e75a1a982cafa7",
    "table7.csv":
        "32a976415a1c2b93a58a8f95dc0fe6691bca66bbbf0178890a7e56b5253576f0",
}


@pytest.fixture(scope="module")
def result_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    for variant in ("fem", "vem"):
        mesh = str(out / f"kite_{variant}.json")
        assert run(["mesh-gen", "--name", "kite", "--eps", "1e-5",
                    "--variant", variant, "--out", mesh]) == 0
        assert run(["timestep", "--alpha0", "unit", "--mesh", mesh,
                    "--method", variant,
                    "--out", str(out / f"timestep_{variant}.csv")]) == 0
    mesh = str(out / "kite_fem.json")
    assert run(["quality", "--mesh", mesh,
                "--out", str(out / "quality.csv")]) == 0
    assert run(["agglomerate", "--mesh", mesh, "--auto",
                "--out", str(out / "merged.json"),
                "--mapping", str(out / "mapping.csv")]) == 0
    assert run(["tables", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", list(RESULT_SHA256))
def test_result_file_is_pinned(result_files, name):
    digest = hashlib.sha256((result_files / name).read_bytes()).hexdigest()
    assert digest == RESULT_SHA256[name]


def _writes(tree):
    """Lines of the calls in a module that write a file: `open` in a "w"
    or "a" mode (or one not spelt out), `savetxt` and `json.dump`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            mode = (node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"])
            if mode and not (isinstance(mode[0], ast.Constant)
                             and not set("wa") & set(str(mode[0].value))):
                yield node.lineno
        elif isinstance(f, ast.Attribute) and (f.attr == "savetxt" or (
                f.attr == "dump" and isinstance(f.value, ast.Name)
                and f.value.id == "json")):
            yield node.lineno


def test_only_cli_and_mesh_write_files():
    # The library computes and returns data; the result files are written
    # by the CLI and the mesh files by the mesh module.
    src = Path(cli.__file__).parent
    writers = {path.name: list(_writes(ast.parse(path.read_text())))
               for path in sorted(src.glob("*.py"))}
    assert writers.pop("cli.py") and writers.pop("mesh.py")
    assert {name: lines for name, lines in writers.items() if lines} == {}
