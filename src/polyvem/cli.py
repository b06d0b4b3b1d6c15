"""Command-line front end: mesh generation, quality reports, agglomeration,
time-step estimates, global bounds, beam simulations, monomial integration,
and regeneration of the benchmark summary tables.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import (__version__, agglomerate, benchmarks, config as cfgmod,
               dynamics, eig, mesh as meshmod, quality)
from .eig import NumericalError
from .mesh import MeshError, ValidationError


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for numerical
        # failures here, so remap (keep 0 for --help).
        return 0 if exc.code == 0 else 1
    if args.command is None and not args.version:
        parser.print_usage()
        return 1
    try:
        cfg = _load_config(args)
        if args.version:
            print(f"polyvem {__version__} (config {cfg.config_hash()})")
        elif cfg.material and args.command in ("simulate", "tables"):
            raise ValidationError(f"{args.command} keeps the benchmark "
                                  "material; remove E, nu, rho from --config")
        else:
            args.func(args, cfg)
        return 0
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # Before the ValueError clause: LinAlgError subclasses ValueError.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (MeshError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Inputs are read through load_mesh/parse_config_file, which raise
        # the errors above, so an OSError here is an output that failed (a
        # failed write or close carries no file name).
        path = "output" if exc.filename is None else exc.filename
        print(f"error: cannot write {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1


def _load_config(args):
    path = getattr(args, "config", None)
    return cfgmod.build_config(path and cfgmod.parse_config_file(path),
                               alpha0=getattr(args, "alpha0", None))


def _build_parser():
    # No defaults: the subcommand's parse keeps a value given before it.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--alpha0",
                        help="stabilization preset: auto, unit, or a number")
    parser = argparse.ArgumentParser(
        prog="polyvem",
        description=__doc__.splitlines()[0],
        parents=[common])
    parser.add_argument("--version", action="store_true",
                        help="print version and config hash")
    sub = parser.add_subparsers(dest="command")

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("mesh-gen", help="generate a benchmark mesh file")
    p.add_argument("--name", required=True, choices=benchmarks.BENCHMARK_NAMES)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--variant", choices=("fem", "vem"), default="fem")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh_gen)

    p = add_parser("quality", help="per-element quality report (CSV)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quality)

    p = add_parser("agglomerate", help="merge element groups")
    p.add_argument("--mesh", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--groups",
                   help="semicolon-separated comma lists, e.g. '0,1;4,5'")
    g.add_argument("--auto", action="store_true",
                   help="merge every flagged element with neighbors")
    p.add_argument("--out", required=True)
    p.add_argument("--mapping", help="write old->new id mapping CSV here")
    p.set_defaults(func=_cmd_agglomerate)

    p = add_parser("timestep", help="element-eigenvalue dt estimate")
    p.add_argument("--mesh", required=True)
    p.add_argument("--method", choices=("fem", "vem"), required=True)
    p.add_argument("--out", help="CSV output (default: stdout summary)")
    p.add_argument("--dump-matrices",
                   help="directory for per-element K/M CSV dumps")
    p.set_defaults(func=_cmd_timestep)

    p = add_parser("eig-global", help="assembled maximum frequency")
    p.add_argument("--mesh", required=True)
    p.add_argument("--method", choices=("fem", "vem"), required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--fixed-nodes",
                   help="comma list of node ids with all dofs fixed")
    g.add_argument("--beam-bcs", action="store_true",
                   help="apply the tapered-beam boundary conditions")
    p.set_defaults(func=_cmd_eig_global)

    p = add_parser("simulate", help="tapered-beam explicit run")
    p.add_argument("--case", choices=("A", "B"), required=True)
    p.add_argument("--method", choices=("fem", "vem"), required=True)
    p.add_argument("--dt-factor", type=float,
                   default=dynamics.BEAM_DT_FACTOR)
    p.add_argument("--dt-basis", choices=("element", "global"),
                   default="element")
    p.add_argument("--transits", type=float,
                   default=dynamics.BEAM_TRANSITS)
    p.add_argument("--out", required=True, help="history CSV path")
    p.add_argument("--summary", help="run summary JSON path")
    p.set_defaults(func=_cmd_simulate)

    p = add_parser("integrate", help="integrate a monomial over one "
                                         "element")
    p.add_argument("--element", type=int, default=0)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--mesh")
    g.add_argument("--unit-tet", action="store_true")
    g.add_argument("--unit-cube", action="store_true")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exp",
                   help="comma-separated exponents, e.g. 2,1,0")
    g.add_argument("--moments", action="store_true",
                   help="print the scaled order-<=2 moment table instead")
    p.set_defaults(func=_cmd_integrate)

    p = add_parser("tables", help="regenerate benchmark summary tables")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--with-dynamics", action="store_true",
                   help="include the measured beam run table")
    p.set_defaults(func=_cmd_tables)
    return parser


def _cmd_mesh_gen(args, cfg):
    mesh = benchmarks.gen_benchmark(args.name, args.eps, args.variant)
    mesh = cfgmod.apply_material(mesh, cfg)
    meshmod.save_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_vertices} vertices, "
          f"{mesh.num_elements} elements")


def _cmd_quality(args, cfg):
    mesh = meshmod.load_mesh(args.mesh)
    reports = quality.mesh_report(mesh)

    def row(r):
        return f"{r.element},{r.classification}," + ",".join(
            "" if x is None else format(x, ".17g") for x in (
                r.min_dihedral_deg, r.max_dihedral_deg, r.min_edge,
                r.min_face_area, r.volume))

    _write_csv(args.out, "element_id,class,min_dihedral_deg,"
               "max_dihedral_deg,min_edge,min_face_area,volume",
               map(row, reports))
    counts = {}
    for r in reports:
        counts[r.classification] = counts.get(r.classification, 0) + 1
    print(f"wrote {args.out}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counts.items())))


def _cmd_agglomerate(args, cfg):
    mesh = cfgmod.apply_material(meshmod.load_mesh(args.mesh), cfg)
    if args.auto:
        merged, mapping, unmerged = agglomerate.auto_agglomerate(mesh)
        for e in unmerged:
            print(f"warning: element {e} flagged but has no merge partner",
                  file=sys.stderr)
    elif args.groups:
        groups = [tuple(_int_list(part, "--groups"))
                  for part in args.groups.split(";") if part.strip()]
        merged, mapping = agglomerate.merge_groups(mesh, groups)
    else:
        raise ValidationError("agglomerate needs --groups or --auto")
    meshmod.save_mesh(merged, args.out)
    if args.mapping:
        _write_csv(args.mapping, "new_element_id,old_element_ids",
                   (f'{new},"' + ",".join(map(str, mapping[new])) + '"'
                    for new in sorted(mapping)))
    print(f"wrote {args.out}: {merged.num_elements} elements")


def _cmd_timestep(args, cfg):
    mesh = cfgmod.apply_material(meshmod.load_mesh(args.mesh), cfg)
    systems = eig.element_systems(mesh, args.method, cfg.alpha0)
    report = eig.time_step_report(systems)
    if args.out:
        dts = eig.critical_step(report.omega_elements).tolist()
        _write_csv(args.out, "element_id,omega_max,dt_element", [
            f"{i},{w:.17g},{dt:.17g}"
            for i, (w, dt) in enumerate(zip(report.omega_elements, dts))] + [
            f"omega_star,{report.omega_star:.17g},{report.dt_crit:.17g},"
            f"argmax={report.argmax_element}"])
    if args.dump_matrices:
        os.makedirs(args.dump_matrices, exist_ok=True)
        for ids, _, Ks, mls in systems:
            for e, K, ml in zip(ids, Ks, mls):
                for name, matrix in (("K", K), ("Ml", np.atleast_2d(ml))):
                    np.savetxt(os.path.join(args.dump_matrices,
                                            f"{name}_{e}.csv"),
                               matrix, fmt="%.17g", delimiter=",")
    print(f"omega_star={report.omega_star:.6e} rad/s  "
          f"dt_crit={report.dt_crit:.6e} s  "
          f"argmax_element={report.argmax_element}")


def _cmd_eig_global(args, cfg):
    mesh = cfgmod.apply_material(meshmod.load_mesh(args.mesh), cfg)
    if args.beam_bcs:
        problem = dynamics.beam_problem(mesh, args.method, cfg.alpha0)
        K, M, fixed = problem.K, problem.M, problem.constrained
    else:
        K, M = dynamics.assemble(mesh, args.method, alpha0=cfg.alpha0)
        nodes = np.array(_int_list(args.fixed_nodes, "--fixed-nodes")
                         if args.fixed_nodes else [], dtype=int)
        for node in nodes:
            if not 0 <= node < mesh.num_vertices:
                raise ValidationError(f"node {node} out of range")
        fixed = np.concatenate([nodes + c * mesh.num_vertices
                                for c in range(mesh.dimension)])
    omega, _, iters = eig.global_max_frequency(K, M, fixed)
    print(f"omega_global={omega:.6e} rad/s  "
          f"dt={eig.critical_step(omega):.6e} s  iterations={iters}")


def _cmd_simulate(args, cfg):
    for option, value in (("--transits", args.transits),
                          ("--dt-factor", args.dt_factor)):
        if not value > 0.0:
            raise ValidationError(f"{option} must be positive, got {value}")
    outputs = [path for path in (args.out, args.summary) if path]
    created = [path for path in outputs if not os.path.exists(path)]
    try:
        for path in outputs:
            open(path, "a").close()  # an unwritable output fails early
        print(f"case {args.case} {args.method}: dt basis {args.dt_basis}, "
              f"factor {args.dt_factor}, {args.transits} transits")
        exp = dynamics.tapered_beam_experiment(
            args.case, args.method, dt_factor=args.dt_factor,
            dt_basis=args.dt_basis, t_max_transits=args.transits,
            alpha0=cfg.alpha0)
    except BaseException:  # no run: remove the outputs made above
        for path in filter(os.path.exists, created):
            os.remove(path)
        raise
    np.savetxt(args.out, np.column_stack([exp.t_norm, exp.u_norm]),
               fmt="%.17g", delimiter=",", header="t_norm,u_x_norm",
               comments="")
    res = exp.result
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump({"method": exp.method, "steps": res.steps,
                       "dt": exp.dt, "omega_star": exp.omega_star,
                       "diverged": res.diverged,
                       "wall_seconds": res.wall_seconds,
                       "processes": res.processes,
                       "step_us": 1e6 * res.wall_seconds / max(res.steps, 1)},
                      fh, indent=2)
    if res.diverged:
        raise NumericalError(f"run diverged at step {res.diverged_step}")
    print(f"wrote {args.out}: {res.steps} steps at dt={exp.dt:.6e}")


def _cmd_integrate(args, cfg):
    if args.unit_tet or args.unit_cube:
        mesh = _unit_shape(args.unit_cube)
    elif args.mesh:
        mesh = meshmod.load_mesh(args.mesh)
    else:
        raise ValidationError("integrate needs --mesh or --unit-tet/--unit-cube")
    if not 0 <= args.element < mesh.num_elements:
        raise ValidationError(f"element {args.element} out of range "
                              f"[0, {mesh.num_elements})")
    if args.moments:
        moments = mesh.geometry.scaled_moments
        print("exponent,value")
        for key in sorted(moments, key=lambda k: (sum(k), k)):
            name = ",".join(str(v) for v in key)
            print(f"\"{name}\",{moments[key][args.element]:.17g}")
        return
    if args.exp is None:
        raise ValidationError("integrate needs --exp (or --moments)")
    exponent = tuple(_int_list(args.exp, "--exp"))
    integ = meshmod.element_integrator(mesh, args.element)
    if len(exponent) != mesh.dimension:
        raise ValidationError("exponent arity must match mesh dimension")
    print(f"{integ.integrate(exponent):.17g}")


def _write_csv(path, header, rows):
    """Write a result file: the header line, then one line per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row + "\n" for row in rows)


def _int_list(text, option):
    """The integers of a comma-separated option value."""
    values = []
    for v in text.split(","):
        try:
            values.append(int(v))
        except ValueError:
            raise ValidationError(f"{option}: expected comma-separated "
                                  f"integers, got {v!r}") from None
    return values


def _unit_shape(cube):
    if cube:
        square = meshmod.Mesh(
            2, np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
            [meshmod.Element(loop=(0, 1, 2, 3))])
        return meshmod.extrude(square, 1.0)
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return meshmod.tet_mesh(verts, [(0, 1, 2, 3)])


# ---------------------------------------------------------------------------
# Benchmark tables


def _cmd_tables(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    eps_3d, eps_pair = (1e-1, 1e-3, 1e-5), (1e-1, 1e-5)
    problems = {(case, method): dynamics.beam_problem(
                    benchmarks.gen_benchmark("beam" + case, variant=method),
                    method, cfg.alpha0)
                for case in ("A", "B") for method in ("fem", "vem")}
    tables = [("eps,method,omega_max,argmax_element,omega_reference,"
               "dt_ratio_vem_over_fem", _family_rows(name, eps))
              for name, eps in (("tri2d", (1e-1, 1e-2, 1e-5, 1e-8)),
                                ("prism3d", eps_3d), ("wedge", eps_3d),
                                ("kite", eps_pair))] + [
        ("eps,case,omega_fem,omega_vem,dt_ratio_vem_over_fem",
         _spire_rows(eps_pair)),
        ("case,method,omega_star_element,omega_global,dt_ratio_vem_over_fem",
         _beam_rows(problems)),
        ("case,method,dt_crit,steps_for_three_transits,measured_wall_seconds",
         _beam_steps_rows(problems, args.with_dynamics))]
    for k, (header, rows) in enumerate(tables, 1):
        _write_csv(os.path.join(args.out, f"table{k}.csv"), header, rows)
    print(f"wrote table1.csv .. table7.csv under {args.out} (table1-5 at "
          f"alpha0=unit, table6-7 at alpha0={cfg.alpha0})")


def _variant_reports(name, eps):
    """Element-bound reports of both variants of a benchmark at eps, under
    the paper's "unit" preset: the element studies, table1-5, ignore alpha0."""
    return {variant: eig.critical_dt(
                benchmarks.gen_benchmark(name, eps, variant), variant,
                alpha0="unit")
            for variant in ("fem", "vem")}


def _family_rows(name, eps_values):
    """Table 1-4 rows of a benchmark family."""
    for eps in eps_values:
        reports = _variant_reports(name, eps)
        ratio = reports["fem"].omega_star / reports["vem"].omega_star
        for variant, rep in reports.items():
            others = [w for i, w in enumerate(rep.omega_elements)
                      if i != rep.argmax_element]
            ref = min(others) if others else float("nan")
            tail = f"{ratio:.6e}" if variant == "vem" else ""
            yield (f"{eps:g},{variant},{rep.omega_star:.6e},"
                   f"{rep.argmax_element},{ref:.6e},{tail}")


def _spire_rows(eps_values):
    """Table 5 rows: the three spire cases."""
    for eps in eps_values:
        for case in ("A", "B", "C"):
            reports = _variant_reports(f"spire{case}", eps)
            wf, wv = reports["fem"].omega_star, reports["vem"].omega_star
            yield f"{eps:g},{case},{wf:.6e},{wv:.6e},{wf / wv:.6e}"


def _beam_rows(problems):
    """Table 6 rows: both bounds of the four beam problems."""
    for (case, method), p in problems.items():
        ratio = (problems[case, "fem"].report.omega_star
                 / problems[case, "vem"].report.omega_star)
        yield (f"{case},{method},{p.report.omega_star:.6e},"
               f"{p.omega_global:.6e},{ratio if method == 'vem' else ''}")


def _beam_steps_rows(problems, with_dynamics):
    """Table 7 rows: the steps of the beam run schedule on the bound the
    method runs on (FEM: global, VEM: element); with_dynamics runs the VEM
    beams and reports their measured steps and loop time."""
    for (case, method), p in problems.items():
        bound = p.dt_crit("element" if method == "vem" else "global")
        dt = dynamics.BEAM_DT_FACTOR * bound
        steps = dynamics.step_count(dynamics.BEAM_TRANSITS * p.transit, dt)
        wall = ""
        if with_dynamics and method == "vem":
            res = dynamics.run_beam(p, dt, dynamics.BEAM_TRANSITS,
                                    dynamics.beam_pulse_duration(case)).result
            steps, wall = res.steps, f"{res.wall_seconds:.3f}"
        yield f"{case},{method},{bound:.6e},{steps},{wall}"


if __name__ == "__main__":
    sys.exit(main())
