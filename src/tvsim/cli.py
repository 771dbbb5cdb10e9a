"""Command-line interface.

Subcommands:

  run <config>            integrate a scenario, write CSV/manifest/snapshots
  check <config>          validation and admissibility only
  sweep <config>          independent runs along one config axis
  convergence <config>    manufactured-solution convergence study
  material-table <config> dump (xi, kappa, K, ell, ell_hat) as CSV

<config> is a JSON file or the name of a built-in scenario (list with
`run --list`).  Exit status is 0 only when the run finished with zero
inequality violations (`check`: when the config is admissible).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import runner
from .errors import AdmissibilityError, ConfigError, TvsimError
from .scenarios import build_scenario, builtin_scenarios


def _load_config(spec):
    presets = builtin_scenarios()
    if spec in presets:
        return presets[spec]
    try:
        with open(spec) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{spec}: cannot read a JSON config ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{spec}: a config must be a JSON object")
    return config


def _cmd_run(args):
    if args.list:
        for name in sorted(builtin_scenarios()):
            print(name)
        return 0
    config = _load_config(args.config)
    if args.out is None:
        # the output directory is the only environment-configurable setting
        args.out = os.environ.get("TVSIM_OUT", "tvsim-out")
    manifest = runner.run(config, args.out, restart_from=args.restart_from)
    total = manifest["violations"]["total"]
    print(f"run '{manifest['name']}': steps={manifest['run']['steps']} "
          f"violations={total} theta_inf={manifest['limits']['theta_inf']:.6g}")
    return 0 if total == 0 else 1


def _cmd_check(args):
    config = _load_config(args.config)
    scenario = build_scenario(config)
    from .scenarios import admissibility
    report = admissibility(scenario)
    print(f"scenario '{scenario.name}': admissible={report.passed} "
          f"kappa={scenario.model_raw.classify().variant}")
    for reason in report.reasons():
        print(f"  reject: {reason}")
    if report.cells_below_floor:
        print(f"  note: {report.cells_below_floor} cells below the floor "
              f"{report.floor:g}")
    return 0 if report.passed else 2


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_sweep(args):
    config = _load_config(args.config)
    values = [_parse_value(v) for v in args.values]
    results = runner.sweep(config, args.axis, values, args.out)
    bad = sum(1 for r in results if r["status"] != "ok"
              or r["manifest"]["violations"]["total"] > 0)
    for r in results:
        status = r["status"] if r["status"] != "ok" else \
            f"ok violations={r['manifest']['violations']['total']}"
        print(f"{r['outdir']}: {status}")
    return 0 if bad == 0 else 1


def _cmd_convergence(args):
    config = _load_config(args.config)
    table = runner.convergence_study(config, levels=args.levels)
    print("spatial:")
    for row in table["spatial"]:
        extra = ""
        if "order_u" in row:
            extra = f" order_u={row['order_u']:.3f} order_th={row['order_theta']:.3f}"
        print(f"  nx={row['nx']:4d} dt={row['dt']:.5g} err_u={row['err_u']:.4e} "
              f"err_theta={row['err_theta']:.4e}{extra}")
    print("temporal:")
    for row in table["temporal"]:
        extra = f" order={row['order']:.3f}" if "order" in row else ""
        print(f"  dt={row['dt']:.5g} err={row['err']:.4e}{extra}")
    ok = (table["spatial_monotone"]
          and table["spatial_order"] >= 1.8 and table["spatial_order_theta"] >= 1.8
          and table["temporal_order"] >= 0.8)
    print(f"spatial order {table['spatial_order']:.3f}/"
          f"{table['spatial_order_theta']:.3f}, temporal order "
          f"{table['temporal_order']:.3f} -> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_material_table(args):
    if not (0 < args.xi_min <= args.xi_max < math.inf) or args.points < 1:
        raise ConfigError("material-table needs 0 < --xi-min <= --xi-max "
                          "< inf and --points >= 1")
    config = _load_config(args.config)
    scenario = build_scenario(config)
    model = scenario.model
    m_shift = scenario.m_shift
    xs = np.geomspace(args.xi_min, args.xi_max, args.points)
    out = sys.stdout if args.out is None else open(args.out, "w")
    try:
        out.write("xi,kappa,K,ell,ell_hat\n")
        for xi in xs:
            vals = [xi, model.kappa(xi), model.K(xi), model.ell(xi),
                    model.ell_hat(xi, m_shift)]
            out.write(",".join(f"{v:.12g}" for v in vals) + "\n")
    finally:
        if args.out is not None:
            out.close()
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tvsim",
        description="Kelvin-Voigt thermoviscoelasticity simulator and "
                    "energy/entropy structure diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario")
    p_run.add_argument("config", nargs="?", default="default-relaxation")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--restart-from", default=None,
                       help="checkpoint prefix or directory to resume from")
    p_run.add_argument("--list", action="store_true",
                       help="list built-in scenarios and exit")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="validate config and initial data")
    p_check.add_argument("config")
    p_check.set_defaults(fn=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="runs along one config axis")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True,
                         help="dotted config path, e.g. solver.eps_reg")
    p_sweep.add_argument("--values", nargs="*", default=[],
                         help="values (JSON literals) along the axis")
    p_sweep.add_argument("--out", default="tvsim-sweep")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_conv = sub.add_parser("convergence", help="manufactured-solution orders")
    p_conv.add_argument("config", nargs="?", default="default-relaxation")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.set_defaults(fn=_cmd_convergence)

    p_mat = sub.add_parser("material-table",
                           help="dump scalar functionals of the material")
    p_mat.add_argument("config", nargs="?", default="default-relaxation")
    p_mat.add_argument("--xi-min", type=float, default=1e-3)
    p_mat.add_argument("--xi-max", type=float, default=1e3)
    p_mat.add_argument("--points", type=int, default=61)
    p_mat.add_argument("--out", default=None)
    p_mat.set_defaults(fn=_cmd_material_table)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AdmissibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TvsimError, OSError) as exc:
        # OSError: an output path that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
