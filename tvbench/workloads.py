"""The benchmark's workloads: seeded inputs, the timed calls and their checks.

Each workload is one public tvsim call on a generated config:

  relax-32         runner.run(default-relaxation), 32x32, t_final 2 (covers
                   the stabilization window [1, 2]); per-call overhead bound
  relax-128        runner.run(default-relaxation), 128x128, 10 steps (theta_inf
                   needs 10 records); bound by the CG solves
  debye-32         runner.run(debye-hotspot), 32x32, t_final 2; adaptive dt,
                   rejections, quadrature in the heat-capacity primitives
  mms-convergence  runner.convergence_study(default-relaxation, levels=3),
                   the `tvsim convergence` command; sympy set-up bound

The seed picks the initial data.  Seed modulo VARIANTS selects one of
VARIANTS input variants; variant 0 is the built-in scenario unchanged, and
every variant has a theta_inf reference in reference.json.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import weakref
from pathlib import Path

VARIANTS = 16
ENERGY_TOL_REL = 1e-9     # max energy residual, times F0
EXCHANGE_TOL = 1e-12      # max |sum of w <B, sym_grad v>|
# the `ok` rule of `tvsim convergence`
MIN_SPATIAL_ORDER = 1.8
MIN_TEMPORAL_ORDER = 0.8

NAMES = ("relax-32", "relax-128", "debye-32", "mms-convergence")
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _uniform(rng, lo, hi):
    return lo + (hi - lo) * rng.random()


def config(tvsim, name, seed):
    """The generated scenario config of a workload; the same seed, the same config.

    Variants other than 0 move the hot spot's centre within [0.45, 0.55]^2
    and its peak within [1.8, 2.2]; relaxation runs also draw the initial
    velocity amplitude from [0.45, 0.55], and the convergence study the
    diffusivity D from [0.8, 1.25].  All of these stay admissible.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    builtin = tvsim.scenarios.builtin_scenarios()
    base = "debye-hotspot" if name == "debye-32" else "default-relaxation"
    cfg = copy.deepcopy(builtin[base])
    if name == "relax-128":
        cfg["grid"].update(nx=128, ny=128)
        cfg["t_final"] = 0.1
        cfg["output"]["window_starts"] = []
    elif name != "mms-convergence":
        cfg["t_final"] = 2.0
        cfg["output"]["window_starts"] = [1.0]
    variant = seed % VARIANTS
    if variant == 0:
        return cfg
    rng = random.Random(variant)
    if name == "mms-convergence":
        cfg["material"]["D"] = _uniform(rng, 0.8, 1.25)
        return cfg
    theta = cfg["initial"]["theta"]
    theta["cx"] = _uniform(rng, 0.45, 0.55)
    theta["cy"] = _uniform(rng, 0.45, 0.55)
    theta["peak"] = _uniform(rng, 1.8, 2.2)
    if name != "debye-32":
        cfg["initial"]["velocity"]["amplitude"] = _uniform(rng, 0.45, 0.55)
    return cfg


def setup(tvsim, name, cfg):
    """The public set-up calls from config to ready-to-step."""
    sc = tvsim.scenarios.build_scenario(cfg)
    tvsim.scenarios.admissibility(sc)
    tvsim.integrator.Integrator(sc.grid, sc.tensors, sc.model,
                                sc.solver).set_diffusivity(sc.d_diff)
    tvsim.diagnostics.Diagnostics(sc.grid, sc.tensors, sc.model, sc.d_diff,
                                  sc.m_shift)
    if name == "mms-convergence":
        # the arguments convergence_study gives each of its problems
        tvsim.mms.ManufacturedProblem(sc.tensors, sc.model_raw.k0, sc.d_diff,
                                      lx=sc.grid.Lx, ly=sc.grid.Ly,
                                      t_final=1.0, amp_u=0.08, amp_theta=0.25)


def call(tvsim, name, cfg, outdir):
    """The timed public call: a manifest, or the convergence table."""
    if name == "mms-convergence":
        return tvsim.runner.convergence_study(cfg, levels=3)
    return tvsim.runner.run(cfg, outdir)


def output_bytes(outdir):
    total = 0
    for dirpath, _, files in os.walk(outdir):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


class StepLedger:
    """Observes every accepted step at Integrator.step for the correctness checks.

    Keeps the step count, Picard iterations, rejections, accepted dt values,
    the largest |exchange| and two energy figures relative to F0 (the first
    step's F_old of each integrator):

    - energy_max_rel, the largest signed energy residual: the law asks
      that energy not increase, so it must stay at or below ENERGY_TOL_REL;
    - balance_max_rel, the largest |residual - numerical dissipation|.  The
      semi-implicit step makes the residual exactly its numerical
      dissipation, -|v_new - v_old|^2 / 2 - dt^2 <v, A_C v> / 2, so a loss
      of energy that the scheme does not account for shows here.
    """

    def __init__(self):
        self.reset()

    def reset(self):
        self.steps = self.picard = self.rejections = 0
        self.dts = set()
        self.energy_max_rel = -math.inf
        self.balance_max_rel = 0.0
        self.exchange_max = 0.0
        self._f0 = weakref.WeakKeyDictionary()

    def observe(self, integ, old, new, rep):
        f0 = self._f0.setdefault(integ, rep.F_old)
        self.steps += 1
        self.picard += rep.picard_iters
        self.rejections += rep.rejections
        self.dts.add(rep.dt)
        g = integ.grid
        dv = new.v - old.v
        v_int = g.interior_vec(new.v)
        dissipation = -0.5 * (g.integrate(dv[..., 0] ** 2 + dv[..., 1] ** 2)
                              + rep.dt ** 2 * float(v_int @ (integ.A_C @ v_int)))
        self.energy_max_rel = max(self.energy_max_rel, rep.energy_residual / f0)
        self.balance_max_rel = max(self.balance_max_rel,
                                   abs(rep.energy_residual - dissipation) / abs(f0))
        self.exchange_max = max(self.exchange_max, abs(rep.exchange_sum))

    def install(self, integrator_cls):
        step = integrator_cls.step
        ledger = self

        def observed_step(integ, state, *args, **kwargs):
            new, rep = step(integ, state, *args, **kwargs)
            ledger.observe(integ, state, new, rep)
            return new, rep

        observed_step.__wrapped__ = step
        integrator_cls.step = observed_step


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def check(name, seed, outcome, ledger, reference):
    """Reasons the call's result is wrong; an empty list means it passed.

    On top of check_solution, theta_inf must match the recorded reference of
    the seed's variant within the workload's stated relative tolerance.
    """
    out = check_solution(name, outcome, ledger)
    if name == "mms-convergence":
        return out
    want = reference["theta_inf"][name][seed % VARIANTS]
    tol = reference["theta_inf_rel_tol"][name]["tol"]
    got = outcome["limits"]["theta_inf"]
    if not abs(got - want) <= tol * abs(want):
        out.append(f"theta_inf {got!r} differs from the reference {want!r} "
                   f"by more than {tol:g} relative")
    return out


def check_solution(name, outcome, ledger):
    """The checks that need no reference: the laws, positivity, orders.

    The energy and exchange laws are checked on every step the ledger saw,
    the forced steps of the convergence study included.
    """
    out = []
    if name == "mms-convergence":
        if not (outcome["spatial_monotone"]
                and outcome["spatial_order"] >= MIN_SPATIAL_ORDER
                and outcome["spatial_order_theta"] >= MIN_SPATIAL_ORDER
                and outcome["temporal_order"] >= MIN_TEMPORAL_ORDER):
            out.append(
                "convergence orders fail the tvsim convergence rule: spatial "
                f"{outcome['spatial_order']:.3f}/{outcome['spatial_order_theta']:.3f}"
                f", temporal {outcome['temporal_order']:.3f}")
        if ledger.steps == 0:
            out.append("no step observed")
    else:
        run = outcome["run"]
        if outcome["violations"]["total"] != 0:
            out.append(f"manifest counts violations {outcome['violations']}")
        if not run["min_theta"] > 0.0:
            out.append(f"min_theta = {run['min_theta']!r} is not positive")
        if ledger.steps != run["steps"]:
            out.append(f"{ledger.steps} steps observed, manifest says {run['steps']}")
    if not ledger.energy_max_rel <= ENERGY_TOL_REL:
        out.append(f"energy residual {ledger.energy_max_rel:.3e} F0 above "
                   f"{ENERGY_TOL_REL:g} F0")
    if not ledger.balance_max_rel <= ENERGY_TOL_REL:
        out.append(f"energy residual differs from the numerical dissipation by "
                   f"{ledger.balance_max_rel:.3e} F0, above {ENERGY_TOL_REL:g} F0")
    if not ledger.exchange_max <= EXCHANGE_TOL:
        out.append(f"|exchange| {ledger.exchange_max:.3e} above {EXCHANGE_TOL:g}")
    return out
