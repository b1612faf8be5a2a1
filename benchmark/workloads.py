"""Set-up and operations of the three benchmark workloads.

Every operation calls the public functions that the ``wave4d.cli`` suite
runners call, with the suite settings of ``cli.DEFAULTS``; only the random
inputs (coercivity bump seed, round-trip amplitude direction) come from the
benchmark seed.  ``SETUPS[name](seed)`` does the set-up of one workload and
returns the operations of one round, in order.  An operation's ``run`` gets
the results of the operations before it in the round; its ``check`` returns
the properties its result breaks (see ``checks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wave4d import (boosts, cli, energy, evolver, interactions, modulation,
                    quadrature, spectrum, states)

import checks


@dataclass
class Operation:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], list]


def _ground_eigenpair(W):
    """The radial ground eigenpair every suite runner computes."""
    res = spectrum.negative_spectrum(
        spectrum.assemble_radial(W, r_max=25.0, n=1500), k=1)
    return res.lams[0], res.fields[0]


def _two_soliton(profile: str, speeds):
    """The suites' two-soliton configuration (cli._interaction_config)."""
    gen = states.symmetry_generator
    if profile == "surrogate":
        Q = states.surrogate_excited_state()
        return interactions.two_soliton_config(
            Q, gen(Q, "conformal_4"),
            [gen(Q, g) for g in ("scaling", "translation_1")],
            speeds=tuple(speeds))
    W = states.ground_state()
    return interactions.two_soliton_config(
        W, gen(W, "scaling"), [gen(W, "translation_1")], speeds=tuple(speeds))


def _fixed(nodes: int, r_max: float) -> quadrature.QuadratureSpec:
    return quadrature.QuadratureSpec(scheme="fixed", nodes=nodes, r_max=r_max)


def setup_projection(seed: int) -> list:
    """energy suite probes, a plain probe at ell = 0.5, criterion-8 round trip
    at T = 20 (modulate suite profile and speeds)."""
    en, mod = cli.DEFAULTS["energy"], cli.DEFAULTS["modulate"]
    rng = np.random.default_rng(seed)
    bump_seed = int(rng.integers(2**31))
    T = mod["time"]
    direction = rng.normal(size=(len(mod["speeds"]), 1))
    z = 0.5 * T**-3.5 * direction / np.linalg.norm(direction)

    W = states.ground_state()
    lam, Y = _ground_eigenpair(W)
    kf = [states.symmetry_generator(W, "scaling"),
          states.symmetry_generator(W, "translation_1")]
    probe_spec = _fixed(8, 25.0)
    dirs = {ell: boosts.build_exp_directions(Y, lam, ell)
            for ell in (en["ell"], 0.5)}
    mcfg = _two_soliton(mod["profile"], mod["speeds"])
    family = modulation.exp_direction_family(mcfg, [(lam, Y)])
    # the acceptance gate's criterion-8 resolution; the modulate suite itself
    # needs a pair file and does not run with its defaults
    mod_spec = _fixed(6, 25.0)

    def probe(ell, **kw):
        return energy.coercivity_probe(ell, W, kf, dirs[ell],
                                       n_samples=en["samples"],
                                       seed=bump_seed, spec=probe_spec, **kw)

    def round_trip(_):
        built = modulation.build_initial_data(mcfg, T, z, family, mod_spec)
        return modulation.decompose(built["u"], mcfg, T, mod_spec,
                                    directions=family)

    return [
        Operation("energy_plain",
                  lambda _: probe(en["ell"], negative_field=Y),
                  lambda r: checks.coercivity(r.c_min, r.negative_control)),
        Operation("energy_weighted",
                  lambda _: probe(en["ell"], gamma=en["gamma"]),
                  lambda r: checks.coercivity(r.c_min)),
        Operation("probe_ell_0.5", lambda _: probe(0.5),
                  lambda r: checks.coercivity(r.c_min)),
        Operation("round_trip_T20", round_trip,
                  lambda st: checks.round_trip(st.a, st.b, st.z_plus, z)),
    ]


def setup_dynamics(seed: int) -> list:
    """shoot suite, evolve suite run, bootstrap margins of that run.

    Both suites are deterministic; the seed selects no input here.
    """
    sh, ev = cli.DEFAULTS["shoot"], cli.DEFAULTS["evolve"]
    W = states.ground_state()
    lam, Y = _ground_eigenpair(W)
    ell = ev["ell"]
    mcfg = interactions.MultiSolitonConfig(
        profiles=[W], speeds=[ell], signs=[1], a=np.zeros(1),
        b=np.zeros((1, 1)),
        slow=[states.symmetry_generator(W, "scaling")],
        kernels=[[states.symmetry_generator(W, "translation_1")]])
    grid = evolver.default_grid_for(ell, ev["t1"], margin=10.0, h=ev["h"])
    basis = evolver.GridBasis(mcfg, grid, [(lam, Y)])
    background = evolver.soliton_background(mcfg, grid)
    u0 = boosts.pair_vector(W, ell, 1)

    def shoot(_):
        return evolver.shooting_experiment(
            T=sh["T"], t_end=sh["t_end"], bracket=tuple(sh["bracket"]),
            h=sh["h"], lam_Y=(lam, Y))

    def evolve(_):
        series = evolver.evolve(u0, 0.0, ev["t1"], grid, basis=basis,
                                cadence=ev["cadence"], background=background)
        speed = float(np.polyfit(series.times, series.centers, 1)[0])
        return series, speed

    def check_evolve(result):
        series, speed = result
        return checks.evolution(series.drift("energy"), ev["t1"], speed, ell,
                                series.status)

    def margins(done):
        series, _ = done["evolve"]
        return evolver.bootstrap_margins(series, ev["c0"]), series.times

    return [
        Operation("shoot", shoot,
                  lambda r: checks.shooting(
                      r["gain"], [s["exit_tau"] for s in r["sweep"]],
                      r["edge_exit"])),
        Operation("evolve", evolve, check_evolve),
        Operation("bootstrap_margins", margins,
                  lambda r: checks.bootstrap(*r)),
    ]


# int W^4 over R^4 for W = (1 + |x|^2 / 8)^-1: 2 pi^2 * 32 * B(2, 2)
W4_INTEGRAL = 32.0 * math.pi**2 / 3.0


def setup_laws(seed: int) -> list:
    """interactions suite for both profiles, pairwise split, spectrum suite,
    closed-form quadrature pass.

    All inputs are fixed by the suite settings; the seed selects none.
    """
    it, sp = cli.DEFAULTS["interactions"], cli.DEFAULTS["spectrum"]
    W = states.ground_state()
    scaling = states.symmetry_generator(W, "scaling")
    spec = _fixed(it["nodes"], it["r_max"])
    configs = {p: _two_soliton(p, it["speeds"])
               for p in ("surrogate", "ground")}
    # a cylinder of radius 200 leaves out < 2e-7 of int W^4
    w4_spec = _fixed(it["nodes"], 200.0)

    def g_norms(profile):
        return lambda _: interactions.verify_G_norms(
            configs[profile], it["times"], spec)["g1_fit"].slope

    def pairwise(_):
        cfg = configs["surrogate"]
        return [(interactions.pairwise_q_norm(cfg, t, spec, split=True)[0],
                 interactions.pairwise_q_norm(cfg, t, spec))
                for t in it["times"]]

    def spectrum_suite(_):
        op = spectrum.assemble_radial(W, r_max=sp["r_max"], n=sp["n"])
        res = spectrum.negative_spectrum(op, k=sp["k"])
        oracle = spectrum.shooting_rate(W)
        fit = spectrum.verify_exponential_decay(res.fields[0], res.lams[0])
        kc = spectrum.kernel_count(op, [scaling])
        return dict(lam=res.lams[0], oracle=oracle, count=res.count,
                    kernel=kc["count"], alignment=max(kc["alignments"]),
                    decay_rate=-fit.slope)

    def w4(_):
        return quadrature.integrate_callable(
            lambda X: W.evaluate(X) ** 4, quadrature.SYM_CYL, w4_spec).value

    return [
        Operation("g_norms_surrogate", g_norms("surrogate"),
                  lambda s: checks.g1_slope(s, -4.0)),
        Operation("g_norms_ground", g_norms("ground"),
                  lambda s: checks.g1_slope(s, -2.0)),
        Operation("pairwise_split", pairwise,
                  lambda rows: [m for s, u in rows
                                for m in checks.split_sums(s, u)]),
        Operation("spectrum", spectrum_suite,
                  lambda r: checks.spectrum(r["lam"], r["oracle"], r["count"],
                                            r["kernel"], r["alignment"],
                                            r["decay_rate"])),
        Operation("w4_integral", w4,
                  lambda v: checks.closed_form(v, W4_INTEGRAL)),
    ]


SETUPS = {"projection": setup_projection, "dynamics": setup_dynamics,
          "laws": setup_laws}
