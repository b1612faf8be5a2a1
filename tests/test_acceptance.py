"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not deferred.  Criterion 9's weighted-form sweep
is asserted exactly as stated: the projected weighted minimum must be
positive at every swept exponent gamma in {0.025, 0.05, 0.1}.
"""

import math

import numpy as np

from wave4d.boosts import build_exp_directions, pair_vector
from wave4d.energy import coercivity_probe
from wave4d.evolver import (CylWaveEvolver, GridBasis, evolve,
                            measure_mode_rates, shooting_experiment,
                            soliton_background)
from wave4d.fields import (Grid2DCyl, GridRadial, eval_on_grid,
                           grid_h_norm_sq, inner_pair_l2, norm_pair,
                           stationary_residual_norm)
from wave4d.fitting import fit_loglog
from wave4d.interactions import (g_part_norms, interaction_rate_table,
                                 sigma_rate, slow_pairing_lawcheck,
                                 slow_pairing_series, soliton_config,
                                 two_soliton_config)
from wave4d.modulation import build_initial_data, decompose, \
    exp_direction_family
from wave4d.quadrature import QuadratureSpec
from wave4d.spectrum import (assemble_radial, negative_spectrum,
                             shooting_rate, verify_cancellation,
                             verify_exponential_decay)
from wave4d.states import GENERATOR_IDS, kelvin, symmetry_generator


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {tag} {name} {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_stationary_suite(W, rng):
    res = [stationary_residual_norm(W, GridRadial(20.0, n + 1))
           for n in (200, 400, 800)]
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    KW = kelvin(W)
    pts = rng.normal(scale=3.0, size=(1000, 4))
    kel = float(np.max(np.abs(KW.evaluate(pts) - 8.0 * W.evaluate(8.0 * pts))))
    ok = min(orders) >= 1.8 and kel <= 1e-10
    _report(1, "stationary residual order / Kelvin identity", ok,
            f"order={min(orders):.2f} kelvin={kel:.2e}")


def _kernel_residual_norm(gen, W, n, r_ball=8.0):
    """L2(ball) norm of the linearized operator on a generator field,
    through the exact angular reduction (kernel fields of the radial
    profile are monomial * radial)."""
    from wave4d.quadrature import moment

    terms = gen.poly_radial_terms()
    h = r_ball / n
    r = (np.arange(1, n) * h)
    total = 0.0
    for m, part in terms:
        S = part
        Sm, S0, Sp = S(r - h), S(r), S(r + h)
        d1 = (Sp - Sm) / (2 * h)
        d2 = (Sp - 2 * S0 + Sm) / h**2
        deg = int(np.sum(m))
        coef = 3.0 + 2.0 * deg  # radial Laplacian shift for x^m S(|x|)
        Wv = 1.0 / (1.0 + r * r / 8.0)
        T = -(d2 + coef / r * d1) - 3.0 * Wv**2 * S0
        ang = moment(2 * np.asarray(m), 4)
        total += ang * float(np.sum(T**2 * r ** (3 + 2 * deg) * h))
    return math.sqrt(total)


def test_criterion_02_kernel_suite(W, rng):
    worst_order = math.inf
    for gid in GENERATOR_IDS:
        gen = symmetry_generator(W, gid)
        if getattr(gen, "is_zero", False):
            assert gid.startswith("rotation")
            continue
        res = [_kernel_residual_norm(gen, W, n) for n in (400, 800)]
        worst_order = min(worst_order, math.log2(res[0] / res[1]))
    ids = ["scaling"] + [f"translation_{i}" for i in (1, 2, 3, 4)] \
        + [f"conformal_{i}" for i in (1, 2, 3, 4)]
    gens = {g: symmetry_generator(W, g) for g in ids}
    worst_ratio = 0.0
    for _ in range(20):
        trip = rng.choice(ids, size=3)
        val, scale = verify_cancellation(*[gens[g] for g in trip], W)
        worst_ratio = max(worst_ratio, abs(val) / scale)
    ok = worst_order >= 1.8 and worst_ratio <= 1e-6
    _report(2, "kernel residual order / cancellation", ok,
            f"order={worst_order:.2f} cancellation={worst_ratio:.2e}")


def test_criterion_03_spectral_suite(W, ground_eigen):
    op = assemble_radial(W, r_max=30.0, n=3000)
    res = negative_spectrum(op, k=4)
    lam_sh = shooting_rate(W)
    rel = abs(res.lams[0] - lam_sh) / lam_sh
    fit = verify_exponential_decay(res.fields[0], res.lams[0])
    rate_rel = abs(-fit.slope - res.lams[0]) / res.lams[0]
    ok = res.count == 1 and rel <= 0.01 and rate_rel <= 0.10
    _report(3, "one negative eigenvalue / shooting match / decay fit", ok,
            f"count={res.count} rate_rel={rel:.2e} decay_rel={rate_rel:.2e}")


def test_criterion_04_exponential_directions(W, ground_eigen):
    from wave4d.boosts import z_identity_residual

    lam, Y = ground_eigen
    spec = QuadratureSpec(nodes=12, r_max=25.0)
    worst_resid = 0.0
    worst_orth = 0.0
    for ell in (0.0, 0.3, 0.6):
        dirs = build_exp_directions(Y, lam, ell)
        for key in ("+", "-"):
            worst_resid = max(worst_resid, z_identity_residual(
                dirs[key], W, QuadratureSpec(nodes=8,
                                             r_max=18.0), fd_step=5e-3))
            zn = math.sqrt(inner_pair_l2(dirs[key].z_pair,
                                         dirs[key].z_pair, spec))
            for gid in ("scaling", "translation_1", "conformal_1"):
                kp = pair_vector(symmetry_generator(W, gid), ell, 1)
                scale = norm_pair(kp, spec) * zn
                v = abs(inner_pair_l2(kp, dirs[key].z_pair, spec))
                worst_orth = max(worst_orth, v / scale)
    ok = worst_resid <= 1e-3 and worst_orth <= 1e-6
    _report(4, "J-identity residual / kernel orthogonality", ok,
            f"resid={worst_resid:.2e} orth={worst_orth:.2e}")


def test_criterion_05_interaction_rates():
    times = [10.0, 20.0, 40.0, 80.0, 160.0]
    rows = interaction_rate_table(
        [(1.0, 3.0), (0.5, 2.5), (1.5, 3.0),      # alpha2 > 2: -2 a1
         (1.5, 1.5), (1.2, 1.8), (1.8, 1.9),      # alpha2 < 2: 4 - 2(a1+a2)
         (1.0, 2.0), (0.5, 2.0), (1.5, 2.0)],     # alpha2 = 2: log law
        times, spec=QuadratureSpec(nodes=10))
    gaps, coeffs = [], []
    for r in rows:
        if r["law"] == "power":
            gaps.append(abs(r["fit"].slope - r["expected"]))
        else:
            coeffs.append(r["fit"].slope)
    ok = max(gaps) <= 0.3 and min(coeffs) > 1.0
    _report(5, "two-center decay laws", ok,
            f"max_slope_gap={max(gaps):.2f} min_log_coeff={min(coeffs):.2f}")


def test_criterion_06_g1_law(Qs):
    spec = QuadratureSpec(nodes=8, r_max=40.0)
    times = [10.0, 20.0, 40.0, 80.0]
    cfg_s = two_soliton_config(
        Qs, symmetry_generator(Qs, "conformal_4"),
        [symmetry_generator(Qs, "scaling")])
    slope_s = fit_loglog(times, [g_part_norms(cfg_s, t, spec)["g1"]
                                 for t in times]).slope
    cfg_w = soliton_config("ground", (-0.5, 0.5))
    slope_w = fit_loglog(times, [g_part_norms(cfg_w, t, spec)["g1"]
                                 for t in times]).slope
    ok = -4.5 <= slope_s <= -3.5 and -2.5 <= slope_w <= -1.5
    _report(6, "interaction-norm decay exponents", ok,
            f"excited={slope_s:.2f} ground={slope_w:.2f}")


def test_criterion_07_log_law(Qs):
    psi = symmetry_generator(Qs, "conformal_4")
    times = [20.0, 40.0, 80.0, 160.0, 320.0]
    spec = QuadratureSpec(nodes=10)
    worst = 0.0
    for ell in (0.0, 0.6):
        fit = slow_pairing_lawcheck(psi, ell, times, sigma=0.1, spec=spec)
        worst = max(worst, abs(fit.slope - sigma_rate(ell)) / sigma_rate(ell))
    cross = slow_pairing_series(psi, -0.5, 0.1, times, other=psi,
                                other_ell=0.5, spec=spec)
    bound = max(abs(v) for v in cross)
    ok = worst <= 0.05 and bound <= 1.0
    _report(7, "log-time pairing law / bounded cross pairing", ok,
            f"slope_rel={worst:.3f} cross_sup={bound:.3f}")


def test_criterion_08_modulation_roundtrip(ground_eigen):
    spec = QuadratureSpec(nodes=6, r_max=25.0)
    cfg = soliton_config("surrogate", (-0.5, 0.5))
    dirs = exp_direction_family(cfg, [ground_eigen])
    ratios = []
    worst_rel = 0.0
    for T in (20.0, 40.0, 80.0):
        z = 0.5 * T**-3.5 * np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
        built = build_initial_data(cfg, T, z, dirs, spec)
        ratios.append(built["bound_ratio"])
        st = decompose(built["u"], cfg, T, spec, directions=dirs)
        zs = np.max(np.abs(z))
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(st.a))) / zs,
                        float(np.max(np.abs(st.b))) / zs,
                        float(np.max(np.abs(st.z_plus - z))) / zs)
    stable = max(ratios) / min(ratios)
    ok = worst_rel <= 1e-8 and stable <= 2.0
    _report(8, "well-prepared data round trip / coefficient bound", ok,
            f"roundtrip_rel={worst_rel:.2e} C_spread={stable:.2f}")


def test_criterion_09_coercivity(W, ground_eigen):
    lam, Y = ground_eigen
    kf = [symmetry_generator(W, "scaling"),
          symmetry_generator(W, "translation_1")]
    spec = QuadratureSpec(nodes=8, r_max=25.0)
    plain_ok = True
    control = math.inf
    details = []
    for ell in (0.0, 0.5):
        dirs = build_exp_directions(Y, lam, ell)
        rep = coercivity_probe(ell, W, kf, dirs, n_samples=100, seed=12345,
                               spec=spec, negative_field=Y)
        plain_ok &= rep.c_min > 0.0
        control = min(control, rep.negative_control)
        details.append(f"c({ell})={rep.c_min:.3f}")
    weighted = {}
    dirs0 = build_exp_directions(Y, lam, 0.0)
    for gamma in (0.025, 0.05, 0.1):
        rep = coercivity_probe(0.0, W, kf, dirs0, n_samples=100, seed=12345,
                               gamma=gamma, spec=spec)
        weighted[gamma] = rep.c_min
    weighted_ok = all(v > 0.0 for v in weighted.values())
    ok = plain_ok and weighted_ok and control < 0.0
    _report(9, "projected coercivity / weighted sweep / negative control",
            ok, " ".join(details) + " weighted=" + str(
                {g: round(v, 4) for g, v in weighted.items()})
            + f" control={control:.3f}")


def test_criterion_10_evolution_suite(W, ground_eigen):
    # stationary persistence at a fixed window with order-2 refinement
    cfg0 = soliton_config("ground", [0.0])
    devs = {}
    for h in (0.1, 0.05):
        grid = Grid2DCyl(-14.0, 14.0, int(28 / h) + 1, 14.0, int(14 / h) + 1)
        wp = pair_vector(W, 0.0, 1)
        ev = CylWaveEvolver(grid, eval_on_grid(wp.first, grid),
                            eval_on_grid(wp.second, grid),
                            background=soliton_background(cfg0, grid))
        ev.run_until(4.0)
        warr = eval_on_grid(W, grid)
        devs[h] = math.sqrt(grid_h_norm_sq(ev.u - warr, ev.v_sync(), grid))
    order = math.log2(devs[0.1] / devs[0.05])

    # boosted transport: speed, corrected conservation drift
    ell = 0.4
    cfgb = soliton_config("ground", [ell])
    grid = Grid2DCyl(-14.0, 18.0, 641, 14.0, 281)
    basis = GridBasis(cfgb, grid, [ground_eigen])
    series = evolve(pair_vector(W, ell, 1), 0.0, 6.0, grid, basis=basis,
                    cadence=0.25, background=soliton_background(cfgb, grid))
    speed = float(np.polyfit(series.times, series.centers, 1)[0])
    speed_rel = abs(speed - ell) / ell
    e_drift = series.drift("energy") * 10.0 / 6.0
    p_drift = series.drift("momentum") * 10.0 / 6.0

    # linearized mode rates against the spectral prediction
    worst_rate = 0.0
    for ell_m in (0.0, 0.5):
        out = measure_mode_rates(ell_m, *ground_eigen, h=0.1)
        alpha = out["alpha"]
        worst_rate = max(worst_rate,
                         abs(out["growing"]["rate"] - alpha) / alpha,
                         abs(out["decaying"]["rate"] + alpha) / alpha)

    ok = (devs[0.1] < 0.1 and order >= 1.8 and speed_rel <= 0.01
          and e_drift <= 1e-3 and p_drift <= 1e-3 and worst_rate <= 0.05)
    _report(10, "evolution: persistence/order/speed/drift/rates", ok,
            f"dev={devs[0.1]:.3f} order={order:.2f} speed_rel={speed_rel:.4f}"
            f" E10={e_drift:.2e} P10={p_drift:.2e} rate_rel={worst_rate:.3f}")


def test_criterion_11_shooting(ground_eigen):
    rep = shooting_experiment(T=20.0, t_end=6.0, bracket=(-6e-3, 6e-3),
                              h=0.12, n_sweep=7, n_bisect=10,
                              lam_Y=ground_eigen)
    taus = [r["exit_tau"] for r in rep["sweep"]]
    interior = max(taus[1:-1])
    unimodal = interior > max(taus[0], taus[-1])
    ok = unimodal and rep["gain"] >= 2.0
    _report(11, "shooting: unimodal exit / optimum persistence", ok,
            f"gain={rep['gain']:.2f} edges={rep['edge_exit']}"
            f" best_tau={rep['optimum']['exit_tau']:.2f}")
