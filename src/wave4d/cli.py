"""Command-line orchestration of the verification suites.

One JSON config file holds per-suite sections; flags override file values
(flag > file > default).  ``DEFAULTS`` is the one table of suite values: the
config check and each suite's flags are read off it, a value's JSON type
being that of its default.  A config file that cannot be read or parsed,
with a suite or key that DEFAULTS does not hold or a value of another type
(an integer key must hold a JSON integer, not 8.0), or a value out of its
domain (an h, T, time, samples, t1, cadence or r_max that is not positive
and finite, nodes below 2, a negative seed), ends the run before any work
with a message on standard error and exit status 2.  So does input that a
suite's own checks refuse with a ValueError, such as a gamma outside
(0, 1), a speed |ell| >= 1, speeds not increasing, a time at or below 0
or too few times for a rate fit, k or a spectrum cell count n below 1, a
single grid size or a shooting bracket whose ends both persist or exit on
the same side: one line on standard error, exit status 2.  Every other
run exits nonzero iff an asserted criterion failed, and writes into the
output directory

- ``<suite>_resolved_config.json``: the fully resolved configuration;
- ``<suite>_results.json``: the machine-readable results;
- ``<suite>_summary.json``: the criteria and their verdicts;
- one CSV series for three suites: ``states_residuals.csv``,
  ``interactions_g1.csv`` and ``evolve_monitors.csv``.

``report`` renders the summaries already written, without recomputation, to
standard output and ``report.txt``.  The output root comes from --out, then
the WAVE4D_OUT environment variable, then ./wave4d_out.

Every soliton a suite builds comes from the catalogue interactions.PROFILES:
the ``profile`` choices are its rows, ``interactions`` and ``modulate`` take
their configuration from soliton_config and their G1 slope window, -p +- 0.5,
from the row's power p, ``evolve`` moves the ground row's profile, and
``states``, ``spectrum`` and ``energy`` read the slow and kernel directions
off the surrogate and ground rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .interactions import PROFILES, soliton_config

DEFAULTS = {
    "states": dict(r_max=20.0, grid_sizes=[200, 400, 800],
                   kelvin_points=1000, seed=7),
    "spectrum": dict(r_max=30.0, n=3000, k=3),
    "interactions": dict(profile="surrogate", speeds=[-0.5, 0.5],
                         times=[10.0, 20.0, 40.0, 80.0], nodes=8,
                         r_max=40.0),
    "modulate": dict(pair_file="", profile="surrogate", speeds=[-0.5, 0.5],
                     time=20.0, nodes=8, r_max=30.0),
    "energy": dict(speeds=[-0.5, 0.5], gamma=0.05, samples=40, seed=12345,
                   ell=0.0),
    "evolve": dict(ell=0.4, t1=5.0, h=0.1, cadence=0.5, c0=40.0),
    "shoot": dict(T=20.0, t_end=6.0, bracket=[-6e-3, 6e-3], h=0.12),
}
SUITES = tuple(DEFAULTS)

# keys whose string value is one of a fixed set, wherever they appear
_CHOICES = {"profile": list(PROFILES)}
# keys whose value must be a positive finite number, wherever they appear
_POSITIVE = ("h", "T", "time", "samples", "t1", "cadence", "r_max")
# keys with a least value, wherever they appear: a Gauss rule needs two
# nodes, and a seed is a non-negative integer
_LEAST = {"nodes": 2, "seed": 0}


class ConfigError(ValueError):
    pass


def _config_errors(value, default=DEFAULTS, path=()) -> list:
    """(path, message) of each part of a config value that its default does
    not take.  DEFAULTS and its sections take their own keys only, a list
    takes items of its default's item type, and any other value takes one
    of its key's _CHOICES or the JSON type of its default: an int for an
    integer (8.0 is not one), an int or a float for a number, a str for a
    string, and never a boolean."""
    if type(default) is dict:
        if type(value) is not dict:
            return [(path, f"{value!r} is not an object")]
        return [e for k, v in value.items() for e in (
            _config_errors(v, default[k], (*path, k)) if k in default
            else [((*path, k), "unknown suite or key")])]
    if type(default) is list:
        if type(value) is not list:
            return [(path, f"{value!r} is not an array")]
        return [e for i, v in enumerate(value)
                for e in _config_errors(v, default[0], (*path, i))]
    choices = _CHOICES.get(path[-1])
    if choices is not None:
        return [] if value in choices else [
            (path, f"{value!r} is not one of {choices}")]
    types = (int, float) if type(default) is float else (type(default),)
    return [] if type(value) in types else [
        (path, f"{value!r} is not of the type of the default {default!r}")]


def load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    # JSON object keys are strings and list indices integers, so paths
    # compare position by position
    errors = sorted(_config_errors(data))
    if errors:
        msgs = [f"{'/'.join(map(str, p)) or '<root>'}: {m}"
                for p, m in errors]
        raise ConfigError("invalid config:\n  " + "\n  ".join(msgs))
    return data


def resolve(suite: str, file_cfg: dict, overrides: dict) -> dict:
    cfg = dict(DEFAULTS[suite])
    cfg.update(file_cfg.get(suite, {}))
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    bad = [f"{k} = {cfg[k]!r} must be positive and finite" for k in _POSITIVE
           if k in cfg and not 0 < cfg[k] < math.inf]
    bad += [f"{k} = {cfg[k]!r} must be >= {least}"
            for k, least in _LEAST.items() if k in cfg and not cfg[k] >= least]
    if bad:
        raise ConfigError(f"{suite}: {', '.join(bad)}")
    return cfg


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def criterion(name, value, threshold, kind="le") -> dict:
    ops = {"le": lambda v, t: v <= t, "ge": lambda v, t: v >= t,
           "gt": lambda v, t: v > t, "eq": lambda v, t: v == t}
    return dict(name=name, value=value, threshold=threshold, kind=kind,
                passed=bool(ops[kind](value, threshold)))


def finish(outdir: Path, suite: str, cfg: dict, results: dict,
           criteria: list) -> int:
    write_json(outdir / f"{suite}_resolved_config.json", cfg)
    write_json(outdir / f"{suite}_results.json", results)
    summary = dict(suite=suite, criteria=criteria,
                   all_passed=all(c["passed"] for c in criteria))
    write_json(outdir / f"{suite}_summary.json", summary)
    for c in criteria:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"[{tag}] {c['name']}: value={c['value']:.6g} "
              f"{c['kind']} {c['threshold']:.6g}")
    return 0 if summary["all_passed"] else 1


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_states(cfg: dict, outdir: Path) -> int:
    from .fields import GridRadial, stationary_residual_norm
    from .fitting import check_decay
    from .states import ground_state, kelvin

    if len(cfg["grid_sizes"]) < 2:
        raise ValueError("grid_sizes needs two sizes or more for an order")
    W = ground_state()
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    residuals = [stationary_residual_norm(W, GridRadial(cfg["r_max"], n + 1))
                 for n in cfg["grid_sizes"]]
    orders = [math.log2(residuals[i] / residuals[i + 1])
              for i in range(len(residuals) - 1)]
    rows.append(("stationary_residual_order", min(orders)))

    KW = kelvin(W)
    pts = rng.normal(scale=3.0, size=(cfg["kelvin_points"], 4))
    ref = 8.0 * W.evaluate(8.0 * pts)
    kel_err = float(np.max(np.abs(KW.evaluate(pts) - ref)))
    rows.append(("kelvin_identity_max_err", kel_err))

    Q, psi, _ = PROFILES["surrogate"].fields()
    radii = [10.0 * 2**k for k in range(5)]
    fits = dict(W=check_decay(W, 2.0, radii),
                Q=check_decay(Q, 3.0, radii),
                psi=check_decay(psi, 2.0, radii))
    for name, expected in (("W", -2.0), ("Q", -3.0), ("psi", -2.0)):
        rows.append((f"decay_slope_{name}", fits[name].slope))

    results = dict(rows=[dict(name=n, value=v) for n, v in rows],
                   residuals=residuals,
                   decay=({k: vars(f) for k, f in fits.items()}))
    crit = [
        criterion("residual order >= 1.8", min(orders), 1.8, "ge"),
        criterion("kelvin identity <= 1e-10", kel_err, 1e-10, "le"),
        criterion("W decay slope within 0.15 of -2",
                  abs(fits["W"].slope + 2.0), 0.15, "le"),
        criterion("surrogate decay slope within 0.15 of -3",
                  abs(fits["Q"].slope + 3.0), 0.15, "le"),
        criterion("slow kernel decay slope within 0.15 of -2",
                  abs(fits["psi"].slope + 2.0), 0.15, "le"),
    ]
    write_csv(outdir / "states_residuals.csv", ["n", "residual"],
              list(zip(cfg["grid_sizes"], residuals)))
    return finish(outdir, "states", cfg, results, crit)


def run_spectrum(cfg: dict, outdir: Path) -> int:
    from .spectrum import (assemble_radial, kernel_count, negative_spectrum,
                           shooting_rate, verify_exponential_decay)

    W, slow, _ = PROFILES["ground"].fields()
    op = assemble_radial(W, r_max=cfg["r_max"], n=cfg["n"])
    res = negative_spectrum(op, k=cfg["k"])
    lam_shoot = shooting_rate(W)
    fit = None
    # the rows that need lam_1 read nan, and fail, when there is none
    shoot_gap = decay_gap = math.nan
    if res.count:
        lam = res.lams[0]
        fit = verify_exponential_decay(res.fields[0], lam)
        shoot_gap = abs(lam - lam_shoot) / lam_shoot
        decay_gap = abs(-fit.slope - lam) / lam
    kc = kernel_count(op, [slow])
    results = dict(eigenvalues=res.eigenvalues, lams=res.lams,
                   residuals=res.residuals, shooting=lam_shoot,
                   decay_fit=vars(fit) if fit else None, kernel=kc)
    crit = [
        criterion("exactly one negative eigenvalue", res.count, 1, "eq"),
        criterion("grid vs shooting rate <= 1%", shoot_gap, 0.01, "le"),
        criterion("eigenfield decay rate within 10%", decay_gap, 0.10, "le"),
        criterion("one near-zero mode", kc["count"], 1, "eq"),
        criterion("near-zero mode aligned with scaling generator",
                  kc["alignments"][0], 0.99, "ge"),
    ]
    return finish(outdir, "spectrum", cfg, results, crit)


def run_interactions(cfg: dict, outdir: Path) -> int:
    from .interactions import verify_G_norms
    from .quadrature import QuadratureSpec

    mcfg = soliton_config(cfg["profile"], cfg["speeds"])
    spec = QuadratureSpec(nodes=cfg["nodes"], r_max=cfg["r_max"])
    table = verify_G_norms(mcfg, cfg["times"], spec)
    fit = table["g1_fit"]
    rows = [(r["t"], r["g1"], math.exp(fit.intercept) * r["t"] ** fit.slope,
             r["g1"] - math.exp(fit.intercept) * r["t"] ** fit.slope)
            for r in table["rows"]]
    write_csv(outdir / "interactions_g1.csv",
              ["t", "value", "fitted_model", "residual"], rows)
    p = PROFILES[cfg["profile"]].g1_power
    lo, hi = -p - 0.5, -p + 0.5
    results = dict(rows=table["rows"], g1_slope=fit.slope,
                   g1_r2=fit.r_squared,
                   g3_constant=table.get("g3_constant"))
    crit = [
        criterion(f"G1 slope >= {lo}", fit.slope, lo, "ge"),
        criterion(f"G1 slope <= {hi}", fit.slope, hi, "le"),
    ]
    return finish(outdir, "interactions", cfg, results, crit)


def run_modulate(cfg: dict, outdir: Path) -> int:
    """Decompose the pair in pair_file or, without one, round-trip
    well-prepared data built at ``time`` with z inside the T^-7/2 ball."""
    from .fields import load_pair
    from .modulation import (build_initial_data, decompose,
                             exp_direction_family)
    from .quadrature import QuadratureSpec
    from .spectrum import ground_eigenpair

    mcfg = soliton_config(cfg["profile"], cfg["speeds"])
    spec = QuadratureSpec(nodes=cfg["nodes"], r_max=cfg["r_max"])
    T = cfg["time"]
    dirs = exp_direction_family(mcfg, [ground_eigenpair()])
    if cfg["pair_file"]:
        z = None
        u = load_pair(cfg["pair_file"])
    else:
        # alternating signs across solitons, half the ball radius (criterion 8)
        z = np.ones((mcfg.n, len(dirs[0])))
        z[1::2] = -1.0
        z *= 0.5 * T**-3.5 / np.linalg.norm(z)
        u = build_initial_data(mcfg, T, z, dirs, spec)["u"]
    state = decompose(u, mcfg, T, spec, directions=dirs)
    results = dict(t=state.t, a=state.a.tolist(), b=state.b.tolist(),
                   z_plus=state.z_plus.tolist(),
                   z_minus=state.z_minus.tolist(), c=state.c.tolist(),
                   remainder_norm=state.remainder_norm,
                   gram_cond=state.gram_cond)
    crit = [criterion("gram condition below guard", state.gram_cond,
                      1e9, "le")]
    if z is not None:
        err = max(np.max(np.abs(state.a)), np.max(np.abs(state.b)),
                  np.max(np.abs(state.z_plus - z)))
        results.update(z=z.tolist(),
                       round_trip_rel=float(err / np.linalg.norm(z)))
        crit.append(criterion("round trip max(|a|, |b|, |z_plus - z|) / |z| "
                              "<= 1e-8", results["round_trip_rel"], 1e-8,
                              "le"))
    return finish(outdir, "modulate", cfg, results, crit)


def run_energy(cfg: dict, outdir: Path) -> int:
    from .boosts import build_exp_directions
    from .energy import CutoffChiN, coercivity_probe, zeta_smallness
    from .quadrature import QuadratureSpec
    from .spectrum import ground_eigenpair

    W, slow, kernels = PROFILES["ground"].fields()
    lam, Y = ground_eigenpair()
    dirs = build_exp_directions(Y, lam, cfg["ell"])
    kf = [slow, *kernels]
    rep = coercivity_probe(cfg["ell"], W, kf, dirs,
                           n_samples=cfg["samples"], seed=cfg["seed"],
                           spec=QuadratureSpec(nodes=8, r_max=25.0),
                           negative_field=Y)
    rep_w = coercivity_probe(cfg["ell"], W, kf, dirs,
                             n_samples=cfg["samples"], seed=cfg["seed"],
                             gamma=cfg["gamma"],
                             spec=QuadratureSpec(nodes=8, r_max=25.0))
    chi = CutoffChiN(tuple(cfg["speeds"]))
    zs = {t: zeta_smallness(chi, cfg["gamma"], t)
          for t in (1e3, 2e3, 4e3, 8e3)}
    reports = [dict(t=t, ell=cfg["ell"], c_min=rep.c_min,
                    weighted_c_min=rep_w.c_min,
                    negative_control=rep.negative_control,
                    sup_omega=z["sup_omega"], sup_mismatch=z["sup_mismatch"])
               for t, z in zs.items()]
    results = dict(c_min=rep.c_min, weighted_c_min=rep_w.c_min,
                   negative_control=rep.negative_control,
                   delta=chi.delta, reports=reports)
    crit = [
        criterion("projected coercivity minimum > 0", rep.c_min, 0.0, "ge"),
        criterion("weighted coercivity minimum > 0", rep_w.c_min, 0.0, "ge"),
        criterion("negative control < 0", rep.negative_control, 0.0, "le"),
    ]
    return finish(outdir, "energy", cfg, results, crit)


def run_evolve(cfg: dict, outdir: Path) -> int:
    from .boosts import pair_vector
    from .evolver import (GridBasis, bootstrap_margins, default_grid_for,
                          evolve, soliton_background)
    from .spectrum import ground_eigenpair

    ell = cfg["ell"]
    mcfg = soliton_config("ground", [ell])
    grid = default_grid_for(ell, cfg["t1"], margin=10.0, h=cfg["h"])
    basis = GridBasis(mcfg, grid, [ground_eigenpair()])
    series = evolve(pair_vector(mcfg.profiles[0], ell, 1), 0.0, cfg["t1"],
                    grid, basis=basis, cadence=cfg["cadence"],
                    background=soliton_background(mcfg, grid))
    margins = bootstrap_margins(series, cfg["c0"])
    speed = float(np.polyfit(series.times, series.centers, 1)[0])
    rows = list(zip(series.times, series.energy, series.momentum,
                    series.deviation, series.centers))
    write_csv(outdir / "evolve_monitors.csv",
              ["t", "energy", "momentum", "deviation", "center"], rows)
    results = dict(times=series.times, drift_energy=series.drift("energy"),
                   drift_momentum=series.drift("momentum"),
                   speed=speed, status=series.status,
                   bootstrap=margins)
    crit = [
        criterion("energy drift per 10 units <= 1e-3",
                  series.drift("energy") * 10.0 / cfg["t1"], 1e-3, "le"),
        criterion("run completed", 1 if series.status == "done" else 0, 1,
                  "eq"),
    ]
    if abs(ell) > 0:
        crit.append(criterion("center speed within 1%",
                              abs(speed - ell) / abs(ell), 0.01, "le"))
    return finish(outdir, "evolve", cfg, results, crit)


def run_shoot(cfg: dict, outdir: Path) -> int:
    from .evolver import shooting_experiment

    rep = shooting_experiment(T=cfg["T"], t_end=cfg["t_end"],
                              bracket=tuple(cfg["bracket"]), h=cfg["h"])
    interior = max(r["exit_tau"] for r in rep["sweep"][1:-1])
    crit = [
        criterion("optimum persists >= 2x bracket ends", rep["gain"], 2.0,
                  "ge"),
        criterion("best interior sweep exit above both bracket ends",
                  interior, max(rep["edge_exit"]), "gt"),
    ]
    return finish(outdir, "shoot", cfg, rep, crit)


def run_report(outdir: Path) -> int:
    """Deterministic re-rendering of previously written summaries."""
    outdir.mkdir(parents=True, exist_ok=True)
    files = sorted(outdir.glob("*_summary.json"))
    lines = []
    status = 0
    for f in files:
        with open(f) as fh:
            s = json.load(fh)
        for c in s["criteria"]:
            tag = "PASS" if c["passed"] else "FAIL"
            lines.append(f"{s['suite']:13s} {tag} {c['name']}")
            if not c["passed"]:
                status = 1
    table = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(table)
    (outdir / "report.txt").write_text(table)
    return status


RUNNERS = dict(states=run_states, spectrum=run_spectrum,
               interactions=run_interactions, modulate=run_modulate,
               energy=run_energy, evolve=run_evolve, shoot=run_shoot)


def _list_of(item: type):
    """argparse type of a list flag: comma-separated values of type item."""
    def parse(text: str) -> list:
        return [item(v) for v in text.split(",") if v]
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


_LIST_FLAGS = {f"--{key}" for defaults in DEFAULTS.values()
               for key, default in defaults.items()
               if isinstance(default, list)}


class _Parser(argparse.ArgumentParser):
    """Parser that joins each list flag to the word after it.

    argparse reads a word such as ``-0.5,0.5`` as an unknown flag, so
    ``--speeds -0.5,0.5`` is parsed as ``--speeds=-0.5,0.5``.
    """

    def parse_known_args(self, args=None, namespace=None):
        words = []
        for word in sys.argv[1:] if args is None else args:
            if words and words[-1] in _LIST_FLAGS:
                words[-1] += "=" + word
            else:
                words.append(word)
        return super().parse_known_args(words, namespace)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="wave4d",
        description="verification suites for the multi-soliton laboratory")
    p.add_argument("--config", help="JSON config with per-suite sections")
    p.add_argument("--out", help="artifact root (or WAVE4D_OUT env var)")
    sub = p.add_subparsers(dest="suite", required=True)
    for s in SUITES:
        sp = sub.add_parser(s)
        for key, default in DEFAULTS[s].items():
            if isinstance(default, list):
                sp.add_argument(f"--{key}", type=_list_of(type(default[0])),
                                help="comma-separated values")
            else:
                sp.add_argument(f"--{key}", type=type(default),
                                choices=_CHOICES.get(key))
    sub.add_parser("report")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.out or os.environ.get("WAVE4D_OUT", "wave4d_out"))
    if args.suite == "report":
        return run_report(outdir)
    overrides = {key: getattr(args, key) for key in DEFAULTS[args.suite]}
    try:
        cfg = resolve(args.suite, load_config(args.config), overrides)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        return RUNNERS[args.suite](cfg, outdir)
    except ValueError as exc:
        print(f"{args.suite}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
