"""Least-squares rate fits used by the decay-law and interaction checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class DecayFit:
    """Fitted power/exponential law with its window and fit quality."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple
    model: str = "loglog"


def _r2(y, yhat):
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_loglog(x, y) -> DecayFit:
    """Fit log|y| = slope * log x + intercept (power-law rate)."""
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if x.size < 3:
        raise ValueError(f"need at least 3 samples, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit needs positive samples")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    return DecayFit(float(slope), float(intercept),
                    _r2(ly, slope * lx + intercept),
                    (float(x.min()), float(x.max())), model="loglog")


def fit_log_linear(x, y) -> DecayFit:
    """Fit y = slope * log x + intercept (logarithmic growth laws)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError(f"need at least 3 samples, got {x.size}")
    lx = np.log(x)
    slope, intercept = np.polyfit(lx, y, 1)
    return DecayFit(float(slope), float(intercept),
                    _r2(y, slope * lx + intercept),
                    (float(x.min()), float(x.max())), model="log-linear")


def fit_exponential(x, y, poly_correction: float = 0.0) -> DecayFit:
    """Fit log(|y| * x^poly_correction) = -rate * x + intercept.

    ``slope`` of the returned fit is the (signed) coefficient of x, so a
    decaying signal yields a negative slope; the decay rate is -slope.
    ``poly_correction`` removes a known algebraic prefactor x^-k before
    fitting (k = 3/2 for 4D radial eigenfunction tails).
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(np.asarray(y, dtype=float))
    if x.size < 3:
        raise ValueError(f"need at least 3 samples, got {x.size}")
    if np.any(y <= 0):
        raise ValueError("exponential fit needs nonzero samples")
    ly = np.log(y) + poly_correction * np.log(x)
    slope, intercept = np.polyfit(x, ly, 1)
    return DecayFit(float(slope), float(intercept),
                    _r2(ly, slope * x + intercept),
                    (float(x.min()), float(x.max())), model="exponential")


def sup_on_spheres(f, radii, n_dirs: int = 64, seed: int = 7):
    """sup over |x| = R of |f| sampled on seeded random directions."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_dirs, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # include the coordinate axes so anisotropic maxima are not missed
    axes = np.concatenate([np.eye(4), -np.eye(4)])
    dirs = np.concatenate([dirs, axes])
    out = []
    for R in radii:
        out.append(float(np.max(np.abs(f.evaluate(R * dirs)))))
    return np.asarray(out)


def check_decay(f, exponent: float, radii) -> DecayFit:
    """Log-log fit of sup_{|x|=R} |f| against R; slope should be ~ -exponent.

    Radii must span at least one decade and contain >= 3 values.
    """
    radii = np.asarray(sorted(float(R) for R in radii))
    if radii.size < 3:
        raise ValueError("need at least 3 radii")
    if radii.max() / radii.min() < 10.0 - 1e-9:
        raise ValueError("radii must span at least one decade")
    sup = sup_on_spheres(f, radii)
    return fit_loglog(radii, sup)
