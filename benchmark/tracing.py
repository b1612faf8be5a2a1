"""Outside-in tracing of the wave4d layers for the traced benchmark run.

``Tracer.install()`` replaces each layer's public entry points by timing
wrappers, by name, in every ``wave4d`` module namespace that holds them
(``integrate_callable``, for one, is imported by name into five modules),
and wraps ``CylWaveEvolver`` methods on the class.  Spans (name, start, end,
parent) and counts stay in memory; ``metrics()`` reduces them to the
per-layer metrics and ``dump()`` writes them out once the run has ended.
Nothing inside ``src/wave4d`` is changed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# layer metric -> span names whose outermost durations it sums
_BUSY = {
    "quadrature.busy_s": ("quadrature.integrate_callable",),
    "fields.pairing_s": ("fields.pairing_block",),
    "fields.norm_pair_s": ("fields.norm_pair",),
    "energy.probe_s": ("energy.coercivity_probe",),
    "modulation.build_s": ("modulation.build_initial_data",),
    "modulation.decompose_s": ("modulation.decompose",),
    "interactions.pairwise_s": ("interactions.pairwise_q_norm",),
    "spectrum.eigensolve_s": ("spectrum.assemble_radial",
                              "spectrum.negative_spectrum"),
    "spectrum.oracle_s": ("spectrum.shooting_rate",),
    "boosts.exp_direction_s": ("boosts.build_exp_directions",),
    "evolver.step_s": ("evolver.step",),
    "evolver.grid_sample_s": ("evolver.eval_on_grid", "evolver.grad_on_grid"),
}

# every per-layer metric the traced run prints, in order
METRICS = (
    "quadrature.passes", "quadrature.integrand_calls", "quadrature.points",
    "quadrature.busy_s", "quadrature.points_per_s",
    "fields.pairing_blocks", "fields.pairing_s", "fields.norm_pair_s",
    "energy.probe_s", "energy.sample_s",
    "modulation.build_s", "modulation.decompose_s",
    "interactions.g_norms_s", "interactions.pairwise_s",
    "spectrum.eigensolve_s", "spectrum.oracle_s",
    "spectrum.oracle_profile_evals",
    "boosts.exp_direction_builds", "boosts.exp_direction_s",
    "boosts.distinct_build_ratio",
    "evolver.runs", "evolver.steps", "evolver.monitor_calls",
    "evolver.grid_samples", "evolver.step_s", "evolver.monitor_s",
    "evolver.grid_sample_s", "evolver.cell_updates_per_s",
    "evolver.distinct_amplitude_ratio",
    "trace.wall_s",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._restore = []     # (owner, attribute, original)
        self._build_keys = set()
        self._amplitudes = set()
        self._last_step_end = {}
        self.wall_s = 0.0

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record the enclosed interval, as a child of the open span."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn, before):
        def wrapper(*args, **kwargs):
            before(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name != "wave4d" and not name.startswith("wave4d."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap the entry points; call after wave4d is imported."""
        import wave4d.boosts
        import wave4d.energy
        import wave4d.evolver
        import wave4d.fields
        import wave4d.interactions
        import wave4d.modulation
        import wave4d.quadrature
        import wave4d.spectrum  # noqa: F401  (namespaces to patch)

        c = self.counts

        def quad(fn):
            def wrapper(integrand, *args, **kwargs):
                def counted(X):
                    c["quadrature.integrand_calls"] += 1
                    c["quadrature.points"] += len(X)
                    return integrand(X)
                c["quadrature.passes"] += 1
                with self.span("quadrature.integrate_callable"):
                    return fn(counted, *args, **kwargs)
            return wrapper
        self._replace_everywhere("wave4d.quadrature", "integrate_callable",
                                 quad)

        def simple(module, attr, count=None, before=None):
            layer = module.rsplit(".", 1)[1]

            def make(fn):
                def hook(*args, **kwargs):
                    if count:
                        c[count] += 1
                    if before is not None:
                        before(fn, *args, **kwargs)
                return self._spanned(f"{layer}.{attr}", fn, hook)
            self._replace_everywhere(module, attr, make)

        def bound(fn, args, kwargs):
            b = inspect.signature(fn).bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        simple("wave4d.fields", "pairing_block", "fields.pairing_blocks")
        simple("wave4d.fields", "norm_pair")
        simple("wave4d.energy", "coercivity_probe",
               before=lambda fn, *a, **k: c.update(
                   {"energy.samples": bound(fn, a, k)["n_samples"]}))
        simple("wave4d.modulation", "build_initial_data")
        simple("wave4d.modulation", "decompose")
        simple("wave4d.interactions", "verify_G_norms",
               before=lambda fn, *a, **k: c.update(
                   {"interactions.g_times": len(bound(fn, a, k)["times"])}))
        simple("wave4d.interactions", "pairwise_q_norm")
        simple("wave4d.spectrum", "assemble_radial")
        simple("wave4d.spectrum", "negative_spectrum")

        def note_build(fn, *a, **k):
            args = bound(fn, a, k)
            c["boosts.exp_direction_builds"] += 1
            self._build_keys.add((float(args["ell"]), float(args["lam"])))
        simple("wave4d.boosts", "build_exp_directions", before=note_build)
        simple("wave4d.evolver", "eval_on_grid", "evolver.grid_samples")
        simple("wave4d.evolver", "grad_on_grid", "evolver.grid_samples")

        def oracle(fn):
            def wrapper(q, *args, **kwargs):
                inner = q.evaluate

                def counted(x):
                    c["spectrum.oracle_profile_evals"] += 1
                    return inner(x)
                q.evaluate = counted  # instance attribute shadows the method
                try:
                    with self.span("spectrum.shooting_rate"):
                        return fn(q, *args, **kwargs)
                finally:
                    del q.evaluate
            return wrapper
        self._replace_everywhere("wave4d.spectrum", "shooting_rate", oracle)

        ev_cls = wave4d.evolver.CylWaveEvolver
        init, step, v_sync = (ev_cls.__dict__[k]
                              for k in ("__init__", "step", "v_sync"))

        def traced_init(ev, grid, u0, v0, *args, **kwargs):
            c["evolver.runs"] += 1
            digest = hashlib.blake2b(digest_size=16)
            for arr in (u0, v0):
                digest.update(np.ascontiguousarray(arr, dtype=float))
            self._amplitudes.add(digest.hexdigest())
            init(ev, grid, u0, v0, *args, **kwargs)

        def traced_step(ev):
            start = time.perf_counter()
            last = self._last_step_end.get(id(ev))
            if last is not None:
                c["evolver.monitor_s"] += start - last
            c["evolver.steps"] += 1
            c["evolver.cells"] += ev.u.size
            with self.span("evolver.step") as rec:
                status = step(ev)
            self._last_step_end[id(ev)] = rec[2]
            return status

        def traced_v_sync(ev):
            c["evolver.monitor_calls"] += 1
            return v_sync(ev)

        self._patch_method(ev_cls, "__init__", traced_init)
        self._patch_method(ev_cls, "step", traced_step)
        self._patch_method(ev_cls, "v_sync", traced_v_sync)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def busy(self, names) -> float:
        """Summed duration of the spans named, not counting a span inside
        another of the same names (no time is counted twice)."""
        names = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def metrics(self) -> dict:
        c = self.counts
        m = {name: self.busy(spans) for name, spans in _BUSY.items()}
        m.update({k: c[k] for k in (
            "quadrature.passes", "quadrature.integrand_calls",
            "quadrature.points", "fields.pairing_blocks",
            "spectrum.oracle_profile_evals", "boosts.exp_direction_builds",
            "evolver.runs", "evolver.steps", "evolver.monitor_calls",
            "evolver.grid_samples")})
        m["quadrature.points_per_s"] = _ratio(c["quadrature.points"],
                                              m["quadrature.busy_s"])
        m["energy.sample_s"] = _ratio(m["energy.probe_s"], c["energy.samples"])
        m["interactions.g_norms_s"] = _ratio(
            self.busy(("interactions.verify_G_norms",)),
            c["interactions.g_times"])
        m["boosts.distinct_build_ratio"] = _ratio(
            len(self._build_keys), c["boosts.exp_direction_builds"])
        m["evolver.monitor_s"] = float(c["evolver.monitor_s"])
        m["evolver.cell_updates_per_s"] = _ratio(c["evolver.cells"],
                                                 m["evolver.step_s"])
        m["evolver.distinct_amplitude_ratio"] = _ratio(
            len(self._amplitudes), c["evolver.runs"])
        m["trace.wall_s"] = self.wall_s
        return {k: m[k] for k in METRICS}

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = dict(extra, counts=dict(self.counts), spans=[
            dict(name=n, start=s - t0, end=e - t0, parent=p)
            for n, s, e, p in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
