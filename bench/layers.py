"""Span tracing at the stepprop module boundaries, from outside the program.

Each boundary is a public (or module-level) function of one stepprop module.
Many modules import these functions by name, so a boundary is patched under
every name that refers to it in every loaded stepprop module.  A boundary
whose home module no longer defines it raises StalePatchError; run.py also
requires each boundary to record calls on the workloads that exercise it,
so a patch that stopped reaching the program fails instead of reading zero.

Spans (name, parent, start, end) stay in memory while the traced section
runs and are reduced to per-layer calls, work counts, total and self time
when it ends.  A span's self time is its duration minus the time covered by
its direct children.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np


class StalePatchError(RuntimeError):
    """A boundary's home module no longer defines its function."""


def _hyp2f1_elems(args, kwargs, result):
    return {"elems": int(np.broadcast(*args[:4]).size)}


def _hyp2f1_grid_cells(args, kwargs, result):
    return {"cells": int(np.size(args[0]) * np.size(args[3]))}


def _phi_nodes(args, kwargs, result):
    return {"nodes": int(np.size(args[2]))}


def _phi_grid_cells(args, kwargs, result):
    return {"cells": int(np.size(args[2]) * np.size(args[4]))}


def _quadrature_evals(args, kwargs, result):
    return {"evals": int(result[2])}


def _propagate_error(args, kwargs, result):
    return {"est_error_max": float(result.est_error)}


def _cn_steps(args, kwargs, result):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    T = args[3] if len(args) > 3 else kwargs["T"]
    return {"steps": int(round(T / grid.dt))}


# (span name, defining module, function, counter)
BOUNDARIES = [
    ("specfun.hyp2f1", "specfun", "hyp2f1_with_complement", _hyp2f1_elems),
    ("specfun.hyp2f1_grid", "specfun", "hyp2f1_cols_rows", _hyp2f1_grid_cells),
    ("eigenstates.phi", "eigenstates", "phi", _phi_nodes),
    ("eigenstates.phi_grid", "eigenstates", "phi_grid", _phi_grid_cells),
    ("eigenstates.norm", "eigenstates", "ncc_analytic", None),
    ("eigenstates.norm", "eigenstates", "npm_analytic", None),
    ("eigenstates.norm", "eigenstates", "npp_analytic", None),
    ("eigenstates.norm", "eigenstates", "norm_combos", None),
    ("quadrature.integrate", "quadrature", "integrate_adaptive",
     _quadrature_evals),
    ("propagator.propagate", "propagator", "propagate", _propagate_error),
    ("propagator.packet", "propagator", "evolve_packet_spectral", None),
    ("potential.value", "potential", "potential_value", None),
    ("potential.derivatives", "potential", "potential_derivatives", None),
    ("classical.real", "classical", "solve_real_paths", None),
    ("classical.caustic", "classical", "find_caustic_saddle", None),
    ("classical.topological", "classical", "topological_saddle", None),
    ("caustics.curve", "caustics", "caustic_curve", None),
    ("caustics.ivp", "caustics", "integrate_ivp", None),
    ("caustics.ivp", "caustics", "_scan_batch", None),
    ("wkb.sum", "wkb", "wkb_propagator", None),
    ("wkb.calibrate", "wkb", "fix_complex_saddle_phase", None),
    ("spectroscopy.samples", "spectroscopy", "propagator_omega_samples",
     None),
    ("spectroscopy.transform", "spectroscopy", "_transform", None),
    ("spectroscopy.peaks", "spectroscopy", "detect_peaks", None),
    ("oracle.cn", "oracle", "evolve_packet", _cn_steps),
    ("cli", "cli", "main", None),
]

LAYER_NAMES = sorted({b[0] for b in BOUNDARIES})


def _module(short):
    return importlib.import_module("stepprop" + ("." + short if short else ""))


class Tracer:
    """Records one span per call of every patched boundary while installed."""

    def __init__(self):
        self.names = []
        self.spans = []          # (name index, parent span index, t0, t1)
        self.counts = {}         # "<layer>.<counter>" -> summed or max value
        self._stack = []
        self._saved = []         # (module, attribute, original)

    def _wrap(self, name, fn, counter):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name_id, parent, t0, t1)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    full = f"{name}.{key}"
                    if key.endswith("_max"):
                        counts[full] = max(counts.get(full, 0.0), value)
                    else:
                        counts[full] = counts.get(full, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every boundary under every name that refers to it in the
        loaded stepprop modules."""
        loaded = [mod for key, mod in list(sys.modules.items())
                  if key == "stepprop" or key.startswith("stepprop.")]
        try:
            for name, home, attr, counter in BOUNDARIES:
                original = getattr(_module(home), attr, None)
                if not callable(original):
                    raise StalePatchError(f"stepprop.{home}.{attr} is gone")
                wrapper = self._wrap(name, original, counter)
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per-layer calls, total_s (outermost spans only) and self_s."""
        n = len(self.spans)
        dur = np.empty(n)
        parent = np.empty(n, dtype=np.int64)
        name_of = []
        for i, (nid, par, t0, t1) in enumerate(self.spans):
            dur[i] = t1 - t0
            parent[i] = par
            name_of.append(self.names[nid])
        child_time = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.total_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for i in range(n):
            layer = name_of[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += dur[i] - child_time[i]
            # total time counts a layer once when it re-enters itself
            p = parent[i]
            while p >= 0 and name_of[p] != layer:
                p = parent[p]
            if p < 0:
                out[f"{layer}.total_s"] += dur[i]
        roots = float(np.sum(dur[~has_parent]))
        out.update(self.counts)
        return out, roots
