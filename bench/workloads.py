"""The four benchmark workloads: seeded inputs, timed operations, gates.

A workload is a sequence of rounds.  Round i draws its inputs from
numpy.random.default_rng([seed, i]), so a seed fixes every round.  Each
operation in a round is either one `stepprop.cli.main(argv)` call (output
captured in memory) or one library call where no subcommand exists.  The
gate runs after the timed section, untimed and untraced, and compares the
captured outputs with references the program did not produce for them:
closed forms, the symmetry and scaling laws of G, tighter-tolerance
quadrature, the fold finder, and the Crank-Nicolson oracle.
"""
from __future__ import annotations

import io
import json
import math
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace

import numpy as np

import stepprop.cli as cli
import stepprop.propagator as propagator
from stepprop import classical as cl
from stepprop import spectroscopy as sp
from stepprop.oracle import GridSpec, gaussian_packet, norm_l2
from stepprop.potential import StepModel, rescale
from stepprop.wkb import wkb_propagator


def _model(family, alpha=1.0, hbar=1.0):
    return {"family": family, "m": 1.0, "V0": 1.0, "alpha": alpha,
            "hbar": hbar}


WS1 = _model("woods_saxon")
WS1_H05 = _model("woods_saxon", hbar=0.5)
WS5 = _model("woods_saxon", alpha=5.0)
HV = _model("heaviside")
T = 10.0


def _arg(flag, value):
    """--flag=value; '=' keeps negative numbers from parsing as options."""
    if isinstance(value, dict):
        value = json.dumps(value)
    elif isinstance(value, float):
        value = repr(value)
    return f"--{flag}={value}"


def _range(lo, hi, n):
    return f"{float(lo)!r}:{float(hi)!r}:{n}"


@dataclass
class Op:
    """One timed operation and what it delivers."""

    kind: str                       # "cli" or "packet"
    argv: list = field(default_factory=list)
    kwargs: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    g_samples: int = 0              # exact propagator samples delivered
    bvps: int = 0                   # boundary-value problems solved
    evolutions: int = 0             # packet evolutions delivered


@dataclass
class Result:
    rc: int
    output: object


def run_op(op: Op) -> Result:
    """Run one operation; a raised exception counts as a failed command."""
    try:
        if op.kind == "cli":
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = cli.main(op.argv)
            return Result(rc, buf.getvalue())
        return Result(0, propagator.evolve_packet_spectral(**op.kwargs))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Result(-1, None)


def _csv(text):
    """Rows of a CLI CSV output (config comment and header skipped)."""
    return np.loadtxt(io.StringIO(text), delimiter=",", comments="#",
                      skiprows=2, ndmin=2)


class Gate:
    """Collects checks: each has a measured value and a pass flag."""

    def __init__(self):
        self.values = {}
        self.attempted = 0
        self.failed = 0

    def check(self, name, value, ok, worst=max):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"gate: {name} = {value!r} misses its tolerance",
                  file=sys.stderr)
        old = self.values.get(name)
        self.values[name] = value if old is None else worst(old, value)

    def miss(self, name, why):
        self.attempted += 1
        self.failed += 1
        print(f"gate: {name} not checked: {why}", file=sys.stderr)


# ---------------------------------------------------------------------------
# interference_grid
# ---------------------------------------------------------------------------

QCFG = propagator.QuadratureConfig()
TIGHT = propagator.QuadratureConfig(abs_tol=QCFG.abs_tol / 100,
                                    rel_tol=QCFG.rel_tol / 100)


def _tol(g):
    return QCFG.abs_tol + QCFG.rel_tol * abs(g)


def grid_round(rng, tiny):
    """Square (x0, x1) grids at T = 10, one `propagate` row per x0."""
    sizes = ((WS1, 2), (WS1_H05, 2), (HV, 2)) if tiny else \
        ((WS1, 5), (WS1_H05, 5), (HV, 6))
    ops = []
    for model, n in sizes:
        shift = float(rng.uniform(-0.3, 0.3))
        lo, hi = -8.0 + shift, 2.0 + shift
        xs = np.linspace(lo, hi, n)
        probe = [int(v) for v in rng.integers(0, n, size=2)]
        for i, x0 in enumerate(xs):
            ops.append(Op("cli", ["propagate", _arg("model", model),
                                  _arg("x0", float(x0)),
                                  _arg("x1-range", _range(lo, hi, n)),
                                  _arg("T", T), _arg("threads", 1)],
                          meta={"model": model, "xs": xs, "row": i,
                                "probe": probe},
                          g_samples=n))
    return ops


def grid_gate(rounds, gate):
    for ops, results in rounds:
        grids = {}
        for op, res in zip(ops, results):
            key = (json.dumps(op.meta["model"]), float(op.meta["xs"][0]))
            grids.setdefault(key, []).append((op, res))
        for rows in grids.values():
            meta = rows[0][0].meta
            xs, n = meta["xs"], len(meta["xs"])
            if any(res.rc != 0 for _, res in rows):
                gate.miss("check.grid", "a propagate row failed")
                continue
            G = np.empty((n, n), dtype=complex)
            err = np.empty((n, n))
            for op, res in rows:
                data = _csv(res.output)
                G[op.meta["row"]] = data[:, 3] + 1j * data[:, 4]
                err[op.meta["row"]] = data[:, 6]
            recip = np.abs(G - G.T)
            gate.check("check.grid.reciprocity_max", float(recip.max()),
                       bool(np.all(recip <= _tol(np.abs(G)))))
            # propagate sums the panel estimates of its below-threshold leg
            # and of every above-threshold block, each accepted at the
            # per-panel tolerance, so the sum may exceed one tolerance
            ratio = err / _tol(np.abs(G))
            gate.check("check.grid.est_error_ratio_max", float(ratio.max()),
                       bool(ratio.max() <= 10.0))
            model = StepModel.from_dict(meta["model"])
            i, j = meta["probe"]
            x0, x1 = float(xs[i]), float(xs[j])
            g_tight = propagator.propagate(model, x0, x1, T, TIGHT).G
            d = abs(G[i, j] - g_tight)
            gate.check("check.grid.tight_abs_err_max", d, d <= _tol(g_tight))
            if model.family.value == "woods_saxon":
                # G'(x1/C, x0/C; T/C) = C G(x1, x0; T) under alpha -> C alpha,
                # hbar -> hbar / C
                scaled, a, b, t = rescale(model, x0, x1, T, 3.0)
                gs = propagator.propagate(scaled, a, b, t).G / 3.0
                d = abs(G[i, j] - gs)
                gate.check("check.grid.scaling_abs_err_max", d, d <= 1e-6)


# ---------------------------------------------------------------------------
# omega_spectrum
# ---------------------------------------------------------------------------

def spectrum_round(rng, tiny):
    """Heaviside Fourier and WS alpha=5 Laplace spectra in omega = 1/hbar."""
    n_f, n_l = (64, 64) if tiny else (256, 64)
    fx0, fx1 = 5.0 + rng.uniform(-0.5, 0.5), 4.0 + rng.uniform(-0.5, 0.5)
    # criterion 11c (the caustic saddle shrinks the |L| residue) holds on
    # this box around (-5, -9.25) but not at x0 = -4.85 or (-5.3, -9.55)
    lx0, lx1 = -5.05 + rng.uniform(-0.08, 0.08), -9.25 + rng.uniform(-0.2, 0.2)
    common = [_arg("T", T), _arg("A", 1.0), _arg("B", 12.0),
              _arg("threads", 1)]
    taus, ss = (3.0, 13.0, 101), (0.0, 1.5, 161)
    return [
        Op("cli", ["spectrum", _arg("model", HV), _arg("x0", float(fx0)),
                   _arg("x1", float(fx1)), _arg("kind", "fourier"),
                   _arg("n-omega", n_f), _arg("tau-range", _range(*taus))]
           + common,
           meta={"kind": "fourier", "x0": float(fx0), "x1": float(fx1),
                 "n_omega": n_f},
           g_samples=n_f),
        Op("cli", ["spectrum", _arg("model", WS5), _arg("x0", float(lx0)),
                   _arg("x1", float(lx1)), _arg("kind", "laplace"),
                   _arg("n-omega", n_l), _arg("s-range", _range(*ss))]
           + common,
           meta={"kind": "laplace", "x0": float(lx0), "x1": float(lx1),
                 "n_omega": n_l},
           g_samples=n_l),
    ]


def spectrum_gate(rounds, gate):
    hv, ws5 = StepModel.from_dict(HV), StepModel.from_dict(WS5)
    for ops, results in rounds:
        for op, res in zip(ops, results):
            meta = op.meta
            if res.rc != 0:
                gate.miss(f"check.spectrum.{meta['kind']}", "command failed")
                continue
            data = _csv(res.output)
            grid, values = data[:, 0], data[:, 1]
            window = sp.OmegaWindow(1.0, 12.0, meta["n_omega"])
            bvp = cl.BoundarySpec(meta["x0"], meta["x1"], T)
            if meta["kind"] == "fourier":
                # peak actions -tau against the closed-form direct and
                # quantum-reflection actions of the Heaviside step
                step = grid[1] - grid[0]
                peaks = sp.detect_peaks(
                    grid, values,
                    min_separation=1.6 * 2.0 * math.pi / (window.B - window.A))
                if len(peaks) < 2:
                    gate.miss("check.spectrum.peak_offset_steps",
                              "fewer than two peaks")
                    continue
                found = sorted(-p.location for p in peaks[:2])
                refs = sorted([cl.heaviside_paths(hv, bvp)[0].S.real,
                               cl.heaviside_reflection_action(hv, bvp).real])
                off = max(abs(a - r) for a, r in zip(found, refs)) / step
                gate.check("check.spectrum.peak_offset_steps", off, off <= 1.0)
            else:
                # |L| residue against the closed-form WKB Laplace model must
                # shrink when the caustic saddle joins the real ones
                real = cl.solve_real_paths(ws5, bvp)
                caus = cl.find_caustic_saddle(ws5, bvp)
                l_exact = np.sqrt(values)
                ds = grid[1] - grid[0]
                res_ = [float(np.sqrt(np.sum(
                    (l_exact - np.abs(sp.wkb_model_laplace(s, window, grid)))
                    ** 2) * ds)) for s in (real, real + [caus])]
                ratio = res_[0] / res_[1]
                gate.check("check.spectrum.residue_ratio_min", ratio,
                           ratio > 1.0, worst=min)


# ---------------------------------------------------------------------------
# saddle_wkb
# ---------------------------------------------------------------------------

WKB_HBAR = 0.1
FROZEN_BVP = cl.BoundarySpec(-5.0, -9.25, 10.0)
FROZEN = {"direct": (0.903125, 1e-9),
          "caustic": (10.3844613036 + 0.2562310669j, 1e-6),
          "topological": (10.6428070441 + 0.1537628014j, 1e-6)}


def saddle_round(rng, tiny):
    """WKB rows, full saddle sets and caustic points (T = 10)."""
    # the WKB residual drop of criterion 9 is >= 5 for rows ending in
    # [-9.0, -8.5] and shrinks toward x1 = -10
    n_wkb = 1 if tiny else 3
    lo = float(rng.uniform(-10.0, -9.8) if n_wkb > 1
               else rng.uniform(-9.0, -8.6))
    hi = lo + float(rng.uniform(1.0, 1.3)) if n_wkb > 1 else lo
    x1 = float(rng.uniform(-10.0, -8.6))
    c_lo = float(rng.uniform(-4.5, -3.5))
    n_c = 1 if tiny else 2
    c_hi = c_lo + 1.5 if n_c > 1 else c_lo
    return [
        Op("cli", ["wkb", _arg("model", WS5), _arg("x0", -5.0),
                   _arg("x1-range", _range(lo, hi, n_wkb)), _arg("T", T),
                   _arg("hbar", WKB_HBAR), _arg("saddles", "real+caustic"),
                   "--calibrate"],
           meta={"kind": "wkb"}, g_samples=n_wkb, bvps=n_wkb),
        Op("cli", ["classical", _arg("model", WS5), _arg("x0", -5.0),
                   _arg("x1", x1), _arg("T", T),
                   _arg("saddles", "real+caustic+topological")],
           meta={"kind": "classical", "x0": -5.0, "x1": x1}, bvps=1),
        Op("cli", ["caustics", _arg("model", WS1), _arg("T", T),
                   _arg("x0-range", _range(c_lo, c_hi, n_c))],
           meta={"kind": "caustics",
                 "x0s": np.linspace(c_lo, c_hi, n_c).tolist()}),
    ]


def _frozen_check(gate):
    ws5 = StepModel.from_dict(WS5)
    real = cl.solve_real_paths(ws5, FROZEN_BVP)
    got = {"direct": [s.S for s in real
                      if s.kind is cl.SaddleKind.DIRECT][0].real,
           "caustic": cl.find_caustic_saddle(ws5, FROZEN_BVP).S,
           "topological": cl.topological_saddle(ws5, FROZEN_BVP).S}
    worst, ok = 0.0, True
    for kind, (ref, rel) in FROZEN.items():
        dev = abs(got[kind] - ref) / abs(ref)
        worst = max(worst, dev)
        ok = ok and dev <= rel
    gate.check("check.saddle.frozen_rel_err_max", worst, ok)


def saddle_gate(rounds, gate):
    ws1, ws5 = StepModel.from_dict(WS1), StepModel.from_dict(WS5)
    ws5_h = replace(ws5, hbar=WKB_HBAR)
    for ops, results in rounds:
        for op, res in zip(ops, results):
            kind = op.meta["kind"]
            if res.rc != 0:
                gate.miss(f"check.saddle.{kind}", "command failed")
                continue
            if kind == "classical":
                x0, x1 = op.meta["x0"], op.meta["x1"]
                saddles = json.loads(res.output)["saddles"]
                direct = [s["S_re"] for s in saddles if s["kind"] == "direct"]
                exact = (x1 - x0) ** 2 / (2.0 * T)
                dev = abs(direct[0] - exact) / exact if direct else math.inf
                gate.check("check.saddle.direct_rel_err_max", dev, dev <= 1e-9)
            elif kind == "wkb":
                # criterion 9: the residual against exact G drops >= 5x when
                # the caustic saddle joins the real saddles
                r_real, r_both = [], []
                for row in _csv(res.output):
                    x0, x1 = float(row[0]), float(row[1])
                    bvp = cl.BoundarySpec(x0, x1, T)
                    g = propagator.propagate(ws5_h, x0, x1, T).G
                    w_real = wkb_propagator(ws5, bvp,
                                            cl.solve_real_paths(ws5, bvp),
                                            WKB_HBAR)
                    r_real.append(abs(g - w_real))
                    r_both.append(abs(g - complex(row[3], row[4])))
                drop = max(r_real) / max(r_both)
                gate.check("check.saddle.wkb_drop_min", drop, drop >= 5.0,
                           worst=min)
            else:
                points = _csv(res.output).reshape(-1, 2)
                for x0 in op.meta["x0s"]:
                    mine = np.isclose(points[:, 0], x0, rtol=0.0, atol=1e-9)
                    if not mine.any():
                        gate.miss("check.saddle.fold_abs_err_max",
                                  f"no caustic point at x0 = {x0!r}")
                        continue
                    fold_ivp = float(points[mine, 1].min())
                    fold = cl.bounce_fold(ws1, x0, T, fold_ivp - 0.5,
                                          fold_ivp + 0.5)
                    d = abs(fold_ivp - fold)
                    gate.check("check.saddle.fold_abs_err_max", d, d <= 5e-4)
    _frozen_check(gate)


# ---------------------------------------------------------------------------
# packet_evolution
# ---------------------------------------------------------------------------

def packet_round(rng, tiny):
    """One Gaussian packet through WS alpha=1, by CN and by the spectrum."""
    # the CN grid sets the L2 gap to the spectral result (3.7e-4 here), so
    # the tiny size only thins the spectral nodes
    n_x, dt, stride = 10001, 0.005, 10
    n_pack, n_b, n_a = (401, 257, 1025) if tiny else (801, 513, 2049)
    center = -15.0 + float(rng.uniform(-0.5, 0.5))
    k_mean = 1.2 + float(rng.uniform(-0.05, 0.05))
    grid = GridSpec(-60.0, 40.0, n_x=n_x, dt=dt)
    x_pack = np.linspace(center - 8.0, center + 8.0, n_pack)
    meta = {"stride": stride}
    return [
        Op("cli", ["oracle", _arg("model", WS1), _arg("center", center),
                   _arg("sigma", 1.0), _arg("k-mean", k_mean), _arg("T", T),
                   _arg("x-min", grid.x_min), _arg("x-max", grid.x_max),
                   _arg("n-x", n_x), _arg("dt", dt)],
           meta=meta, evolutions=1),
        Op("packet", kwargs={
            "model": StepModel.from_dict(WS1), "x_grid": x_pack,
            "psi0": gaussian_packet(x_pack, center, 1.0, k_mean),
            "x_out": grid.xs()[::stride], "T": T, "k_max": 6.0,
            "n_below": n_b, "n_above": n_a},
           meta=meta, evolutions=1),
    ]


def packet_gate(rounds, gate):
    for ops, results in rounds:
        (cn_op, _), (cn, spec) = ops, results
        if cn.rc != 0 or spec.rc != 0:
            gate.miss("check.packet", "an evolution failed")
            continue
        data = _csv(cn.output)
        xs, psi_cn = data[:, 0], data[:, 1] + 1j * data[:, 2]
        stride = cn_op.meta["stride"]
        l2 = norm_l2(spec.output - psi_cn[::stride], xs[::stride])
        gate.check("check.packet.l2_diff_max", l2, l2 < 1e-3)
        drift = abs(norm_l2(psi_cn, xs) - 1.0)
        gate.check("check.packet.cn_norm_drift_max", drift, drift < 1e-9)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_round: object
    gate: object
    warmup: list                     # argv of the untimed warm-up command
    items: str                       # Op counter behind items_per_s
    streaming: bool = False          # operations stream arrays beyond L2


WORKLOADS = {w.name: w for w in (
    Workload("interference_grid", grid_round, grid_gate,
             ["propagate", _arg("model", HV), _arg("x0", -1.0),
              _arg("x1-range", "-2:-2:1"), _arg("T", T), _arg("threads", 1)],
             "g_samples"),
    Workload("omega_spectrum", spectrum_round, spectrum_gate,
             # detect_peaks imports scipy.signal on first use
             ["spectrum", _arg("model", HV), _arg("x0", 5.0), _arg("x1", 4.0),
              _arg("T", T), _arg("n-omega", 64), _arg("tau-range", "3:13:11"),
              _arg("threads", 1)],
             "g_samples"),
    Workload("saddle_wkb", saddle_round, saddle_gate,
             ["classical", _arg("model", WS5), _arg("x0", -5.0),
              _arg("x1", -9.25), _arg("T", T), _arg("saddles", "real")],
             "bvps"),
    Workload("packet_evolution", packet_round, packet_gate,
             ["oracle", _arg("model", WS1), _arg("T", 0.01),
              _arg("n-x", 1024)],
             "evolutions", streaming=True),
)}


def round_ops(workload: Workload, seed: int, index: int, tiny: bool):
    return workload.make_round(np.random.default_rng([seed, index]), tiny)
