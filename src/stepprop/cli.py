"""Command-line frontend.

Subcommands: rates, propagate, energy, classical, caustics, stokes, wkb,
spectrum, oracle, reproduce.  Numeric output is CSV (comma separated, '.'
decimal, header row, 17 significant digits) with the run configuration echoed
in a leading comment line; --format json wraps the same rows in JSON.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence
(a machine-readable error record is printed to stderr).
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import replace
from functools import cache, partial

import numpy as np
from scipy.optimize import brentq

from . import caustics as _caustics
from . import classical as _classical
from . import spectroscopy as _spec
from .errors import StepPropError, ValidationError
from .oracle import GridSpec, evolve_packet, gaussian_packet
from .potential import Family, StepModel, potential_value
from .propagator import QuadratureConfig, energy_propagator, propagate
from .eigenstates import eigenstate_ws, scatter_rates
from .wkb import fix_complex_saddle_phase, wkb_propagator

FMT = "%.17g"


def _parse_model(text: str) -> StepModel:
    text = text.strip()
    if text.startswith("{"):
        cfg = json.loads(text)
    else:
        with open(text, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    return StepModel.from_dict(cfg)


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"range must be 'start:stop:count', got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"range {text!r} needs two numbers and an "
                              "integer count") from None
    if n < 1:
        raise ValidationError("range count must be >= 1")
    return np.linspace(a, b, n)


def _write_rows(path, header, rows, config, fmt="csv"):
    if fmt == "json":
        payload = {"config": config,
                   "columns": list(header),
                   "rows": [[v if isinstance(v, str) else float(v) for v in r]
                            for r in rows]}
        text = json.dumps(payload, indent=1)
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True),
                 ",".join(header)]
        lines += [",".join(v if isinstance(v, str) else FMT % v for v in r)
                  for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(path, text)


def _emit(path, text):
    """text to the file at path, or to stdout for None or '-'."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _saddle_set(model, bvp, which, caustic=None):
    """The saddle set which names; a row passes in its own caustic saddle."""
    saddles = list(_classical.solve_real_paths(model, bvp))
    if "caustic" in which:
        saddles.append(caustic or _classical.find_caustic_saddle(model, bvp))
    if "topological" in which:
        saddles.append(_classical.topological_saddle(model, bvp))
    return saddles


def _caustic_row(model, x0, T, x1s):
    """Caustic saddles along a row of x1, one fold search for the row."""
    curve = _classical.caustic_saddle_curve(model, x0, T, x1s)
    for x1 in x1s:
        if float(x1) not in curve:
            raise ValidationError(f"x1 = {x1:.6g} lies on or inside the "
                                  f"caustic loop; no complex saddle")
    return [curve[float(x1)] for x1 in x1s]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_rates(args):
    model = _parse_model(args.model)
    ks = _parse_range(args.k_range)
    r2, t2 = scatter_rates(model, ks)
    rows = [(k, r, t, model.family.value, model.alpha, model.hbar)
            for k, r, t in zip(ks, np.atleast_1d(r2), np.atleast_1d(t2))]
    _write_rows(args.out, ("k", "R2", "T2", "family", "alpha", "hbar"),
                rows, {"command": "rates", "model": model.to_dict(),
                       "k_range": args.k_range}, args.format)
    return 0


#: x1 points per propagate call of the propagate command.  Columns of a
#: row agree with one-point calls to rounding, not bit for bit, so the row
#: is cut into blocks that do not depend on --threads, which only decides
#: which process integrates each block.
ROW_BLOCK = 16


def _cmd_propagate(args):
    model = _parse_model(args.model)
    xs = _parse_range(args.x1_range)
    cfg = QuadratureConfig(theta=args.theta)
    jobs = [(model, args.x0, xs[i:i + ROW_BLOCK], args.T, cfg)
            for i in range(0, xs.size, ROW_BLOCK)]
    if args.threads > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=args.threads) as ex:
            blocks = list(ex.map(propagate, *zip(*jobs)))
    else:
        blocks = [propagate(*j) for j in jobs]
    rows = [(s.x0, s.x1, s.T, s.G.real, s.G.imag, abs(s.G) ** 2, s.est_error)
            for block in blocks for s in block.samples]
    _write_rows(args.out, ("x0", "x1", "T", "ReG", "ImG", "abs2", "est_error"),
                rows, {"command": "propagate", "model": model.to_dict(),
                       "x0": args.x0, "x1_range": args.x1_range, "T": args.T,
                       "theta": args.theta}, args.format)
    return 0


def _cmd_energy(args):
    model = _parse_model(args.model)
    es = _parse_range(args.E_range)
    rows = []
    for E in es:
        K, err = energy_propagator(model, args.x0, args.x1, float(E))
        rows.append((args.x0, args.x1, E, K.real, K.imag, abs(K) ** 2, err))
    _write_rows(args.out, ("x0", "x1", "E", "ReK", "ImK", "abs2", "est_error"),
                rows, {"command": "energy", "model": model.to_dict(),
                       "x0": args.x0, "x1": args.x1, "E_range": args.E_range},
                args.format)
    return 0


def _cmd_classical(args):
    model = _parse_model(args.model)
    bvp = _classical.BoundarySpec(args.x0, args.x1, args.T)
    saddles = _saddle_set(model, bvp, args.saddles)
    payload = [{"kind": s.kind.value, "E_re": s.E.real, "E_im": s.E.imag,
                "S_re": s.S.real, "S_im": s.S.imag,
                "vv_re": s.vv.real, "vv_im": s.vv.imag, "maslov": s.maslov,
                "relevant": bool(s.relevant)} for s in saddles]
    text = json.dumps({"config": {"command": "classical",
                                  "model": model.to_dict(), "x0": args.x0,
                                  "x1": args.x1, "T": args.T},
                       "saddles": payload}, indent=1)
    _emit(args.out, text + "\n")
    return 0


def _cmd_caustics(args):
    model = _parse_model(args.model)
    xs = _parse_range(args.x0_range)
    pts = _caustics.caustic_curve(model, args.T, xs, n_scan=args.n_scan)
    _write_rows(args.out, ("x0", "x1"), pts,
                {"command": "caustics", "model": model.to_dict(), "T": args.T,
                 "x0_range": args.x0_range}, args.format)
    return 0


def _cmd_stokes(args):
    model = _parse_model(args.model)
    xs = _parse_range(args.x0_range)
    pts = _caustics.stokes_lines(model, args.T, xs)
    _write_rows(args.out, ("x0", "x1"), pts,
                {"command": "stokes", "model": model.to_dict(), "T": args.T,
                 "x0_range": args.x0_range}, args.format)
    return 0


def _cmd_wkb(args):
    model = _parse_model(args.model)
    xs = _parse_range(args.x1_range)
    hbar = args.hbar if args.hbar else model.hbar
    if args.calibrate:
        g_exact = propagate(replace(model, hbar=hbar), args.x0, xs, args.T).G
    caustic = (_caustic_row(model, args.x0, args.T, xs)
               if "caustic" in args.saddles else [None] * xs.size)
    rows = []
    for j, (x1, caus) in enumerate(zip(xs, caustic)):
        bvp = _classical.BoundarySpec(args.x0, float(x1), args.T)
        saddles = _saddle_set(model, bvp, args.saddles, caus)
        if args.calibrate:
            saddles = fix_complex_saddle_phase(model, bvp, saddles,
                                               g_exact[j], hbar)
        G = wkb_propagator(model, bvp, saddles, hbar)
        rows.append((args.x0, x1, args.T, G.real, G.imag, abs(G) ** 2, 0.0))
    _write_rows(args.out, ("x0", "x1", "T", "ReG", "ImG", "abs2", "est_error"),
                rows, {"command": "wkb", "model": model.to_dict(),
                       "x0": args.x0, "x1_range": args.x1_range, "T": args.T,
                       "saddles": args.saddles, "hbar": hbar}, args.format)
    return 0


def _cmd_spectrum(args):
    model = _parse_model(args.model)
    bvp = _classical.BoundarySpec(args.x0, args.x1, args.T)
    window = _spec.OmegaWindow(A=args.A, B=args.B, n_omega=args.n_omega)
    samples = _spec.propagator_omega_samples(model, bvp, window,
                                             threads=args.threads)
    if args.kind == "fourier":
        grid = _parse_range(args.tau_range)
        series = _spec.fourier_spectrum(model, bvp, window, grid, samples)
    else:
        grid = _parse_range(args.s_range)
        series = _spec.laplace_spectrum(model, bvp, window, grid, samples)
    rows = [(g, v, series.est_error) for g, v in zip(series.grid, series.values)]
    _write_rows(args.out, ("grid", "value", "err"), rows,
                {"command": "spectrum", "kind": args.kind,
                 "model": model.to_dict(), "x0": args.x0, "x1": args.x1,
                 "T": args.T, "A": args.A, "B": args.B,
                 "n_omega": args.n_omega}, args.format)
    return 0


def _cmd_oracle(args):
    model = _parse_model(args.model)
    grid = GridSpec(x_min=args.x_min, x_max=args.x_max, n_x=args.n_x,
                    dt=args.dt, absorbing_width=args.absorbing_width)
    xs = grid.xs()
    psi0 = gaussian_packet(xs, args.center, args.sigma, args.k_mean,
                           model.hbar)
    psi = evolve_packet(model, psi0, grid, args.T, k_content=args.k_mean + 4)
    rows = list(zip(xs, psi.real, psi.imag, np.abs(psi) ** 2))
    _write_rows(args.out, ("x", "RePsi", "ImPsi", "abs2"), rows,
                {"command": "oracle", "model": model.to_dict(),
                 "center": args.center, "sigma": args.sigma,
                 "k_mean": args.k_mean, "T": args.T}, args.format)
    return 0


# ---------------------------------------------------------------------------
# figure reproduction recipes
# ---------------------------------------------------------------------------
#
# Each recipe is a generator of (file name, header, rows, config) records;
# _cmd_reproduce writes them.

_WS1 = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
_WS5 = StepModel(Family.WOODS_SAXON, 1, 1, 5, 1)
_HV = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)

#: |G|^2 grid figures: (model, swept model key, values, file name stem)
_GRIDS = {
    "fig3": (_WS1, "hbar", (1.0, 0.5, 0.25), "ws_absG2_hbar"),
    "fig4": (_HV, "hbar", (1.0, 0.5, 0.25), "heaviside_absG2_hbar"),
    "fig5": (_HV, "V0", (0.25, 0.5, 1.0), "heaviside_V0_"),
    "fig6": (_WS1, "V0", (1.0, 1.5, 2.0), "ws_V0_"),
}

#: contour figures: their files and the sheet of t(x) that each follows
_CONTOURS = {"fig12": ("fig12_left_contour.csv", -1),
             "fig13": ("fig13_right_contour.csv", +1)}


def _contour_t(E, v, sheet):
    """t on the unit smooth step where V(x) = v, x = log(v/(V0 - v))/(2
    alpha), which is complex for v > V0 and for complex v."""
    x = cmath.log(v / (_WS1.V0 - v)) / (2.0 * _WS1.alpha)
    return _classical.time_of_flight(_WS1, E, x, sheet)


def _alpha_sweep(*alphas):
    """(label, model) pairs: the unit smooth step at each alpha, then the
    Heaviside step."""
    return [(a, replace(_WS1, alpha=a)) for a in alphas] + [("heaviside", _HV)]


def _grid_abs2(model, T, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    rows = []
    for x0 in xs:
        G = propagate(model, float(x0), xs, T).G
        rows += [(x0, x1, abs(g) ** 2) for x1, g in zip(xs, G)]
    return rows


def _bands(model, x0, x1s, n_omega):
    """(x1, tau, |F|^2) rows of the Fourier spectrum along a row of x1."""
    window = _spec.OmegaWindow(1.0, 12.0, n_omega)
    taus = np.linspace(-2.0, 14.0, 481)
    rows = []
    for x1 in x1s:
        bvp = _classical.BoundarySpec(x0, float(x1), 10.0)
        series = _spec.fourier_spectrum(model, bvp, window, taus)
        rows += [(x1, t, v) for t, v in zip(series.grid, series.values)]
    return rows


def _recipes(coarse):
    n2d = 21 if coarse else 41
    nline = 81 if coarse else 201

    def grid(fig, model, key, values, stem):
        for v in values:
            md = replace(model, **{key: v})
            yield (f"{fig}_{stem}{v}.csv", ("x0", "x1", "absG2"),
                   _grid_abs2(md, 10.0, -8.0, 2.0, n2d),
                   {"recipe": fig, key: v})

    def contour(fig, name, sheet):
        E, rows = 2.0, []
        for v in np.linspace(1e-4, E - 1e-4, 600):
            t = _contour_t(E, float(v), sheet)
            rows.append((v, t.real, t.imag))
        yield (name, ("v", "Re_t", "Im_t"), rows,
               {"recipe": fig, "E": E, "alpha": 1.0})

    def fig1():
        xs = np.linspace(-3, 3, 601)
        rows = []
        for a, md in _alpha_sweep(1, 3, 5, 7, 9):
            rows += [(a, x, potential_value(md, x)) for x in xs]
        yield ("fig1_potentials.csv", ("alpha", "x", "V"), rows,
               {"recipe": "fig1"})

    def fig2():
        ks = np.linspace(math.sqrt(2) + 1e-6, 10, 400)
        rows = []
        for a, md in _alpha_sweep(0.1, 1, 2, 3, 4):
            r2, t2 = scatter_rates(md, ks)
            rows += [(a, k, r, t) for k, r, t in zip(ks, r2, t2)]
        yield ("fig2_rates.csv", ("alpha", "k", "R2", "T2"), rows,
               {"recipe": "fig2"})

    def fig7():
        xs = np.linspace(-20, 20, 801)
        rows = []
        for branch, k in (("c", 0.95 * math.sqrt(2)),
                          ("plus", 1.5 * math.sqrt(2))):
            for x in xs:
                v = eigenstate_ws(_WS1, branch, k, float(x))
                rows.append((branch, x, v.real, v.imag))
        yield ("fig7_eigenstates.csv", ("branch", "x", "Re", "Im"), rows,
               {"recipe": "fig7"})

    def fig8():
        rows = []
        for x1 in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0):
            floor = _classical._energy_floor(_WS1, -5.0, x1) * (1 + 1e-10)
            for E in np.geomspace(floor, 0.999, 400):
                td = _classical._direct(_WS1, float(E), -5.0, x1)[0]
                tb = _classical._t_bounce(_WS1, float(E), -5.0, x1)
                rows.append((x1, E, td, float(tb.real)))
        yield ("fig8a_time_vs_energy.csv", ("x1", "E", "T_direct", "T_bounce"),
               rows, {"recipe": "fig8a"})
        # paths for (x0, x1, T) = (-4, -3, 10)
        bvp = _classical.BoundarySpec(-4.0, -3.0, 10.0)
        rows = []
        for a, md in _alpha_sweep(1.0, 5.0):
            for s in _classical.solve_real_paths(md, bvp):
                rows += [(a, s.kind.value, t, x)
                         for t, x in _path_samples(md, s, bvp)]
        yield ("fig8b_paths.csv", ("alpha", "kind", "t", "x"), rows,
               {"recipe": "fig8b"})

    def fig9():
        hb = 0.1
        xs = np.linspace(-10.0, -8.0, nline)
        probe = _classical.BoundarySpec(-5.0, -9.0, 10.0)
        mdh = replace(_WS5, hbar=hb)
        gp = propagate(mdh, -5.0, -9.0, 10.0).G
        *row, c_probe = _caustic_row(_WS5, -5.0, 10.0, [*xs, -9.0])
        sad0 = _saddle_set(_WS5, probe, "real+caustic", c_probe)
        sad1 = fix_complex_saddle_phase(_WS5, probe, sad0, gp, hb)
        flip = -1.0 if sad1[-1].sqrt_vv != sad0[-1].sqrt_vv else 1.0
        rows = []
        for x1, g, caus in zip(xs, propagate(mdh, -5.0, xs, 10.0).G, row):
            bvp = _classical.BoundarySpec(-5.0, float(x1), 10.0)
            real_s = _classical.solve_real_paths(_WS5, bvp)
            caus = caus.with_sqrt_vv(complex(flip * caus.sqrt_vv))
            w_real = wkb_propagator(_WS5, bvp, real_s, hb)
            w_both = wkb_propagator(_WS5, bvp, real_s + [caus], hb)
            rows.append((x1, g.real, g.imag, w_real.real, w_real.imag,
                         w_both.real, w_both.imag))
        yield ("fig9_wkb_comparison.csv",
               ("x1", "ReG", "ImG", "ReWKBreal", "ImWKBreal", "ReWKBboth",
                "ImWKBboth"), rows, {"recipe": "fig9", "hbar": hb})

    def fig10():
        # principal root v0 = sqrt(2 (E - V(x0)) / m) of the caustic saddle
        xs = np.arange(-6.75, -3.94, 0.05)
        v_x0 = potential_value(_WS1, -4.0)
        v0s = [cmath.sqrt(2.0 * (s.E - v_x0) / _WS1.m)
               for s in _caustic_row(_WS1, -4.0, 10.0, xs)]
        yield ("fig10_complex_v0.csv", ("x1", "Re_v0", "Im_v0"),
               [(x1, v.real, v.imag) for x1, v in zip(xs, v0s)],
               {"recipe": "fig10"})

    def fig11():
        rows = []
        for er in np.linspace(0.7, 1.6, 61):
            for ei in np.linspace(0.0, 0.5, 41):
                E = complex(er, ei if ei > 0 else 1e-9)
                tb = _classical._t_bounce(_WS5, E, -5.0, -9.25)
                rows.append((er, ei, tb.real, tb.imag))
        yield ("fig11_complex_energy_map.csv", ("ReE", "ImE", "ReT", "ImT"),
               rows, {"recipe": "fig11"})

    def fig14():
        # the real-axis reflection point a, Re t(a) = 0 on sheet +1
        E = 2.0
        a = brentq(lambda x: _classical.time_of_flight(_WS1, E, x, +1).real,
                   -6.0, -1e-6, xtol=1e-12)
        rows = []
        for th in np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 400):
            v = (E - a) * np.exp(1j * th) / 2.0 + (E + a) / 2.0
            t = _contour_t(E, complex(v), -1)
            rows.append((th, t.real, t.imag))
        yield ("fig14_c0_circle.csv", ("theta", "Re_t", "Im_t"), rows,
               {"recipe": "fig14", "a": a})

    def fig15():
        bvp = _classical.BoundarySpec(5.0, 4.0, 10.0)
        window = _spec.OmegaWindow(1.0, 12.0, 1024 if coarse else 2048)
        series = _spec.fourier_spectrum(_HV, bvp, window,
                                        np.linspace(0.0, 15.0, 901))
        yield ("fig15_rr_spectrum.csv", ("tau", "absF2"),
               list(zip(series.grid, series.values)), {"recipe": "fig15"})

    def fig16():
        bvp = _classical.BoundarySpec(-5.0, -9.25, 10.0)
        window = _spec.OmegaWindow(1.0, 12.0, 512 if coarse else 1024)
        ss = np.linspace(0.0, 1.5, 241)
        l_exact = np.sqrt(_spec.laplace_spectrum(_WS5, bvp, window, ss).values)
        real_s = _classical.solve_real_paths(_WS5, bvp)
        caus = _classical.find_caustic_saddle(_WS5, bvp)
        topo = _classical.topological_saddle(_WS5, bvp)
        models = [np.abs(_spec.wkb_model_laplace(st, window, ss))
                  for st in (real_s, real_s + [caus], real_s + [caus, topo])]
        yield ("fig16_laplace_residue.csv",
               ("s", "absL", "model_real", "model_real_caustic", "model_all"),
               list(zip(ss, l_exact, *models)), {"recipe": "fig16"})

    def fig17():
        for x0, tag, shift in ((-5.0, "left", 0.0), (5.0, "right", 12.5)):
            x1s = np.linspace(-12.0, -0.5, 24 if coarse else 48) + shift
            yield (f"fig17_bands_{tag}.csv", ("x1", "tau", "absF2"),
                   _bands(_HV, x0, x1s, 512 if coarse else 1024),
                   {"recipe": "fig17", "x0": x0})

    def fig18():
        x1s = np.linspace(-12.0, -0.5, 16 if coarse else 32)
        yield ("fig18_bands_smooth.csv", ("x1", "tau", "absF2"),
               _bands(_WS5, -5.0, x1s, 256 if coarse else 512),
               {"recipe": "fig18"})

    recipes = {fn.__name__: fn for fn in (
        fig1, fig2, fig7, fig8, fig9, fig10, fig11, fig14, fig15, fig16,
        fig17, fig18)}
    recipes.update({fig: partial(grid, fig, *spec)
                    for fig, spec in _GRIDS.items()})
    recipes.update({fig: partial(contour, fig, *spec)
                    for fig, spec in _CONTOURS.items()})
    return {f"fig{i}": recipes[f"fig{i}"] for i in range(1, 19)}


def _path_samples(model, saddle, bvp, n=200):
    """(t, x) samples of a real path: closed-form legs on the Heaviside
    step, the equations of motion of caustics._rhs on the smooth one."""
    x0, x1, T = bvp.x0, bvp.x1, bvp.T
    ts = np.linspace(0, T, n)
    kind = saddle.kind.value
    if model.family is Family.HEAVISIDE:
        if kind == "direct":
            xs = x0 + ts * (x1 - x0) / T
        elif kind == "low_bounce":
            u = abs(x0) + abs(x1)
            xs = np.where(ts <= T * abs(x0) / u, x0 + ts * u / T,
                          abs(x0) - ts * u / T)
        else:
            v = math.sqrt(2 * model.V0 / model.m)
            xs = np.where(ts <= abs(x0) / v, x0 + v * ts,
                          np.where(ts < T - abs(x1) / v, 0.0,
                                   x1 + v * (T - ts)))
        return list(zip(ts, xs))
    from scipy.integrate import solve_ivp
    sgn = (np.sign(x1 - x0) or 1.0) if kind == "direct" else 1.0
    E = saddle.E.real
    v0 = sgn * math.sqrt(max(2 * (E - potential_value(model, x0)), 0.0)
                         / model.m)
    sol = solve_ivp(_caustics._rhs(model), (0, T), [x0, v0, 0.0, 1.0],
                    t_eval=ts, rtol=1e-10, atol=1e-12)
    return list(zip(sol.t, sol.y[0]))


def _cmd_reproduce(args):
    recipes = _recipes(args.coarse)
    if args.figure != "all" and args.figure not in recipes:
        raise ValidationError(f"unknown recipe {args.figure!r}; "
                              f"choose from {sorted(recipes)} or 'all'")
    os.makedirs(args.out_dir, exist_ok=True)
    for fig in recipes if args.figure == "all" else [args.figure]:
        for name, header, rows, config in recipes[fig]():
            _write_rows(os.path.join(args.out_dir, name), header, rows, config)
    return 0


# ---------------------------------------------------------------------------

@cache
def build_parser():
    p = argparse.ArgumentParser(prog="stepprop",
                                description="step-potential propagator toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    saddle_sets = ("real", "real+caustic", "real+caustic+topological")

    def command(name, func, help, fmt=True):
        q = sub.add_parser(name, help=help)
        q.set_defaults(func=func)
        q.add_argument("--model", required=True,
                       help="model JSON (inline or file path)")
        q.add_argument("--out", default=None)
        if fmt:
            q.add_argument("--format", choices=("csv", "json"), default="csv")
        return q

    q = command("rates", _cmd_rates, "reflection/transmission rates CSV")
    q.add_argument("--k-range", default="1.5:10:200")

    q = command("propagate", _cmd_propagate, "real-time propagator sweep")
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1-range", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--theta", type=float, default=0.1)
    q.add_argument("--threads", type=int, default=1)

    q = command("energy", _cmd_energy, "energy propagator sweep")
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1", type=float, required=True)
    q.add_argument("--E-range", required=True)

    q = command("classical", _cmd_classical, "classical saddles as JSON",
                fmt=False)
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1", type=float, required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--saddles", default="real", choices=saddle_sets)

    q = command("caustics", _cmd_caustics, "caustic curve points CSV")
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x0-range", required=True)
    q.add_argument("--n-scan", type=int, default=400)

    q = command("stokes", _cmd_stokes, "Stokes line points CSV")
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x0-range", required=True)

    q = command("wkb", _cmd_wkb, "WKB propagator sweep")
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1-range", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--hbar", type=float, default=None)
    q.add_argument("--saddles", default="real+caustic", choices=saddle_sets)
    q.add_argument("--calibrate", action="store_true",
                   help="pin complex-saddle Stokes signs against exact G")

    q = command("spectrum", _cmd_spectrum, "Fourier/Laplace action spectroscopy")
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1", type=float, required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--kind", choices=("fourier", "laplace"), default="fourier")
    q.add_argument("--A", type=float, default=1.0)
    q.add_argument("--B", type=float, default=12.0)
    q.add_argument("--n-omega", type=int, default=2048)
    q.add_argument("--tau-range", default="0:15:601")
    q.add_argument("--s-range", default="0:2:241")
    q.add_argument("--threads", type=int, default=1)

    q = command("oracle", _cmd_oracle, "Crank-Nicolson packet evolution")
    q.add_argument("--center", type=float, default=-15.0)
    q.add_argument("--sigma", type=float, default=1.0)
    q.add_argument("--k-mean", type=float, default=1.2)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x-min", type=float, default=-60.0)
    q.add_argument("--x-max", type=float, default=40.0)
    q.add_argument("--n-x", type=int, default=8192)
    q.add_argument("--dt", type=float, default=0.005)
    q.add_argument("--absorbing-width", type=float, default=0.0)

    q = sub.add_parser("reproduce", help="figure-data reproduction recipes")
    q.add_argument("figure", help="fig1..fig18 or 'all'")
    q.add_argument("--out-dir", default="reproduce_out")
    q.add_argument("--coarse", action="store_true",
                   help="coarser grids for quick runs")
    q.set_defaults(func=_cmd_reproduce)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, json.JSONDecodeError, OSError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    except StepPropError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
