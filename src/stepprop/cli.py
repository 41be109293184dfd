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
import json
import math
import os
import sys

import numpy as np

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
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValidationError("range count must be >= 1")
    return np.linspace(a, b, n)


def _write_rows(path, header, rows, config, fmt="csv"):
    def render(v):
        if isinstance(v, str):
            return v
        return FMT % v

    if fmt == "json":
        payload = {"config": config,
                   "columns": list(header),
                   "rows": [[v if isinstance(v, str) else float(v) for v in r]
                            for r in rows]}
        text = json.dumps(payload, indent=1)
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True),
                 ",".join(header)]
        lines += [",".join(render(v) for v in r) for r in rows]
        text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _saddle_set(model, bvp, which):
    saddles = list(_classical.solve_real_paths(model, bvp))
    if "caustic" in which:
        saddles.append(_classical.find_caustic_saddle(model, bvp))
    if "topological" in which:
        saddles.append(_classical.topological_saddle(model, bvp))
    return saddles


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


def _propagate_job(job):
    return propagate(*job)


def _cmd_propagate(args):
    model = _parse_model(args.model)
    xs = _parse_range(args.x1_range)
    cfg = QuadratureConfig(theta=args.theta)
    jobs = [(model, args.x0, xs[i:i + ROW_BLOCK], args.T, cfg)
            for i in range(0, xs.size, ROW_BLOCK)]
    if args.threads > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=args.threads) as ex:
            blocks = list(ex.map(_propagate_job, jobs))
    else:
        blocks = [_propagate_job(j) for j in jobs]
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
                "vv_re": s.vv.real, "vv_im": s.vv.imag,
                "relevant": bool(s.relevant)} for s in saddles]
    text = json.dumps({"config": {"command": "classical",
                                  "model": model.to_dict(), "x0": args.x0,
                                  "x1": args.x1, "T": args.T},
                       "saddles": payload}, indent=1)
    if args.out in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
        from dataclasses import replace as _replace
        g_exact = propagate(_replace(model, hbar=hbar), args.x0, xs,
                            args.T).G
    rows = []
    for j, x1 in enumerate(xs):
        bvp = _classical.BoundarySpec(args.x0, float(x1), args.T)
        saddles = _saddle_set(model, bvp, args.saddles)
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

def _grid_abs2(model, T, lo, hi, n):
    xs = np.linspace(lo, hi, n)
    rows = []
    for x0 in xs:
        G = propagate(model, float(x0), xs, T).G
        rows += [(x0, x1, abs(g) ** 2) for x1, g in zip(xs, G)]
    return rows


def _recipes(out_dir, coarse):
    n2d = 21 if coarse else 41
    nline = 81 if coarse else 201

    def path(name):
        return os.path.join(out_dir, name)

    def fig1():
        xs = np.linspace(-3, 3, 601)
        rows = []
        for a in (1, 3, 5, 7, 9):
            md = StepModel(Family.WOODS_SAXON, 1, 1, a, 1)
            for x in xs:
                rows.append((a, x, float(potential_value(md, x))))
        hv = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
        for x in xs:
            rows.append(("heaviside", x, float(potential_value(hv, x))))
        _write_rows(path("fig1_potentials.csv"), ("alpha", "x", "V"), rows,
                    {"recipe": "fig1"})

    def fig2():
        ks = np.linspace(math.sqrt(2) + 1e-6, 10, 400)
        rows = []
        for a in (0.1, 1, 2, 3, 4):
            md = StepModel(Family.WOODS_SAXON, 1, 1, a, 1)
            r2, t2 = scatter_rates(md, ks)
            rows += [(a, k, r, t) for k, r, t in zip(ks, r2, t2)]
        hv = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
        r2, t2 = scatter_rates(hv, ks)
        rows += [("heaviside", k, r, t) for k, r, t in zip(ks, r2, t2)]
        _write_rows(path("fig2_rates.csv"), ("alpha", "k", "R2", "T2"), rows,
                    {"recipe": "fig2"})

    def fig3():
        for hb in (1.0, 0.5, 0.25):
            md = StepModel(Family.WOODS_SAXON, 1, 1, 1, hb)
            rows = _grid_abs2(md, 10.0, -8.0, 2.0, n2d)
            _write_rows(path(f"fig3_ws_absG2_hbar{hb}.csv"),
                        ("x0", "x1", "absG2"), rows,
                        {"recipe": "fig3", "hbar": hb})

    def fig4():
        for hb in (1.0, 0.5, 0.25):
            md = StepModel(Family.HEAVISIDE, 1, 1, 1, hb)
            rows = _grid_abs2(md, 10.0, -8.0, 2.0, n2d)
            _write_rows(path(f"fig4_heaviside_absG2_hbar{hb}.csv"),
                        ("x0", "x1", "absG2"), rows,
                        {"recipe": "fig4", "hbar": hb})

    def fig5():
        for v0 in (0.25, 0.5, 1.0):
            md = StepModel(Family.HEAVISIDE, 1, v0, 1, 1)
            rows = _grid_abs2(md, 10.0, -8.0, 2.0, n2d)
            _write_rows(path(f"fig5_heaviside_V0_{v0}.csv"),
                        ("x0", "x1", "absG2"), rows,
                        {"recipe": "fig5", "V0": v0})

    def fig6():
        for v0 in (1.0, 1.5, 2.0):
            md = StepModel(Family.WOODS_SAXON, 1, v0, 1, 1)
            rows = _grid_abs2(md, 10.0, -8.0, 2.0, n2d)
            _write_rows(path(f"fig6_ws_V0_{v0}.csv"),
                        ("x0", "x1", "absG2"), rows,
                        {"recipe": "fig6", "V0": v0})

    def fig7():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
        xs = np.linspace(-20, 20, 801)
        rows = []
        for label, branch, k in (("c", "c", 0.95 * math.sqrt(2)),
                                 ("plus", "plus", 1.5 * math.sqrt(2))):
            for x in xs:
                v = eigenstate_ws(md, branch, k, float(x))
                rows.append((label, x, v.real, v.imag))
        _write_rows(path("fig7_eigenstates.csv"),
                    ("branch", "x", "Re", "Im"), rows, {"recipe": "fig7"})

    def fig8():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
        rows = []
        es = np.geomspace(1e-3, 0.999, 400)
        for x1 in (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0):
            for E in es:
                try:
                    td = _classical._t_direct(md, float(E), -5.0, x1)
                    tb = float(_classical._t_bounce(md, float(E), -5.0, x1).real)
                except StepPropError:
                    continue
                rows.append((x1, E, td, tb))
        _write_rows(path("fig8a_time_vs_energy.csv"),
                    ("x1", "E", "T_direct", "T_bounce"), rows,
                    {"recipe": "fig8a"})
        # paths for (x0, x1, T) = (-4, -3, 10)
        rows = []
        for a in (1.0, 5.0):
            mda = StepModel(Family.WOODS_SAXON, 1, 1, a, 1)
            bvp = _classical.BoundarySpec(-4.0, -3.0, 10.0)
            for s in _classical.solve_real_paths(mda, bvp):
                xs_t = _path_samples(mda, s, bvp)
                rows += [(a, s.kind.value, t, x) for t, x in xs_t]
        hv = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
        for s in _classical.heaviside_paths(hv, _classical.BoundarySpec(-4.0, -3.0, 10.0)):
            xs_t = _heaviside_path_samples(hv, s, -4.0, -3.0, 10.0)
            rows += [("heaviside", s.kind.value, t, x) for t, x in xs_t]
        _write_rows(path("fig8b_paths.csv"), ("alpha", "kind", "t", "x"),
                    rows, {"recipe": "fig8b"})

    def fig9():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 5, 1)
        hb = 0.1
        xs = np.linspace(-10.0, -8.0, nline)
        probe = _classical.BoundarySpec(-5.0, -9.0, 10.0)
        mdh = StepModel(Family.WOODS_SAXON, 1, 1, 5, hb)
        gp = propagate(mdh, -5.0, -9.0, 10.0).G
        sad0 = _saddle_set(md, probe, "real+caustic")
        sad1 = fix_complex_saddle_phase(md, probe, sad0, gp, hb)
        flip = -1.0 if sad1[-1].sqrt_vv != sad0[-1].sqrt_vv else 1.0
        rows = []
        for x1, g in zip(xs, propagate(mdh, -5.0, xs, 10.0).G):
            bvp = _classical.BoundarySpec(-5.0, float(x1), 10.0)
            real_s = _classical.solve_real_paths(md, bvp)
            caus = _classical.find_caustic_saddle(md, bvp)
            caus = caus.with_sqrt_vv(complex(flip * caus.sqrt_vv))
            w_real = wkb_propagator(md, bvp, real_s, hb)
            w_both = wkb_propagator(md, bvp, real_s + [caus], hb)
            rows.append((x1, g.real, g.imag, w_real.real, w_real.imag,
                         w_both.real, w_both.imag))
        _write_rows(path("fig9_wkb_comparison.csv"),
                    ("x1", "ReG", "ImG", "ReWKBreal", "ImWKBreal",
                     "ReWKBboth", "ImWKBboth"), rows,
                    {"recipe": "fig9", "hbar": hb})

    def fig10():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
        rows = []
        for x1 in np.arange(-6.75, -3.94, 0.05):
            root = _complex_shoot(md, -4.0, float(x1), 10.0)
            if root is not None:
                rows.append((x1, root.real, root.imag))
        _write_rows(path("fig10_complex_v0.csv"), ("x1", "Re_v0", "Im_v0"),
                    rows, {"recipe": "fig10"})

    def fig11():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 5, 1)
        rows = []
        for er in np.linspace(0.7, 1.6, 61):
            for ei in np.linspace(0.0, 0.5, 41):
                E = complex(er, ei if ei > 0 else 1e-9)
                tb = _classical._t_bounce(md, E, -5.0, -9.25)
                rows.append((er, ei, tb.real, tb.imag))
        _write_rows(path("fig11_complex_energy_map.csv"),
                    ("ReE", "ImE", "ReT", "ImT"), rows, {"recipe": "fig11"})

    def fig12():
        _contour_diag(path("fig12_left_contour.csv"), E=2.0, alpha=1.0)

    def fig13():
        _contour_diag(path("fig13_right_contour.csv"), E=2.0, alpha=1.0)

    def fig14():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
        E = 2.0
        a = _matching_point(md, E)
        rows = []
        for th in np.linspace(-math.pi + 1e-3, math.pi - 1e-3, 400):
            v = (E - a) * np.exp(1j * th) / 2.0 + (E + a) / 2.0
            t = _t_of_v(md, E, v)
            rows.append((th, t.real, t.imag))
        _write_rows(path("fig14_c0_circle.csv"), ("theta", "Re_t", "Im_t"),
                    rows, {"recipe": "fig14", "a": a})

    def fig15():
        md = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
        bvp = _classical.BoundarySpec(5.0, 4.0, 10.0)
        window = _spec.OmegaWindow(1.0, 12.0, 1024 if coarse else 2048)
        samples = _spec.propagator_omega_samples(md, bvp, window)
        taus = np.linspace(0.0, 15.0, 901)
        series = _spec.fourier_spectrum(md, bvp, window, taus, samples)
        rows = list(zip(series.grid, series.values))
        _write_rows(path("fig15_rr_spectrum.csv"), ("tau", "absF2"), rows,
                    {"recipe": "fig15"})

    def fig16():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 5, 1)
        bvp = _classical.BoundarySpec(-5.0, -9.25, 10.0)
        window = _spec.OmegaWindow(1.0, 12.0, 512 if coarse else 1024)
        samples = _spec.propagator_omega_samples(md, bvp, window)
        ss = np.linspace(0.0, 1.5, 241)
        real_s = _classical.solve_real_paths(md, bvp)
        caus = _classical.find_caustic_saddle(md, bvp)
        topo = _classical.topological_saddle(md, bvp)
        sets = [real_s, real_s + [caus], real_s + [caus, topo]]
        l_exact = np.abs(_spec._transform("laplace", samples[0], samples[1], ss))
        rows = []
        for s, le in zip(ss, l_exact):
            row = [s, le]
            for st in sets:
                row.append(abs(_spec.wkb_model_laplace(st, window, [s])[0]))
            rows.append(tuple(row))
        _write_rows(path("fig16_laplace_residue.csv"),
                    ("s", "absL", "model_real", "model_real_caustic",
                     "model_all"), rows, {"recipe": "fig16"})

    def fig17():
        md = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
        window = _spec.OmegaWindow(1.0, 12.0, 512 if coarse else 1024)
        taus = np.linspace(-2.0, 14.0, 481)
        for x0 in (-5.0, 5.0):
            rows = []
            for x1 in np.linspace(-12.0, -0.5, 24 if coarse else 48) + (0 if x0 < 0 else 12.5):
                bvp = _classical.BoundarySpec(x0, float(x1), 10.0)
                samples = _spec.propagator_omega_samples(md, bvp, window)
                series = _spec.fourier_spectrum(md, bvp, window, taus, samples)
                rows += [(x1, t, v) for t, v in zip(series.grid, series.values)]
            tag = "left" if x0 < 0 else "right"
            _write_rows(path(f"fig17_bands_{tag}.csv"), ("x1", "tau", "absF2"),
                        rows, {"recipe": "fig17", "x0": x0})

    def fig18():
        md = StepModel(Family.WOODS_SAXON, 1, 1, 5, 1)
        window = _spec.OmegaWindow(1.0, 12.0, 256 if coarse else 512)
        taus = np.linspace(-2.0, 14.0, 481)
        rows = []
        for x1 in np.linspace(-12.0, -0.5, 16 if coarse else 32):
            bvp = _classical.BoundarySpec(-5.0, float(x1), 10.0)
            samples = _spec.propagator_omega_samples(md, bvp, window)
            series = _spec.fourier_spectrum(md, bvp, window, taus, samples)
            rows += [(x1, t, v) for t, v in zip(series.grid, series.values)]
        _write_rows(path("fig18_bands_smooth.csv"), ("x1", "tau", "absF2"),
                    rows, {"recipe": "fig18"})

    return {f"fig{i}": fn for i, fn in enumerate(
        (fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10,
         fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18), start=1)}


def _path_samples(model, saddle, bvp, n=200):
    from scipy.integrate import solve_ivp
    from .potential import potential_derivatives
    sgn = (np.sign(bvp.x1 - bvp.x0) or 1.0) if saddle.kind.value == "direct" else 1.0
    E = saddle.E.real
    v0 = sgn * math.sqrt(max(2 * (E - float(potential_value(model, bvp.x0))), 0.0)
                         / model.m)

    def rhs(t, y):
        _, vp, _ = potential_derivatives(model, y[0])
        return [y[1], -vp / model.m]

    ts = np.linspace(0, bvp.T, n)
    sol = solve_ivp(rhs, (0, bvp.T), [bvp.x0, v0], t_eval=ts,
                    rtol=1e-10, atol=1e-12)
    return list(zip(sol.t, sol.y[0]))


def _heaviside_path_samples(model, saddle, x0, x1, T, n=200):
    m, V0 = model.m, model.V0
    ts = np.linspace(0, T, n)
    kind = saddle.kind.value
    if kind == "direct":
        return [(t, x0 + t * (x1 - x0) / T) for t in ts]
    if kind == "low_bounce":
        u = abs(x0) + abs(x1)
        tc = T * abs(x0) / u
        return [(t, x0 + t * u / T if t <= tc else abs(x0) - t * u / T)
                for t in ts]
    v = math.sqrt(2 * V0 / m)
    t1 = abs(x0) / v
    t2 = T - abs(x1) / v
    out = []
    for t in ts:
        if t <= t1:
            out.append((t, x0 + v * t))
        elif t < t2:
            out.append((t, 0.0))
        else:
            out.append((t, x1 + v * (T - t)))
    return out


def _complex_shoot(model, x0, x1, T, itmax=40):
    """Complex-v0 Newton shot for the bounce continuation (diagnostic)."""
    from scipy.integrate import solve_ivp
    rhs = _caustics._rhs(model)

    def final(v0):
        sol = solve_ivp(rhs, (0, T), [complex(x0), complex(v0), 0j, 1 + 0j],
                        rtol=1e-9, atol=1e-11)
        return sol.y[0, -1], sol.y[2, -1]

    # seed from the merged real bounce velocity
    v = complex(math.sqrt(2 * model.V0 / model.m), 0.05)
    for _ in range(itmax):
        xT, J = final(v)
        if abs(xT - x1) < 1e-9:
            return v
        v = v - (xT - x1) / J
        if not np.isfinite(v):
            return None
    return None


def _t_of_v(model, E, v):
    """Implicit t as a function of the potential value v (contour diagnostics)."""
    w0 = (E - v) / (E - model.V0)
    w1 = (E - v) / E
    r0 = np.sqrt(complex(E - model.V0))
    r1 = np.sqrt(complex(E))
    c = math.sqrt(model.m / 2.0) / model.alpha
    return c * (np.arctanh(-np.sqrt(complex(w0))) / r0
                - np.arctanh(np.sqrt(complex(w1))) / r1)


def _matching_point(model, E):
    """Real-axis reflection point a with Re[t(a)] = 0 (E > V0)."""
    from scipy.optimize import brentq

    def f(x):
        v = float(potential_value(model, x))
        w0 = (E - v) / (E - model.V0)
        w1 = (E - v) / E
        re0 = float(np.arctanh(1.0 / math.sqrt(w0)))
        a1 = float(np.arctanh(math.sqrt(w1)))
        c = math.sqrt(model.m / 2.0) / model.alpha
        return c * (re0 / math.sqrt(E - model.V0) - a1 / math.sqrt(E))

    return brentq(f, -6.0, -1e-6, xtol=1e-12)


def _contour_diag(outpath, E, alpha):
    md = StepModel(Family.WOODS_SAXON, 1, 1, alpha, 1)
    rows = []
    for v in np.linspace(1e-4, E - 1e-4, 600):
        t = _t_of_v(md, E, complex(v))
        rows.append((v, t.real, t.imag))
    _write_rows(outpath, ("v", "Re_t", "Im_t"), rows,
                {"recipe": os.path.basename(outpath), "E": E, "alpha": alpha})


def _cmd_reproduce(args):
    os.makedirs(args.out_dir, exist_ok=True)
    recipes = _recipes(args.out_dir, args.coarse)
    if args.figure == "all":
        for name, fn in recipes.items():
            fn()
        return 0
    if args.figure not in recipes:
        raise ValidationError(f"unknown recipe {args.figure!r}; "
                              f"choose from {sorted(recipes)} or 'all'")
    recipes[args.figure]()
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="stepprop",
                                description="step-potential propagator toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    model_kw = dict(required=True, help="model JSON (inline or file path)")

    q = sub.add_parser("rates", help="reflection/transmission rates CSV")
    q.add_argument("--model", **model_kw)
    q.add_argument("--k-range", default="1.5:10:200")
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_rates)

    q = sub.add_parser("propagate", help="real-time propagator sweep")
    q.add_argument("--model", **model_kw)
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1-range", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--theta", type=float, default=0.1)
    q.add_argument("--threads", type=int, default=1)
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_propagate)

    q = sub.add_parser("energy", help="energy propagator sweep")
    q.add_argument("--model", **model_kw)
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1", type=float, required=True)
    q.add_argument("--E-range", required=True)
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_energy)

    q = sub.add_parser("classical", help="classical saddles as JSON")
    q.add_argument("--model", **model_kw)
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1", type=float, required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--saddles", default="real",
                   choices=("real", "real+caustic", "real+caustic+topological"))
    q.add_argument("--out", default=None)
    q.set_defaults(func=_cmd_classical)

    q = sub.add_parser("caustics", help="caustic curve points CSV")
    q.add_argument("--model", **model_kw)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x0-range", required=True)
    q.add_argument("--n-scan", type=int, default=400)
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_caustics)

    q = sub.add_parser("stokes", help="Stokes line points CSV")
    q.add_argument("--model", **model_kw)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x0-range", required=True)
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_stokes)

    q = sub.add_parser("wkb", help="WKB propagator sweep")
    q.add_argument("--model", **model_kw)
    q.add_argument("--x0", type=float, required=True)
    q.add_argument("--x1-range", required=True)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--hbar", type=float, default=None)
    q.add_argument("--saddles", default="real+caustic",
                   choices=("real", "real+caustic", "real+caustic+topological"))
    q.add_argument("--calibrate", action="store_true",
                   help="pin complex-saddle Stokes signs against exact G")
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_wkb)

    q = sub.add_parser("spectrum", help="Fourier/Laplace action spectroscopy")
    q.add_argument("--model", **model_kw)
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
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_spectrum)

    q = sub.add_parser("oracle", help="Crank-Nicolson packet evolution")
    q.add_argument("--model", **model_kw)
    q.add_argument("--center", type=float, default=-15.0)
    q.add_argument("--sigma", type=float, default=1.0)
    q.add_argument("--k-mean", type=float, default=1.2)
    q.add_argument("--T", type=float, required=True)
    q.add_argument("--x-min", type=float, default=-60.0)
    q.add_argument("--x-max", type=float, default=40.0)
    q.add_argument("--n-x", type=int, default=8192)
    q.add_argument("--dt", type=float, default=0.005)
    q.add_argument("--absorbing-width", type=float, default=0.0)
    q.add_argument("--out", default=None)
    q.add_argument("--format", choices=("csv", "json"), default="csv")
    q.set_defaults(func=_cmd_oracle)

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
