import argparse
import json
import math
import os
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import free_propagator
from stepprop import caustics as ca
from stepprop import classical as cl
from stepprop.cli import (ROW_BLOCK, _UNECHOED, _grid_abs2, _path_samples,
                          _recipes, build_parser, main)
from stepprop.errors import ValidationError
from stepprop.potential import Family, StepModel, potential_value
from stepprop.propagator import propagate
from stepprop.spectroscopy import OMEGA_BLOCK
from stepprop.wkb import wkb_propagator

WS = json.dumps({"family": "woods_saxon", "m": 1.0, "V0": 1.0,
                 "alpha": 1.0, "hbar": 1.0})
WS5 = WS.replace('"alpha": 1.0', '"alpha": 5.0')
HV = json.dumps({"family": "heaviside", "m": 1.0, "V0": 1.0,
                 "alpha": 1.0, "hbar": 1.0})


def _read_csv(path):
    with open(path) as fh:
        lines = [l.strip() for l in fh if l.strip()]
    config = json.loads(lines[0].split("# config: ", 1)[1])
    header = lines[1].split(",")
    rows = [l.split(",") for l in lines[2:]]
    return config, header, rows


def test_rates_heaviside_matches_closed_form(tmp_path):
    out = tmp_path / "rates.csv"
    rc = main(["rates", "--model", HV, "--k-range", "1.5:5:20",
               "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header[:3] == ["k", "R2", "T2"]
    for row in rows:
        k, r2 = float(row[0]), float(row[1])
        p = math.sqrt(k * k - 2.0)
        assert r2 == pytest.approx(((k - p) / (k + p)) ** 2, rel=1e-12)


def test_energy_at_mirror_endpoints(tmp_path):
    # x1 = -x0 on WS alpha = 1, where the contour quadrature once raised;
    # the expected K are 40-digit mpmath values of the closed form
    out = tmp_path / "k.csv"
    assert main(["energy", "--model", WS, "--x0=-1", "--x1=1",
                 "--E-range=0.7:2.5:2", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["x0", "x1", "E", "ReK", "ImK", "abs2", "est_error"]
    want = (0.84757904737232 + 0.34645176965655j,
            -0.33251662338862 - 0.38082913487612j)
    assert len(rows) == len(want)
    for row, K in zip(rows, want):
        assert abs(complex(float(row[3]), float(row[4])) - K) < 1e-13
        assert float(row[6]) == 0.0


def test_malformed_model_json_exits_2(tmp_path, capsys):
    out = tmp_path / "never.csv"
    rc = main(["rates", "--model", "{not json", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip())
    assert "error" in record and "message" in record


def test_unknown_model_key_exits_2(capsys):
    bad = json.dumps({"family": "heaviside", "bogus": 1})
    assert main(["rates", "--model", bad]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["rates", "--model", HV, "--k-range", "a:b:3"],
    ["rates", "--model", HV, "--k-range", "1:2:2.5"],
    ["rates", "--model", json.dumps({"family": "heaviside", "hbar": "x"})],
    ["wkb", "--model", HV, "--x0=-5", "--x1-range=-10:-8:3", "--T", "10",
     "--hbar", "0", "--saddles", "real"],
    ["rates", "--model", json.dumps({"family": "heaviside", "V0": "nan"})],
    ["propagate", "--model", WS, "--x0=-1", "--x1-range=-2:-1:2", "--T",
     "inf"],
    ["propagate", "--model", WS, "--x0=-1", "--x1-range=nan:-2:2", "--T",
     "1"],
    ["energy", "--model", WS, "--x0=nan", "--x1=1", "--E-range=0.5:1:2"],
    ["energy", "--model", WS, "--x0=-1", "--x1=1", "--E-range=nan:1:2"],
    ["caustics", "--model", WS, "--T", "nan", "--x0-range=-6:-4:2"],
    ["caustics", "--model", WS, "--T=-1", "--x0-range=-6:-4:2"],
    ["caustics", "--model", HV, "--T=-10", "--x0-range=-6:-4:2"],
    ["caustics", "--model", WS, "--T", "10", "--x0-range=-6:-4:2",
     "--n-scan", "1"],
    ["caustics", "--model", WS, "--T", "10", "--x0-range=-6:-4:2",
     "--n-scan=-5"],
    ["stokes", "--model", WS, "--T", "inf", "--x0-range=-6:-4:2"],
    ["stokes", "--model", HV, "--T", "nan", "--x0-range=-6:-4:2"],
    ["wkb", "--model", WS, "--x0=-4", "--x1-range=-6:-5:2", "--T", "10",
     "--saddles", "real", "--hbar", "nan"],
    ["wkb", "--model", WS, "--x0=-4", "--x1-range=-6:-5:2", "--T", "10",
     "--saddles", "real", "--hbar", "inf"],
    ["spectrum", "--model", HV, "--x0", "5", "--x1", "4", "--T", "10",
     "--B", "inf", "--n-omega", "64"],
], ids=["range_not_numbers", "range_fractional_count", "model_not_number",
        "wkb_hbar_zero", "model_V0_nan", "propagate_T_inf",
        "propagate_x1_nan", "energy_x0_nan", "energy_E_nan",
        "caustics_T_nan", "caustics_T_negative", "caustics_heaviside_T_-10",
        "caustics_n_scan_1", "caustics_n_scan_-5", "stokes_T_inf",
        "stokes_heaviside_T_nan", "wkb_hbar_nan", "wkb_hbar_inf",
        "spectrum_B_inf"])
def test_malformed_number_exits_2(argv, capsys):
    # no rows and no warning before the record: the caustic and window
    # cases once exited 0 with no rows or nan rows, ran on for minutes,
    # exited 1 with a traceback, or exited 3 after 145 warnings
    rc, warned = _quiet_main(argv)
    assert (rc, warned) == (2, [])
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("argv", [
    ["propagate", "--model", WS, "--x0=-1", "--x1-range=-2:-1:2", "--T", "1",
     "--theta", "0.2"],
    ["oracle", "--model", WS, "--T", "1", "--n-x", "1024",
     "--absorbing-width", "8"],
], ids=["propagate_theta", "oracle_absorbing_width"])
def test_fixed_setting_has_no_option(argv, capsys):
    # the contour angle is a constant and the oracle a closed box
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_zero_step_height_smooth_step_saddles(capsys):
    # V0 = 0 reduces the smooth step to the free particle: one direct path
    md = json.dumps({"family": "woods_saxon", "V0": 0})
    ends = ["--x0=-1", "--T", "1"]
    assert main(["classical", "--model", md, "--x1=-2", *ends]) == 0
    (sad,) = json.loads(capsys.readouterr().out)["saddles"]
    assert sad["kind"] == "direct" and sad["S_re"] == 0.5
    assert main(["wkb", "--model", md, "--x1-range=-2:-2:1", "--saddles",
                 "real", *ends]) == 0
    row = capsys.readouterr().out.splitlines()[2].split(",")
    re_g, im_g = float(row[3]), float(row[4])
    ref = free_propagator(StepModel(Family.WOODS_SAXON, V0=0.0), -1, -2, 1)
    assert abs(complex(re_g, im_g) - ref) <= 1e-14


def test_oracle_negative_time_exits_2(capsys):
    assert main(["oracle", "--model", WS, "--T=-1", "--n-x", "1024"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"


@pytest.mark.parametrize("opts", [["--T", "1e300"],
                                  ["--T", "1e10", "--dt", "1e-300"],
                                  ["--T", "1", "--x-min=-inf"],
                                  ["--T", "1", "--dt", "inf"]],
                         ids=["T_1e300", "dt_1e-300", "x_min_inf", "dt_inf"])
def test_oracle_unrunnable_grid_or_time_exits_2(capsys, opts):
    # too many Crank-Nicolson steps, or a non-finite grid setting, is a
    # usage error found before any step
    assert main(["oracle", "--model", WS, "--n-x", "1024"] + opts) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValidationError"


def test_numerical_failure_exits_3(capsys):
    # no topological saddle exists at very long T: machine-readable exit 3
    rc = main(["classical", "--model", json.dumps(
        {"family": "woods_saxon", "m": 1, "V0": 1, "alpha": 5, "hbar": 1}),
        "--x0", "-5", "--x1", "-9.25", "--T", "11",
        "--saddles", "real+caustic+topological"])
    assert rc == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "NoTopologicalSaddleError"


#: one run of every subcommand, each option that changes its rows set off
#: its default
ECHO_RUNS = {
    "rates": ["rates", "--model", HV, "--k-range=1.6:4:5"],
    "propagate": ["propagate", "--model", HV, "--x0=-4", "--x1-range=-6:-5:3",
                  "--T", "10"],
    "energy": ["energy", "--model", WS, "--x0=-1", "--x1=1.5",
               "--E-range=0.7:2.5:3"],
    "classical": ["classical", "--model", WS5, "--x0=-5", "--x1=-9.25",
                  "--T", "10", "--saddles", "real+caustic"],
    "caustics": ["caustics", "--model", WS, "--T", "10",
                 "--x0-range=-6:-4.5:2", "--n-scan", "150"],
    "stokes": ["stokes", "--model", HV, "--T", "10", "--x0-range=-6:-4:3"],
    "wkb": ["wkb", "--model", WS5, "--x0=-5", "--x1-range=-9.5:-9:2", "--T",
            "10", "--hbar", "0.1", "--saddles", "real+caustic",
            "--calibrate"],
    "spectrum_fourier": ["spectrum", "--model", HV, "--x0", "5", "--x1", "4",
                         "--T", "10", "--A", "2", "--B", "6", "--n-omega",
                         "64", "--tau-range", "4:8:9"],
    "spectrum_laplace": ["spectrum", "--model", HV, "--x0", "5", "--x1", "4",
                         "--T", "10", "--kind", "laplace", "--n-omega", "64",
                         "--s-range", "0:1:6"],
    "oracle": ["oracle", "--model", WS, "--T", "0.5", "--center=-10",
               "--sigma", "1.5", "--k-mean", "1", "--x-min=-30", "--x-max",
               "20", "--n-x", "1024", "--dt", "0.01"],
}


def _rerun_argv(config):
    """The command line that the echoed config describes: each key is an
    argparse dest, a true flag is given bare and a false one left out."""
    argv = [config["command"]]
    for key, value in config.items():
        opt = "--" + key.replace("_", "-")
        if key == "command" or value is False:
            continue
        if value is True:
            argv.append(opt)
        else:
            argv.append(f"{opt}={json.dumps(value) if key == 'model' else value}")
    return argv


def _echo_and_rows(path):
    text = path.read_text()
    if text.startswith("{"):  # classical writes one JSON record
        record = json.loads(text)
        return record["config"], record["saddles"]
    first, rows = text.split("\n", 1)
    return json.loads(first.split("# config: ", 1)[1]), rows


@pytest.mark.parametrize("run", list(ECHO_RUNS))
def test_echoed_config_reproduces_rows(tmp_path, run):
    # the leading config reruns the command: same rows, byte for byte.  It
    # holds every parsed dest but the four that change no row, so an option
    # added to a command is echoed unless it is named there
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(ECHO_RUNS[run] + ["--out", str(out1)]) == 0
    config, rows = _echo_and_rows(out1)
    assert _UNECHOED == ("func", "out", "format", "threads")
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in sub.choices[config["command"]]._actions}
    assert set(config) == {"command"} | dests - {"help", *_UNECHOED}
    assert main(_rerun_argv(config) + ["--out", str(out2)]) == 0
    assert _echo_and_rows(out2) == (config, rows)


def test_reproduce_echoes_coarse(tmp_path):
    # a full file's config says so, and differs from a --coarse file's
    # (test_reproduce_recipe)
    assert main(["reproduce", "fig1", "--out-dir", str(tmp_path)]) == 0
    config, _, _ = _read_csv(tmp_path / "fig1_potentials.csv")
    assert config == {"recipe": "fig1", "coarse": False}


def _quiet_main(argv):
    """main(argv) and the RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = main(argv)
    return rc, [w for w in seen if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("k_range, code, error", [
    ("-3:3:3", 3, "BranchMismatchError"),
    ("0:3:2", 3, "BranchMismatchError"),
    ("nan:3:3", 2, "ValidationError"),
    ("1:inf:3", 2, "ValidationError"),
])
def test_rates_refuse_a_bad_momentum(capsys, k_range, code, error):
    # no row of R2 = 1 for a k <= 0, and no warning before the record
    rc, warned = _quiet_main(["rates", "--model", WS, f"--k-range={k_range}"])
    assert (rc, warned) == (code, [])
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("opts", [[], ["--sigma", "1e299", "--k-mean", "0"]],
                         ids=["grid_misses_packet", "sigma_square_overflows"])
def test_oracle_packet_off_the_grid_exits_2(capsys, opts):
    rc, warned = _quiet_main(["oracle", "--model", WS, "--T", "1",
                              "--x-min=-1e300", "--x-max", "1e300",
                              "--n-x", "1024"] + opts)
    assert (rc, warned) == (2, [])
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"


def test_classical_json_fields(capsys):
    rc = main(["classical", "--model", HV, "--x0=-4", "--x1=-3",
               "--T", "10"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {s["kind"] for s in payload["saddles"]}
    assert kinds == {"direct", "low_bounce", "high_bounce"}
    for s in payload["saddles"]:
        assert set(s) == {"kind", "E_re", "E_im", "S_re", "S_im",
                          "vv_re", "vv_im", "relevant", "maslov"}


def test_classical_reports_maslov(capsys):
    # the Maslov index sets each real saddle's WKB phase; complex saddles
    # carry none
    def saddles(model, x0, x1, which):
        assert main(["classical", "--model", model, f"--x0={x0}",
                     f"--x1={x1}", "--T", "10", "--saddles", which]) == 0
        out = json.loads(capsys.readouterr().out)["saddles"]
        return [(s["kind"], s["maslov"]) for s in out]

    assert saddles(WS, -4, -3, "real") == [
        ("direct", 0), ("low_bounce", 1), ("high_bounce", 0)]
    assert saddles(WS5, -5, -9.25, "real+caustic")[-1] == ("caustic", None)


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--model", HV, "--x0", "5", "--x1", "4",
               "--T", "10", "--kind", "fourier", "--A", "1", "--B", "6",
               "--n-omega", "128", "--tau-range", "4:8:41",
               "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["grid", "value", "err"]
    assert len(rows) == 41


# the files each recipe writes, with their headers; fig17 and fig18 take
# 10-26 s even at --coarse and are left out
GRID = ["x0", "x1", "absG2"]
CONTOUR = ["v", "Re_t", "Im_t"]
RECIPE_FILES = {
    "fig1": {"fig1_potentials.csv": ["alpha", "x", "V"]},
    "fig2": {"fig2_rates.csv": ["alpha", "k", "R2", "T2"]},
    "fig3": {f"fig3_ws_absG2_hbar{h}.csv": GRID for h in (1.0, 0.5, 0.25)},
    "fig4": {f"fig4_heaviside_absG2_hbar{h}.csv": GRID
             for h in (1.0, 0.5, 0.25)},
    "fig5": {f"fig5_heaviside_V0_{v}.csv": GRID for v in (0.25, 0.5, 1.0)},
    "fig6": {f"fig6_ws_V0_{v}.csv": GRID for v in (1.0, 1.5, 2.0)},
    "fig7": {"fig7_eigenstates.csv": ["branch", "x", "Re", "Im"]},
    "fig8": {"fig8a_time_vs_energy.csv": ["x1", "E", "T_direct", "T_bounce"],
             "fig8b_paths.csv": ["alpha", "kind", "t", "x"]},
    "fig9": {"fig9_wkb_comparison.csv": ["x1", "ReG", "ImG", "ReWKBreal",
                                         "ImWKBreal", "ReWKBboth",
                                         "ImWKBboth"]},
    "fig10": {"fig10_complex_v0.csv": ["x1", "Re_v0", "Im_v0"]},
    "fig11": {"fig11_complex_energy_map.csv": ["ReE", "ImE", "ReT", "ImT"]},
    "fig12": {"fig12_left_contour.csv": CONTOUR},
    "fig13": {"fig13_right_contour.csv": CONTOUR},
    "fig14": {"fig14_c0_circle.csv": ["theta", "Re_t", "Im_t"]},
    "fig15": {"fig15_rr_spectrum.csv": ["tau", "absF2"]},
    "fig16": {"fig16_laplace_residue.csv": ["s", "absL", "model_real",
                                            "model_real_caustic",
                                            "model_all"]},
}


@pytest.mark.parametrize("recipe", list(RECIPE_FILES))
def test_reproduce_recipe(tmp_path, recipe):
    rc = main(["reproduce", recipe, "--out-dir", str(tmp_path), "--coarse"])
    assert rc == 0
    for name, expected in RECIPE_FILES[recipe].items():
        config, header, rows = _read_csv(tmp_path / name)
        assert config["recipe"] == name.split("_")[0]
        assert config["coarse"] is True
        assert header == expected
        assert rows
    assert sorted(os.listdir(tmp_path)) == sorted(RECIPE_FILES[recipe])


def test_fig8a_rows_lie_above_the_energy_floor():
    # T_direct and T_bounce exist only where x1 is classically allowed
    name, _, rows, _ = next(_recipes(True)["fig8"]())
    assert name == "fig8a_time_vs_energy.csv" and rows
    md = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
    for x1, E, _, _ in rows:
        assert E > potential_value(md, x1), (x1, E)


def test_fig8b_paths_join_their_endpoints():
    # every path of (x0, x1, T) = (-4, -3, 10) leaves x0 at t = 0 and
    # lands on x1 at t = T; the ODE copy once ended its alpha = 5 high
    # bounce 2.9e-9 off
    (_, _, rows, _), = list(_recipes(True)["fig8"]())[1:]
    paths = {}
    for a, kind, t, x in rows:
        paths.setdefault((a, kind), []).append((t, x))
    assert len(paths) == 9
    for key, samples in paths.items():
        (t0, x0), (t1, x1) = samples[0], samples[-1]
        assert t0 == 0.0 and t1 == 10.0
        assert abs(x0 + 4.0) <= 1e-10 and abs(x1 + 3.0) <= 1e-10, key


@pytest.mark.parametrize("alpha", [20.0, 50.0])
def test_path_samples_on_steep_steps(alpha):
    # the endpoint map against a DOP853 IVP whose step is bounded as in
    # caustics.integrate_ivp, at tighter tolerances: at its 1e-10 the IVP
    # ends the alpha = 50 high bounce 2e-8 off x1.  An unbounded step
    # ended the low and high bounces 6.0 and 13.1 away from x1 at both
    md = StepModel(Family.WOODS_SAXON, 1, 1, alpha, 1)
    bvp = cl.BoundarySpec(-4.0, -3.0, 10.0)
    saddles = cl.solve_real_paths(md, bvp)
    assert len(saddles) == 3
    for s in saddles:
        ts, xs = np.array(_path_samples(md, s, bvp)).T
        assert abs(xs[-1] - bvp.x1) <= 1e-10, s.kind
        E = s.E.real
        v0 = math.sqrt(2.0 * (E - potential_value(md, bvp.x0)))
        sol = solve_ivp(ca._rhs(md), (0.0, bvp.T), (bvp.x0, v0, 0.0, 1.0),
                        method="DOP853", rtol=1e-12, atol=1e-12, t_eval=ts,
                        max_step=0.5 / (alpha * math.sqrt(2.0 * E)))
        assert np.max(np.abs(sol.y[0] - xs)) <= 1e-9, s.kind


def test_path_samples_refuse_a_leftward_smooth_path():
    # the endpoint map follows departures to the right only
    md = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
    bvp = cl.BoundarySpec(-3.0, -4.0, 10.0)
    (direct,) = [s for s in cl.solve_real_paths(md, bvp)
                 if s.kind is cl.SaddleKind.DIRECT]
    with pytest.raises(ValidationError):
        _path_samples(md, direct, bvp)


def test_contour_rows_obey_reciprocity():
    # fig12 and fig13 follow the two sheets A0 = arctanh(-+sqrt(w0)) of t(x),
    # so their sum drops A0: -2 sqrt(m/2)/alpha artanh(sqrt((E - v)/E))/sqrt(E)
    recipes = _recipes(True)
    (_, _, left, cfg), = recipes["fig12"]()
    (_, _, right, _), = recipes["fig13"]()
    E = cfg["E"]
    assert len(left) == len(right) == 600
    for (v, re_l, im_l), (w, re_r, im_r) in zip(left, right):
        assert v == w
        ref = (-2.0 * math.sqrt(0.5) * np.arctanh(np.sqrt(complex((E - v) / E)))
               / math.sqrt(E))
        assert abs(complex(re_l + re_r, im_l + im_r) - ref) < 1e-11, v
    # fig13 writes its own rows, not fig12's
    assert all((a[1], a[2]) != (b[1], b[2]) for a, b in zip(left, right))


def test_fig10_rows_are_the_continued_saddle():
    # fig10 writes the principal-root initial velocity of the caustic saddle
    # beyond the fold, at (x0, T) = (-4, 10) on the unit smooth step
    name, _, rows, _ = next(_recipes(True)["fig10"]())
    assert name == "fig10_complex_v0.csv" and len(rows) == 57
    for x1, re_v0, im_v0 in rows:
        assert re_v0 > 0 and im_v0 > 0, x1
    v0 = {round(x1, 2): (x1, complex(re, im)) for x1, re, im in rows}
    # the complex equations of motion from (x0, v0) land on x1
    rhs = ca._rhs(StepModel(Family.WOODS_SAXON, 1, 1, 1, 1))
    for key in (-6.75, -6.25, -3.95):
        x1, v = v0[key]
        sol = solve_ivp(rhs, (0.0, 10.0), [-4.0 + 0j, v, 0j, 1 + 0j],
                        method="DOP853", rtol=1e-12, atol=1e-12)
        assert abs(sol.y[0, -1] - x1) < 1e-8, key
    # the conjugate of the Newton shot on v0 formerly written at x1 = -6.75
    assert v0[-6.75][1] == pytest.approx(
        1.3073022770551364 + 0.33345368411016685j, rel=1e-9)


def test_wkb_row_inside_the_caustic_loop_exits_2(capsys):
    # the fold of the row x0 = -5, T = 10 lies at x1 = -6.698: the caustic
    # saddle ends there, so x1 = -6 must not lose its term without a word
    rc = main(["wkb", "--model", WS5, "--x0=-5", "--x1-range=-9:-6:3",
               "--T", "10", "--hbar", "0.1", "--saddles", "real+caustic"])
    assert rc == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValidationError"
    assert "x1 = -6 " in record["message"]


def test_wkb_row_matches_one_point_saddles(tmp_path):
    # one row call (one fold search) gives the saddles of one-point solves
    out = tmp_path / "wkb.csv"
    assert main(["wkb", "--model", WS5, "--x0=-5", "--x1-range=-10:-8.5:3",
                 "--T", "10", "--hbar", "0.1", "--saddles", "real+caustic",
                 "--out", str(out)]) == 0
    md = StepModel(Family.WOODS_SAXON, 1, 1, 5, 1)
    _, _, rows = _read_csv(out)
    assert len(rows) == 3
    for row in rows:
        bvp = cl.BoundarySpec(-5.0, float(row[1]), 10.0)
        saddles = cl.solve_real_paths(md, bvp) + [
            cl.find_caustic_saddle(md, bvp)]
        G = wkb_propagator(md, bvp, saddles, 0.1)
        assert abs(float(row[3]) - G.real) < 1e-12
        assert abs(float(row[4]) - G.imag) < 1e-12


def test_reproduce_unknown_recipe(tmp_path, capsys):
    out_dir = tmp_path / "new"
    assert main(["reproduce", "fig99", "--out-dir", str(out_dir)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ValidationError"
    assert not out_dir.exists()


def test_propagate_threads_deterministic(tmp_path):
    # one block, and a row longer than one block
    for n in (5, ROW_BLOCK + 3):
        out1 = tmp_path / f"serial{n}.csv"
        out2 = tmp_path / f"par{n}.csv"
        base = ["propagate", "--model", HV, "--x0=-4",
                f"--x1-range=-7:-5:{n}", "--T", "10"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--threads", "2", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert len(_read_csv(out1)[2]) == n


def test_spectrum_threads_deterministic(tmp_path):
    # whole blocks of omega columns, and a window ending in a partial block
    for n in (64, 64 + OMEGA_BLOCK + 3):
        out1 = tmp_path / f"serial{n}.csv"
        out2 = tmp_path / f"par{n}.csv"
        base = ["spectrum", "--model", HV, "--x0", "5", "--x1", "4",
                "--T", "10", "--kind", "fourier", "--n-omega", str(n),
                "--tau-range", "3:13:11"]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "2", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert len(_read_csv(out1)[2]) == 11


def test_grid_abs2_matches_one_point_calls():
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 1.0, 1.0)
    rows = _grid_abs2(md, 10.0, -8.0, 2.0, 3)
    xs = np.linspace(-8.0, 2.0, 3)
    assert [(r[0], r[1]) for r in rows] == [(a, b) for a in xs for b in xs]
    for x0, x1, abs2 in rows:
        ref = abs(propagate(md, float(x0), float(x1), 10.0).G) ** 2
        assert abs(abs2 - ref) <= 1e-14
