"""The public surface of stepprop is what the package itself uses.

Every public top-level function or class of a module is listed in the
module's __all__, and every name in an __all__ is referenced somewhere in
src/ beyond its own definition, the __all__ and the package re-export, or
is named in KEEP with the one-line reason it stays public.  A helper that
only the tests call belongs in tests/oracles.py, not in the package.
"""
import argparse
import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stepprop"
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(SRC.glob("*.py"))}

#: modules without __all__: the package re-exports, the exception hierarchy
#: (every class is raised or caught by name) and the command-line frontend
NO_ALL = {"__init__", "errors", "cli"}

#: public names that nothing in src/ calls, and why each stays public
KEEP = {
    "log_reflection_rate": "acceptance criterion 3: log |R|^2 at small hbar",
    "reflection_rate_smallhbar_asymptote": "the reflection instanton action",
    "singularity_locations": "the complex poles of the smooth step",
    "heaviside_reflection_action": "a gate of the saddle_wkb benchmark",
    "norm_l2": "a gate of the packet_evolution benchmark",
    "complex_actions": "acceptance criterion 13: actions by matrix pencil",
    "synthetic_omega_samples": "acceptance criterion 13: its calibration data",
    "residue_against_wkb": "acceptance criterion 11: the Laplace residue",
    "relevance_flag": "whether the caustic saddle is on the Stokes-relevant side",
    "reduced_action": "the reduced action s(x) of the README",
    "hyp2f1": "the plain 2F1 entry point that the special-function tests check",
    "integrate_ivp": "the tests' IVP oracle and a benchmark span boundary",
    "rescale": "acceptance criterion 12: the exact scaling map",
    "evolve_packet_spectral": "acceptance criterion 4 and the packet benchmark",
    "ncc_analytic": "a benchmark span boundary and the tests' orthonormal basis",
}

MODULES = sorted(set(TREES) - NO_ALL)


def _all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return None


def _public_defs(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced(name, home):
    """True when a Name or attribute in src/ refers to name, outside the
    body of its own definition in its home module."""
    for module, tree in TREES.items():
        own = set()
        if module == home:
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name == name):
                    own = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name):
                return True
    return False


@pytest.mark.parametrize("module", MODULES)
def test_public_defs_are_in_all(module):
    names = _all(TREES[module])
    assert names is not None, f"stepprop.{module} has no __all__"
    missing = sorted(set(_public_defs(TREES[module])) - set(names))
    assert not missing, f"public in stepprop.{module} but not in __all__"


@pytest.mark.parametrize("module", MODULES)
def test_all_names_are_used_or_kept(module):
    names = _all(TREES[module]) or []
    defined = set(_public_defs(TREES[module])) | {
        t.id for node in TREES[module].body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)}
    assert not sorted(set(names) - defined), "__all__ names an undefined name"
    unused = sorted(n for n in names
                    if n not in KEEP and not _referenced(n, module))
    assert not unused, f"no caller in src/ and no KEEP reason: {unused}"


def test_keep_entries_are_public_and_uncalled():
    # a KEEP name that left every __all__, or gained a caller in src/,
    # leaves KEEP too
    home = {n: m for m in MODULES for n in _all(TREES[m]) or []}
    stale = sorted(n for n in KEEP if n not in home or _referenced(n, home[n]))
    assert not stale


def _cli_violations(tree):
    """Private stepprop names and scipy.integrate imports in a CLI tree."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            own = node.level > 0 or (node.module or "").startswith("stepprop")
            if (node.module or "").startswith("scipy.integrate") or (
                    node.module == "scipy"
                    and any(a.name == "integrate" for a in node.names)):
                found.append("imports from scipy.integrate")
            for a in node.names if own else ():
                if a.name.startswith("_"):
                    found.append(f"imports {a.name}")
                if node.module is None:  # from . import module
                    modules.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("scipy.integrate"):
                    found.append("imports scipy.integrate")
                if a.name.startswith("stepprop"):
                    modules.add(a.asname or a.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"uses {node.value.id}.{node.attr}")
    return found


def test_cli_uses_only_public_library_names():
    # the CLI parses and formats: figure recipes call public library
    # functions and integrate no equations of motion of their own
    assert _cli_violations(TREES["cli"]) == []


def test_cli_check_catches_private_names():
    tree = ast.parse("from . import classical as _classical\n"
                     "from .caustics import _rhs\n"
                     "def f():\n"
                     "    from scipy.integrate import solve_ivp\n"
                     "    return _classical._direct\n")
    assert _cli_violations(tree) == ["imports _rhs",
                                     "imports from scipy.integrate",
                                     "uses _classical._direct"]


def _loaded_scipy(code):
    """The scipy.* subpackages loaded after code runs in a fresh interpreter
    that imports stepprop from this checkout."""
    probe = ("\nimport sys\nprint(sorted({'.'.join(m.split('.')[:2]) "
             "for m in sys.modules if m.startswith('scipy.')}))\n")
    proc = subprocess.run([sys.executable, "-c", code + probe],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


#: the subpackages that the light commands must not load
HEAVY_SCIPY = ("scipy.optimize", "scipy.integrate", "scipy.linalg",
               "scipy.signal")


def test_cold_start_loads_scipy_special_alone():
    # every scipy import beyond scipy.special sits in the function that
    # calls it (brentq in classical and the fig14 recipe, solve_ivp and
    # brentq in caustics, LAPACK in oracle), so that import stepprop loads
    # scipy.special alone and rates and propagate load nothing more
    code = textwrap.dedent("""\
        import os
        import stepprop, stepprop.cli
        model = ('{"family": "woods_saxon", "m": 1, "V0": 1, "alpha": 1, '
                 '"hbar": 1}')
        for argv in (["propagate", "--x0=-4", "--x1-range=-3:-3:1",
                      "--T", "10"], ["rates", "--k-range", "1.5:10:5"]):
            assert stepprop.cli.main(argv + ["--model", model,
                                             "--out", os.devnull]) == 0
        """)
    loaded = _loaded_scipy(code)
    assert "scipy.special" in loaded
    assert [m for m in loaded if m in HEAVY_SCIPY] == []


def test_cold_start_check_catches_heavy_imports():
    loaded = _loaded_scipy("import scipy.optimize\nimport stepprop\n")
    assert "scipy.optimize" in loaded


def _unread_options(parser):
    """(subcommand, dest) of each option that a subcommand's parser adds and
    its handler, the parser's func default, never reads as args.<dest>."""
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    found = []
    for name, q in sub.choices.items():
        handler = q.get_default("func")
        (fn,) = ast.parse(textwrap.dedent(inspect.getsource(handler))).body
        args = fn.args.args[0].arg
        reads = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
                 and isinstance(n.value, ast.Name) and n.value.id == args}
        found += [(name, a.dest) for a in q._actions
                  if a.dest != "help" and a.dest not in reads]
    return found


def test_cli_reads_every_option():
    # an option that its command parses and ignores is a knob that does
    # nothing; drop it instead
    from stepprop.cli import build_parser
    assert _unread_options(build_parser()) == []


def _synthetic_handler(opts):
    return opts.kept


def test_option_check_catches_unread_flags():
    p = argparse.ArgumentParser()
    q = p.add_subparsers(dest="command").add_parser("run")
    q.set_defaults(func=_synthetic_handler)
    q.add_argument("--kept")
    q.add_argument("--ignored", type=float, default=0.0)
    assert _unread_options(p) == [("run", "ignored")]


def _specfun_violations(tree):
    """hyp2f1_cols_rows and the private specfun names other than _at_pole
    that a module tree imports from specfun or reads off the module."""
    modules, names = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "specfun":
                names += [a.name for a in node.names]
            elif node.module in (None, "stepprop"):
                modules |= {a.asname or a.name for a in node.names
                            if a.name == "specfun"}
        elif isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names
                        if a.name == "stepprop.specfun" and a.asname}
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    return [n for n in names if n == "hyp2f1_cols_rows"
            or (n.startswith("_") and n != "_at_pole")]


def test_one_2f1_entry_point():
    # the eigenstates reach the 2F1 through hyp2f1_with_complement alone,
    # so a scalar x and a row of x share one series and one z = 1/2 split
    found = {m: _specfun_violations(t) for m, t in TREES.items()
             if m != "specfun"}
    assert not {m: v for m, v in found.items() if v}


def test_specfun_check_catches_other_entry_points():
    tree = ast.parse("from .specfun import _at_pole, _series, hyp2f1\n"
                     "from . import specfun as sf\n"
                     "def f():\n"
                     "    return sf.hyp2f1_cols_rows, sf._log_form\n")
    assert _specfun_violations(tree) == ["_series", "hyp2f1_cols_rows",
                                         "_log_form"]


#: the region thresholds and the closed forms that only eigenstates.phi
#: may name: a second dispatch would be a second copy of the regions
DISPATCH = {"X_ASYM", "_phi_ws_asym_left", "_phi_right",
            "_phi_heaviside_left"}


def _dispatch_names(tree, home=None):
    """(top-level statement, name) for each DISPATCH name that a module
    tree reads or imports outside its top-level function home."""
    found = []
    for top in tree.body:
        where = getattr(top, "name", type(top).__name__)
        if isinstance(top, ast.FunctionDef) and top.name == home:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(where, n) for n in names if n in DISPATCH]
    return found


def test_one_eigenstate_dispatch():
    # phi alone picks a closed form, for a float x and a row of x alike;
    # phi_grid and the spectral weight go through it
    found = {m: _dispatch_names(t, "phi" if m == "eigenstates" else None)
             for m, t in TREES.items()}
    assert not {m: v for m, v in found.items() if v}


def test_dispatch_check_catches_other_dispatches():
    tree = ast.parse("from .eigenstates import X_ASYM\n"
                     "X_ASYM = 30.0\n"
                     "def _phi_right(x):\n"
                     "    return x\n"
                     "def phi(x):\n"
                     "    return _phi_right(x) if x > X_ASYM else x\n"
                     "def phi_grid(xs):\n"
                     "    return [eig._phi_heaviside_left(x) for x in xs]\n")
    assert _dispatch_names(tree, "phi") == [
        ("ImportFrom", "X_ASYM"), ("phi_grid", "_phi_heaviside_left")]
    assert ("phi", "_phi_right") in _dispatch_names(tree)
