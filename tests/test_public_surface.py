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
