"""The shared root finder: Brent's method checked against scipy's ``brentq``
as an independent oracle, the search in a distance from an origin and its
bracket, and every inversion site driven through its generic path.
Also what the runtime imports: never scipy or dataclasses, and no numpy on
the shipped CLI jobs or a one-reaction solve."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from entrokit.equilibrium import EquilibriumProblem, stable_equilibrium
from entrokit.errors import DomainError, NonConvergence, RangeError
from entrokit.matter_models import IdealGasMixture, Parameters, Species
from entrokit.open_systems import ReferenceEnvironment
from entrokit.roots import (
    MAX_EXPANSIONS,
    RTOL_MIN,
    brentq,
    increasing_root,
)
from entrokit.stoichiometry import Composition, ReactionNetwork

from conftest import masked

SRC = Path(__file__).resolve().parent.parent / "src"


class Counted:
    """A function wrapper that records where it was evaluated."""

    def __init__(self, fn):
        self.fn = fn
        self.xs = []

    def __call__(self, x):
        self.xs.append(x)
        return self.fn(x)


def _monotone(kind, root, slope):
    if kind == "cubic":
        return lambda x: slope * (x - root) ** 3 + (x - root)
    if kind == "exp":
        return lambda x: math.exp(x) - math.exp(root)
    if kind == "log":
        return lambda x: math.log(x) - math.log(root)
    # nearly flat tails on both sides of a steep middle
    return lambda x: math.tanh(slope * (x - root))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["cubic", "exp", "log", "flat"]),
    root=st.floats(0.05, 20.0),
    slope=st.floats(0.01, 50.0),
    below=st.floats(1e-3, 30.0),
    above=st.floats(1e-3, 30.0),
    flip=st.booleans(),
    swap=st.booleans(),
    xtol=st.floats(1e-15, 1e-3),
    rtol_scale=st.floats(1.0, 1e10),
)
def test_brentq_matches_scipy(kind, root, slope, below, above, flip, swap, xtol,
                              rtol_scale):
    f = _monotone(kind, root, slope)
    if flip:
        f0 = f
        f = lambda x: -f0(x)  # noqa: E731
    if kind == "log":
        a, b = root * math.exp(-below), root * math.exp(above)
    else:
        a, b = root - below, root + above
    if swap:
        a, b = b, a
    rtol = RTOL_MIN * rtol_scale
    want, info = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True, disp=False)
    counted = Counted(f)
    if info.converged:
        got, f_got = brentq(counted, a, b, xtol=xtol, rtol=rtol)
        assert f_got == f(got)
    else:
        with pytest.raises(NonConvergence) as err:
            brentq(counted, a, b, xtol=xtol, rtol=rtol)
        got = err.value.best
    assert abs(got - want) <= xtol + rtol * abs(want)
    assert len(counted.xs) == info.function_calls


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0])
def test_brentq_bisects_where_an_interpolation_divides_by_an_underflowed_zero(scale):
    # at 1e-150 the inverse quadratic step's denominator, a product of three
    # differences of f, underflows to 0; C's brentq then bisects on the
    # infinite step, and so does the port, with scipy's iterates
    f = Counted(lambda x: scale * (math.exp(x) - 2.0))
    want, info = scipy_brentq(f.fn, 0.0, 1.0, full_output=True)
    assert brentq(f, 0.0, 1.0)[0] == want
    assert len(f.xs) == info.function_calls


def test_brentq_no_sign_change_raises_range_error():
    with pytest.raises(RangeError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_exhausted_budget_raises_nonconvergence_with_best():
    with pytest.raises(NonConvergence) as err:
        brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, maxiter=2)
    assert err.value.best is not None
    assert 0.0 <= err.value.best <= 2.0


@pytest.mark.parametrize("a, b, zero", [(1.0, 3.0, 1.0), (-2.0, 1.0, 1.0)])
def test_brentq_zero_at_endpoint_returns_it(a, b, zero):
    root, f_root = brentq(lambda x: x - zero, a, b)
    assert (root, f_root) == (zero, 0.0)


def test_brentq_does_not_reevaluate_supplied_endpoints():
    f = Counted(lambda x: math.exp(x) - 3.0)
    root, f_root = brentq(f, 0.0, 2.0, xtol=1e-14, fa=f.fn(0.0), fb=f.fn(2.0))
    _, info = scipy_brentq(f.fn, 0.0, 2.0, xtol=1e-14, full_output=True)
    assert 0.0 not in f.xs and 2.0 not in f.xs
    assert len(f.xs) == info.function_calls - 2
    assert root == pytest.approx(math.log(3.0), rel=1e-14)
    assert f_root == f.fn(root)


def test_brentq_and_increasing_root_stop_at_the_first_value_within_ftol():
    # a stop on |f| only cuts the iteration short: the iterates are those
    # of the default run up to the first within ftol, where both return
    for ftol in (1e-3, 1e-6, 1e-9):
        full, cut = Counted(lambda x: x ** 3 - 2.0), Counted(lambda x: x ** 3 - 2.0)
        brentq(full, 0.0, 2.0, xtol=1e-15)
        root, f_root = brentq(cut, 0.0, 2.0, xtol=1e-15, ftol=ftol)
        stop = next(i for i, x in enumerate(full.xs) if abs(full.fn(x)) <= ftol)
        assert cut.xs == full.xs[:stop + 1]
        assert (root, f_root) == (cut.xs[-1], cut.fn(root)) and abs(f_root) <= ftol
        assert len(cut.xs) < len(full.xs)
        full, cut = Counted(lambda d: d ** 3 - 30.0), Counted(lambda d: d ** 3 - 30.0)
        increasing_root(full, 1.0)
        d, f_d = increasing_root(cut, 1.0, ftol=ftol)
        stop = next(i for i, x in enumerate(full.xs) if abs(full.fn(x)) <= ftol)
        assert cut.xs == full.xs[:stop + 1] and abs(f_d) <= ftol
        assert len(cut.xs) < len(full.xs)


def test_brentq_nan_raises_domain_error():
    with pytest.raises(DomainError):
        brentq(lambda x: math.nan if x > 0.5 else x - 1.0, 0.0, 2.0)


def test_increasing_root_steps_geometrically_from_its_start():
    f = Counted(lambda d: d - 100.0)
    assert increasing_root(f, 1.0)[0] == pytest.approx(100.0, rel=1e-14, abs=0.0)
    assert f.xs[:4] == [1.0, 8.0, 64.0, 512.0]
    assert all(64.0 <= d <= 512.0 for d in f.xs[4:])
    # shrinking toward the origin
    g = Counted(lambda d: d - 1e-3)
    assert increasing_root(g, 0.125)[0] == pytest.approx(1e-3, rel=1e-14, abs=0.0)
    assert g.xs[:4] == [0.125 ** k for k in range(1, 5)]


def test_increasing_root_limits_raise_range_error():
    never = Counted(lambda d: -1.0)
    with pytest.raises(RangeError, match="expansions"):
        increasing_root(never, 1.0)
    assert len(never.xs) == 1 + MAX_EXPANSIONS
    f = Counted(lambda d: -1.0)
    with pytest.raises(RangeError, match="limit"):
        increasing_root(f, 1.0, limit=100.0)
    assert f.xs == [1.0, 8.0, 64.0, 100.0]
    # a start at the limit is evaluated once
    g = Counted(lambda d: -1.0)
    with pytest.raises(RangeError, match="limit"):
        increasing_root(g, 200.0, limit=100.0)
    assert g.xs == [100.0]


@pytest.mark.parametrize("root", [1e-30, 1e-7, 0.3, 42.0, 1e30])
@pytest.mark.parametrize("kind", ["linear", "tanh"])
def test_increasing_root_searches_the_distance_from_its_origin(root, kind):
    # from d0 = 1 the distance grows or shrinks 8-fold until f changes sign,
    # and the root comes out to relative precision however close it lies to
    # the origin: an absolute tolerance would stop near 1e-30 at once
    fn = (lambda d: d - root) if kind == "linear" else (lambda d: math.tanh(d / root - 1.0))
    f = Counted(fn)
    got, f_got = increasing_root(f, 1.0)
    assert got == pytest.approx(root, rel=1e-14, abs=0.0)
    assert f_got == fn(got)
    factor = 8.0 if root > 1.0 else 0.125
    steps = math.ceil(math.log(root) / math.log(factor))  # the first power past the root
    assert f.xs[:steps + 1] == [factor ** k for k in range(steps + 1)]
    ends = sorted(factor ** k for k in (steps - 1, steps))
    assert all(ends[0] <= d <= ends[1] for d in f.xs[steps + 1:])


def test_increasing_root_refuses_at_its_limit_and_after_its_expansions():
    f = Counted(lambda d: d - 10.0)
    with pytest.raises(RangeError, match="limit"):
        increasing_root(f, 1.0, limit=5.0)
    assert f.xs == [1.0, 5.0]
    # a start beyond the limit starts at the limit; a root on it is found
    assert increasing_root(lambda d: d - 5.0, 7.0, limit=5.0) == (5.0, 0.0)
    never = Counted(lambda d: 1.0)
    with pytest.raises(RangeError, match="expansions"):
        increasing_root(never, 1.0)
    assert len(never.xs) == 1 + MAX_EXPANSIONS
    with pytest.raises(DomainError):
        increasing_root(lambda d: math.nan, 1.0)


#: Names of a bracket search, Brent's method and a bracket expansion, which
#: no module but ``roots`` may use.
BRACKET_PIECES = {"expand_bracket", "brentq"}


def _bracket_users(source: str) -> set:
    """Top-level functions and Class.methods of a module that name
    ``expand_bracket`` or ``brentq``, or import either under another name;
    "<module>" for other module-level statements."""
    users = set()
    for node in ast.parse(source).body:
        owners = ([(f"{node.name}.{getattr(item, 'name', '<body>')}", item)
                   for item in node.body] if isinstance(node, ast.ClassDef)
                  else [(getattr(node, "name", "<module>"), node)])
        for owner, tree in owners:
            for sub in ast.walk(tree):
                if (isinstance(sub, ast.Name) and sub.id in BRACKET_PIECES
                        or isinstance(sub, ast.Attribute) and sub.attr in BRACKET_PIECES
                        or isinstance(sub, ast.alias) and sub.name in BRACKET_PIECES
                        and sub.asname not in (None, sub.name)):
                    users.add(owner)
    return users


def test_no_module_outside_roots_builds_a_bracket():
    # every inversion, the reaction affinity's too, is one call of increasing_root
    users = {(path.stem, owner)
             for path in sorted((SRC / "entrokit").glob("*.py")) if path.name != "roots.py"
             for owner in _bracket_users(path.read_text())}
    assert users == set()
    # the guard sees calls in methods, in nested functions, through a module
    # attribute and under an alias
    sample = ("from .roots import brentq as solve\n"
              "class M:\n    def f(self):\n        return roots.expand_bracket\n"
              "def g():\n    def h():\n        return brentq(None, 0, 1)\n")
    assert _bracket_users(sample) == {"<module>", "M.f", "g"}


#: Every closed-form hook of the ideal gas, hidden so that each inversion
#: takes its generic root-finding path.
CLOSED_FORMS = ("evaluate", "ds_de", "ds_dv", "invert_entropy", "energy_at_temperature",
                "volume_on_isentrope", "volume_at_pressure")


GAS = IdealGasMixture([Species("gas", 3.0)])
OPAQUE = masked(IdealGasMixture([Species("gas", 3.0)]), hide=CLOSED_FORMS)
OPAQUE5 = masked(IdealGasMixture([Species("gas", 5.0)]), hide=CLOSED_FORMS)
ONE = Composition([1.0])
NO_REACTIONS = ReactionNetwork(np.zeros((1, 0)))


def _split():
    comps = (Composition([1.0]), Composition([2.0]))
    prob = EquilibriumProblem((OPAQUE, OPAQUE5), (Parameters([1.0]), Parameters([2.0])),
                              comps, 26.0)
    sol = stable_equilibrium(prob)
    # equal temperatures: E = (3 * 1 + 5 * 2) T / 2
    return sol.temperature, 2.0 * 26.0 / 13.0


def _reference_volume(p0):
    def volume():  # the chemical convention assigns E0 = -p0 V0
        env = ReferenceEnvironment.chemical_convention(("X",), (0,), NO_REACTIONS, (OPAQUE,),
                                                       1.0, p0)
        return -env.e0_assigned[0] / p0, GAS.volume_at_pressure(1.0, p0, ONE)
    return volume


@pytest.mark.parametrize("site, rel", [
    (_split, 1e-8),
    (_reference_volume(1e-8), 1e-6),
    (_reference_volume(1.0), 1e-6),
    (_reference_volume(1e8), 1e-6),
], ids=["split", "reference_volume_p1e-8", "reference_volume_p1", "reference_volume_p1e8"])
def test_generic_inversions_match_closed_forms(site, rel):
    got, want = site()
    assert got == pytest.approx(want, rel=rel)


def _fresh(code: str, *argv: str) -> str:
    """What ``code``, given ``argv``, prints from a fresh interpreter started
    in the repository root with ``src`` on its path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=SRC.parent,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip()


def test_runtime_imports_leave_scipy_out():
    code = ("import importlib, pkgutil, sys, entrokit\n"
            "for info in pkgutil.iter_modules(entrokit.__path__):\n"
            "    importlib.import_module(f'entrokit.{info.name}')\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh(code) == "[]"


@pytest.mark.parametrize("argv", [
    ["validate", "--scenario", "scenarios/demo_gas.scn"],
    ["validate", "--scenario", "scenarios/demo_equilibrium.scn"],
    ["validate", "--scenario", "scenarios/demo_open.scn"],
    ["run", "--scenario", "scenarios/demo_gas.scn", "--measure-entropy", "pair1",
     "--run-schedule", "sched1", "--decorrelate", "j1"],
    ["run", "--scenario", "scenarios/demo_equilibrium.scn", "--equilibrate", "prob1"],
    ["run", "--scenario", "scenarios/demo_open.scn", "--tabulate", "tab1"],
    ["run", "--scenario", "scenarios/demo_gas.scn", "--theorem-suite"],
], ids=["validate", "validate-network", "validate-open", "measure", "equilibrate", "tabulate",
        "theorem-suite"])
def test_shipped_cli_jobs_leave_numpy_out(tmp_path, argv):
    code = ("import sys\n"
            "from entrokit import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
            "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    out = ["--out", str(tmp_path)] if argv[0] == "run" else []
    *_, numpy_line, modules_line = _fresh(code, *argv, *out).splitlines()
    assert numpy_line == "0 []"
    # records are slotted classes, and no shipped scenario writes a rational
    assert modules_line == "[]"


def _imports_of(source: str, module: str) -> set:
    """Lines of a module that import the package ``module``, one of its
    submodules or a name from either."""
    def within(name: str) -> bool:
        return name.split(".")[0] == module

    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import) and any(within(a.name) for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0 and within(node.module)}


def test_no_module_imports_dataclasses():
    # every value record is a plain slotted class on the bases in ``errors``
    sites = {path.name: _imports_of(path.read_text(encoding="utf-8"), "dataclasses")
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines} == {}
    # the guard sees a plain, an aliased and a from-import, also inside a
    # function, and the import of a submodule or of a name from one
    sample = ("import dataclasses\nimport os, dataclasses as dc\n"
              "def f():\n    from dataclasses import dataclass\n"
              "from .dataclasses import x\nimport dataclasses_json\n"
              "from dataclasses.sub import y\nimport dataclasses.sub\n")
    assert _imports_of(sample, "dataclasses") == {1, 2, 4, 7, 8}


def test_no_module_imports_numpy():
    # every linear solve, the element-potential dual's included, runs on the
    # plain-float Jacobi SVD of ``stoichiometry``
    sites = {path.name: _imports_of(path.read_text(encoding="utf-8"), "numpy")
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: lines for name, lines in sites.items() if lines} == {}
    sample = ("from numpy.linalg import svd\nimport numpy.linalg\nimport numpy as np\n"
              "def f():\n    from numpy import errstate\n"
              "from .numpy import x\nimport numpydoc\n")
    assert _imports_of(sample, "numpy") == {1, 2, 3, 5}


def test_one_reaction_boundary_solve_leaves_numpy_out():
    # water formation run to exhaustion: the certificate has active
    # constituents, so it takes nonnegative least-squares multipliers
    code = ("import sys\n"
            "from entrokit import equilibrium as eq\n"
            "from entrokit.matter_models import IdealGasMixture, Parameters, Species\n"
            "from entrokit.stoichiometry import Composition, ReactionNetwork\n"
            "calls, nnls = [], eq._nnls\n"
            "eq._nnls = lambda a, b: calls.append(a) or nnls(a, b)\n"
            "mix = IdealGasMixture([Species('H2', 5.0), Species('O2', 5.0),\n"
            "                       Species('H2O', 6.0, e0=-10.0, s0=40.0)])\n"
            "sol = eq.stable_equilibrium(eq.EquilibriumProblem(\n"
            "    (mix,), (Parameters([1.0]),), (Composition([2.0, 1.0, 0.0]),), 10.0,\n"
            "    network=ReactionNetwork([[-2.0], [-1.0], [2.0]])))\n"
            "print(bool(sol.active), bool(calls),\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert _fresh(code) == "True True []"


def test_two_reaction_solve_leaves_numpy_out():
    # the deep A -> B -> C chain, two independent reactions: the
    # element-potential dual solves it in plain floats
    code = ("import sys\n"
            "from entrokit import equilibrium as eq\n"
            "from entrokit.matter_models import IdealGasMixture, Parameters, Species\n"
            "from entrokit.stoichiometry import Composition, ReactionNetwork\n"
            "calls, dual = [], eq._dual\n"
            "eq._dual = lambda *args: calls.append(args) or dual(*args)\n"
            "mix = IdealGasMixture([Species('A', 3.0, 0.0, 5.0), Species('B', 4.0, -12.0, 20.0),\n"
            "                       Species('C', 5.0, -18.0, 25.0)])\n"
            "sol = eq.stable_equilibrium(eq.EquilibriumProblem(\n"
            "    (mix,), (Parameters([1.0]),), (Composition([1.5, 0.5, 0.5]),), 6.0,\n"
            "    network=ReactionNetwork([[-1.0, 0.0], [1.0, -1.0], [0.0, 1.0]])))\n"
            "print(len(calls), sol.kkt_residual <= 1e-10,\n"
            "      sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert _fresh(code) == "1 True []"


def test_every_exported_name_is_its_modules_object():
    # resolved lazily, in a fresh interpreter, each name is the object that
    # the module the export table names defines under that name
    code = ("import importlib, entrokit\n"
            "home = {name: importlib.import_module(f'entrokit.{module}')\n"
            "        for name, module in entrokit._HOME.items()}\n"
            "print(set(entrokit.__all__) <= set(dir(entrokit)), sorted(\n"
            "    name for name in entrokit.__all__ if getattr(entrokit, name)\n"
            "    is not getattr(home[name], name) or getattr(entrokit, name).__module__\n"
            "    != home[name].__name__))")
    assert _fresh(code) == "True []"
