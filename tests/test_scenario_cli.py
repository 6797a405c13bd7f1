import ast
import csv
import functools
import math
import re
import shutil
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from entrokit import scenario
from entrokit.cli import main, write_csv
from entrokit.errors import ParseError
from entrokit.scenario import (
    KB_SI,
    SCHEMA,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = SCENARIOS.parent / "tests" / "golden"
SHIPPED = sorted(SCENARIOS.glob("*.scn"))

MINIMAL = """
[scenario]
name = tiny
units = reduced
seed = 0

[constituents]
names = Ar

[system gas1]
species = Ar
dof = 3
amounts = 1
volume = 1

[reservoir R1]
temperature = 1
range = -100 100

[state s1]
system = gas1
energy = 1.5
volume = 1

[state s2]
system = gas1
energy = 1.5
volume = 2

[pair p1]
from = s1
to = s2
reservoir = R1
"""


def test_shipped_scenarios_exist():
    assert len(SHIPPED) >= 3


def test_parse_minimal_scenario():
    scn = parse_scenario(MINIMAL)
    assert scn.name == "tiny"
    assert scn.constituents == ("Ar",)
    assert "gas1" in scn.systems
    assert "p1" in scn.pairs
    assert validate_scenario(scn) == []


def test_parse_error_reports_line():
    bad = "[scenario]\nname = x\nnot an assignment\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(bad)
    assert err.value.line == 3


def test_parse_error_unknown_section():
    with pytest.raises(ParseError):
        parse_scenario("[warp drive]\n")


@pytest.mark.parametrize("extra", ["[scenario]\nseed = 2", "[scenario again]\nseed = 2",
                                   "[system gas1]\ndof = 5"])
def test_parse_rejects_a_repeated_section(extra):
    text = MINIMAL + "\n" + extra + "\n"
    with pytest.raises(ParseError) as err:
        parse_scenario(text)
    assert err.value.line == len(text.splitlines()) - 1
    assert "duplicate" in str(err.value)


def test_rational_stoichiometric_coefficients():
    text = """
[constituents]
names = A B

[network]
nu = -1/2 ; 3/2
"""
    scn = parse_scenario(text)
    assert scn.network.rows[0][0] == pytest.approx(-0.5)
    assert scn.network.rows[1][0] == pytest.approx(1.5)


def test_validate_flags_undeclared_reservoir():
    text = MINIMAL.replace("reservoir = R1", "reservoir = missing")
    issues = validate_scenario(parse_scenario(text))
    assert any(i.category == "integrity" and "missing" in i.message for i in issues)


def test_validate_flags_negative_volume():
    text = MINIMAL.replace("volume = 1\n\n[reservoir", "volume = -2\n\n[reservoir")
    issues = validate_scenario(parse_scenario(text))
    assert any(i.category == "schema" and "volume" in i.message for i in issues)


def test_validate_flags_duplicate_constituent_regions():
    text = MINIMAL.replace("species = Ar", "species = Ar Ar")
    issues = validate_scenario(parse_scenario(text))
    assert any("twice" in i.message for i in issues)


def test_round_trip_all_shipped_scenarios():
    for path in SHIPPED:
        scn = parse_scenario(path.read_text(encoding="utf-8"))
        assert validate_scenario(scn) == [], path.name
        again = parse_scenario(serialize_scenario(scn))
        assert validate_scenario(again) == [], path.name
        assert serialize_scenario(again) == serialize_scenario(scn), path.name


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_validation_types_each_value_once(monkeypatch, path):
    # validation and the builders it calls share one memo of typed values
    scn = parse_scenario(path.read_text(encoding="utf-8"))
    calls = Counter()
    real = scenario._typed

    def typed(kind, entries, key, n_species=None):
        calls[kind, id(entries), key] += 1
        return real(kind, entries, key, n_species)

    monkeypatch.setattr(scenario, "_typed", typed)
    assert validate_scenario(scn) == []
    assert calls and max(calls.values()) == 1


def test_cli_validate_ok():
    assert main(["validate", "--scenario", str(SCENARIOS / "demo_gas.scn")]) == 0


def test_cli_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario\n", encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == 2


def test_cli_validate_integrity_error(tmp_path):
    broken = tmp_path / "broken.scn"
    broken.write_text(MINIMAL.replace("reservoir = R1", "reservoir = nope"),
                      encoding="utf-8")
    assert main(["validate", "--scenario", str(broken)]) == 3


@pytest.mark.parametrize("old, new", [
    ("dof = 3", "dof = abc"),  # a ParseError from the model builder
    ("volume = 1\n\n[reservoir", "volume = nan\n\n[reservoir"),
    ("energy = 1.5\nvolume = 1", "energy = inf\nvolume = 1"),
    ("energy = 1.5\nvolume = 2", "energy = -1e999\nvolume = 2"),
    ("temperature = 1", "temperature = 1e999"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_malformed_numbers_are_schema_errors(tmp_path, capsys, old, new, command):
    path = tmp_path / "bad.scn"
    path.write_text(MINIMAL.replace(old, new, 1), encoding="utf-8")
    argv = [command, "--scenario", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o"), "--measure-entropy", "p1"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "[schema]" in captured.out + captured.err


def test_parse_keeps_non_finite_literals_as_words():
    scn = parse_scenario(MINIMAL.replace("range = -100 100", "range = nan 1e999 -inf 3/0"))
    assert scn.reservoirs["R1"]["range"] == ["nan", "1e999", "-inf", "3/0"]


def test_cli_measure_entropy(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", str(SCENARIOS / "demo_gas.scn"),
        "--out", str(out), "--seed", "0", "--measure-entropy", "pair1",
    ])
    assert code == 0
    body = (out / "measure_pair1.csv").read_text(encoding="utf-8")
    header, row = body.strip().splitlines()
    delta_s = float(row.split(",")[header.split(",").index("delta_S")])
    assert delta_s == pytest.approx(math.log(2.0), abs=1e-9)


def test_cli_domain_error_exit_code(tmp_path):
    cramped = MINIMAL.replace("range = -100 100", "range = -0.01 0.01")
    path = tmp_path / "cramped.scn"
    path.write_text(cramped, encoding="utf-8")
    code = main([
        "run", "--scenario", str(path), "--out", str(tmp_path / "o"),
        "--measure-entropy", "p1",
    ])
    assert code == 4


def test_cli_nonconvergence_exit_code(tmp_path):
    text = MINIMAL + "\n[equilibrium bad]\nsystems = gas1\nenergy = -5\n"
    path = tmp_path / "infeasible.scn"
    path.write_text(text, encoding="utf-8")
    code = main([
        "run", "--scenario", str(path), "--out", str(tmp_path / "o"),
        "--equilibrate", "bad",
    ])
    assert code == 5


def test_cli_unknown_selection_is_integrity_error(tmp_path):
    code = main([
        "run", "--scenario", str(SCENARIOS / "demo_gas.scn"),
        "--out", str(tmp_path / "o"), "--measure-entropy", "ghost",
    ])
    assert code == 3


def test_cli_seeded_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main([
            "run", "--scenario", str(SCENARIOS / "demo_equilibrium.scn"),
            "--out", str(out), "--seed", "7", "--equilibrate", "prob1",
        ])
        assert code == 0
    f1 = (out1 / "equilibrium_prob1.csv").read_bytes()
    f2 = (out2 / "equilibrium_prob1.csv").read_bytes()
    assert f1 == f2


DEEP_CHAIN = """
[scenario]
name = deep_chain

[constituents]
names = A B C

[network]
names = r1 r2
nu = -1 0 ; 1 -1 ; 0 1

[system mix]
species = A B C
dof = 3 4 5
e0 = 0 -12 -18
s0 = 5 20 25
amounts = 1.5 0.5 0.5
volume = 1

[equilibrium chain]
systems = mix
energy = 6
reactive = true
"""


def test_cli_equilibrates_a_deep_two_reaction_chain(tmp_path):
    # A -> B -> C with wells of tens of kT: the optimum leaves ~1e-11 of A
    path = tmp_path / "chain.scn"
    path.write_text(DEEP_CHAIN, encoding="utf-8")
    outputs = []
    for seed in ("0", "5"):
        out = tmp_path / seed
        assert main(["run", "--scenario", str(path), "--out", str(out), "--seed", seed,
                     "--equilibrate", "chain"]) == 0
        outputs.append((out / "equilibrium_chain.csv").read_bytes())
    assert outputs[0] == outputs[1]
    with (tmp_path / "0" / "equilibrium_chain.csv").open(encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["kkt_residual"]) <= 1e-10
    assert 0.0 < float(row["n_0"]) < 1e-9


def test_cli_tabulate_ignores_thread_env(tmp_path, monkeypatch):
    # tabulation is serial; a stale, even malformed, thread variable is ignored
    monkeypatch.setenv("ENTROKIT_THREADS", "abc")
    out = tmp_path / "out"
    code = main([
        "run", "--scenario", str(SCENARIOS / "demo_open.scn"),
        "--out", str(out), "--tabulate", "tab1",
    ])
    assert code == 0
    assert (out / "table_tab1.csv").exists()


def test_cli_theorem_suite(tmp_path):
    out = tmp_path / "suite"
    code = main([
        "run", "--scenario", str(SCENARIOS / "demo_gas.scn"),
        "--out", str(out), "--seed", "3", "--theorem-suite",
    ])
    assert code == 0
    table = (out / "theorem_suite.csv").read_text(encoding="utf-8")
    lines = table.strip().splitlines()
    assert len(lines) > 5
    assert all(",true," in ln for ln in lines[1:])


def test_cli_theorem_suite_failure_exits_1(tmp_path, monkeypatch):
    # a failing check fails the run and is written as such; the others still run
    from entrokit import checks

    failing = checks.CheckResult("entropy-additivity", False, 30, 1.0, "forced")
    monkeypatch.setattr(checks, "additivity_check", lambda *args: failing)
    out = tmp_path / "suite"
    code = main([
        "run", "--scenario", str(SCENARIOS / "demo_gas.scn"),
        "--out", str(out), "--seed", "3", "--theorem-suite",
    ])
    assert code == 1
    with open(out / "theorem_suite.csv", encoding="utf-8", newline="") as fh:
        passed = {row["check"]: row["passed"] for row in csv.DictReader(fh)}
    assert passed.pop("entropy-additivity") == "false"
    assert len(passed) == 7 and set(passed.values()) == {"true"}


def _mutated(tmp_path, scenario, old, new):
    """A copy of a shipped scenario with ``old`` replaced by ``new``, next to
    the joint table the shipped scenarios read."""
    text = (SCENARIOS / scenario).read_text(encoding="utf-8")
    assert old in text
    shutil.copy(SCENARIOS / "joint_diag.csv", tmp_path / "joint_diag.csv")
    path = tmp_path / scenario
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return str(path)


#: The jobs of each shipped scenario.
JOBS = {
    "demo_gas.scn": ["--measure-entropy", "pair1", "--run-schedule", "sched1",
                     "--decorrelate", "j1"],
    "demo_equilibrium.scn": ["--equilibrate", "prob1"],
    "demo_open.scn": ["--tabulate", "tab1"],
}
FUZZ_VALUES = ["nan", "inf", "1e999", "abc", "0", "-1", "1 2", "3/0", "1e-300", "1e308",
               "1e-320"]


#: A line the CLI may write to stderr: a validation issue, or why the run stopped.
STDERR_LINE = re.compile(r"\[(schema|integrity)\] |((parse|integrity|solver|domain) )?error: ")


def _run_quietly(argv, capsys) -> tuple[int, list]:
    """Exit code of ``main(argv)`` and what it wrote to stderr, numpy warnings
    included, as lines that are not documented messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err.splitlines()
    return code, [ln for ln in err if not STDERR_LINE.match(ln)] + [str(w.message) for w in caught]


@pytest.mark.parametrize("value", FUZZ_VALUES)
@pytest.mark.parametrize("scenario", sorted(JOBS))
def test_every_mutated_value_ends_in_a_documented_exit_code(tmp_path, capsys, scenario, value):
    # every 'key = value' line of the scenario, its value replaced, through
    # validate and through run with the scenario's jobs; stderr holds nothing
    # but the documented one-line messages
    lines = (SCENARIOS / scenario).read_text(encoding="utf-8").splitlines()
    shutil.copy(SCENARIOS / "joint_diag.csv", tmp_path / "joint_diag.csv")
    path = tmp_path / scenario
    codes, noise = {}, {}
    for i, line in enumerate(lines):
        key, eq, _ = line.split("#", 1)[0].partition("=")
        if not eq:
            continue
        path.write_text("\n".join(lines[:i] + [f"{key.strip()} = {value}"] + lines[i + 1:]),
                        encoding="utf-8")
        for argv in (["validate", "--scenario", str(path)],
                     ["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                      *JOBS[scenario]]):
            where = (key.strip(), i + 1, argv[0])
            codes[where], noise[where] = _run_quietly(argv, capsys)
    assert codes
    odd = {where: code for where, code in codes.items() if code not in (0, 2, 3, 4, 5)}
    assert not odd
    assert not {where: lines for where, lines in noise.items() if lines}


#: The water network of demo_equilibrium and demo_open rewritten near the
#: float limits, and the exit code of each scenario's run job.  Scaled by
#: 1e-300 it is the same reaction, with the shipped answers.  Scaled by 1e300
#: the solve finds the shipped extent over 1e300 but its certificate, absolute
#: in the affinity, grows with the coefficients: equilibrate exits 5, and the
#: table keeps the points whose probe hit a zero affinity, the rest as gaps.
#: The second reaction of the near-dependent set is all but supported on
#: the elemental species, which stays a valid, independent set.
LIMIT_NETWORKS = {
    "1e300": ("nu = -2e300 ; -1e300 ; 2e300", {"demo_equilibrium.scn": 5, "demo_open.scn": 0}),
    "1e-300": ("nu = -2e-300 ; -1e-300 ; 2e-300", {"demo_equilibrium.scn": 0, "demo_open.scn": 0}),
    "near-dependent": ("names = burn swap\nnu = -2 1 ; -1 -1 ; 2 1e-300",
                       {"demo_equilibrium.scn": 0, "demo_open.scn": 0}),
}


@pytest.mark.parametrize("network", sorted(LIMIT_NETWORKS))
@pytest.mark.parametrize("scenario_name", ["demo_equilibrium.scn", "demo_open.scn"])
def test_networks_near_the_float_limits_end_in_a_documented_exit_code(
        tmp_path, capsys, scenario_name, network):
    new, run_codes = LIMIT_NETWORKS[network]
    path = _mutated(tmp_path, scenario_name, "names = burn\nnu = -2 ; -1 ; 2", new)
    assert _run_quietly(["validate", "--scenario", path], capsys) == (0, [])
    out = tmp_path / "out"
    code, noise = _run_quietly(["run", "--scenario", path, "--out", str(out),
                                *JOBS[scenario_name]], capsys)
    assert (code, noise) == (run_codes[scenario_name], [])
    if network == "1e-300":  # the shipped answers, the extents times 1e300
        (name,) = [p.name for p in out.iterdir()]
        with (out / name).open(encoding="utf-8") as fh, \
                (GOLDEN / name).open(encoding="utf-8") as gh:
            for got, want in zip(csv.DictReader(fh), csv.DictReader(gh)):
                assert float(got["eps_0"]) * 1e-300 == pytest.approx(float(want["eps_0"]),
                                                                    rel=1e-9)
                assert float(got["S_se"]) == pytest.approx(float(want["S_se"]), rel=1e-9)


@pytest.mark.parametrize("old, new", [
    ("amounts = 1", "amounts = 1e-300"),             # in [system gas1]
    ("temperature = 1\n", "temperature = 1e-300\n"),  # in [reservoir R1]
], ids=["amounts", "temperature"])
def test_cli_isentrope_beyond_any_volume_is_a_range_error(tmp_path, capsys, old, new):
    path = _mutated(tmp_path, "demo_gas.scn", old, new)
    code = main(["run", "--scenario", path, "--out", str(tmp_path / "out"),
                 "--measure-entropy", "pair1"])
    assert code == 4
    assert "beyond any finite" in capsys.readouterr().err


def _in_si(path) -> str:
    """The scenario at ``path`` with its numbers reread in SI units."""
    text = Path(path).read_text(encoding="utf-8")
    assert "units = reduced" in text
    Path(path).write_text(text.replace("units = reduced", "units = si"), encoding="utf-8")
    return str(path)


def test_cli_si_temperature_that_underflows_is_a_domain_error(tmp_path, capsys):
    # a subnormal reservoir temperature: the isentrope to it needs a volume
    # beyond any finite one
    path = _in_si(_mutated(tmp_path, "demo_gas.scn", "temperature = 1\n",
                           "temperature = 1e-320\n"))
    code = main(["run", "--scenario", path, "--out", str(tmp_path / "out"),
                 "--measure-entropy", "pair1"])
    assert code == 4
    assert capsys.readouterr().err.startswith("domain error:")


@pytest.mark.parametrize("old, new, words", [
    ("energy = 1.5\nvolume = 1", "energy = 1e308\nvolume = 1",
     "s1: 'energy' holds 1e+308, which has no finite value in reduced units"),
    ("dof = 3", "dof = 1e307", "gas1: 's0' in reduced units: s0 must be finite, got -inf"),
], ids=["energy", "s0"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_si_value_without_a_finite_reduced_image_is_a_schema_issue(tmp_path, capsys, old, new,
                                                                  words, command):
    # 1e308 J is above 1e308 k_B; (dof/2) ln k_B overflows for dof = 1e307
    path = _in_si(_mutated(tmp_path, "demo_gas.scn", old, new))
    argv = [command, "--scenario", path]
    if command == "run":
        argv += ["--out", str(tmp_path / "out"), *JOBS["demo_gas.scn"]]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"[schema] {words}" in (captured.out + captured.err).splitlines()


def test_si_system_with_unreadable_species_is_a_schema_issue(tmp_path, capsys):
    # its e0 default stays one number, which the SI reader divides as it is
    path = tmp_path / "bad.scn"
    path.write_text(MINIMAL.replace("units = reduced", "units = si").replace(
        "species = Ar", "species = Ar ; Ar"), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 3
    assert "[schema] gas1: 'species' expects words, got 'Ar ; Ar'" in capsys.readouterr().out


def test_cli_refuses_the_units_flag(tmp_path, capsys):
    # a file's own 'units' key decides how its numbers read
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(SCENARIOS / "demo_gas.scn"), "--out", str(tmp_path),
              "--units", "si"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --units si" in capsys.readouterr().err


def _si_image(path: Path, tmp_path: Path) -> str:
    """The SI image of a reduced scenario, beside the image of the joint table
    it reads: every value SCHEMA marks as an energy or a pressure, defaults
    included, times k_B, each s0 less (dof/2) ln k_B, and 'units = si'."""
    def times_kb(spec, value):
        if spec.type == "steps":
            return [[op, f"{key}={v if key == 'volume' else v * KB_SI!r}"] for op, key, v in value]
        return [repr(v * KB_SI) for v in value] if spec.type == "numbers" else repr(value * KB_SI)

    scn = parse_scenario(path.read_text(encoding="utf-8"))
    for kind, bucket in scenario._BUCKETS.items():
        for name, decl in getattr(scn, bucket).items():
            get = functools.partial(scenario._get, scn, kind, name)
            for key, spec in SCHEMA[kind].items():
                if spec.unit:
                    decl[key] = times_kb(spec, get(key))
            if kind == "system":
                decl["s0"] = [repr(s - 0.5 * d * math.log(KB_SI))
                              for d, s in zip(get("dof"), get("s0"))]
    scn.units = "si"
    (tmp_path / path.name).write_text(serialize_scenario(scn), encoding="utf-8")
    lines = (SCENARIOS / "joint_diag.csv").read_text(encoding="utf-8").splitlines()
    lines[1:3] = [",".join(repr(float(x) * KB_SI) for x in ln.split(",")) for ln in lines[1:3]]
    (tmp_path / "joint_diag.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(tmp_path / path.name)


def _read_column(path, column) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[column] for row in csv.DictReader(fh)]


#: The CSV columns in units of k_B: energies, entropies, pressures and potentials.
SI_COLUMNS = re.compile(r"delta_S|E|E_initial|E_final|dE_res|work|sigma_gen|sigma|H_joint|H_A"
                        r"|H_B|energy|S_se|p|p_\d+|mu_\d+")


@pytest.mark.parametrize("name", sorted(JOBS))
def test_si_image_of_a_shipped_scenario_writes_k_b_times_its_columns(tmp_path, capsys, name):
    # k_B only picks units: the image's energies, entropies, pressures and
    # potentials are k_B times the reduced ones, and every other cell is the same
    (tmp_path / "si").mkdir()
    image = _si_image(SCENARIOS / name, tmp_path / "si")
    for path, out in ((str(SCENARIOS / name), "reduced"), (image, "si_out")):
        assert main(["run", "--scenario", path, "--out", str(tmp_path / out), *JOBS[name]]) == 0
    for csv_path in sorted((tmp_path / "reduced").glob("*.csv")):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        with open(tmp_path / "si_out" / csv_path.name, newline="", encoding="utf-8") as fh:
            assert next(csv.reader(fh)) == header
            si_rows = list(csv.reader(fh))
        assert len(si_rows) == len(rows)
        for row, si_row in zip(rows, si_rows):
            for column, cell, si_cell in zip(header, row, si_row):
                if SI_COLUMNS.fullmatch(column):
                    assert float(si_cell) == pytest.approx(KB_SI * float(cell), rel=1e-12,
                                                           abs=0.0), column
                else:
                    assert si_cell == cell, column
    if name == "demo_equilibrium.scn":
        eps = float(_read_column(tmp_path / "si_out" / "equilibrium_prob1.csv", "eps_0")[0])
        assert eps == pytest.approx(0.757933, abs=5e-7)
    if name == "demo_open.scn":
        assert _read_column(tmp_path / "si_out" / "table_tab1.csv", "status") == ["ok"] * 6


def _si_gas(tmp_path, amount, energy, extra, units="si") -> str:
    """An SI scenario, or one in ``units``: ``amount`` particles of a
    monatomic gas in 1 L at ``energy`` J (or k_B), with a state at twice the
    volume, and ``extra`` text."""
    path = tmp_path / "si.scn"
    path.write_text(f"[scenario]\nunits = {units}\n\n[system gas]\namounts = {amount}\n"
                    f"volume = 1e-3\n\n[state a]\nsystem = gas\nenergy = {energy!r}\n\n"
                    f"[state b]\nsystem = gas\nenergy = {energy!r}\nvolume = 2e-3\n\n{extra}",
                    encoding="utf-8")
    return str(path)


def test_si_direct_contact_that_destroys_entropy_is_refused(tmp_path, capsys):
    # 1e10 particles at 300 K push 1 % of their energy into a 600 K reservoir:
    # sigma is about -1e-15 J/K, or -7.6e7 in units of k_B
    energy = 1.5 * 1e10 * KB_SI * 300.0
    path = _si_gas(tmp_path, 1e10, energy,
                   f"[reservoir hot]\ntemperature = 600\n\n[schedule s]\nsystem = gas\n"
                   f"start = a\nreservoir = hot\nsteps = direct heat={-0.01 * energy!r}\n")
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "out"),
                 "--run-schedule", "s"]) == 4
    assert "would destroy entropy" in capsys.readouterr().err


def test_one_si_particle_doubling_its_volume_gains_k_b_ln_2(tmp_path, capsys):
    # one particle at 300 K holds 6.2e-21 J, or 450 in units of k_B
    path = _si_gas(tmp_path, 1, 1.5 * KB_SI * 300.0,
                   "[reservoir R]\ntemperature = 300\n\n[pair p]\nfrom = a\nto = b\n"
                   "reservoir = R\n")
    assert main(["validate", "--scenario", path]) == 0
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--measure-entropy", "p"]) == 0
    (delta_s,) = _read_column(out / "measure_p.csv", "delta_S")
    assert float(delta_s) == pytest.approx(KB_SI * math.log(2.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("units, kb", [("reduced", 1.0), ("si", KB_SI)])
def test_macroscopic_gas_measures_against_the_default_reservoir_range(tmp_path, capsys,
                                                                      units, kb):
    # 1e20 particles at 300 K doubling their volume move 2.1e22 k_B through a
    # reservoir declared without a range: the default is unbounded in either
    # units, and an SI file's infinite default is no value without a reduced image
    path = _si_gas(tmp_path, 1e20, 1.5 * 1e20 * kb * 300.0,
                   "[reservoir R]\ntemperature = 300\n\n[pair p]\nfrom = a\nto = b\n"
                   "reservoir = R\n", units)
    assert main(["validate", "--scenario", path]) == 0
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--measure-entropy", "p"]) == 0
    (delta_s,) = _read_column(out / "measure_p.csv", "delta_S")
    assert float(delta_s) == pytest.approx(kb * 1e20 * math.log(2.0), rel=1e-12, abs=0.0)


def test_scaled_open_table_scales_its_extensive_columns(tmp_path, capsys):
    # amounts, volumes and energies times 1e12: E, S_se and eps_0 scale with
    # them, T, p and mu_* stay, and the environment's reservoir takes any exchange
    path = _mutated(tmp_path, "demo_open.scn", "amounts = 2 1 0", "amounts = 2e12 1e12 0")
    text = Path(path).read_text(encoding="utf-8")
    for old, new in (("volume = 1\n", "volume = 1e12\n"),
                     ("energies = 7 8 9", "energies = 7e12 8e12 9e12"),
                     ("volumes = 1 2", "volumes = 1e12 2e12"),
                     ("compositions = 2 1 0", "compositions = 2e12 1e12 0")):
        assert old in text
        text = text.replace(old, new)
    Path(path).write_text(text, encoding="utf-8")
    for scn_path, out in ((str(SCENARIOS / "demo_open.scn"), "one"), (path, "scaled")):
        assert main(["run", "--scenario", scn_path, "--out", str(tmp_path / out),
                     "--tabulate", "tab1"]) == 0
    one, scaled = ({column: _read_column(tmp_path / out / "table_tab1.csv", column)
                    for column in ("E", "S_se", "eps_0", "T", "p", "mu_0", "mu_1", "mu_2",
                                   "status")} for out in ("one", "scaled"))
    assert scaled["status"] == ["ok"] * 6
    for column, factor in (("E", 1e12), ("S_se", 1e12), ("eps_0", 1e12), ("T", 1.0), ("p", 1.0),
                           ("mu_0", 1.0), ("mu_1", 1.0), ("mu_2", 1.0)):
        assert [float(x) for x in scaled[column]] == pytest.approx(
            [factor * float(x) for x in one[column]], rel=1e-12, abs=0.0), column


def test_cli_tabulate_records_a_gap_where_the_pressure_cannot_be_differenced(tmp_path, capsys):
    # at V = 1e-320 the pressure's step 1e-6 V underflows and the measurement
    # misses its target: those points are gaps, the others are tabulated
    path = _mutated(tmp_path, "demo_open.scn", "volumes = 1 2", "volumes = 1e-320 2")
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--tabulate", "tab1"]) == 0
    rows = (out / "table_tab1.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 6
    assert [",gap: " in row for row in rows] == [True, False] * 3


def test_cli_all_gap_reactive_table_keeps_its_columns(tmp_path, capsys):
    # no point of the table is tabulated, yet its header still has the
    # reaction coordinate column, and every row as many cells as the header
    path = _mutated(tmp_path, "demo_open.scn", "temperature = 1\n", "temperature = 1e308\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--tabulate", "tab1"]) == 0
    header, *rows = (out / "table_tab1.csv").read_text(encoding="utf-8").splitlines()
    golden = (Path(__file__).parent / "golden" / "table_tab1.csv").read_text(encoding="utf-8")
    assert header == golden.splitlines()[0]
    assert len(rows) == 6
    assert all(",gap: " in row for row in rows)
    assert {len(row.split(",", header.count(",") + 1)) for row in rows} == {header.count(",") + 1}


def test_cell_with_a_comma_or_a_quote_stays_in_its_cell(tmp_path):
    path = tmp_path / "table.csv"
    reason = 'gap: volume "v" out of range, at T = 1'
    write_csv(path, ["V", "status"], [[1.5, reason], [2.0, "ok"]])
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["V", "status"], ["1.5", reason], ["2", "ok"]]


@pytest.mark.parametrize("units", ["reduced", "si"])
def test_hot_environment_gap_names_the_vanishing_volume(tmp_path, capsys, units):
    # the reference isentrope at this temperature needs a volume that
    # underflows to 0; every point is a gap that says so
    temperature = "1e300"
    path = _mutated(tmp_path, "demo_open.scn", "temperature = 1\n",
                    f"temperature = {temperature}\n")
    if units == "si":
        _in_si(path)
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--tabulate", "tab1"]) == 0
    with open(out / "table_tab1.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 6
    assert all(len(row) == len(header) for row in rows)
    reason = re.compile(r"gap: entropy \S+ at temperature "
                        + re.escape(f"{float(temperature):.6g}")
                        + " needs a volume below any positive one")
    assert all(reason.fullmatch(row[-1]) for row in rows)


def test_reference_to_a_name_that_reads_as_a_number_keeps_its_spelling(tmp_path, capsys):
    path = tmp_path / "names.scn"
    path.write_text("[system 1.50]\ndof = 3\n\n[state s1]\nsystem = 1.50\nenergy = 1.5\n",
                    encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == 0


def test_joint_file_name_that_reads_as_a_number_keeps_its_spelling(tmp_path, capsys):
    path = _mutated(tmp_path, "demo_gas.scn", "file = joint_diag.csv", "file = 007")
    shutil.copy(SCENARIOS / "joint_diag.csv", tmp_path / "007")
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--decorrelate", "j1"]) == 0
    assert (out / "decorrelate_j1.csv").exists()


def test_scenario_name_that_reads_as_a_number_keeps_its_spelling():
    assert parse_scenario("[scenario]\nname = 1e3\n").name == "1e3"


@pytest.mark.parametrize("new", ["file = nan", "file = missing.csv", "file = ."])
def test_cli_unreadable_joint_file_is_a_parse_error(tmp_path, capsys, new):
    path = _mutated(tmp_path, "demo_gas.scn", "file = joint_diag.csv", new)
    code = main(["run", "--scenario", path, "--out", str(tmp_path / "out"),
                 "--decorrelate", "j1"])
    assert code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_cli_unusable_output_directory_is_exit_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("", encoding="utf-8")
    code = main(["run", "--scenario", str(SCENARIOS / "demo_gas.scn"), "--out", str(blocker),
                 "--measure-entropy", "pair1"])
    assert code == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_cli_malformed_joint_table_is_a_parse_error(tmp_path, capsys):
    path = _mutated(tmp_path, "demo_gas.scn", "file = joint_diag.csv", "file = bad.csv")
    (tmp_path / "bad.csv").write_text("0,1\n0,1\na,b\n0,0.5\n", encoding="utf-8")
    code = main(["run", "--scenario", path, "--out", str(tmp_path / "out"),
                 "--decorrelate", "j1"])
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_certain_joint_writes_positive_zero_entropies(tmp_path):
    path = _mutated(tmp_path, "demo_gas.scn", "file = joint_diag.csv", "file = one.csv")
    (tmp_path / "one.csv").write_text("0\n0\n1\n", encoding="utf-8")
    code = main(["run", "--scenario", path, "--out", str(tmp_path / "out"),
                 "--decorrelate", "j1"])
    assert code == 0
    rows = (tmp_path / "out" / "decorrelate_j1.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1] == "j1,0,0,0,0,0"


def test_cli_negative_seed_flag_is_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", str(SCENARIOS / "demo_equilibrium.scn"),
              "--out", str(tmp_path), "--seed", "-1", "--equilibrate", "prob1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_negative_scenario_seed_is_a_parse_error(tmp_path, command):
    path = _mutated(tmp_path, "demo_equilibrium.scn", "seed = 0", "seed = -1")
    argv = [command, "--scenario", path]
    if command == "run":
        argv += ["--out", str(tmp_path / "out"), "--equilibrate", "prob1"]
    assert main(argv) == 2


@pytest.mark.parametrize("scenario, old, new, category, words", [
    pytest.param("demo_gas.scn", "system = gas1\nenergy = 1.5\nvolume = 1",
                 "system = gas1 1 2\nenergy = 1.5\nvolume = 1", "schema", "one word",
                 id="two-word-reference"),
    pytest.param("demo_open.scn", "nu = -2 ; -1 ; 2", "nu = -1", "integrity", "rows",
                 id="network-rows-against-basis"),
    pytest.param("demo_equilibrium.scn", "amounts = 2 1 0", "amounts = 0", "schema",
                 "per species", id="amounts-per-species"),
    pytest.param("demo_open.scn", "compositions = 2 1 0", "compositions = 1 2", "schema",
                 "per species", id="compositions-per-species"),
    pytest.param("demo_gas.scn", "[reservoir Rhot]", "[reservoir Rhot]\ncolour = blue",
                 "schema", "unknown key", id="unknown-key"),
    pytest.param("demo_equilibrium.scn", "reactive = true", "reactive = maybe", "schema",
                 "true or false", id="reactive-flag"),
    pytest.param("demo_open.scn", "convention = chemical", "convention = other", "schema",
                 "one of", id="convention-choice"),
    pytest.param("demo_open.scn", "volumes = 1 2", "volumes = 0 2", "schema", "positive",
                 id="table-volumes"),
    pytest.param("demo_gas.scn", "direct heat=-0.25", "direct heat=-0.25 extra=1", "schema",
                 "steps", id="step-extra-token"),
    pytest.param("demo_gas.scn", "energy = 0\nrange = -1e6 1e6\n\n[reservoir Rcold]",
                 "energy = 2e6\nrange = -1e6 1e6\n\n[reservoir Rcold]", "integrity",
                 "outside", id="reservoir-energy-outside-range"),
    pytest.param("demo_open.scn", "system = mix1\nenv = env1", "system = mix2\nenv = env1",
                 "integrity", "not a declared system", id="undeclared-system"),
    pytest.param("demo_gas.scn", "[schedule sched1]\nsystem = gas1",
                 "[system gas2]\nspecies = Ar\ndof = 5\n\n[schedule sched1]\nsystem = gas2",
                 "integrity", "another system", id="schedule-start-in-another-system"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_inconsistent_declarations(tmp_path, capsys, scenario, old, new,
                                               category, words, command):
    path = _mutated(tmp_path, scenario, old, new)
    argv = [command, "--scenario", path]
    if command == "run":
        argv += ["--out", str(tmp_path / "out"), *JOBS[scenario]]
    assert main(argv) == 3
    captured = capsys.readouterr()
    issues = [ln for ln in (captured.out + captured.err).splitlines()
              if ln.startswith(f"[{category}]")]
    assert any(words in ln for ln in issues), issues


#: Replacement values for the property below: the float range's edges, words
#: that read as numbers, references and malformed lists.
FUZZ_TOKENS = FUZZ_VALUES + ["5e-324", "-inf", "2.5", "3/2", "1.50", "007", "1e3", "true",
                             "gas1", "s1", "mix1", "1 2 3", "2 ; 1", "isentropic volume=0"]


@st.composite
def _mutated_run(draw):
    """A shipped scenario with one line's value replaced, or one line deleted
    or duplicated, perhaps reread in SI units, and the argv of a run of its jobs."""
    scenario = draw(st.sampled_from(sorted(JOBS)))
    lines = (SCENARIOS / scenario).read_text(encoding="utf-8").splitlines()
    edit = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if edit == "replace":
        i = draw(st.sampled_from([j for j, ln in enumerate(lines) if "=" in ln.split("#")[0]]))
        key = lines[i].partition("=")[0].strip()
        lines[i] = f"{key} = {draw(st.sampled_from(FUZZ_TOKENS))}"
    else:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if edit == "delete" else [lines[i]] * 2
    seed = str(draw(st.integers(-1, 2**32)))
    extra = draw(st.sampled_from([[], "si", ["--seed", seed]]))
    text = "\n".join(lines)
    if extra == "si":
        text, extra = text.replace("units = reduced", "units = si"), []
    return scenario, text, JOBS[scenario] + extra


@given(_mutated_run())
@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # capsys is read per call
def test_any_mutated_scenario_ends_in_a_documented_exit_code(tmp_path_factory, capsys, case):
    scenario, text, jobs = case
    tmp = tmp_path_factory.mktemp("fuzz")
    shutil.copy(SCENARIOS / "joint_diag.csv", tmp / "joint_diag.csv")
    path = tmp / scenario
    path.write_text(text, encoding="utf-8")
    for argv in (["validate", "--scenario", str(path)],
                 ["run", "--scenario", str(path), "--out", str(tmp / "out"), *jobs]):
        try:
            code, noise = _run_quietly(argv, capsys)
        except SystemExit as exc:  # argparse rejecting an argument, with its usage
            capsys.readouterr()
            assert exc.code == 2
            continue
        assert code in (0, 1, 2, 3, 4, 5)
        assert not noise


def test_readme_section_table_lists_the_schema_keys():
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| section | keys |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines():
        section, keys = row.strip("|").split("|")[:2]
        # keys are the backticked words outside parentheses
        listed[section.strip().strip("`").split()[0]] = set(
            re.findall(r"`([a-z_0-9]+)`", re.sub(r"\([^)]*\)", "", keys)))
    assert listed == {kind: set(keys) for kind, keys in SCHEMA.items()}


def _kb_sites(source: str) -> set:
    """Lines of a module that name ``KB_SI`` (or import it) or an attribute,
    a parameter or a keyword argument ``kb``."""
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "KB_SI"
            or isinstance(node, ast.alias) and node.name == "KB_SI"
            or isinstance(node, ast.Attribute) and node.attr == "kb"
            or isinstance(node, (ast.arg, ast.keyword)) and node.arg == "kb"}


def test_no_module_but_the_scenario_reader_and_the_cli_knows_k_b():
    # SI is read and written at the scenario boundary; the core is in reduced units
    sites = {path.name: _kb_sites(path.read_text(encoding="utf-8"))
             for path in sorted((SCENARIOS.parent / "src" / "entrokit").glob("*.py"))
             if path.name not in ("scenario.py", "cli.py")}
    assert {name: lines for name, lines in sites.items() if lines} == {}
    # the guard sees an import, a read of the constant or of an attribute, a
    # parameter and a keyword argument
    sample = ("from .scenario import KB_SI\n"
              "def f(model, kb=1.0):\n    return model.kb * KB_SI\n"
              "g(kb=2.0)\n")
    assert _kb_sites(sample) == {1, 2, 3, 4}
