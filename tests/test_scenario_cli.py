import math
from pathlib import Path

import pytest

from entrokit.cli import main
from entrokit.errors import ParseError
from entrokit.scenario import (
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


def test_rational_stoichiometric_coefficients():
    text = """
[constituents]
names = A B

[network]
nu = -1/2 ; 3/2
"""
    scn = parse_scenario(text)
    assert scn.network.stoich[0, 0] == pytest.approx(-0.5)
    assert scn.network.stoich[1, 0] == pytest.approx(1.5)


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
