"""Scenario files: the plain-text declaration of the largest isolated system
under study (constituents, network, models, reservoirs, weight, states,
processes, equilibrium problems, reference environment, output tables).

Grammar: '#' comments; '[kind name]' section headers; 'key = value' lines.
A value is whitespace-separated tokens (numbers, fractions like 3/2, or
words); ';' separates the rows of a matrix or the steps of a schedule.
The exact grammar is documented in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import IntegrityError, NegativeAmount, ParseError
from .matter_models import (
    KB_SI,
    IdealGasMixture,
    Parameters,
    Species,
    SystemState,
    ThermalReservoir,
    Weight,
)
from .open_systems import OpenGrid, ReferenceEnvironment
from .stoichiometry import Composition, ReactionNetwork, validate_elemental_set

_SECTION_KINDS = (
    "scenario", "constituents", "network", "system", "reservoir", "weight",
    "state", "pair", "schedule", "equilibrium", "reference_env", "table",
    "joint",
)


@dataclass
class Section:
    kind: str
    name: str
    entries: dict
    line: int


@dataclass
class Issue:
    """One validation finding; ``category`` is 'schema' or 'integrity'."""

    category: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"[{self.category}] {self.where}: {self.message}"


@dataclass
class Scenario:
    name: str = "scenario"
    units: str = "reduced"
    seed: int = 0
    constituents: tuple = ()
    network_names: tuple = ()
    network: ReactionNetwork | None = None
    systems: dict = field(default_factory=dict)
    reservoirs: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    schedules: dict = field(default_factory=dict)
    problems: dict = field(default_factory=dict)
    ref_envs: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    joints: dict = field(default_factory=dict)

    @property
    def kb(self) -> float:
        return KB_SI if self.units == "si" else 1.0


def _parse_token(tok: str):
    """An int, float or rational like 3/2 when the token is a finite number;
    otherwise the token itself, so that nan, inf and overflowing literals
    such as 1e999 fail the type checks of numeric keys as bare words do."""
    for convert in (int, float, lambda t: float(Fraction(t))):
        try:
            value = convert(tok)
            finite = math.isfinite(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            continue
        return value if finite else tok
    return tok


def _parse_value(raw: str):
    """Tokens of one value; multiple ';'-separated groups become a list of rows."""
    if ";" in raw:
        return [[_parse_token(t) for t in part.split()] for part in raw.split(";")]
    toks = [_parse_token(t) for t in raw.split()]
    if len(toks) == 1:
        return toks[0]
    return toks


def parse_sections(text: str) -> list[Section]:
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            header = line[1:-1].split()
            if not header:
                raise ParseError("empty section header", lineno)
            kind = header[0]
            if kind not in _SECTION_KINDS:
                raise ParseError(f"unknown section kind '{kind}'", lineno)
            name = header[1] if len(header) > 1 else kind
            if len(header) > 2:
                raise ParseError("section header has too many tokens", lineno)
            current = Section(kind, name, {}, lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got '{line}'", lineno)
        if current is None:
            raise ParseError("assignment before any section header", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if not key:
            raise ParseError("empty key", lineno)
        if not raw_value:
            raise ParseError(f"key '{key}' has no value", lineno)
        if key in current.entries:
            raise ParseError(f"duplicate key '{key}' in section", lineno)
        current.entries[key] = _parse_value(raw_value)
    return sections


def _as_floats(value, where: str) -> list[float]:
    items = value if isinstance(value, list) else [value]
    out = []
    for v in items:
        if not isinstance(v, (int, float)):
            raise ParseError(f"{where}: expected numbers, got '{v}'")
        out.append(float(v))
    return out


def _as_float(value, where: str) -> float:
    if not isinstance(value, (int, float)):
        raise ParseError(f"{where}: expected a number, got '{value}'")
    return float(value)


def _as_words(value) -> list[str]:
    items = value if isinstance(value, list) else [value]
    return [str(v) for v in items]


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into the declaration object (no semantic checks)."""
    scn = Scenario()
    for sec in parse_sections(text):
        e = sec.entries
        if sec.kind == "scenario":
            scn.name = str(e.get("name", scn.name))
            scn.units = str(e.get("units", scn.units))
            seed = e.get("seed", scn.seed)
            if not isinstance(seed, int):
                raise ParseError(f"seed must be an integer, got '{seed}'", sec.line)
            scn.seed = seed
        elif sec.kind == "constituents":
            scn.constituents = tuple(_as_words(e.get("names", [])))
        elif sec.kind == "network":
            rows = e.get("nu")
            if rows is None:
                raise ParseError("network section needs 'nu'", sec.line)
            if not isinstance(rows, list) or not isinstance(rows[0], list):
                rows = [rows if isinstance(rows, list) else [rows]]
            try:
                scn.network = ReactionNetwork([_as_floats(r, "nu") for r in rows])
            except (ValueError, ParseError) as exc:
                raise ParseError(f"bad network: {exc}", sec.line) from exc
            names = _as_words(e.get("names", []))
            scn.network_names = tuple(
                names if names else (f"r{i + 1}" for i in range(scn.network.n_reactions))
            )
        elif sec.kind in ("system", "reservoir", "weight", "state", "pair",
                          "schedule", "equilibrium", "reference_env", "table",
                          "joint"):
            bucket = {
                "system": scn.systems, "reservoir": scn.reservoirs,
                "weight": scn.weights, "state": scn.states, "pair": scn.pairs,
                "schedule": scn.schedules, "equilibrium": scn.problems,
                "reference_env": scn.ref_envs, "table": scn.tables,
                "joint": scn.joints,
            }[sec.kind]
            if sec.name in bucket:
                raise ParseError(f"duplicate {sec.kind} '{sec.name}'", sec.line)
            bucket[sec.name] = dict(e, _line=sec.line)
    return scn


# builders: declaration -> live objects


def build_model(scn: Scenario, system_name: str) -> IdealGasMixture:
    decl = scn.systems[system_name]
    species_names = (_as_words(decl["species"]) if "species" in decl
                     else [system_name])
    dof = _as_floats(decl.get("dof", [3.0] * len(species_names)), system_name)
    e0 = _as_floats(decl.get("e0", [0.0] * len(species_names)), system_name)
    s0 = _as_floats(decl.get("s0", [0.0] * len(species_names)), system_name)
    if not (len(dof) == len(e0) == len(s0) == len(species_names)):
        raise IntegrityError(
            f"system '{system_name}': species attribute lengths disagree",
            system_name,
        )
    species = [Species(nm, d, a, b) for nm, d, a, b in zip(species_names, dof, e0, s0)]
    return IdealGasMixture(species, kb=scn.kb)


def build_reservoir(scn: Scenario, name: str) -> ThermalReservoir:
    decl = scn.reservoirs[name]
    rng = _as_floats(decl.get("range", [-1e9, 1e9]), name)
    return ThermalReservoir(
        _as_float(decl["temperature"], name), _as_float(decl.get("energy", 0.0), name),
        rng[0], rng[1],
    )


def build_weight(scn: Scenario, name: str) -> Weight:
    decl = scn.weights[name]
    return Weight(_as_float(decl["mass"], name), _as_float(decl["gravity"], name),
                  _as_float(decl.get("height", 0.0), name))


def default_amounts(scn: Scenario, system_name: str) -> np.ndarray:
    decl = scn.systems[system_name]
    n_species = len(_as_words(decl.get("species", [system_name])))
    return np.array(_as_floats(decl.get("amounts", [1.0] * n_species), system_name))


def build_state(scn: Scenario, state_name: str) -> tuple[str, SystemState]:
    decl = scn.states[state_name]
    system_name = str(decl["system"])
    amounts = (np.array(_as_floats(decl["amounts"], state_name))
               if "amounts" in decl else default_amounts(scn, system_name))
    volume = _as_float(decl.get("volume", scn.systems[system_name].get("volume", 1.0)),
                       state_name)
    return system_name, SystemState(
        _as_float(decl["energy"], state_name), Parameters([volume]), Composition(amounts)
    )


def build_schedule_steps(scn: Scenario, sched_name: str):
    """Decode 'steps = isentropic volume=2 ; direct heat=0.5 ; ...'."""
    from .process_engine import DirectContact, Isentropic, IsothermalContact

    decl = scn.schedules[sched_name]
    raw = decl.get("steps")
    rows = raw if isinstance(raw, list) and raw and isinstance(raw[0], list) else [raw]

    def num(kv, key):
        return _as_float(_parse_token(kv[key]), sched_name)

    steps = []
    for row in rows:
        toks = [str(t) for t in (row if isinstance(row, list) else [row])]
        if not toks:
            continue
        op, kv = toks[0], dict(t.split("=", 1) for t in toks[1:] if "=" in t)
        if op == "isentropic":
            steps.append(Isentropic(Parameters([num(kv, "volume")])))
        elif op == "isothermal":
            if "volume" in kv:
                steps.append(IsothermalContact(target_params=Parameters([num(kv, "volume")])))
            else:
                steps.append(IsothermalContact(target_energy=num(kv, "energy")))
        elif op == "direct":
            steps.append(DirectContact(num(kv, "heat")))
        else:
            raise IntegrityError(f"schedule '{sched_name}': unknown step '{op}'", sched_name)
    from .process_engine import Schedule

    return Schedule(tuple(steps))


def build_problem(scn: Scenario, prob_name: str):
    from .equilibrium import EquilibriumProblem

    decl = scn.problems[prob_name]
    system_names = _as_words(decl["systems"])
    models = tuple(build_model(scn, s) for s in system_names)
    params = tuple(
        Parameters([_as_float(scn.systems[s].get("volume", 1.0), s)]) for s in system_names
    )
    n0 = tuple(Composition(default_amounts(scn, s)) for s in system_names)
    reactive = str(decl.get("reactive", "false")).lower() in ("true", "yes", "1")
    network = scn.network if reactive else None
    return EquilibriumProblem(models, params, n0, _as_float(decl["energy"], prob_name),
                              network=network)


def build_reference_env(scn: Scenario, env_name: str) -> ReferenceEnvironment:
    decl = scn.ref_envs[env_name]
    basis = str(decl["basis"])
    basis_decl = scn.systems[basis]
    species_names = _as_words(basis_decl.get("species", [basis]))
    elemental_names = _as_words(decl["elemental"])
    elemental = tuple(species_names.index(nm) for nm in elemental_names)
    dof = _as_floats(basis_decl.get("dof", [3.0] * len(species_names)), basis)
    e0 = _as_floats(basis_decl.get("e0", [0.0] * len(species_names)), basis)
    s0 = _as_floats(basis_decl.get("s0", [0.0] * len(species_names)), basis)
    species_models = tuple(
        IdealGasMixture([Species(species_names[i], dof[i], e0[i], s0[i])], kb=scn.kb)
        for i in elemental
    )
    convention = str(decl.get("convention", "chemical"))
    maker = (ReferenceEnvironment.chemical_convention if convention == "chemical"
             else ReferenceEnvironment.natural_convention)
    return maker(tuple(species_names), elemental, scn.network, species_models,
                 _as_float(decl["temperature"], env_name), _as_float(decl["pressure"], env_name))


def build_grid(scn: Scenario, table_name: str) -> OpenGrid:
    decl = scn.tables[table_name]
    comps_raw = decl["compositions"]
    if not (isinstance(comps_raw, list) and comps_raw and isinstance(comps_raw[0], list)):
        comps_raw = [comps_raw if isinstance(comps_raw, list) else [comps_raw]]
    reactive = str(decl.get("reactive", "false")).lower() in ("true", "yes", "1")
    return OpenGrid(
        energies=tuple(_as_floats(decl["energies"], table_name)),
        volumes=tuple(_as_floats(decl["volumes"], table_name)),
        compositions=tuple(Composition(_as_floats(c, table_name)) for c in comps_raw),
        reactive=reactive,
        network=scn.network if reactive else None,
    )


def validate_scenario(scn: Scenario) -> list[Issue]:
    """Schema and referential-integrity checks; empty list means clean."""
    issues: list[Issue] = []

    def schema(where, message):
        issues.append(Issue("schema", where, message))

    def integrity(where, message):
        issues.append(Issue("integrity", where, message))

    if scn.units not in ("reduced", "si"):
        schema("scenario", f"units must be 'reduced' or 'si', got '{scn.units}'")

    if scn.network is not None and scn.constituents:
        if scn.network.n_constituents != len(scn.constituents):
            integrity("network",
                      f"network has {scn.network.n_constituents} rows but "
                      f"{len(scn.constituents)} constituents are declared")

    for name, decl in scn.systems.items():
        species = _as_words(decl.get("species", [name]))
        if len(set(species)) != len(species):
            integrity(name, "system declares the same constituent in one region twice")
        if scn.constituents:
            for sp in species:
                if sp not in scn.constituents:
                    integrity(name, f"species '{sp}' not among declared constituents")
        vol = decl.get("volume", 1.0)
        if not isinstance(vol, (int, float)) or float(vol) <= 0:
            schema(name, f"volume must be positive, got {vol}")
        try:
            amounts = default_amounts(scn, name)
            if np.any(amounts < 0):
                schema(name, "amounts must be non-negative")
        except ParseError as exc:
            schema(name, str(exc))
        try:
            build_model(scn, name)
        except (IntegrityError, ParseError, ValueError) as exc:
            schema(name, str(exc))

    for name, decl in scn.reservoirs.items():
        temp = decl.get("temperature")
        if not isinstance(temp, (int, float)) or float(temp) <= 0:
            schema(name, f"reservoir temperature must be positive, got {temp}")
            continue
        try:
            build_reservoir(scn, name)
        except Exception as exc:
            schema(name, str(exc))

    for name, decl in scn.weights.items():
        for key in ("mass", "gravity"):
            v = decl.get(key)
            if not isinstance(v, (int, float)) or float(v) <= 0:
                schema(name, f"weight {key} must be positive, got {v}")
        if not isinstance(decl.get("height", 0.0), (int, float)):
            schema(name, f"weight height must be a number, got {decl['height']}")

    for name, decl in scn.states.items():
        sysname = decl.get("system")
        if sysname not in scn.systems:
            integrity(name, f"state references undeclared system '{sysname}'")
            continue
        if "energy" not in decl:
            schema(name, "state needs an energy")
            continue
        try:
            _, st = build_state(scn, name)
            model = build_model(scn, str(sysname))
            model.validate(st.energy, st.params, st.comp)
            model.entropy(st.energy, st.params, st.comp)
        except ParseError as exc:
            schema(name, str(exc))
        except Exception as exc:
            issues.append(Issue("integrity", name, f"state outside model domain: {exc}"))

    for name, decl in scn.pairs.items():
        for key in ("from", "to"):
            if decl.get(key) not in scn.states:
                integrity(name, f"pair references undeclared state '{decl.get(key)}'")
        if decl.get("reservoir") not in scn.reservoirs:
            integrity(name, f"pair references undeclared reservoir '{decl.get('reservoir')}'")
        s_from, s_to = decl.get("from"), decl.get("to")
        if s_from in scn.states and s_to in scn.states:
            if scn.states[s_from].get("system") != scn.states[s_to].get("system"):
                integrity(name, "pair endpoints belong to different systems")

    for name, decl in scn.schedules.items():
        if decl.get("system") not in scn.systems:
            integrity(name, f"schedule references undeclared system '{decl.get('system')}'")
        if decl.get("start") not in scn.states:
            integrity(name, f"schedule references undeclared state '{decl.get('start')}'")
        if decl.get("reservoir") not in scn.reservoirs:
            integrity(name, f"schedule references undeclared reservoir "
                            f"'{decl.get('reservoir')}'")
        else:
            try:
                build_schedule_steps(scn, name)
            except (IntegrityError, KeyError, ParseError, ValueError) as exc:
                schema(name, f"bad steps: {exc}")

    for name, decl in scn.problems.items():
        for sysname in _as_words(decl.get("systems", [])):
            if sysname not in scn.systems:
                integrity(name, f"equilibrium references undeclared system '{sysname}'")
        if "energy" not in decl:
            schema(name, "equilibrium needs a total energy")
        elif not isinstance(decl["energy"], (int, float)):
            schema(name, f"equilibrium energy must be a number, got {decl['energy']}")
        reactive = str(decl.get("reactive", "false")).lower() in ("true", "yes", "1")
        if reactive and scn.network is None:
            integrity(name, "reactive equilibrium declared but no network present")

    for name, decl in scn.ref_envs.items():
        for key in ("temperature", "pressure"):
            v = decl.get(key)
            if not isinstance(v, (int, float)) or float(v) <= 0:
                schema(name, f"reference {key} must be positive, got {v}")
        basis = decl.get("basis")
        if basis not in scn.systems:
            integrity(name, f"reference_env references undeclared system '{basis}'")
            continue
        if scn.network is None:
            integrity(name, "reference_env needs a network")
            continue
        species_names = _as_words(scn.systems[basis].get("species", [basis]))
        elem = _as_words(decl.get("elemental", []))
        missing = [nm for nm in elem if nm not in species_names]
        if missing:
            integrity(name, f"elemental species {missing} not in basis system")
            continue
        indices = [species_names.index(nm) for nm in elem]
        report = validate_elemental_set(indices, scn.network)
        if not report.complete:
            integrity(name, f"elemental set incomplete: constituents "
                            f"{report.unreachable} unreachable")
        if not report.independent:
            integrity(name, f"elemental set not independent: reactions "
                            f"{report.violating_reactions} live on the set")

    for name, decl in scn.tables.items():
        if decl.get("system") not in scn.systems:
            integrity(name, f"table references undeclared system '{decl.get('system')}'")
        if decl.get("env") not in scn.ref_envs:
            integrity(name, f"table references undeclared reference_env '{decl.get('env')}'")
        missing = [key for key in ("energies", "volumes", "compositions") if key not in decl]
        for key in missing:
            schema(name, f"table needs '{key}'")
        if not missing:
            try:
                build_grid(scn, name)
            except (NegativeAmount, ParseError, ValueError) as exc:
                schema(name, str(exc))

    for name, decl in scn.joints.items():
        if "file" not in decl:
            schema(name, "joint needs a file path")

    return issues


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _fmt_value(value) -> str:
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return " ; ".join(" ".join(_fmt(t) for t in row) for row in value)
        return " ".join(_fmt(t) for t in value)
    return _fmt(value)


def serialize_scenario(scn: Scenario) -> str:
    """Canonical text for a scenario; parse(serialize(parse(f))) round-trips."""
    out = [
        "[scenario]",
        f"name = {scn.name}",
        f"units = {scn.units}",
        f"seed = {scn.seed}",
        "",
    ]
    if scn.constituents:
        out += ["[constituents]", f"names = {' '.join(scn.constituents)}", ""]
    if scn.network is not None:
        rows = " ; ".join(
            " ".join(_fmt(x) for x in row) for row in scn.network.stoich
        )
        out += ["[network]", f"names = {' '.join(scn.network_names)}", f"nu = {rows}", ""]
    for kind, bucket in (
        ("system", scn.systems), ("reservoir", scn.reservoirs),
        ("weight", scn.weights), ("state", scn.states), ("pair", scn.pairs),
        ("schedule", scn.schedules), ("equilibrium", scn.problems),
        ("reference_env", scn.ref_envs), ("table", scn.tables),
        ("joint", scn.joints),
    ):
        for name, decl in bucket.items():
            out.append(f"[{kind} {name}]")
            for key, value in decl.items():
                if key.startswith("_"):
                    continue
                out.append(f"{key} = {_fmt_value(value)}")
            out.append("")
    return "\n".join(out)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
