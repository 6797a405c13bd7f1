"""Scenario files: the plain-text declaration of the largest isolated system
under study (constituents, network, models, reservoirs, states, processes,
equilibrium problems, reference environment, output tables).

Grammar: '#' comments; '[kind name]' section headers; 'key = value' lines.
A value is whitespace-separated tokens (numbers, fractions like 3/2, or
words); ';' separates the rows of a matrix or the steps of a schedule.
Tokens are kept as written; ``SCHEMA`` says what every key of every section
holds, and validation and the builders both read keys through it.  The exact
grammar is documented in the README.  Only here are SI values read: ``_get``
divides what ``SCHEMA`` marks as an energy or a pressure by k_B, and
``build_model`` shifts each s0, so the core runs in reduced units (k_B = 1).
"""

from __future__ import annotations

import math
from functools import partial

from .errors import DomainError, FrozenRecord, ParseError, RangeExceeded, Record
from .matter_models import (
    IdealGasMixture,
    Parameters,
    Species,
    SystemState,
    ThermalReservoir,
    entropy_of,
)
from .process_engine import DirectContact, Isentropic, IsothermalContact, Schedule
from .stoichiometry import Composition, ReactionNetwork, validate_elemental_set

#: Boltzmann constant (J/K), by which an SI file's energies and pressures are divided.
KB_SI = 1.380649e-23


class Spec(FrozenRecord):
    """How one key of a section is read: its type (a key of ``_TYPES``), a check
    on its numbers or names (a key of ``_CHECKS``), the words it may be, its
    shape ('species': one entry, in each row, per species of the system the
    section declares or names; or a fixed count), its default (repeated per
    species then), the kind of section, or 'constituent', it refers to, and
    its 'energy' or 'pressure' unit (a schedule's in its heat= and energy=)."""

    __slots__ = ("type", "check", "choices", "shape", "default", "required", "ref", "unit")

    def __init__(self, type: str, check: str | None = None, choices: tuple = (),
                 shape: str | int | None = None, default: object = None,
                 required: bool = False, ref: str | None = None, unit: str | None = None):
        self._set_type(self, type)
        self._set_check(self, check)
        self._set_choices(self, choices)
        self._set_shape(self, shape)
        self._set_default(self, default)
        self._set_required(self, required)
        self._set_ref(self, ref)
        self._set_unit(self, unit)


SCHEMA = {
    "scenario": {"name": Spec("word", default="scenario"),
                 "units": Spec("word", choices=("reduced", "si"), default="reduced"),
                 "seed": Spec("integer", check="non-negative", default=0)},
    "constituents": {"names": Spec("words", default=())},
    "network": {"nu": Spec("rows", required=True), "names": Spec("words")},
    "system": {"species": Spec("words", check="distinct", ref="constituent"),
               "dof": Spec("numbers", check="at least 1", shape="species", default=3.0),
               "e0": Spec("numbers", shape="species", default=0.0, unit="energy"),
               "s0": Spec("numbers", shape="species", default=0.0),
               "amounts": Spec("numbers", check="non-negative", shape="species",
                               default=1.0),
               "volume": Spec("number", check="positive", default=1.0)},
    "reservoir": {"temperature": Spec("number", check="positive", required=True),
                  "energy": Spec("number", default=0.0, unit="energy"),
                  "range": Spec("numbers", shape=2, default=(-math.inf, math.inf),
                                unit="energy")},
    # a state without volume or amounts takes its system's
    "state": {"system": Spec("word", required=True, ref="system"),
              "energy": Spec("number", required=True, unit="energy"),
              "volume": Spec("number", check="positive"),
              "amounts": Spec("numbers", check="non-negative", shape="species")},
    "pair": {"from": Spec("word", required=True, ref="state"),
             "to": Spec("word", required=True, ref="state"),
             "reservoir": Spec("word", required=True, ref="reservoir")},
    "schedule": {"system": Spec("word", required=True, ref="system"),
                 "start": Spec("word", required=True, ref="state"),
                 "reservoir": Spec("word", required=True, ref="reservoir"),
                 "steps": Spec("steps", required=True, unit="energy")},
    "equilibrium": {"systems": Spec("words", required=True, ref="system"),
                    "energy": Spec("number", required=True, unit="energy"),
                    "reactive": Spec("flag", default=False)},
    "reference_env": {"basis": Spec("word", required=True, ref="system"),
                      "elemental": Spec("words", check="distinct", required=True),
                      "temperature": Spec("number", check="positive", required=True),
                      "pressure": Spec("number", check="positive", required=True,
                                       unit="pressure"),
                      "convention": Spec("word", choices=("chemical", "natural"),
                                         default="chemical")},
    "table": {"system": Spec("word", required=True, ref="system"),
              "env": Spec("word", required=True, ref="reference_env"),
              "energies": Spec("numbers", required=True, unit="energy"),
              "volumes": Spec("numbers", check="positive", required=True),
              "compositions": Spec("rows", check="non-negative", shape="species",
                                   required=True),
              "reactive": Spec("flag", default=False)},
    "joint": {"file": Spec("word", required=True)},
}

#: Named sections and the Scenario field holding their declarations; the
#: other kinds are read into the Scenario while parsing.
_BUCKETS = {
    "system": "systems", "reservoir": "reservoirs", "state": "states", "pair": "pairs",
    "schedule": "schedules", "equilibrium": "problems", "reference_env": "ref_envs",
    "table": "tables", "joint": "joints",
}

#: check -> (test of a value's numbers or names, what it asks in messages)
_CHECKS = {
    "positive": (lambda items: min(items) > 0, "be positive"),
    "non-negative": (lambda items: min(items) >= 0, "be non-negative"),
    "at least 1": (lambda items: min(items) >= 1, "be at least 1"),
    "distinct": (lambda items: len(set(items)) == len(items), "not name anything twice"),
}

_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}

#: Schedule step (operation, key) -> the primitive it makes from the key's value.
_STEPS = {
    ("isentropic", "volume"): lambda v: Isentropic(Parameters([v])),
    ("isothermal", "volume"): lambda v: IsothermalContact(target_params=Parameters([v])),
    ("isothermal", "energy"): lambda v: IsothermalContact(target_energy=v),
    ("direct", "heat"): DirectContact,
}


class Section(Record):
    __slots__ = ("kind", "name", "entries", "line")

    def __init__(self, kind: str, name: str, entries: dict, line: int):
        self.kind, self.name, self.entries, self.line = kind, name, entries, line


class Issue(Record):
    """One validation finding; ``category`` is 'schema' or 'integrity'."""

    __slots__ = ("category", "where", "message")

    def __init__(self, category: str, where: str, message: str):
        self.category, self.where, self.message = category, where, message

    def __str__(self) -> str:
        return f"[{self.category}] {self.where}: {self.message}"


class Scenario(Record):
    """A parsed scenario; ``_BUCKETS`` names its dicts of declarations."""

    __slots__ = ("name", "units", "seed", "constituents", "network_names", "network",
                 "systems", "reservoirs", "states", "pairs", "schedules", "problems",
                 "ref_envs", "tables", "joints")

    def __init__(self, name: str = "scenario", units: str = "reduced", seed: int = 0,
                 constituents: tuple = (), network_names: tuple = (),
                 network: ReactionNetwork | None = None, systems: dict | None = None,
                 reservoirs: dict | None = None, states: dict | None = None,
                 pairs: dict | None = None, schedules: dict | None = None,
                 problems: dict | None = None, ref_envs: dict | None = None,
                 tables: dict | None = None, joints: dict | None = None):
        self.name, self.units, self.seed = name, units, seed
        self.constituents, self.network_names, self.network = constituents, network_names, network
        self.systems = {} if systems is None else systems
        self.reservoirs = {} if reservoirs is None else reservoirs
        self.states = {} if states is None else states
        self.pairs = {} if pairs is None else pairs
        self.schedules = {} if schedules is None else schedules
        self.problems = {} if problems is None else problems
        self.ref_envs = {} if ref_envs is None else ref_envs
        self.tables = {} if tables is None else tables
        self.joints = {} if joints is None else joints

    @property
    def kb(self) -> float:
        return KB_SI if self.units == "si" else 1.0


def _parse_value(raw: str):
    """Tokens of one value, as text; multiple ';'-separated groups become a
    list of rows."""
    if ";" in raw:
        return [part.split() for part in raw.split(";")]
    toks = raw.split()
    return toks[0] if len(toks) == 1 else toks


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
            if kind not in SCHEMA:
                raise ParseError(f"unknown section kind '{kind}'", lineno)
            name = header[1] if len(header) > 1 else kind
            if len(header) > 2:
                raise ParseError("section header has too many tokens", lineno)
            # sections read while parsing are one per file, whatever their name
            if any(s.kind == kind and (s.name == name or kind not in _BUCKETS) for s in sections):
                raise ParseError(f"duplicate {kind} '{name}'", lineno)
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


# typed reads: parsed tokens -> values, as SCHEMA specifies


def _number(tok: str) -> float:
    """A finite number written as an int, a float or a rational like 3/2; nan,
    inf and overflowing literals such as 1e999 are not numbers."""
    try:
        value = float(tok)
    except ValueError:
        from fractions import Fraction  # imported for a rational alone, which is rare

        try:
            value = float(Fraction(tok))
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(tok) from None
    if not math.isfinite(value):
        raise ValueError(tok)
    return value


def _step(row) -> tuple:
    """One schedule step 'operation key=value' as (operation, key, value)."""
    op, arg = row
    key, _, value = arg.partition("=")
    if (op, key) not in _STEPS:
        raise ValueError(row)
    return op, key, _number(value)


#: type -> (reader of a token, or of a row for rows and steps; what it expects)
_TYPES = {
    "word": (str, "one word"),
    "words": (str, "words"),
    "number": (_number, "a number"),
    "integer": (int, "an integer"),
    "numbers": (_number, "numbers"),
    "rows": (lambda row: [_number(tok) for tok in row], "';'-rows of numbers of one length"),
    "flag": (lambda tok: _FLAGS[tok.lower()], "true or false"),
    "steps": (_step, "';'-separated steps such as 'isentropic volume=2'"),
}


def _typed(kind: str, entries: dict, key: str, n_species: int | None = None):
    """``entries[key]`` read as ``SCHEMA[kind][key]`` specifies, or the key's
    default; ParseError names the first way the value misses its spec.
    ``n_species`` sizes per-species keys; None leaves their shape unchecked."""
    spec = SCHEMA[kind][key]
    if key not in entries:
        if spec.required:
            raise ParseError(f"'{key}' is required")
        if spec.shape == "species" and spec.default is not None and n_species is not None:
            return [spec.default] * n_species
        return spec.default
    raw = entries[key]
    read, expected = _TYPES[spec.type]
    nested = isinstance(raw, list) and isinstance(raw[0], list)
    rows = raw if nested else [raw if isinstance(raw, list) else [raw]]
    try:
        if spec.type in ("rows", "steps"):
            value = [read(row) for row in rows]
            if spec.type == "rows" and (not rows[0] or len(set(map(len, rows))) != 1):
                raise ValueError(raw)
        elif nested:
            raise ValueError(raw)
        else:
            value = [read(tok) for tok in rows[0]]
            if spec.type not in ("words", "numbers"):
                (value,) = value
    except (LookupError, TypeError, ValueError):
        problem = f"expects {expected}"
    else:
        typed = value if spec.type == "rows" else [value if isinstance(value, list) else [value]]
        holds, asks = _CHECKS.get(spec.check, (None, None))
        length = n_species if spec.shape == "species" else spec.shape
        if spec.choices and value not in spec.choices:
            problem = f"must be one of {', '.join(spec.choices)}"
        elif holds and not holds([x for row in typed for x in row]):
            problem = f"must {asks}"
        elif length is not None and any(len(row) != length for row in typed):
            problem = f"needs {length} entries" + (" (one per species)" if n_species else "")
        else:
            return value
    raise ParseError(f"'{key}' {problem}, got '{_fmt_value(raw)}'")


def _reduced(key: str, spec: Spec, value):
    """An SI energy or pressure (a schedule's heat= and energy=) over k_B;
    ParseError for a finite value whose quotient overflows."""
    def divide(x: float) -> float:
        if math.isfinite(x) and not math.isfinite(x / KB_SI):
            raise ParseError(f"'{key}' holds {x:.6g}, which has no finite value in reduced units")
        return x / KB_SI
    if spec.type == "steps":
        return [(op, k, v if k == "volume" else divide(v)) for op, k, v in value]
    # a per-species default stays one number while the species are unreadable
    return [divide(x) for x in value] if isinstance(value, (list, tuple)) else divide(value)


def _get(scn: Scenario, kind: str, name: str, key: str, memo: dict | None = None):
    """Typed value of ``key`` in the declaration ``name`` of ``kind``, in
    reduced units: the one accessor validation and the builders read
    declarations through.  ``memo`` keeps the typed values, keyed by
    (kind, name, key), across the calls sharing it."""
    if memo is not None and (kind, name, key) in memo:
        return memo[kind, name, key]
    decl = getattr(scn, _BUCKETS[kind])[name]
    if kind == "system" and key == "species" and key not in decl:
        return [name]  # a system without a species list holds one species, itself
    n_species = None
    if SCHEMA[kind][key].shape == "species":
        try:  # the system's species; unknown while it is undeclared or malformed
            system = name if kind == "system" else _get(scn, kind, name, "system", memo)
            n_species = len(_get(scn, "system", system, "species", memo))
        except (KeyError, ParseError):
            pass
    value = _typed(kind, decl, key, n_species)
    if scn.units == "si" and SCHEMA[kind][key].unit:
        value = _reduced(key, SCHEMA[kind][key], value)
    if memo is not None:
        memo[kind, name, key] = value
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into the declaration object.  The scenario,
    constituents and network sections are read here, so any problem in them
    is a ParseError; other sections keep their raw tokens for validation."""
    scn = Scenario()
    for sec in parse_sections(text):
        if sec.kind in _BUCKETS:
            getattr(scn, _BUCKETS[sec.kind])[sec.name] = dict(sec.entries, _line=sec.line)
            continue
        try:
            unknown = [key for key in sec.entries if key not in SCHEMA[sec.kind]]
            if unknown:
                raise ParseError(f"unknown key '{unknown[0]}'")
            get = partial(_typed, sec.kind, sec.entries)
            if sec.kind == "scenario":
                scn.name, scn.units, scn.seed = get("name"), get("units"), get("seed")
            elif sec.kind == "constituents":
                scn.constituents = tuple(get("names"))
            else:
                scn.network = ReactionNetwork(get("nu"))
                scn.network_names = tuple(
                    get("names") or (f"r{i + 1}" for i in range(scn.network.n_reactions))
                )
        except (ParseError, ValueError) as exc:  # ValueError: a network column of zeros
            raise ParseError(str(exc), sec.line) from None
    return scn


# builders: declaration -> live objects


def _start(scn: Scenario, system_name: str, state_name: str | None = None, memo=None):
    """A system's declared parameters and composition, or those a state of it declares."""
    own = scn.states[state_name] if state_name else {}
    volume, amounts = (_get(scn, "state", state_name, key, memo) if key in own
                       else _get(scn, "system", system_name, key, memo)
                       for key in ("volume", "amounts"))
    return Parameters([volume]), Composition(amounts)


def build_model(scn: Scenario, system_name: str, memo=None) -> IdealGasMixture:
    """The system's mixture, each s0 plus (dof/2) ln k_B (0 unless in SI units)."""
    get = partial(_get, scn, "system", system_name, memo=memo)
    log_kb = math.log(scn.kb)
    species = zip(get("species"), get("dof"), get("e0"), get("s0"))
    return IdealGasMixture([Species(nm, dof, e0, s0 + 0.5 * dof * log_kb)
                            for nm, dof, e0, s0 in species])


def build_reservoir(scn: Scenario, name: str, memo=None) -> ThermalReservoir:
    get = partial(_get, scn, "reservoir", name, memo=memo)
    e_min, e_max = get("range")
    return ThermalReservoir(get("temperature"), get("energy"), e_min, e_max)


def build_state(scn: Scenario, state_name: str, memo=None) -> tuple[str, SystemState]:
    get = partial(_get, scn, "state", state_name, memo=memo)
    system_name = get("system")
    params, comp = _start(scn, system_name, state_name, memo)
    return system_name, SystemState(get("energy"), params, comp)


def build_schedule_steps(scn: Scenario, sched_name: str) -> Schedule:
    """Decode 'steps = isentropic volume=2 ; direct heat=0.5 ; ...'."""
    steps = _get(scn, "schedule", sched_name, "steps")
    return Schedule(tuple(_STEPS[op, key](value) for op, key, value in steps))


def build_problem(scn: Scenario, prob_name: str):
    from .equilibrium import EquilibriumProblem

    get = partial(_get, scn, "equilibrium", prob_name)
    systems = get("systems")
    params, n0 = zip(*(_start(scn, s) for s in systems))
    return EquilibriumProblem([build_model(scn, s) for s in systems], params, n0,
                              get("energy"), network=scn.network if get("reactive") else None)


def build_reference_env(scn: Scenario, env_name: str):
    from .open_systems import ReferenceEnvironment

    get = partial(_get, scn, "reference_env", env_name)
    basis = build_model(scn, get("basis"))
    elemental = tuple(basis.names.index(nm) for nm in get("elemental"))
    species_models = tuple(IdealGasMixture([basis.species[i]]) for i in elemental)
    maker = (ReferenceEnvironment.chemical_convention if get("convention") == "chemical"
             else ReferenceEnvironment.natural_convention)
    return maker(basis.names, elemental, scn.network, species_models,
                 get("temperature"), get("pressure"))


def build_grid(scn: Scenario, table_name: str):
    from .open_systems import OpenGrid

    get = partial(_get, scn, "table", table_name)
    reactive = get("reactive")
    return OpenGrid(get("energies"), get("volumes"), get("compositions"), reactive,
                    network=scn.network if reactive else None)


def validate_scenario(scn: Scenario) -> list[Issue]:
    """Schema, referential-integrity and physics checks; empty list means clean.

    Every key of every declaration is read through its spec (schema issues,
    as are keys the schema does not list), and every name a reference key
    holds must be declared (integrity issues).  The cross-section checks
    after that build objects, so they run only once both pass."""
    issues: list[Issue] = []
    memo: dict = {}  # typed values, each read once

    def schema(where, message):
        issues.append(Issue("schema", where, message))

    def integrity(where, message):
        issues.append(Issue("integrity", where, message))

    net = scn.network
    if net is not None and scn.constituents and net.n_constituents != len(scn.constituents):
        integrity("network", f"network has {net.n_constituents} rows but "
                             f"{len(scn.constituents)} constituents are declared")

    for kind, bucket in _BUCKETS.items():
        for name, decl in getattr(scn, bucket).items():
            for key in decl:
                if key not in SCHEMA[kind] and key != "_line":
                    schema(name, f"unknown key '{key}'")
            for key, spec in SCHEMA[kind].items():
                try:
                    value = _get(scn, kind, name, key, memo)
                except ParseError as exc:
                    schema(name, str(exc))
                    continue
                # species are free while no constituents section lists them
                if spec.ref is None or (spec.ref == "constituent" and not scn.constituents):
                    continue
                declared = (scn.constituents if spec.ref == "constituent"
                            else getattr(scn, _BUCKETS[spec.ref]))
                for target in ([value] if isinstance(value, str) else value):
                    if target not in declared:
                        integrity(name, f"{key} '{target}' is not a declared {spec.ref}")
    if issues:
        return issues

    get = partial(_get, scn, memo=memo)
    for name in scn.reservoirs:
        try:
            build_reservoir(scn, name, memo)
        except RangeExceeded as exc:
            integrity(name, str(exc))
    for name in scn.pairs:
        if len({get("state", get("pair", name, end), "system") for end in ("from", "to")}) > 1:
            integrity(name, "pair endpoints belong to different systems")
    for name in scn.schedules:
        start = get("schedule", name, "start")
        if get("state", start, "system") != get("schedule", name, "system"):
            integrity(name, "schedule starts from a state of another system")

    # declarations the network acts on, with the systems it spans
    spans = [(name, get("equilibrium", name, "systems")) for name in scn.problems
             if get("equilibrium", name, "reactive")]
    spans += [(name, [get("table", name, "system")]) for name in scn.tables
              if get("table", name, "reactive")]
    spans += [(name, [get("reference_env", name, "basis")]) for name in scn.ref_envs]
    for name, systems in spans:
        n_species = sum(len(get("system", s, "species")) for s in systems)
        if net is None:
            integrity(name, "needs a network, but none is declared")
        elif net.n_constituents != n_species:
            integrity(name, f"network has {net.n_constituents} rows but its "
                            f"systems hold {n_species} species")

    for name in scn.ref_envs:
        names = get("system", get("reference_env", name, "basis"), "species")
        elemental = get("reference_env", name, "elemental")
        missing = [nm for nm in elemental if nm not in names]
        if missing:
            integrity(name, f"elemental species {missing} not in basis system")
        elif net is not None and net.n_constituents == len(names):
            report = validate_elemental_set([names.index(nm) for nm in elemental], net)
            if not report.complete:
                integrity(name, f"elemental set incomplete: constituents "
                                f"{report.unreachable} unreachable")
            if not report.independent:
                integrity(name, f"elemental set not independent: reactions "
                                f"{report.violating_reactions} live on the set")

    models = {}
    for name in scn.systems:
        try:
            models[name] = build_model(scn, name, memo)
        except ValueError as exc:  # an SI s0 whose shift overflows
            schema(name, f"'s0' in reduced units: {exc}")
    for name in scn.states:
        system_name, st = build_state(scn, name, memo)
        try:
            if system_name in models:  # else its s0 is reported
                entropy_of(models[system_name], st)
        except DomainError as exc:
            integrity(name, f"state outside model domain: {exc}")
    return issues


def _fmt(x) -> str:
    """Text of a number or flag, in CSV cells and serialized scenarios: floats
    with round-trip precision and bools as true or false."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _fmt_value(value) -> str:
    """A value's tokens as written."""
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return " ; ".join(" ".join(row) for row in value)
        return " ".join(value)
    return value


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
        rows = " ; ".join(" ".join(map(_fmt, row)) for row in scn.network.rows)
        out += ["[network]", f"names = {' '.join(scn.network_names)}", f"nu = {rows}", ""]
    for kind, bucket in _BUCKETS.items():
        for name, decl in getattr(scn, bucket).items():
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
