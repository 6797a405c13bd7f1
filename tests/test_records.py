"""Value records: every record class compares by its fields, a frozen one
hashes by them and refuses assignment, a mutable one is unhashable, ``repr``
names every compared field, and copy rebuilds an equal record."""

import copy
import importlib
import pkgutil

import pytest

import entrokit
from entrokit.checks import CheckResult
from entrokit.correlations import JointState
from entrokit.equilibrium import EquilibriumProblem, EquilibriumSolution, _Point
from entrokit.errors import FrozenRecord, Record
from entrokit.matter_models import (
    Parameters,
    Species,
    SystemState,
    ThermalReservoir,
    ideal_gas_model,
    state,
)
from entrokit.open_systems import OpenGrid, OpenState, OpenTableRow, ReferenceEnvironment
from entrokit.process_engine import (
    DirectContact,
    Isentropic,
    IsothermalContact,
    ProcessRecord,
    Schedule,
)
from entrokit.scenario import Issue, Scenario, Section, Spec
from entrokit.stoichiometry import (
    Composition,
    ElementalSetReport,
    ReactionCoordinates,
    ReactionNetwork,
    validate_elemental_set,
)

#: Models compare by identity, so every example shares this one.
GAS = ideal_gas_model(3.0)

#: One factory per record class; each call builds a new, equal record.
EXAMPLES = {
    Composition: lambda: Composition([1.0, 2.0]),
    ReactionNetwork: lambda: ReactionNetwork([[-1.0], [1.0]]),
    ReactionCoordinates: lambda: ReactionCoordinates([0.5]),
    ElementalSetReport: lambda: validate_elemental_set([0], ReactionNetwork([[-1.0], [1.0]])),
    Parameters: lambda: Parameters([2.0]),
    SystemState: lambda: state(1.5, 1.0, [1.0]),
    Species: lambda: Species("gas", 3.0, -1.0, 2.0),
    ThermalReservoir: lambda: ThermalReservoir(1.0, 0.0, -5.0, 5.0),
    Isentropic: lambda: Isentropic(Parameters([2.0])),
    IsothermalContact: lambda: IsothermalContact(target_energy=1.0),
    DirectContact: lambda: DirectContact(0.5),
    Schedule: lambda: Schedule([DirectContact(0.5), Isentropic(Parameters([2.0]))]),
    ProcessRecord: lambda: ProcessRecord(state(1.5, 1.0, [1.0]), state(1.2, 2.0, [1.0]),
                                         0.1, 0.2, 0.0, True),
    JointState: lambda: JointState([[0.5, 0.0], [0.0, 0.5]], [0.0, 1.0], [0.0, 2.0]),
    CheckResult: lambda: CheckResult("check", True, 3, 0.0, "detail"),
    EquilibriumProblem: lambda: EquilibriumProblem((GAS,), (Parameters([1.0]),),
                                                   (Composition([1.0]),), 1.5),
    EquilibriumSolution: lambda: EquilibriumSolution(
        ReactionCoordinates([]), (1.5,), (state(1.5, 1.0, [1.0]),), 2.0, 1.0, (0.1,), (),
        0.0, False, (), False, 0),
    _Point: lambda: _Point([], [1.0], [Composition([1.0])], [1.5], 1.0, 2.0),
    ReferenceEnvironment: lambda: ReferenceEnvironment(
        ("X",), (0,), ReactionNetwork([[]]), (GAS,), 1.0, 1.0, [0.0], [0.0]),
    OpenState: lambda: OpenState(Composition([1.0]), 1.5, Parameters([1.0])),
    OpenGrid: lambda: OpenGrid([1.0, 2.0], [1.0], [[1.0]]),
    OpenTableRow: lambda: OpenTableRow(1.0, 1.0, (1.0,), 2.0, (), (1.0,), 1.0, 1.0, (0.5,)),
    Spec: lambda: Spec("number", check="positive", default=1.0),
    Section: lambda: Section("state", "s1", {"energy": "1"}, 3),
    Issue: lambda: Issue("schema", "state s1", "missing energy"),
    Scenario: lambda: Scenario(name="demo", systems={"gas": {}}),
}


def _record_classes() -> set:
    for info in pkgutil.iter_modules(entrokit.__path__):
        importlib.import_module(f"entrokit.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub is not FrozenRecord:
                found.add(sub)
    return found


def test_every_record_class_has_an_example():
    assert _record_classes() == set(EXAMPLES)


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and a != object()
    assert copy.copy(a) == a
    text = repr(a)
    assert text == repr(b) and text.startswith(f"{cls.__qualname__}(")
    assert all(f"{name}=" in text for name in cls._fields)
    if issubclass(cls, FrozenRecord):
        assert hash(a) == hash(b)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(b, name))
            with pytest.raises(AttributeError):
                delattr(a, name)
    else:
        with pytest.raises(TypeError):
            hash(a)
        last = cls._fields[-1]
        setattr(a, last, object())
        assert a != b
        delattr(a, last)
        assert not hasattr(a, last)
    assert not hasattr(a, "__dict__") or cls in (ReactionNetwork, ReferenceEnvironment)


def test_record_refuses_unknown_attributes():
    for record in (Parameters([1.0]), Section("state", "s1", {}, 1)):
        with pytest.raises(AttributeError):
            record.weight = 1.0


def test_composition_total_is_neither_compared_nor_shown():
    a, b = Composition([1.0, 2.0]), Composition([1.0, 2.0])
    object.__setattr__(b, "total", 99.0)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Composition(amounts=(1.0, 2.0))"
    assert Composition._fields == ("amounts",)


def test_cached_properties_stay_out_of_equality():
    net, again = ReactionNetwork([[-1.0], [1.0]]), ReactionNetwork([[-1.0], [1.0]])
    assert net.rank == 1 and "rank" in vars(net) and "rank" not in vars(again)
    assert net == again and hash(net) == hash(again)


def test_records_of_different_classes_with_equal_fields_differ():
    assert ReactionCoordinates([1.0]) != Parameters([1.0])
    assert Isentropic(Parameters([1.0])) != IsothermalContact(target_params=Parameters([1.0]))
