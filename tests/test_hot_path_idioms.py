"""Guards for two per-instruction costs that cProfile cannot show.

DESIGN.md section 9: on CPython 3.11 a class-level enum lookup such as
``UopKind.LOAD`` runs ``EnumType.__getattr__`` through a slot wrapper,
and ``c[k] += n`` on a plain ``Counter`` runs ``Counter``'s Python-level
item-assignment slot.  cProfile lists neither; it adds their time to the
caller's own.  The modules whose code runs per instruction or per
MicroOp therefore bind enum members to module names at import, and
SimStats counts into :class:`StatCounter`.
"""

import dataclasses
import dis
import enum
import importlib
import inspect
import pickle
import types
from collections import Counter

import pytest

from repro.uarch import stats as stats_module
from repro.uarch.stats import LoadKind, SimStats

PER_INSTRUCTION_MODULES = (
    "repro.uarch.pipeline",
    "repro.uarch.uops",
    "repro.uarch.storebuffer",
    "repro.uarch.branch",
    "repro.uarch.distance_predictor",
    "repro.uarch.tage_predictor",
    "repro.kernel.cpu",
    "repro.isa.instructions",
)

COUNTER_FIELDS = ("energy_events", "load_kind", "load_exec_time",
                  "lowconf_outcome", "squash_causes")


def _code_objects(code):
    """``code`` and every code object nested in it: functions, methods,
    properties, class bodies, lambdas and comprehensions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_member_loads(module_name):
    """``(function, "Enum.MEMBER")`` for each global enum class whose
    attribute a function of the module loads at run time.  Module and
    class bodies load globals by name (``LOAD_NAME``), so the bindings
    made once at import are not reported."""
    module = importlib.import_module(module_name)
    path = inspect.getsourcefile(module)
    with open(path) as handle:
        top = compile(handle.read(), path, "exec")
    namespace = vars(module)
    sites = []
    for code in _code_objects(top):
        instructions = list(dis.get_instructions(code))
        for first, second in zip(instructions, instructions[1:]):
            if (first.opname == "LOAD_GLOBAL"
                    and second.opname in ("LOAD_ATTR", "LOAD_METHOD")
                    and isinstance(namespace.get(first.argval),
                                   enum.EnumMeta)):
                sites.append((getattr(code, "co_qualname", code.co_name),
                              "%s.%s" % (first.argval, second.argval)))
    return sites


@pytest.mark.parametrize("module_name", PER_INSTRUCTION_MODULES)
def test_no_enum_member_lookup_at_run_time(module_name):
    sites = enum_member_loads(module_name)
    assert not sites, (
        "%s looks up enum members at run time; bind them to module names "
        "at import instead:\n%s" % (module_name, "\n".join(
            "  %s: %s" % site for site in sites)))


@pytest.mark.parametrize("module_name", PER_INSTRUCTION_MODULES)
def test_bound_names_name_their_members(module_name):
    # The bindings unpack tuples of members; a name paired with the
    # wrong member would test against the wrong value everywhere.
    module = importlib.import_module(module_name)
    wrong = ["%s = %r" % (name, value)
             for name, value in vars(module).items()
             if isinstance(value, enum.Enum)
             and name != value.name and not name.endswith("_" + value.name)]
    assert not wrong, wrong


def test_simstats_counters_count_at_dict_speed():
    StatCounter = stats_module.StatCounter
    stats = SimStats()
    for name in COUNTER_FIELDS:
        value = getattr(stats, name)
        assert type(value) is StatCounter, name
        assert isinstance(value, Counter), name
    assert StatCounter.__delitem__ is dict.__delitem__
    # The field list above is every Counter-typed SimStats field.
    assert {f.name for f in dataclasses.fields(SimStats)
            if f.type in ("Counter", Counter)} == set(COUNTER_FIELDS)


def test_stat_counter_keeps_counter_behaviour():
    StatCounter = stats_module.StatCounter
    counter = StatCounter()
    counter["rename"] += 2
    counter[LoadKind.DIRECT] += 1
    counter["alu_op"] += 2
    counter["rename"] += 1
    assert counter["missing"] == 0 and "missing" not in counter
    assert list(counter.items()) == [("rename", 3), (LoadKind.DIRECT, 1),
                                     ("alu_op", 2)]
    assert counter.most_common(1) == [("rename", 3)]
    clone = pickle.loads(pickle.dumps(counter))
    assert type(clone) is StatCounter
    assert list(clone.items()) == list(counter.items())
    del counter["alu_op"]
    assert "alu_op" not in counter
