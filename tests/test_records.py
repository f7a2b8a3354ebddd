"""What the package's record classes promise their callers.

Schedules, urn states and experiment configs are values: equal fields make
equal, equally hashed records, and they pickle (the process pool sends the
schedule to its workers).  The three records that hold arrays compare and
hash by identity.  Frozen records refuse assignment, and a copy with changed
fields is validated again.
"""

import importlib.resources
import math
import pickle

import numpy as np
import pytest

from polyagraph.configio import load_config, parse_config_text, read_config
from polyagraph.exact import Pmf, pmf_constant_delta_dp
from polyagraph.experiments import ExperimentConfig, run_monte_carlo
from polyagraph.graphs import graph_from_draws
from polyagraph.schedules import Constant, NaturalLog, RationalSegments, Stepped, Table
from polyagraph.urn import UrnState


def _config(**changes):
    fields = dict(model="polya", schedule_spec="const:1", t=5, replicates=2, seed=1)
    return ExperimentConfig(**{**fields, **changes})


# Each maker returns an equal but distinct value on every call; ``other`` makes one that
# differs in one field.  Both are called inside the tests, so a constructor that changes
# fails the tests that use it rather than the collection of this module.
VALUES = {
    "Constant": (lambda: Constant(2.5), lambda: Constant(3.0)),
    "NaturalLog": (lambda: NaturalLog(), lambda: Constant(0.0)),
    "Stepped": (lambda: Stepped(ends=(3.0, math.inf), levels=(1.0, 2.0)),
                lambda: Stepped(ends=(4.0, math.inf), levels=(1.0, 2.0))),
    "RationalSegments": (lambda: RationalSegments(ends=(2.0, math.inf), kinds=("const", "over_t"),
                                                  params=(1.0, 4.0)),
                         lambda: RationalSegments(ends=(2.0, math.inf), kinds=("const", "const"),
                                                  params=(1.0, 4.0))),
    "Table": (lambda: Table(entries=(1.0, 0.5)), lambda: Table(entries=(1.0, 0.25))),
    "UrnState": (lambda: UrnState(weights=(2, 1)), lambda: UrnState(weights=(1, 2))),
    "ExperimentConfig": (lambda: _config(), lambda: _config(seed=2)),
}
SCHEDULES = ["Constant", "NaturalLog", "Stepped", "RationalSegments", "Table"]


@pytest.mark.parametrize("name", VALUES)
def test_value_records_compare_and_hash_by_their_fields(name):
    make, make_other = VALUES[name]
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


def test_records_of_different_classes_are_unequal():
    assert Constant(1.0) != Table(entries=(1.0,))
    assert Stepped(ends=(math.inf,), levels=(1.0,)) != Constant(1.0)


@pytest.mark.parametrize("name", SCHEDULES + ["ExperimentConfig"])
def test_value_records_survive_a_pickle_round_trip(name):
    value = VALUES[name][0]()
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value and hash(copy) == hash(value)


def test_a_pickled_schedule_still_evaluates():
    schedule = pickle.loads(pickle.dumps(VALUES["RationalSegments"][0]()))
    assert schedule.values(4).tolist() == [1.0, 1.0, 4.0 / 3.0, 1.0]


ARRAY_RECORDS = {
    "Pmf": lambda: pmf_constant_delta_dp(2, 5, 1.0),
    "EvolvingGraph": lambda: graph_from_draws(np.array([1, 1])),
    "MonteCarloResult": lambda: run_monte_carlo(_config(model="ba", schedule_spec=None)),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b and not a == b
    assert hash(a) == object.__hash__(a)
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("make", [
    lambda: Constant(1.0),
    lambda: NaturalLog(),
    lambda: VALUES["Stepped"][0](),
    lambda: VALUES["RationalSegments"][0](),
    lambda: VALUES["Table"][0](),
    UrnState,
    lambda: _config(),
    *ARRAY_RECORDS.values(),
], ids=[*SCHEDULES, "UrnState", "ExperimentConfig", *ARRAY_RECORDS])
def test_frozen_records_refuse_assignment(make):
    record = make()
    before = repr(record)
    for name in [*vars(record), "new_attribute"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_repr_names_each_field():
    assert repr(Constant(2.5)) == "Constant(delta=2.5)"
    assert repr(NaturalLog()) == "NaturalLog()"
    assert repr(Table(entries=(1.0,))) == "Table(entries=(1.0,))"
    assert repr(UrnState()) == "UrnState(weights=(1,))"
    assert repr(_config()) == (
        "ExperimentConfig(model='polya', schedule_spec='const:1', t=5, replicates=2, seed=1, "
        "outputs=('degree_distribution', 'birth_time', 'summary'), out=None)")


def test_repr_leaves_out_the_array_fields():
    assert repr(ARRAY_RECORDS["Pmf"]()) == "Pmf(color=2)"
    result = ARRAY_RECORDS["MonteCarloResult"]()
    assert repr(result) == f"MonteCarloResult(config={result.config!r}, processes=1)"


def test_required_fields_and_defaults():
    config = ExperimentConfig(model="ba", t=5, replicates=1, seed=0)
    assert config.schedule_spec is None and config.out is None
    assert config.outputs == ("degree_distribution", "birth_time", "summary")
    with pytest.raises(TypeError):
        ExperimentConfig(model="ba", t=5, replicates=1)
    with pytest.raises(TypeError):
        ExperimentConfig(model="ba", t=5, replicates=1, seed=0, colour="red")
    with pytest.raises(TypeError):
        Constant()
    with pytest.raises(TypeError):
        Constant(1.0, 2.0)
    with pytest.raises(TypeError):
        Constant(1.0, delta=2.0)
    assert Constant(delta=2.0) == Constant(2.0)
    assert Pmf(1, [0.5, 0.5]).probs.dtype == np.float64


def test_a_frozen_graph_still_caches_its_degrees():
    graph = ARRAY_RECORDS["EvolvingGraph"]()
    assert graph.degrees is graph.degrees
    assert graph.degrees.tolist() == [0, 3, 1, 1]
    assert "degrees" in vars(graph)


def test_a_changed_config_is_validated_again(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = polya\nschedule = const:1\nt = 5\nreplicates = 3\nseed = 1\n")
    base = load_config(cfg)

    def over(config, **texts):
        return read_config([("flags", key, text) for key, text in texts.items()], config,
                           "flags", None)

    assert over(base, seed="7") == _config(replicates=3, seed=7)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        over(base, seed="-1")
    with pytest.raises(ValueError, match="model 'ba' takes no schedule"):
        over(base, model="ba", schedule="ln")
    bundled = importlib.resources.files("polyagraph") / "repro" / "fig3.cfg"
    fig3 = parse_config_text(bundled.read_text(), source="repro:fig3.cfg")
    with pytest.raises(ValueError, match="horizon must be >= 0, got -1"):
        over(fig3, t="-1")
    assert over(fig3, replicates="9").replicates == 9
