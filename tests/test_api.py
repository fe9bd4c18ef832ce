"""The Python API from a caller's side: every function and dataclass export and the array rule."""

import dataclasses
import inspect

import numpy as np
import pytest

import usdkit
from usdkit import analysis, experiment, states
from usdkit.errors import UsdError

BASIS = states.build_basis(3, 0.5)
CONFIG = experiment.ExperimentConfig()
RECORD = experiment.run_experiment(BASIS, CONFIG, 1)
OUTCOMES = analysis.outcome_table(RECORD)
RAGGED = [[1.0], [1.0, 2.0]]

#: valid arguments of each function that usdkit exports
VALID = {
    "classify": (0.1, 0.01, 0.15),
    "gaussian_propagation": (RECORD,),
    "normalize_probabilities": (OUTCOMES.quantum_contrast,),
    "outcome_table": (RECORD,),
    "quantum_contrast": (RECORD,),
    "summarize_probabilities": (OUTCOMES.probabilities,),
    "apply_noise": (states.ideal_detection_matrix(BASIS), CONFIG),
    "epsilon_for_percell_error": (3, 0.01),
    "expected_record": (BASIS, CONFIG),
    "run_experiment": (BASIS, CONFIG, 1),
    "run_repetitions": (BASIS, CONFIG, [1, 2]),
    "spiral_weights": (states.oam_map(3), 2.4),
    "build_basis": (3, 0.5),
    "ideal_detection_matrix": (BASIS,),
    "oam_map": (3,),
    "residuals": (BASIS,),
    "mesd_bound": (3, 0.5),
    "mesd_bound_from_overlap": (0.5,),
    "mesd_error_symmetric": (3, 0.5),
    "overlap": (3, 0.5),
    "theory_point": (3, 0.5),
    "theta_for_overlap": (3, 0.5),
    "theta_max": (3,),
    "usd_probabilities": (3, 0.5),
}
#: what replaces each argument in turn: no kind, a str, an int, and arrays of the wrong shape
WRONG = [None, "x", 3, np.ones(4), RAGGED, np.ones((3, 2))]


def test_every_function_export_has_valid_arguments():
    exports = {name for name, obj in vars(usdkit).items() if inspect.isfunction(obj)}
    assert exports == set(VALID)


@pytest.mark.parametrize("name", VALID)
def test_a_function_export_returns_or_raises_one_usd_error(name):
    function, args = getattr(usdkit, name), VALID[name]
    function(*args)
    raw = []
    for k in range(len(args)):
        for value in WRONG:
            try:
                function(*args[:k], value, *args[k + 1 :])
            except UsdError:
                pass
            except Exception as exc:  # any other kind is what this test finds
                raw.append((k, value, type(exc).__name__, str(exc)[:80]))
    assert raw == []


#: wrong arguments of a Python caller, each with what its one UsdError must name
WRONG_ARGUMENTS = {
    "contrast-int": (lambda: analysis.quantum_contrast(3), "got int"),
    "classify-negative-sigma": (
        lambda: analysis.classify(0.1, -1.0, 0.2), "mean_error_sigma must be >= 0, got -1.0"),
    "table-none": (lambda: analysis.outcome_table(None), "got NoneType"),
    "detection-int": (lambda: states.ideal_detection_matrix(3), "got int"),
    "residuals-none": (lambda: states.residuals(None), "got NoneType"),
    "repetitions-basis-none": (
        lambda: experiment.run_repetitions(None, CONFIG, [1]), "got NoneType"),
    "expected-basis-none": (lambda: experiment.expected_record(None, CONFIG), "got NoneType"),
    "seeds-none": (lambda: experiment.run_repetitions(BASIS, CONFIG, None), "got NoneType"),
    "seeds-int": (lambda: experiment.run_repetitions(BASIS, CONFIG, 3), "got int"),
    "build-ragged": (lambda: states.build_basis(3, RAGGED), "got [1.0]"),
    "family-str-vectors": (lambda: states.StateFamily(3, 0.5, "x"), "got 'x'"),
    "family-str-theta": (lambda: states.StateFamily(3, "x", BASIS.family.vectors), "got 'x'"),
    "basis-none-family": (
        lambda: states.DiscriminationBasis(None, BASIS.vectors), "got NoneType"),
    "record-ragged": (
        lambda: experiment.CountsRecord([[1], [1, 2]], [1, 1], [1, 1, 1], 30.0),
        "got [[1], [1, 2]]"),
    "summarize-short-rows": (
        lambda: analysis.summarize_probabilities(np.ones((3, 2))), "shape (..., d, d+1)"),
}


@pytest.mark.parametrize("call, named", WRONG_ARGUMENTS.values(), ids=WRONG_ARGUMENTS.keys())
def test_a_wrong_argument_is_one_usd_error_naming_what_it_got(call, named):
    with pytest.raises(UsdError) as err:
        call()
    assert named in str(err.value)


def array_fields(obj):
    """(owner, name, array) of every ndarray field of a dataclass and of those it holds."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from array_fields(value)
        elif isinstance(value, np.ndarray):
            yield obj, f.name, value


BUILT = {
    "basis": lambda: states.build_basis(4, np.array([0.3, 0.5])),
    "drawn-record": lambda: experiment.run_repetitions(BASIS, CONFIG, [1, 2]),
    "expected-record": lambda: experiment.expected_record(BASIS, CONFIG),
    "outcome-table": lambda: analysis.outcome_table(RECORD),
}


@pytest.mark.parametrize("build", BUILT.values(), ids=BUILT.keys())
def test_every_array_field_is_read_only_and_owned(build):
    fields = list(array_fields(build()))
    assert fields
    for owner, name, arr in fields:
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[...] = 0
        if name == "theta":  # a build's angles are its own, not a field the caller hands in
            continue
        given = np.array(arr)  # a caller's writable array, in the field's dtype
        rebuilt = getattr(dataclasses.replace(owner, **{name: given}), name)
        assert not rebuilt.flags.writeable and rebuilt.dtype == arr.dtype
        given[...] = 0
        assert np.array_equal(rebuilt, arr), name


def test_a_build_keeps_none_of_the_callers_angles():
    theta = np.array([0.3, 0.5])
    basis = states.build_basis(4, theta)
    theta[...] = 0.1
    assert basis.family.theta.tolist() == [0.3, 0.5]


def test_a_family_keeps_a_float_copy_of_the_callers_angles():
    theta = np.array([0.3, 0.5])
    family = states.StateFamily(4, theta, states.build_basis(4, [0.3, 0.5]).family.vectors)
    theta[0] = 0.9
    assert family.theta.tolist() == [0.3, 0.5] and not family.theta.flags.writeable
    assert type(states.StateFamily(3, np.float32(0.5), BASIS.family.vectors).theta) is float
    with pytest.raises(UsdError, match="^theta must be finite, got nan$"):  # a float array too
        states.StateFamily(4, np.array([0.3, np.nan]), family.vectors)


#: a valid instance of each dataclass that usdkit exports
INSTANCES = {
    "CountsRecord": RECORD,
    "DiscriminationBasis": BASIS,
    "ErrorSummary": analysis.summarize_probabilities(OUTCOMES.probabilities),
    "ExperimentConfig": CONFIG,
    "OamMap": states.oam_map(3),
    "OutcomeTable": OUTCOMES,
    "StateFamily": BASIS.family,
    "TheoryPoint": usdkit.theory_point(3, 0.5),
}


def test_every_dataclass_export_has_a_valid_instance():
    exports = {name for name, obj in vars(usdkit).items() if dataclasses.is_dataclass(obj)}
    assert exports == set(INSTANCES)


@pytest.mark.parametrize("name", INSTANCES)
def test_a_dataclass_export_builds_or_raises_one_usd_error(name):
    valid = INSTANCES[name]
    raw = []
    for f in (f for f in dataclasses.fields(valid) if f.init):
        for value in WRONG:
            try:
                dataclasses.replace(valid, **{f.name: value})
            except UsdError:
                pass
            except Exception as exc:  # any other kind is what this test finds
                raw.append((f.name, value, type(exc).__name__, str(exc)[:80]))
    assert raw == []
