"""Virtual experiment: detection matrix, noise model, spiral envelope, counting."""

import dataclasses
import fractions
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from usdkit import analysis, errors, experiment, states, theory
from usdkit.errors import ConfigurationError, DomainError, InvalidDimensionError, UsdError


def make_setup(d, theta, **overrides):
    basis = states.build_basis(d, theta)
    return basis, experiment.ExperimentConfig(**overrides)


# ------------------------------------------------------- detection matrix


@pytest.mark.parametrize(
    "simulate",
    [
        lambda basis, config: experiment.run_repetitions(basis, config, (1, 2)),
        lambda basis, config: experiment.run_experiment(basis, config, 1),
        experiment.expected_record,
    ],
    ids=["run_repetitions", "run_experiment", "expected_record"],
)
def test_simulation_rejects_a_stacked_basis(simulate):
    basis, config = make_setup(3, [0.3, 0.5])
    with pytest.raises(DomainError, match=r"^a simulated basis takes one angle, got a stack of 2$"):
        simulate(basis, config)


def test_detection_matrix_orthogonal_limit():
    d = 4
    basis, _ = make_setup(d, theory.theta_max(d))
    matrix = experiment.ideal_detection_matrix(basis)
    assert np.allclose(matrix[:, :d], np.eye(d), atol=1e-12)
    assert np.max(matrix[:, d]) < 1e-12


def test_detection_matrix_near_zero_theta_is_inconclusive():
    basis, _ = make_setup(5, 1e-6)
    matrix = experiment.ideal_detection_matrix(basis)
    assert np.min(matrix[:, 5]) > 1.0 - 1e-10
    off = matrix[:, :5][~np.eye(5, dtype=bool)]
    assert np.max(off) < 1e-20


def test_detection_matrix_frozen_values_d6():
    basis, _ = make_setup(6, math.radians(40.0))
    matrix = experiment.ideal_detection_matrix(basis)
    assert np.allclose(np.diag(matrix[:, :6]), 0.4958110933998417, atol=1e-12)
    assert np.allclose(matrix[:, 6], 0.5041889066001582, atol=1e-12)
    assert np.max(np.abs(matrix.sum(axis=1) - 1.0)) < 1e-12


# ------------------------------------------------------------ noise model


def test_apply_noise_identity_at_zero_epsilon():
    basis, config = make_setup(3, 0.5)
    matrix = experiment.ideal_detection_matrix(basis)
    assert np.array_equal(experiment.apply_noise(matrix, config), matrix)


def test_apply_noise_percell_error_d6():
    theta = math.radians(40.0)
    eps = experiment.epsilon_for_percell_error(6)
    assert eps == pytest.approx(0.07, abs=1e-15)
    basis, config = make_setup(6, theta, crosstalk_epsilon=eps)
    noisy = experiment.apply_noise(experiment.ideal_detection_matrix(basis), config)
    off = noisy[:, :6][~np.eye(6, dtype=bool)]
    assert np.allclose(off, 0.01, atol=1e-12)
    assert np.max(np.abs(noisy.sum(axis=1) - 1.0)) < 1e-12
    # calibration invariant: the mean per-cell conclusive error is 1% +- 10%
    assert abs(off.mean() - 0.01) < 0.001


def test_epsilon_for_percell_error_range():
    with pytest.raises(ConfigurationError):
        experiment.epsilon_for_percell_error(14, 0.04)


# -------------------------------------------------------- spiral envelope


def test_spiral_weights_center_and_wide_limits():
    mapping = states.oam_map(5)
    weights = experiment.spiral_weights(mapping, 2.0)
    assert weights[mapping.state_ells.index(0)] == 1.0
    wide = experiment.spiral_weights(mapping, 1e12)
    assert np.allclose(wide, 1.0, atol=1e-12)


def test_spiral_weights_d5_sigma2():
    weights = experiment.spiral_weights(states.oam_map(5), 2.0)
    expected = [math.exp(-(ell**2) / 8.0) for ell in (-2, -1, 0, 1, 2)]
    assert np.allclose(weights, expected, atol=1e-15)
    ells = np.abs(states.oam_map(5).state_ells)
    order = np.argsort(ells)
    assert all(np.diff(weights[order]) <= 0.0)


# ----------------------------------------------------------- experiment


def test_run_experiment_deterministic():
    basis, config = make_setup(4, 0.6)
    first = experiment.run_experiment(basis, config, 99)
    second = experiment.run_experiment(basis, config, 99)
    assert np.array_equal(first.coincidences, second.coincidences)
    assert np.array_equal(first.singles_a, second.singles_a)
    assert np.array_equal(first.singles_b, second.singles_b)
    third = experiment.run_experiment(basis, config, 100)
    assert not np.array_equal(first.coincidences, third.coincidences)


# 2**32 and beyond split into several 32-bit SeedSequence words
@pytest.mark.parametrize("seed", [2024, 0, 2**32 - 1, 2**32, 2**64 + 5])
def test_run_experiment_draws_from_documented_keyed_streams(seed):
    d = 5
    basis, config = make_setup(d, 0.55)
    record = experiment.run_experiment(basis, config, seed)
    means = experiment.expected_record(basis, config)

    def draw(mean, *key):
        return np.random.default_rng([seed, *key]).poisson(mean)

    for i in range(d):
        for j in range(d + 1):
            assert record.coincidences[i, j] == draw(means.coincidences[i, j], 2, i, j)
        assert record.singles_a[i] == draw(means.singles_a[i], 0, i)
    for j in range(d + 1):
        assert record.singles_b[j] == draw(means.singles_b[j], 1, j)


# from base seed 2**32 - 2 the key grows from one 32-bit word to two inside the point
@settings(max_examples=15, deadline=None)
@example(d=14, reps=5, base=2**32 - 2)
@example(d=2, reps=1, base=0)
@given(
    d=st.integers(2, 14),
    reps=st.integers(1, 5),
    base=st.sampled_from([0, 2**32 - 2, 2**64 - 3]) | st.integers(0, 2**70),
)
def test_stacked_repetitions_match_single_seed_runs(d, reps, base):
    basis, config = make_setup(d, theory.theta_for_overlap(d, 2**-0.5))
    seeds = range(base, base + reps)
    stack = experiment.run_repetitions(basis, config, seeds)
    assert stack.coincidences.shape == (reps, d, d + 1)
    assert stack.singles_a.shape == (reps, d) and stack.singles_b.shape == (reps, d + 1)
    probabilities = analysis.normalize_probabilities(analysis.quantum_contrast(stack))
    summary = analysis.summarize_probabilities(probabilities)
    table = analysis.outcome_table(stack)
    for r, seed in enumerate(seeds):
        single = experiment.run_experiment(basis, config, seed)
        for name in ("coincidences", "singles_a", "singles_b"):
            assert np.array_equal(getattr(stack, name)[r], getattr(single, name))
        p = analysis.normalize_probabilities(analysis.quantum_contrast(single))
        alone = analysis.summarize_probabilities(p)
        # bit-equal, not approximately equal
        assert np.array_equal(probabilities[r], p)
        table_alone = analysis.outcome_table(single)
        for name in ("probabilities", "sigmas", "quantum_contrast"):
            assert np.array_equal(getattr(table, name)[r], getattr(table_alone, name))
        assert summary.mean_total_error[r] == alone.mean_total_error
        assert summary.mean_error_sigma[r] == alone.mean_error_sigma
        assert tuple(summary.per_state_error[r]) == alone.per_state_error


def test_stack_of_seeds_with_different_word_counts_matches_single_seed_runs():
    # 1, 3, 2 and 1 words, out of order: each seed's key is its own words, then the tail
    basis, config = make_setup(4, 0.6)
    seeds = [7, 2**64 + 5, 2**32, 0]
    stack = experiment.run_repetitions(basis, config, seeds)
    for r, seed in enumerate(seeds):
        single = experiment.run_experiment(basis, config, seed)
        for name in ("coincidences", "singles_a", "singles_b"):
            assert np.array_equal(getattr(stack, name)[r], getattr(single, name))
    with pytest.raises(ConfigurationError, match=r"^seeds must be one or more integers, got \[\]$"):
        experiment.run_repetitions(basis, config, [])  # an empty stack is no run


def test_run_repetitions_checks_each_seed_config():
    basis, config = make_setup(3, 0.5)
    with pytest.raises(ConfigurationError, match="^seed must be nonnegative, got -1$"):
        experiment.run_repetitions(basis, config, (0, -1))


@pytest.mark.parametrize(
    "seeds", [[1.5], [True], [np.True_], [0, 2.0], ["1"], [None], []],
    ids=["float", "bool", "numpy-bool", "integral-float", "str", "None", "empty"],
)
def test_run_repetitions_takes_one_or_more_integer_seeds(seeds):
    # int(1.5) and int(True) are ints, yet neither value is a seed; no seed is no run
    basis, config = make_setup(3, 0.5)
    message = f"seeds must be one or more integers, got {seeds!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        experiment.run_repetitions(basis, config, seeds)


def test_run_repetitions_takes_numpy_integer_seeds_as_their_ints():
    basis, config = make_setup(3, 0.5)
    stack = experiment.run_repetitions(basis, config, (np.int64(5), np.uint8(3)))
    plain = experiment.run_repetitions(basis, config, (5, 3))
    for name in ("coincidences", "singles_a", "singles_b"):
        assert np.array_equal(getattr(stack, name), getattr(plain, name))


# ------------------------------------------------------- the number rule


@pytest.mark.parametrize(
    "value", [3, 2.5, -0.0, np.float64(0.25), np.int64(7), fractions.Fraction(1, 4), np.array(0.5)],
    ids=["int", "float", "negative-zero", "numpy-float", "numpy-int", "fraction", "0-d-array"],
)
def test_the_number_rule_gives_the_float_of_a_finite_real(value):
    number = errors.real(value, ConfigurationError, "x")
    assert type(number) is float and number == float(value)


@pytest.mark.parametrize(
    "value, kind",
    [(True, "a number"), (np.False_, "a number"), ("0.5", "a number"), (b"1", "a number"),
     (None, "a number"), (1j, "a number"), ([0.5], "a number"), (math.nan, "finite"),
     (-math.inf, "finite"), (np.float64(math.inf), "finite"), (10**400, "finite")],
    ids=["bool", "numpy-bool", "str", "bytes", "None", "complex", "list", "nan", "-inf",
         "numpy-inf", "10**400"],
)
def test_the_number_rule_raises_its_owners_error_or_gives_nan(value, kind):
    message = f"x must be {kind}, got {value!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        errors.real(value, ConfigurationError, "x")
    assert math.isnan(errors.real(value))  # without an error class, for a NaN-failing range check


#: public calls given an argument of the wrong kind; each must end in one UsdError subclass
WRONG_NUMBERS = {
    "config-str": lambda: experiment.ExperimentConfig(integration_time="x"),
    "config-bool": lambda: experiment.ExperimentConfig(max_coincidence_rate=True),
    "config-inf": lambda: experiment.ExperimentConfig(integration_time=math.inf),
    "percell-str": lambda: experiment.epsilon_for_percell_error(3, "x"),
    "percell-bool": lambda: experiment.epsilon_for_percell_error(3, False),
    "classify-str": lambda: analysis.classify("a", 1, 1),
    "classify-nan": lambda: analysis.classify(math.nan, 0.1, 0.15),
    "spiral-bool": lambda: experiment.spiral_weights(states.oam_map(3), True),
    "theory-point-str": lambda: theory.theory_point(3, "0.5"),
    "build-basis-str": lambda: states.build_basis(3, ["0.5"]),
    "theta-for-overlap-bool": lambda: theory.theta_for_overlap(3, True),
    "mesd-bound-bool": lambda: theory.mesd_bound_from_overlap(True),
    "seeds-float": lambda: experiment.run_repetitions(*make_setup(3, 0.5), [1.5]),
    "seeds-empty": lambda: experiment.run_repetitions(*make_setup(3, 0.5), []),
    "percell-dim-fraction": lambda: experiment.epsilon_for_percell_error(2.5, 0.01),
    "percell-dim-bool": lambda: experiment.epsilon_for_percell_error(True, 0.01),
    "percell-dim-str": lambda: experiment.epsilon_for_percell_error("x", 0.01),
    "percell-dim-one": lambda: experiment.epsilon_for_percell_error(1, 0.01),
    "spiral-int-map": lambda: experiment.spiral_weights(3, 1.0),
    "noise-int-config": lambda: experiment.apply_noise(np.eye(3, 4), 3),
    "record-empty": lambda: experiment.CountsRecord(
        np.zeros((0, 3, 4)), np.zeros((0, 3)), np.zeros((0, 4)), 30.0),
    "spiral-negative": lambda: experiment.spiral_weights(states.oam_map(3), -1.0),
    # a record's times meet ExperimentConfig's rule: a number, finite and positive
    "record-time-str": lambda: experiment.CountsRecord(np.ones((2, 3)), [5, 5], [5, 5, 5], "x"),
    "record-time-bool": lambda: experiment.CountsRecord(np.ones((2, 3)), [5, 5], [5, 5, 5], True),
    "record-time-inf": lambda: experiment.CountsRecord(np.ones((2, 3)), [5, 5], [5, 5, 5], math.inf),
    "normalize-str": lambda: analysis.normalize_probabilities("x"),
    "summarize-1d": lambda: analysis.summarize_probabilities(np.ones(4)),
    "noise-1d": lambda: experiment.apply_noise(np.ones(4), experiment.ExperimentConfig()),
    # a ragged list is no array, and a shape other than the one asked for is none either
    "normalize-ragged": lambda: analysis.normalize_probabilities([[1.0], [1.0, 2.0]]),
    "record-ragged": lambda: experiment.CountsRecord([[1], [1, 2]], [1, 1], [1, 1, 1], 30.0),
    "family-str-vectors": lambda: states.StateFamily(3, 0.5, "x"),
    "summarize-short-rows": lambda: analysis.summarize_probabilities(np.ones((3, 2))),
}


@pytest.mark.parametrize("call", WRONG_NUMBERS.values(), ids=WRONG_NUMBERS.keys())
def test_a_public_number_of_the_wrong_kind_is_one_usd_error(call):
    with pytest.raises(UsdError):  # never a return, a TypeError or another exception
        call()


def test_counts_record_checks_stacks_on_trailing_axes():
    stack = experiment.run_repetitions(*make_setup(3, 0.5), (1, 2))
    coincidences = np.array(stack.coincidences)
    coincidences[1, 2, 0] = stack.singles_a[1, 2] + 1
    with pytest.raises(ConfigurationError, match="exceed"):
        dataclasses.replace(stack, coincidences=coincidences)
    with pytest.raises(InvalidDimensionError):
        dataclasses.replace(stack, singles_a=stack.singles_a[:1])
    with pytest.raises(InvalidDimensionError):
        dataclasses.replace(stack, coincidences=stack.coincidences[:, :, :3])


@pytest.mark.parametrize("kind", [bool, str])
def test_counts_record_rejects_non_numeric_counts(kind):
    record = experiment.expected_record(*make_setup(3, 0.5))
    for name in ("coincidences", "singles_a", "singles_b"):
        counts = np.asarray(getattr(record, name)).astype(kind)
        with pytest.raises(InvalidDimensionError, match=f"^{name} must be a non-empty real array"):
            dataclasses.replace(record, **{name: counts})


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_counts_record_invariants(seed):
    basis, config = make_setup(6, math.radians(40.0))
    record = experiment.run_experiment(basis, config, seed)
    counts = np.asarray(record.coincidences)
    assert counts.dtype == np.int64 and np.all(counts >= 0)
    bound = np.minimum(record.singles_a[:, None], record.singles_b[None, :])
    assert np.all(counts <= bound)


def test_zero_error_limit_counts():
    d = 3
    basis, config = make_setup(
        d, theory.theta_max(d), max_coincidence_rate=350.0, singles_rate_scale=800.0
    )
    record = experiment.run_experiment(basis, config, 5)
    off = np.asarray(record.coincidences)[:, :d][~np.eye(d, dtype=bool)]
    # zero signal plus a sub-count accidental floor
    assert np.max(off) <= 3


def test_mean_convergence_to_noisy_probability():
    d, reps = 3, 10_000
    theta = math.radians(30.0)
    basis, config = make_setup(
        d,
        theta,
        max_coincidence_rate=10.0,
        singles_rate_scale=15.0,
        crosstalk_epsilon=0.05,
    )
    noisy = experiment.apply_noise(experiment.ideal_detection_matrix(basis), config)
    weights = experiment.spiral_weights(states.oam_map(d), config.spiral_bandwidth_sigma)
    rates = config.max_coincidence_rate * weights
    totals = experiment.run_repetitions(basis, config, range(reps)).coincidences.sum(axis=0)
    scale = rates[:, None] * config.integration_time
    measured = totals / reps / scale
    lam = scale * noisy + config.singles_rate_scale**2 * config.coincidence_window * config.integration_time
    standard_error = np.sqrt(lam) / scale / math.sqrt(reps)
    for cell in ((0, 0), (1, 1), (0, 1), (2, 3), (1, 2)):
        assert abs(measured[cell] - noisy[cell]) < 4.0 * standard_error[cell]


def test_diagonal_counts_track_expected_rate():
    # C_ii averaged over 100 seeded runs stays within 5 Poisson sigma of
    # rate * weight * p_suc * T at d=6, theta=40deg, 30 s, 350 Hz
    d = 6
    theta = math.radians(40.0)
    basis, config = make_setup(d, theta)
    weights = experiment.spiral_weights(states.oam_map(d), config.spiral_bandwidth_sigma)
    accidental = config.singles_rate_scale**2 * config.coincidence_window * config.integration_time
    lam = 350.0 * 30.0 * 0.4958110933998417 * weights + accidental
    runs = 100
    stack = experiment.run_repetitions(basis, config, range(runs))
    totals = np.diagonal(stack.coincidences, axis1=1, axis2=2).sum(axis=0)
    means = totals / runs
    assert np.all(np.abs(means - lam) < 5.0 * np.sqrt(lam) / math.sqrt(runs))


def test_overflow_raises_configuration_error():
    basis, _ = make_setup(2, 0.5)
    # 1e200 Hz singles square to inf in the accidental rate: the gate, not an OverflowError
    for rate, singles in [(1e60, 1e40), (350.0, 1e200)]:
        config = experiment.ExperimentConfig(max_coincidence_rate=rate, singles_rate_scale=singles)
        with pytest.raises(ConfigurationError):
            experiment.run_experiment(basis, config, 0)


def test_overflow_gate_rejects_nan_expected_counts(monkeypatch):
    basis, config = make_setup(3, 0.5)
    monkeypatch.setattr(experiment, "apply_noise", lambda ideal, config: np.full((3, 4), math.nan))
    with pytest.raises(ConfigurationError, match="finite"):
        experiment.run_experiment(basis, config, 0)


def test_expected_record_of_a_signal_free_configuration_is_the_draw_error():
    # the signal gate guards the expected means, so the noiseless record fails
    # with the draw's message before any analysis, not with a degenerate row
    basis, config = make_setup(3, math.radians(30.0), spiral_bandwidth_sigma=0.05)
    with pytest.raises(ConfigurationError, match=r"\(l = -1, 1\)") as record_error:
        experiment.expected_record(basis, config)
    with pytest.raises(ConfigurationError) as draw_error:
        experiment.run_repetitions(basis, config, (0,))
    assert str(record_error.value) == str(draw_error.value)


def test_spiral_weights_tiny_sigma():
    mapping = states.oam_map(3)
    with pytest.raises(ConfigurationError, match="sigma"):
        experiment.spiral_weights(mapping, 1e-300)  # 2 sigma^2 underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = experiment.spiral_weights(mapping, 1e-160)  # l^2 / (2 sigma^2) overflows
    assert weights.tolist() == [0.0, 1.0, 0.0]


def test_low_singles_headroom_raises():
    basis, _ = make_setup(3, 0.5)
    config = experiment.ExperimentConfig(singles_rate_scale=10.0)
    with pytest.raises(ConfigurationError) as err:
        experiment.run_experiment(basis, config, 0)
    assert "singles_rate_scale" in str(err.value)


def test_config_validation():
    for overrides in (
        {"integration_time": 0.0},
        {"crosstalk_epsilon": 0.5},
        {"spiral_bandwidth_sigma": 0.0},
        {"integration_time": math.nan},
        {"coincidence_window": math.nan},
        {"crosstalk_epsilon": math.nan},
        {"spiral_bandwidth_sigma": math.nan},
        {"max_coincidence_rate": math.nan},
        {"max_coincidence_rate": 0.0},
        {"singles_rate_scale": math.nan},
    ):
        with pytest.raises(ConfigurationError):
            experiment.ExperimentConfig(**overrides)


# ---------------------------------------------------------- NaN rejection

NAN = float("nan")


def nan_record(nan_cell=False, **changes):
    record = experiment.expected_record(*make_setup(3, 0.5))
    coincidences = np.array(record.coincidences)
    if nan_cell:
        coincidences[1, 2] = NAN
    return dataclasses.replace(record, coincidences=coincidences, **changes)


NAN_INPUTS = {
    "family": lambda: states.StateFamily(dim=3, theta=0.5, vectors=np.full((3, 3), NAN)),
    "basis": lambda: states.DiscriminationBasis(
        family=states.build_basis(3, 0.5).family, vectors=np.full((4, 4), NAN)
    ),
    "coincidence": lambda: nan_record(nan_cell=True),
    "integration_time": lambda: nan_record(integration_time=NAN),
    "coincidence_window": lambda: nan_record(coincidence_window=NAN),
    "normalize_row": lambda: analysis.normalize_probabilities(np.array([[3.0, NAN, 1.0]])),
    "outcome_table_row": lambda: analysis.OutcomeTable(
        probabilities=[[NAN, 0.5]],
        sigmas=np.zeros((1, 2)),
        quantum_contrast=np.ones((1, 2)),
    ),
    "apply_noise_row": lambda: experiment.apply_noise(
        np.array([[NAN, 0.5, 0.5]]), experiment.ExperimentConfig()
    ),
    "spiral_sigma": lambda: experiment.spiral_weights(states.oam_map(3), NAN),
    "outcome_table_sigma": lambda: analysis.OutcomeTable(
        probabilities=[[0.5, 0.5]],
        sigmas=[[NAN, 0.0]],
        quantum_contrast=np.ones((1, 2)),
    ),
    "mesd_overlap": lambda: theory.mesd_bound_from_overlap(NAN),
}


@pytest.mark.parametrize("build", NAN_INPUTS.values(), ids=NAN_INPUTS.keys())
def test_nan_input_fails_validation(build):
    with pytest.raises(UsdError):
        build()
