"""Quantum contrast, probability normalization, error propagation, verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usdkit import analysis, experiment, states, theory
from usdkit.errors import DegenerateRowError, DomainError, InsufficientDataError
from usdkit.errors import InvalidDimensionError, UsdError


def synthetic_record(counts, singles_a, singles_b, T=1.0, window=25e-9):
    return experiment.CountsRecord(
        coincidences=counts,
        singles_a=singles_a,
        singles_b=singles_b,
        integration_time=T,
        coincidence_window=window,
    )


def seeded_table(d, theta, seed, **overrides):
    basis = states.build_basis(d, theta)
    config = experiment.ExperimentConfig(**overrides)
    return analysis.outcome_table(experiment.run_experiment(basis, config, seed))


# -------------------------------------------------------- quantum contrast


def test_contrast_zero_counts():
    record = synthetic_record(np.zeros((2, 3)), [100, 100], [100, 100, 100])
    assert np.array_equal(analysis.quantum_contrast(record), np.zeros((2, 3)))


def test_contrast_unity_for_accidental_rate():
    # with T = 1 s, a cell holding exactly S_A*S_B*t coincidences sits at Q = 1
    sa = np.array([4000.0, 5000.0])
    sb = np.array([3000.0, 6000.0, 2000.0])
    window = 25e-9
    counts = sa[:, None] * sb[None, :] * window
    record = synthetic_record(counts, sa, sb, T=1.0, window=window)
    assert np.allclose(analysis.quantum_contrast(record), 1.0, atol=1e-12)


def test_contrast_zero_singles_raises():
    bad = synthetic_record(np.zeros((2, 3)), [100, 0], [100, 100, 100])
    with pytest.raises(InsufficientDataError) as err:
        analysis.quantum_contrast(bad)
    assert "index 1" in str(err.value)


def test_contrast_structure_of_clean_run():
    table = seeded_table(3, math.radians(30.0), seed=21, singles_rate_scale=20_000.0)
    q = table.quantum_contrast
    assert np.min(np.diag(q[:, :3])) > 10.0
    off = q[:, :3][~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off - 1.0)) < 0.3
    assert abs(off.mean() - 1.0) < 0.1


# ----------------------------------------------------------- normalization


def test_normalize_single_row_example():
    p = analysis.normalize_probabilities(np.array([[3.0, 1.0, 1.0]]))
    assert np.allclose(p, [[1.0, 0.0, 0.0]], atol=1e-15)


def test_normalize_uniform_row():
    q = np.full((1, 7), 1.7)
    assert np.allclose(analysis.normalize_probabilities(q), 1.0 / 7.0, atol=1e-15)


def test_normalize_keeps_negative_excess():
    p = analysis.normalize_probabilities(np.array([[3.0, 0.5, 1.5]]))
    assert np.allclose(p, [[1.0, -0.25, 0.25]], atol=1e-15)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-15)


def test_normalize_near_cancelling_row_fails_row_sum_gate():
    # the excess sums to a small positive value, so the quotients are ~3e8
    # and their rounding leaves the row ~7e-9 away from one
    with pytest.raises(DegenerateRowError) as err:
        analysis.normalize_probabilities(np.array([[3e8, 2.7 - 3e8, 1.3, 1.1]]))
    assert "sum to one" in str(err.value)


def test_normalize_degenerate_row_raises():
    with pytest.raises(DegenerateRowError) as err:
        analysis.normalize_probabilities(np.array([[1.2, 1.1, 1.3], [0.9, 1.0, 0.8]]))
    assert "row 1" in str(err.value)
    assert not hasattr(err.value, "repetition")  # one matrix has no repetition axis


def test_normalize_stack_names_first_failing_row_of_lowest_failing_repetition():
    good = np.array([[1.2, 1.1, 1.3], [1.4, 1.0, 1.1]])
    stack = np.stack([good, [[1.5, 1.25, 1.25], [0.75, 1.0, 1.0]], [[0.5, 1.0, 1.0], good[1]]])
    with pytest.raises(DegenerateRowError) as err:
        analysis.normalize_probabilities(stack)
    # repetition 1's row 1, not repetition 2's row 0; a plain float, not np.float64(...)
    assert str(err.value).startswith("row 1 has nonpositive contrast excess -0.25;")
    assert err.value.repetition == 1
    p = analysis.normalize_probabilities(stack[[0, 0]])
    assert p.shape == (2, 2, 3) and np.array_equal(p[1], analysis.normalize_probabilities(good))


def test_contrast_of_stack_rejects_zero_singles_in_any_repetition():
    counts = np.zeros((2, 2, 3))
    singles_b = np.full((2, 3), 100)
    record = synthetic_record(counts, [[100, 100], [100, 100]], singles_b)
    assert analysis.quantum_contrast(record).shape == (2, 2, 3)
    bad = synthetic_record(counts, [[100, 100], [100, 0]], singles_b)
    with pytest.raises(InsufficientDataError) as err:
        analysis.quantum_contrast(bad)
    assert str(err.value).startswith("S_A has zero singles at setting index 1;")
    assert err.value.repetition == 1


def test_normalize_stack_names_repetition_failing_row_sum_check():
    # the excess sums to 0.75 > 0, but rounding the 1e15-sized quotients leaves
    # the row far from one; repetitions 1 and 2 both fail, the lowest is named
    good = np.array([[1.2, 1.1, 1.3], [1.4, 1.0, 1.1]])
    bad = np.array([good[0], [2.8125, 1e15, 1 - 1e15]])
    for contrast, repetition in ((bad, None), (np.stack([good, bad, bad]), 1)):
        with pytest.raises(DegenerateRowError) as err:
            analysis.normalize_probabilities(contrast)
        assert str(err.value) == "probability rows must sum to one"
        assert getattr(err.value, "repetition", None) == repetition


# ------------------------------------------------------- pipeline identity


@pytest.mark.parametrize("epsilon", [0.0, 0.12])
def test_expected_counts_reproduce_noisy_matrix(epsilon):
    theta = math.radians(40.0)
    basis = states.build_basis(6, theta)
    config = experiment.ExperimentConfig(crosstalk_epsilon=epsilon, spiral_bandwidth_sigma=1.3)
    record = experiment.expected_record(basis, config)
    probabilities = analysis.normalize_probabilities(analysis.quantum_contrast(record))
    noisy = experiment.apply_noise(experiment.ideal_detection_matrix(basis), config)
    assert np.max(np.abs(probabilities - noisy)) < 1e-10


@st.composite
def noisy_point(draw):
    """A setup whose every row carries signal: d in [2, 40], sigma >= d/2."""
    d = draw(st.integers(min_value=2, max_value=40))
    theta = draw(st.floats(min_value=0.02, max_value=1.0)) * theory.theta_max(d)
    basis = states.build_basis(d, theta)
    config = experiment.ExperimentConfig(
        crosstalk_epsilon=draw(st.floats(min_value=0.0, max_value=0.49)),
        spiral_bandwidth_sigma=draw(st.floats(min_value=0.5, max_value=3.0)) * d,
    )
    return basis, config


def sweep_probabilities(record):
    """The probability path of ``cli.run_sweep``."""
    return analysis.normalize_probabilities(analysis.quantum_contrast(record))


@settings(max_examples=60, deadline=None)
@given(noisy_point())
def test_sweep_path_of_expected_record_reproduces_noisy_matrix(point):
    basis, config = point
    probabilities = sweep_probabilities(experiment.expected_record(basis, config))
    noisy = experiment.apply_noise(experiment.ideal_detection_matrix(basis), config)
    assert np.max(np.abs(probabilities - noisy)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(noisy_point(), st.floats(min_value=0.01, max_value=100.0))
def test_common_brightness_factor_leaves_sweep_probabilities_unchanged(point, factor):
    basis, config = point
    scaled = dataclasses.replace(
        config,
        max_coincidence_rate=factor * config.max_coincidence_rate,
        singles_rate_scale=factor * config.singles_rate_scale,
    )
    base = sweep_probabilities(experiment.expected_record(basis, config))
    other = sweep_probabilities(experiment.expected_record(basis, scaled))
    assert np.max(np.abs(base - other)) < 1e-12


def test_common_brightness_scaling_leaves_probabilities_unchanged():
    theta = math.radians(35.0)
    basis = states.build_basis(4, theta)
    base = experiment.ExperimentConfig(crosstalk_epsilon=0.1)
    scaled = experiment.ExperimentConfig(
        crosstalk_epsilon=0.1,
        max_coincidence_rate=4.0 * base.max_coincidence_rate,
        singles_rate_scale=2.0 * base.singles_rate_scale,
    )
    p_base = analysis.normalize_probabilities(
        analysis.quantum_contrast(experiment.expected_record(basis, base))
    )
    p_scaled = analysis.normalize_probabilities(
        analysis.quantum_contrast(experiment.expected_record(basis, scaled))
    )
    assert np.max(np.abs(p_base - p_scaled)) < 1e-12


# --------------------------------------------------------- error summary


def test_error_summary_ideal_matrix():
    d = 4
    theta = 0.7
    p_suc, p_inc = theory.usd_probabilities(d, theta)
    p = np.zeros((d, d + 1))
    p[:, :d] = np.eye(d) * p_suc
    p[:, d] = p_inc
    summary = analysis.summarize_probabilities(p)
    assert summary.mean_total_error == 0.0
    assert summary.mean_error_sigma == 0.0
    bound = theory.mesd_bound(d, theta)
    verdict = analysis.classify(summary.mean_total_error, summary.mean_error_sigma, bound)
    assert verdict == analysis.VERDICT_BELOW


def test_error_summary_uniform_one_percent_d6():
    p = np.full((6, 7), 0.01)
    for i in range(6):
        p[i, i] = 0.45
        p[i, 6] = 1.0 - 0.45 - 5 * 0.01
    summary = analysis.summarize_probabilities(p)
    assert np.allclose(summary.per_state_error, 0.05, atol=1e-12)
    assert summary.mean_total_error == pytest.approx(0.05, abs=1e-12)
    assert summary.mean_error_sigma == pytest.approx(0.0, abs=1e-12)


def test_verdict_rule():
    assert analysis.classify(0.05, 0.02, 0.146) == analysis.VERDICT_BELOW
    assert analysis.classify(0.15, 0.02, 0.146) == analysis.VERDICT_ABOVE
    assert analysis.classify(0.13, 0.02, 0.146) == analysis.VERDICT_OVERLAPPING
    # the boundary case mean + sigma == bound is not strictly below
    assert analysis.classify(0.1, 0.046, 0.146) == analysis.VERDICT_OVERLAPPING


def test_verdict_rejects_a_negative_sigma():
    # a negative sigma would make "below" easier to reach: 0.1 - 1.0 < 0.2
    with pytest.raises(DomainError, match=r"^mean_error_sigma must be >= 0, got -1\.0$"):
        analysis.classify(0.1, -1.0, 0.2)
    with pytest.raises(DomainError, match="mean_error_sigma"):
        analysis.classify(0.1, -5e-324, 0.2)
    assert analysis.classify(0.1, -0.0, 0.2) == analysis.VERDICT_BELOW
    assert analysis.classify(0.1, 0.0, 0.1) == analysis.VERDICT_OVERLAPPING


def test_error_summary_uses_theory_bound():
    theta = theory.theta_for_overlap(6, 2**-0.5)
    table = seeded_table(6, theta, seed=3)
    summary = analysis.summarize_probabilities(table.probabilities)
    bound = theory.mesd_bound(6, theta)
    assert bound == pytest.approx(0.1464466094067262, abs=1e-12)
    verdict = analysis.classify(summary.mean_total_error, summary.mean_error_sigma, bound)
    assert verdict == analysis.VERDICT_BELOW
    # the summary holds error rates only; the bound and the verdict belong to the caller
    names = [f.name for f in dataclasses.fields(summary)]
    assert names == ["per_state_error", "mean_total_error", "mean_error_sigma"]


# ------------------------------------------------------ error propagation


def loop_propagation(record):
    """Reference: the row-by-row form of ``analysis.gaussian_propagation``."""
    q = analysis.quantum_contrast(record)
    p = analysis.normalize_probabilities(q)
    denominators = (q - 1.0).sum(axis=1)
    c = np.asarray(record.coincidences, dtype=float)
    sa = np.asarray(record.singles_a, dtype=float)
    sb = np.asarray(record.singles_b, dtype=float)
    var_c, var_sa, var_sb = np.maximum(c, 1.0), np.maximum(sa, 1.0), np.maximum(sb, 1.0)
    dq_dc = record.integration_time / (sa[:, None] * sb[None, :] * record.coincidence_window)
    d = p.shape[0]
    identity = np.eye(d + 1)
    variances = np.zeros_like(p)
    for i in range(d):
        # selector[j, k] = delta_jk - P_ij: how cell k of the row moves P_ij
        selector = identity - p[i][:, None]
        coincidence_terms = (selector * dq_dc[i][None, :] / denominators[i]) ** 2 @ var_c[i]
        column_terms = (selector * q[i][None, :] / (denominators[i] * sb[None, :])) ** 2 @ var_sb
        row_term = (q[i] - p[i] * q[i].sum()) / (denominators[i] * sa[i])
        variances[i] = coincidence_terms + column_terms + row_term**2 * var_sa[i]
    return np.sqrt(variances)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=100),
    st.floats(min_value=-3.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([(), (1,), (3,)]),
)
def test_propagation_matches_row_loop(d, log_floor, seed, lead):
    # singles of 2e6 to 2e7 counts, an accidental floor of 1e-3 to 40 counts
    # per cell (low floors draw zeros) and a diagonal signal of 1e3 to 1e6
    # counts, so a diagonal cell can outweigh the rest of its row by 1e6;
    # a nonempty lead stacks that many such runs
    rng = np.random.default_rng(seed)
    window = 30.0 * 10.0**log_floor / 1e14
    singles_a = rng.integers(2_000_000, 20_000_000, (*lead, d))
    singles_b = rng.integers(2_000_000, 20_000_000, (*lead, d + 1))
    counts = rng.poisson(singles_a[..., :, None] * singles_b[..., None, :] * window / 30.0)
    signal = rng.poisson(10.0 ** rng.uniform(3.0, 6.0, (*lead, d)))
    counts[..., :d] += signal[..., None] * np.eye(d, dtype=int)
    record = synthetic_record(counts, singles_a, singles_b, T=30.0, window=window)
    sigmas = analysis.gaussian_propagation(record)
    assert sigmas.shape == (*lead, d, d + 1)
    assert np.all(sigmas >= 0.0) and np.all(np.isfinite(sigmas))
    for r in np.ndindex(lead):
        run = synthetic_record(counts[r], singles_a[r], singles_b[r], T=30.0, window=window)
        reference = loop_propagation(run)
        assert np.max(np.abs(sigmas[r] - reference) / reference) < 1e-12


def test_propagation_scales_as_sqrt_counts():
    # quadrupling the integration time quadruples every count, so every
    # relative sigma must halve
    theta = math.radians(40.0)
    basis = states.build_basis(3, theta)
    short = experiment.ExperimentConfig(crosstalk_epsilon=0.2)
    long = experiment.ExperimentConfig(
        crosstalk_epsilon=0.2, integration_time=4.0 * short.integration_time
    )
    rec_short = experiment.expected_record(basis, short)
    rec_long = experiment.expected_record(basis, long)
    p = analysis.normalize_probabilities(analysis.quantum_contrast(rec_short))
    p_long = analysis.normalize_probabilities(analysis.quantum_contrast(rec_long))
    assert np.max(np.abs(p_long - p)) < 1e-12  # common count scaling leaves P alone
    sigma_short = analysis.gaussian_propagation(rec_short) / np.abs(p)
    sigma_long = analysis.gaussian_propagation(rec_long) / np.abs(p)
    assert np.max(np.abs(sigma_long / sigma_short - 0.5)) < 0.01 * 0.5


def test_propagation_zero_count_floor():
    counts = np.array([[500.0, 0.0, 400.0], [0.0, 480.0, 390.0]])
    record = synthetic_record(
        counts, [50_000.0, 50_000.0], [40_000.0, 40_000.0, 40_000.0], T=30.0
    )
    sigmas = analysis.gaussian_propagation(record)
    assert np.all(sigmas > 0.0)
    assert np.all(np.isfinite(sigmas))


def test_propagation_tracks_ensemble_spread():
    d, theta, n_seeds = 3, math.radians(30.0), 300
    basis = states.build_basis(d, theta)
    config = experiment.ExperimentConfig(crosstalk_epsilon=0.2)
    stack = experiment.run_repetitions(basis, config, range(n_seeds))
    probs = analysis.normalize_probabilities(analysis.quantum_contrast(stack))
    sigmas = analysis.gaussian_propagation(stack)
    ensemble = np.std(probs, axis=0, ddof=1)
    predicted = np.mean(sigmas, axis=0)
    assert np.max(np.abs(predicted / ensemble - 1.0)) < 0.25


def test_outcome_table_computes_contrast_and_probabilities_once(monkeypatch):
    record = experiment.run_experiment(states.build_basis(5, 0.5), experiment.ExperimentConfig(), 2)
    expected = analysis.outcome_table(record)
    calls = []
    for name in ("quantum_contrast", "normalize_probabilities"):
        original = getattr(analysis, name)

        def counted(arg, name=name, original=original):
            calls.append(name)
            return original(arg)

        monkeypatch.setattr(analysis, name, counted)
    table = analysis.outcome_table(record)
    assert calls == ["quantum_contrast", "normalize_probabilities"]
    for field in ("probabilities", "sigmas", "quantum_contrast"):
        assert np.array_equal(getattr(table, field), getattr(expected, field))
    calls.clear()
    assert np.array_equal(analysis.gaussian_propagation(record), expected.sigmas)
    assert calls == ["quantum_contrast", "normalize_probabilities"]


def zero_singles(stack):
    # repetition 2 loses the arm-A singles of state 1, and so its coincidences
    coincidences, singles_a = np.array(stack.coincidences), np.array(stack.singles_a)
    coincidences[2, 1], singles_a[2, 1] = 0, 0
    return dataclasses.replace(stack, coincidences=coincidences, singles_a=singles_a)


def silent_row(stack):
    # repetition 2 counts nothing for state 1: its contrast excess is -(d + 1)
    coincidences = np.array(stack.coincidences)
    coincidences[2, 1] = 0
    return dataclasses.replace(stack, coincidences=coincidences)


@pytest.mark.parametrize(
    "corrupt, error",
    [(zero_singles, InsufficientDataError), (silent_row, DegenerateRowError)],
    ids=["zero-singles", "silent-row"],
)
def test_outcome_table_of_a_stack_names_the_failing_repetition(corrupt, error):
    basis, config = states.build_basis(3, 0.5), experiment.ExperimentConfig()
    stack = corrupt(experiment.run_repetitions(basis, config, range(4)))
    counts = ("coincidences", "singles_a", "singles_b")
    run = dataclasses.replace(stack, **{name: getattr(stack, name)[2] for name in counts})
    with pytest.raises(error) as alone:  # the run of repetition 2 alone
        analysis.outcome_table(run)
    for analyze in (analysis.outcome_table, analysis.gaussian_propagation):
        with pytest.raises(UsdError) as err:
            analyze(stack)
        assert type(err.value) is error and str(err.value) == str(alone.value)
        assert err.value.repetition == 2


def test_outcome_table_rejects_mismatched_lead_shapes():
    with pytest.raises(InvalidDimensionError):
        analysis.OutcomeTable(
            probabilities=np.full((2, 3, 4), 0.25),
            sigmas=np.zeros((3, 3, 4)),
            quantum_contrast=np.ones((2, 3, 4)),
        )


def test_outcome_table_rejects_a_negative_sigma():
    with pytest.raises(DegenerateRowError, match="^sigmas must be nonnegative and finite$"):
        analysis.OutcomeTable(
            probabilities=np.full((2, 3), 0.5) * [1.0, 1.0, 0.0],
            sigmas=np.full((2, 3), 0.01) - [0.0, 0.0, 0.02],
            quantum_contrast=np.ones((2, 3)),
        )


def test_outcome_table_validation():
    with pytest.raises(DegenerateRowError):
        analysis.OutcomeTable(
            probabilities=np.array([[0.6, 0.3, 0.2], [0.5, 0.3, 0.2]]),
            sigmas=np.zeros((2, 3)),
            quantum_contrast=np.ones((2, 3)),
        )
