import io
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dealdesk import _floats, waves
from dealdesk import (
    CountSeries,
    IllConditionedError,
    TooShortError,
    TrendModel,
    WindowTooLargeError,
    ZeroVarianceError,
    analyze,
    autocorrelation,
    derive_seeds,
    dominant_period,
    fit_polynomial,
    generate_series,
    load_count_series,
    moving_average,
    rms_by_degree,
    save_count_series,
)


# --- generation ---------------------------------------------------------------

def test_ideal_trend_without_noise_is_constant():
    s = generate_series(TrendModel(kind="ideal", parameters=(10.0,)), length=24)
    assert s.values.tolist() == [10.0] * 24
    assert s.timestamps[0] == "1" and s.timestamps[-1] == "24"


def test_linear_trend_exact_when_noiseless():
    s = generate_series(TrendModel(kind="linear", parameters=(2.0, 5.0)), length=5)
    assert s.values.tolist() == [7.0, 9.0, 11.0, 13.0, 15.0]


def test_quadratic_and_exponential_trends():
    q = generate_series(TrendModel(kind="quadratic", parameters=(1.0, 0.0, 3.0)), length=4)
    assert q.values.tolist() == [4.0, 7.0, 12.0, 19.0]
    e = generate_series(TrendModel(kind="exponential", parameters=(2.0, 0.5)), length=3)
    np.testing.assert_allclose(e.values, 2.0 * np.exp(0.5 * np.array([1.0, 2.0, 3.0])))


def test_same_seed_reproduces_different_seed_varies():
    model = TrendModel(kind="ideal", parameters=(10.0,), noise_sigma=2.0, seed=7)
    a = generate_series(model, 100)
    b = generate_series(model, 100)
    assert a.values.tolist() == b.values.tolist()
    c = generate_series(TrendModel(kind="ideal", parameters=(10.0,), noise_sigma=2.0, seed=8), 100)
    assert a.values.tolist() != c.values.tolist()


def test_clamp_floors_at_zero_and_can_be_disabled():
    model = TrendModel(kind="ideal", parameters=(0.0,), noise_sigma=5.0, seed=1)
    clamped = generate_series(model, 200)
    assert min(clamped.values) == 0.0
    free = generate_series(model, 200, clamp_at_zero=False)
    assert min(free.values) < 0.0


def test_poisson_noise_draws_counts_and_ignores_sigma():
    lo = generate_series(TrendModel(kind="ideal", parameters=(10.0,), noise="poisson", seed=3), 100)
    hi = generate_series(
        TrendModel(kind="ideal", parameters=(10.0,), noise="poisson", noise_sigma=99.0, seed=3), 100
    )
    assert lo.values.tolist() == hi.values.tolist()
    assert all(v == int(v) and v >= 0 for v in lo.values)
    assert 5.0 < np.mean(lo.values) < 15.0


def test_poisson_mean_tracks_trend():
    s = generate_series(TrendModel(kind="linear", parameters=(1.0, 0.0), noise="poisson", seed=5), 2000)
    # late points should dwarf early ones when the mean grows linearly
    assert np.mean(s.values[-100:]) > 10 * np.mean(s.values[:100])


def test_generate_validation():
    with pytest.raises(TooShortError):
        generate_series(TrendModel(kind="ideal", parameters=(1.0,)), 1)
    with pytest.raises(ValueError):
        TrendModel(kind="cubic", parameters=(1.0,))
    with pytest.raises(ValueError):
        TrendModel(kind="linear", parameters=(1.0,))
    with pytest.raises(ValueError):
        TrendModel(kind="ideal", parameters=(1.0,), noise_sigma=-1.0)
    with pytest.raises(ValueError):
        TrendModel(kind="ideal", parameters=(1.0,), noise="cauchy")


def test_generate_series_boxes_like_elementwise_conversion():
    model = TrendModel(kind="linear", parameters=(0.5, 3.0), noise_sigma=2.0, seed=29)
    s = generate_series(model, 500)
    t = np.arange(1, 501, dtype=float)
    values = np.maximum(model.trend(t) + np.random.default_rng(29).normal(0.0, 2.0, 500), 0.0)
    assert s.timestamps == tuple(str(int(x)) for x in t)
    assert s.values.dtype == np.float64 and not s.values.flags.writeable
    assert s.values.tolist() == [float(v) for v in values]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _series_as_drawn_out_of_place(model, length, clamp_at_zero):
    """generate_series' values as a new array per step, the reference its
    shared buffers must match bit for bit."""
    trend = model.trend(np.arange(1, length + 1, dtype=float))
    rng = np.random.default_rng(model.seed)
    if model.noise == "poisson":
        values = rng.poisson(np.maximum(trend, 0.0)).astype(float)
    else:
        values = trend + (rng.normal(0.0, model.noise_sigma, length) if model.noise_sigma > 0 else 0.0)
    return np.maximum(values, 0.0) if clamp_at_zero else values


# coefficients whose trend over at most 300 periods stays finite and below
# the largest poisson mean numpy draws at; signed zeros included
_COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))
_PARAMETERS = {
    "ideal": st.tuples(_COEFFICIENT),
    "linear": st.tuples(_COEFFICIENT, _COEFFICIENT),
    "quadratic": st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT),
    "exponential": st.tuples(_COEFFICIENT, st.floats(-0.05, 0.05)),
}


@pytest.mark.parametrize("clamp", [True, False], ids=["clamp", "no-clamp"])
@pytest.mark.parametrize("noiseless", [True, False], ids=["sigma-0", "sigma-drawn"])
@pytest.mark.parametrize("noise", ["gaussian", "poisson"])
@pytest.mark.parametrize("kind", sorted(_PARAMETERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data(), length=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
def test_generate_series_is_bit_identical_to_drawing_out_of_place(kind, noise, noiseless, clamp, data, length, seed):
    parameters = data.draw(_PARAMETERS[kind])
    sigma = 0.0 if noiseless else data.draw(st.floats(1e-3, 1e3))
    model = TrendModel(kind=kind, parameters=parameters, noise_sigma=sigma, seed=seed, noise=noise)
    got = generate_series(model, length, clamp_at_zero=clamp).values
    assert _bits(got) == _bits(_series_as_drawn_out_of_place(model, length, clamp))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind,parameters", [
    ("exponential", (1.0, 1000.0)),
    ("exponential", (1.0, 20.0)),
    ("quadratic", (1e306, 0.0, 0.0)),
])
def test_generate_series_refuses_an_overflowing_trend_without_warnings(kind, parameters):
    with pytest.raises(ValueError, match="overflows the float range"):
        generate_series(TrendModel(kind=kind, parameters=parameters), 50)


def test_derive_seeds_deterministic_and_distinct():
    a = derive_seeds(42, 10)
    b = derive_seeds(42, 10)
    assert a == b and len(a) == 10 and len(set(a)) == 10
    assert derive_seeds(43, 10) != a


# --- the series form -------------------------------------------------------------

def test_series_copies_its_values_into_a_read_only_array():
    given = np.array([1.0, 2.0, 3.0])
    s = CountSeries(("1", "2", "3"), given)
    given[0] = 9.0
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    assert given.flags.writeable
    with pytest.raises(ValueError):
        s.values[0] = 1.0


def test_series_from_tuples_equals_series_from_an_array():
    from_tuples = CountSeries(("a", "b"), (1.0, 2))
    assert from_tuples == CountSeries(("a", "b"), np.array([1.0, 2.0]))
    assert from_tuples != CountSeries(("a", "c"), (1.0, 2.0))
    assert from_tuples != CountSeries(("a", "b"), (1.0, 2.5))


def test_series_keeps_its_labels_as_a_tuple_of_its_own():
    labels = ["a", "b"]
    s = CountSeries(labels, (1.0, 2.0))
    labels.append("c")
    assert s.timestamps == ("a", "b")
    assert s == CountSeries(("a", "b"), (1.0, 2.0))


def test_generated_labels_stand_in_for_their_tuple():
    labels = generate_series(TrendModel(kind="ideal", parameters=(1.0,)), 6).timestamps
    want = ("1", "2", "3", "4", "5", "6")
    assert labels == want and want == labels
    assert not labels != want and not want != labels
    assert labels != list(want) and list(want) != labels
    assert labels != ("1", "2", "3", "4", "5", "7") and labels != want[:5] and labels != tuple(range(1, 7))
    assert hash(labels) == hash(want)
    assert len(labels) == 6 and list(labels) == list(want) and "6" in labels
    assert labels[0] == "1" and labels[-1] == "6" and labels[-6] == "1"
    for index in (6, -7):
        with pytest.raises(IndexError):
            labels[index]
    for part in (slice(2, None), slice(None, None, 2), slice(-2, 0, -2), slice(4, 1)):
        assert labels[part] == want[part] and type(labels[part]) is type(labels)
    assert repr(labels) == "_PeriodLabels(range(1, 7))"
    assert CountSeries(labels, np.ones(6)).timestamps is labels


def test_generated_series_equals_its_tuple_form_before_and_after_smoothing():
    s = generate_series(TrendModel(kind="linear", parameters=(0.5, 2.0), noise_sigma=1.0, seed=5), 40)
    as_tuples = CountSeries(tuple(str(t) for t in range(1, 41)), s.values)
    assert s == as_tuples and as_tuples == s
    smoothed, smoothed_tuples = moving_average(s, 7), moving_average(as_tuples, 7)
    assert smoothed == smoothed_tuples and smoothed_tuples == smoothed
    assert smoothed.timestamps == tuple(str(t) for t in range(7, 41))


def test_generated_series_retains_little_more_than_its_values():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        s = generate_series(TrendModel(kind="linear", parameters=(1.0, 0.0), noise_sigma=1.0), 10**6)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert s.values.nbytes == 8 * 10**6
    assert retained < 16 * 2**20, retained


@pytest.mark.parametrize("values", [(float("nan"), 1.0), (1.0, float("inf")), [[1.0, 2.0], [3.0, 4.0]]],
                         ids=["nan", "inf", "2-D"])
def test_series_refuses_non_finite_or_non_1d_values(values):
    with pytest.raises(ValueError):
        CountSeries(("1", "2"), values)


# --- smoothing -----------------------------------------------------------------

def test_moving_average_hand_example():
    s = CountSeries(timestamps=("1", "2", "3", "4", "5"), values=(1.0, 2.0, 3.0, 4.0, 5.0))
    out = moving_average(s, 3)
    assert out.values.tolist() == [2.0, 3.0, 4.0]
    assert out.timestamps == ("3", "4", "5")


def test_moving_average_pairwise():
    s = CountSeries(timestamps=("1", "2", "3", "4"), values=(1.0, 2.0, 3.0, 4.0))
    assert moving_average(s, 2).values.tolist() == [1.5, 2.5, 3.5]


def test_moving_average_window_one_is_identity():
    s = CountSeries(timestamps=("1", "2"), values=(3.0, 4.0))
    out = moving_average(s, 1)
    assert out.values.tolist() == s.values.tolist() and out.timestamps == s.timestamps


def test_moving_average_preserves_constants_and_is_linear():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(10, 50))
        k = int(rng.integers(1, n + 1))
        ts = tuple(str(i) for i in range(1, n + 1))
        x = rng.normal(0, 1, n)
        y = rng.normal(0, 1, n)
        a, b = float(rng.normal()), float(rng.normal())
        sx = CountSeries(ts, tuple(x))
        sy = CountSeries(ts, tuple(y))
        combo = CountSeries(ts, tuple(a * x + b * y))
        lhs = moving_average(combo, k).values
        rhs = a * moving_average(sx, k).values + b * moving_average(sy, k).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)
        const = CountSeries(ts, (5.0,) * n)
        assert moving_average(const, k).values.tolist() == [5.0] * (n - k + 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60), st.integers(1, 60))
def test_moving_average_is_bit_identical_to_dividing_a_new_array(values, window):
    window = min(window, len(values))
    s = CountSeries(tuple(str(i) for i in range(len(values))), values)
    want = np.convolve(np.array(values), np.ones(window), mode="valid") / window
    assert _bits(moving_average(s, window).values) == _bits(want)


def test_moving_average_window_bounds():
    s = CountSeries(timestamps=("1", "2", "3"), values=(1.0, 2.0, 3.0))
    with pytest.raises(WindowTooLargeError):
        moving_average(s, 4)
    with pytest.raises(WindowTooLargeError):
        moving_average(s, 0)


# --- cycle diagnostics -----------------------------------------------------------

def test_autocorrelation_of_iid_noise_is_near_zero():
    rng = np.random.default_rng(101)
    x = rng.normal(0, 1, 100_000)
    s = CountSeries(tuple(str(i) for i in range(len(x))), tuple(x))
    acf = autocorrelation(s, 5)
    assert all(abs(r) < 0.02 for r in acf)


def test_smoothing_manufactures_autocorrelation():
    # trailing k-average of iid noise has lag-j autocorrelation ~ (k-j)/k
    rng = np.random.default_rng(103)
    k = 10
    x = rng.normal(0, 1, 50_000)
    s = CountSeries(tuple(str(i) for i in range(len(x))), tuple(x))
    smoothed = moving_average(s, k)
    acf = autocorrelation(smoothed, k - 1)
    for j, r in enumerate(acf, start=1):
        assert abs(r - (k - j) / k) < 0.03, (j, r)


def test_autocorrelation_bounds_property():
    rng = np.random.default_rng(107)
    for _ in range(30):
        n = int(rng.integers(10, 200))
        x = rng.normal(0, 1, n)
        s = CountSeries(tuple(str(i) for i in range(n)), tuple(x))
        acf = autocorrelation(s, min(8, n - 1))
        assert all(-1.0 - 1e-12 <= r <= 1.0 + 1e-12 for r in acf)


def test_autocorrelation_alternating_series():
    s = CountSeries(tuple(str(i) for i in range(6)), (1.0, -1.0, 1.0, -1.0, 1.0, -1.0))
    acf = autocorrelation(s, 2)
    assert acf[0] == pytest.approx(-5 / 6)  # biased estimator: (n-lag)/n factor
    assert acf[1] == pytest.approx(4 / 6)


def test_autocorrelation_affine_invariance():
    rng = np.random.default_rng(113)
    for _ in range(20):
        n = int(rng.integers(20, 100))
        x = rng.normal(0, 1, n)
        a = float(rng.uniform(0.5, 5.0)) * (1 if rng.random() < 0.5 else -1)
        b = float(rng.normal(0, 10))
        ts = tuple(str(i) for i in range(n))
        base = autocorrelation(CountSeries(ts, tuple(x)), 6)
        moved = autocorrelation(CountSeries(ts, tuple(a * x + b)), 6)
        np.testing.assert_allclose(moved, base, atol=1e-9)


def test_autocorrelation_errors():
    s = CountSeries(("1", "2", "3"), (5.0, 5.0, 5.0))
    with pytest.raises(ZeroVarianceError):
        autocorrelation(s, 1)
    varied = CountSeries(("1", "2", "3"), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        autocorrelation(varied, 0)
    with pytest.raises(ValueError):
        autocorrelation(varied, 3)


def test_dominant_period_finds_pure_sine():
    n = 128
    t = np.arange(1, n + 1)
    x = np.sin(2 * np.pi * t / 16.0)
    s = CountSeries(tuple(str(i) for i in t), tuple(x))
    period, fraction = dominant_period(s)
    assert period == pytest.approx(16.0)
    assert fraction > 0.95


def test_dominant_period_sees_through_linear_trend():
    n = 128
    t = np.arange(1, n + 1)
    x = 0.5 * t + 10.0 * np.sin(2 * np.pi * t / 32.0)
    s = CountSeries(tuple(str(i) for i in t), tuple(x))
    period, fraction = dominant_period(s)
    assert period == pytest.approx(32.0)
    assert fraction > 0.9
    # a cycle 1e-12 the size of the line is faint, not rounding
    faint = 1e6 + 2.0 * t + 1e-6 * np.sin(2 * np.pi * t / 32.0)
    period, fraction = dominant_period(CountSeries(tuple(str(i) for i in t), tuple(faint)))
    assert period == pytest.approx(32.0)
    assert fraction > 0.9


def test_dominant_period_errors():
    with pytest.raises(TooShortError):
        dominant_period(CountSeries(tuple("1234567"), tuple(float(i) for i in range(7))))
    flat = CountSeries(tuple(str(i) for i in range(10)), (3.0,) * 10)
    with pytest.raises(ZeroVarianceError):
        dominant_period(flat)
    # a noiseless line detrends to rounding, not to a cycle
    line = generate_series(TrendModel(kind="linear", parameters=(2.0, 5.0)), 3000)
    with pytest.raises(ZeroVarianceError, match="detrended series carries no power"):
        dominant_period(line)


# the primes from half to twice the smallest prime the periodogram is split at
_PRIMES_NEAR_SPLIT = [q for q in range(waves._SPLIT_PRIME // 2, 2 * waves._SPLIT_PRIME)
                      if waves._largest_prime_factor(q) == q]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(_PRIMES_NEAR_SPLIT), st.integers(1, 2 * waves._SPLIT_COFACTOR),
       st.integers(0, 2**32 - 1))
def test_power_spectrum_is_rfft_on_both_sides_of_the_split(p, m, seed):
    n = p * m
    x = np.random.default_rng(seed).normal(0.0, 1.0, n)
    reference = np.abs(np.fft.rfft(x)) ** 2
    power = waves._power_spectrum(x)
    assert power.shape == reference.shape
    assert np.abs(power - reference).max() <= 1e-12 * reference.max()
    t = np.arange(1, n + 1, dtype=float)
    detrended = np.abs(np.fft.rfft(x - np.polynomial.Polynomial.fit(t, x, 1)(t))) ** 2
    second, first = np.sort(detrended[1:])[-2:]
    if first - second > 1e-12 * first:
        period, _ = dominant_period(_series(x))
        assert period == n / (int(np.argmax(detrended[1:])) + 1)


@pytest.mark.parametrize("n,ndim", [
    (999_991, 2),  # 17 * 59 * 997
    (1_000_000, 1),  # 2^6 * 5^6
    (999_983, 1),  # prime: no factor to split at
    (_PRIMES_NEAR_SPLIT[-1] * waves._SPLIT_COFACTOR, 2),
    (_PRIMES_NEAR_SPLIT[-1] * (waves._SPLIT_COFACTOR - 1), 1),
    (max(q for q in _PRIMES_NEAR_SPLIT if q < waves._SPLIT_PRIME) * 4 * waves._SPLIT_COFACTOR, 1),
])
def test_power_spectrum_splits_only_past_both_constants(n, ndim, monkeypatch):
    rfft, seen = np.fft.rfft, []

    def spy(a, *args, **kwargs):
        seen.append(np.ndim(a))
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    power = waves._power_spectrum(np.sin(np.arange(n, dtype=float)))
    assert seen == [ndim]
    assert power.shape == (n // 2 + 1,)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(waves._SPLIT_COFACTOR, 1024), st.integers(-2, 2), st.integers(0, 2**32 - 1))
def test_row_power_is_bit_identical_to_one_fft_of_every_row(m, offset, seed):
    # a row count on either side of one block, and a block and a bit
    step = waves._TWIDDLE_BLOCK // m
    for rows in {max(1, step + offset), 2 * step + 1 + offset}:
        rng = np.random.default_rng(seed)
        y = rng.normal(0.0, 1.0, (rows, m)) + 1j * rng.normal(0.0, 1.0, (rows, m))
        assert _bits(waves._row_power(y)) == _bits(np.abs(np.fft.fft(y, axis=1)) ** 2)


# --- polynomial fits --------------------------------------------------------------

def test_fit_polynomial_recovers_exact_quadratic():
    t = np.arange(1, 21, dtype=float)
    x = 2.0 * t**2 - 3.0 * t + 1.0
    s = CountSeries(tuple(str(int(i)) for i in t), tuple(x))
    fit = fit_polynomial(s, 2)
    np.testing.assert_allclose(fit.coefficients, (1.0, -3.0, 2.0), atol=1e-8)
    assert fit.rms_error < 1e-9
    np.testing.assert_allclose(fit(t), x, atol=1e-7)


def test_fit_polynomial_degree_zero_is_the_mean():
    s = CountSeries(("1", "2", "3", "4"), (7.0, 7.0, 7.0, 7.0))
    fit = fit_polynomial(s, 0)
    assert fit.coefficients[0] == pytest.approx(7.0, abs=1e-12)
    assert fit.rms_error == pytest.approx(0.0, abs=1e-12)


def test_fit_polynomial_rms_never_rises_with_degree():
    rng = np.random.default_rng(109)
    x = rng.normal(0, 1, 40).cumsum()
    s = CountSeries(tuple(str(i) for i in range(1, 41)), tuple(x))
    errors = rms_by_degree(s, degrees=range(1, 9))
    values = [errors[d] for d in range(1, 9)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_fit_polynomial_errors():
    s = CountSeries(("1", "2", "3"), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        fit_polynomial(s, -1)
    with pytest.raises(IllConditionedError):
        fit_polynomial(s, 13)
    with pytest.raises(TooShortError):
        fit_polynomial(s, 3)  # needs more than degree points


def _series(x):
    return CountSeries(tuple(str(i) for i in range(1, len(x) + 1)), tuple(float(v) for v in x))


# lengths at which the blocked QR takes a different path: exactly top+1
# rows (R has no residual row), one partial block, and a row past two blocks
_LENGTHS = pytest.mark.parametrize("n", [13, 50, 2048, 2 * _floats._QR_BLOCK_ROWS + 1],
                                   ids=["top+1", "50", "2048", "2-blocks+1"])
_SHAPES = pytest.mark.parametrize("shape", ["linear", "exponential", "noisy"])


def _shaped(n, shape):
    t = np.arange(1, n + 1, dtype=float)
    x = {
        "linear": 2.0 * t + 5.0,
        "exponential": 3.0 * np.exp(5.0 * t / n),
        "noisy": np.random.default_rng(n).normal(0.0, 1.0, n).cumsum(),
    }[shape]
    return t, x


def _reference_rms(t, x, degree):
    """RMS residual of numpy's own least-squares fit, an SVD path independent of waves."""
    fitted = np.polynomial.Polynomial.fit(t, x, degree)
    return float(np.sqrt(np.mean((x - fitted(t)) ** 2)))


@_LENGTHS
@_SHAPES
def test_rms_by_degree_matches_separate_fits(n, shape):
    t, x = _shaped(n, shape)
    rms = rms_by_degree(_series(x), range(0, 13))
    assert list(rms) == list(range(0, 13))
    # an exact fit leaves only rounding, which scales with the data
    atol = 1e-12 * float(np.abs(x).max())
    for d, value in rms.items():
        assert value == pytest.approx(_reference_rms(t, x, d), rel=1e-9, abs=atol), d


@_LENGTHS
@_SHAPES
def test_fits_match_numpy_least_squares(n, shape):
    t, x = _shaped(n, shape)
    s = _series(x)
    scale = float(np.abs(x).max())
    for d in range(0, 13):
        fit = fit_polynomial(s, d)
        reference = np.polynomial.Polynomial.fit(t, x, d).convert().coef
        # each coefficient weighted by its term's size at t = n; converting
        # to raw t loses about a digit per degree on either path
        contributions = (np.array(fit.coefficients) - reference) * float(n) ** np.arange(d + 1)
        assert np.abs(contributions).max() <= 1e-14 * 10.0**d * scale, d
        assert fit.rms_error == pytest.approx(_reference_rms(t, x, d), rel=1e-9, abs=1e-12 * scale), d
    if shape == "linear":
        with pytest.raises(ZeroVarianceError, match="detrended series carries no power"):
            dominant_period(s)
        return
    power = np.abs(np.fft.rfft(x - np.polynomial.Polynomial.fit(t, x, 1)(t))) ** 2
    peak = int(np.argmax(power[1:])) + 1
    period, fraction = dominant_period(s)
    assert period == n / peak
    assert fraction == pytest.approx(power[peak] / power[1:].sum(), rel=1e-9)


def test_rms_by_degree_refuses_what_fit_polynomial_refuses():
    s = CountSeries(("1", "2", "3"), (1.0, 2.0, 3.0))
    for degrees, error in (([1, -1], ValueError), ([13], IllConditionedError), ([1, 3], TooShortError)):
        with pytest.raises(error):
            rms_by_degree(s, degrees)
        with pytest.raises(error):
            fit_polynomial(s, degrees[-1])
    assert rms_by_degree(s, []) == {}


def test_degree_twelve_on_long_series_is_accepted():
    rng = np.random.default_rng(211)
    x = rng.normal(10, 1, 300)
    s = CountSeries(tuple(str(i) for i in range(1, 301)), tuple(x))
    fit = fit_polynomial(s, 12)
    assert np.isfinite(fit.rms_error)
    assert len(fit.coefficients) == 13


# --- composition ------------------------------------------------------------------

def test_analyze_composes_the_pieces():
    s = generate_series(TrendModel(kind="ideal", parameters=(50.0,), noise_sigma=5.0, seed=17), 256)
    d = analyze(s, window=12, max_lag=24, degree=5)
    smoothed = moving_average(s, 12)
    assert d.window == 12
    assert d.autocorrelation == autocorrelation(smoothed, 24)
    # one R at analyze's top, 8, serves the fit and the RMS table alike
    n = len(smoothed)
    r = waves._nested_r(smoothed.values, 8)
    solved = np.linalg.solve(r[:6, :6], r[:6, -1])
    raw = np.polynomial.Polynomial(solved, domain=[1, n], window=[-1, 1]).convert().coef
    assert d.polynomial_fit.coefficients == tuple(float(c) for c in raw)
    table = {k: float(np.sqrt(np.sum(r[k + 1:, -1] ** 2) / n)) for k in range(1, 9)}
    assert d.rms_by_degree == table
    assert d.polynomial_fit.rms_error == table[5]
    # the separate functions factorize at their own tops, so they agree
    # up to rounding: the period bin exactly, coefficients to 1e-12 of the largest
    period, fraction = dominant_period(smoothed)
    assert d.dominant_period == period
    assert d.power_fraction == pytest.approx(fraction, rel=1e-9)
    alone = np.array(fit_polynomial(smoothed, 5).coefficients)
    assert np.abs(np.array(d.polynomial_fit.coefficients) - alone).max() <= 1e-12 * np.abs(alone).max()
    assert d.rms_by_degree == pytest.approx(rms_by_degree(smoothed), rel=1e-12)


def test_analyze_carries_the_series_it_measured():
    s = generate_series(TrendModel(kind="ideal", parameters=(50.0,), noise_sigma=5.0, seed=17), 64)
    assert analyze(s, window=6, max_lag=4, degree=2).smoothed == moving_average(s, 6)


def _traced_peak(step, *args) -> int:
    """The peak of what one call allocated, in bytes."""
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peaks in length-point float arrays, measured: 2.13 for a linear or an ideal
# trend and for poisson noise, where a new array per step peaked at 4.13. A
# quadratic or an exponential trend peaks at 3.0 inside TrendModel.trend.
@pytest.mark.parametrize("kind,parameters,noise", [
    ("linear", (1.0, 0.0), "gaussian"),
    ("ideal", (5.0,), "gaussian"),
    ("linear", (1.0, 0.0), "poisson"),
], ids=["linear", "ideal", "poisson"])
def test_generate_series_holds_two_arrays(kind, parameters, noise):
    model = TrendModel(kind=kind, parameters=parameters, noise_sigma=1.0, seed=1, noise=noise)
    generate_series(model, 100)  # first-call allocations
    length = 250_000
    peak = _traced_peak(generate_series, model, length)
    assert peak < 2.5 * 8 * length, peak / (8 * length)


# Peaks above the input in smoothed-length float arrays, measured: 3.0 with
# the split periodogram and with rfft, where the periodogram holding its
# input and a new array per step peaked at 4.51 and 3.5.
@pytest.mark.skipif(sys.version_info < (3, 11), reason="before 3.11 a Python call keeps its arguments "
                    "on the caller's stack, so the periodogram cannot drop the detrended buffer")
@pytest.mark.parametrize("length", [250_000, 250_009], ids=["split-249991", "rfft-250000"])
def test_analyze_holds_each_buffer_once(length):
    s = generate_series(TrendModel(kind="linear", parameters=(1.0, 0.0), noise_sigma=1.0, seed=1), length)
    analyze(generate_series(TrendModel(kind="ideal", parameters=(1.0,), noise_sigma=1.0), 100), 10, 20, 6)
    n = length - 9
    assert (waves._largest_prime_factor(n) >= waves._SPLIT_PRIME) == (length == 250_000)
    peak = _traced_peak(analyze, s, 10, 20, 6)
    assert peak < 3.25 * 8 * n, peak / (8 * n)


# Stripped labels, as the loader strips them, that may need quoting. NUL is
# left out: Python 3.10's csv writer refuses it unless an escape is set.
LABELS = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters(exclude_categories=["Cs"],
                                                                    exclude_characters="\x00")),
                 max_size=8).map(str.strip)
VALUES = st.floats(allow_nan=False, allow_infinity=False).flatmap(lambda v: st.sampled_from([v, np.float64(v)]))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.tuples(LABELS, VALUES), max_size=12))
def test_save_load_round_trip_any_label_and_float(rows):
    s = CountSeries(tuple(label for label, _ in rows), tuple(value for _, value in rows))
    buf = io.StringIO(newline="")
    save_count_series(s, buf)
    buf.seek(0)
    assert load_count_series(buf) == s


def test_save_load_round_trip_preserves_floats():
    s = generate_series(TrendModel(kind="ideal", parameters=(10.0,), noise_sigma=1.0, seed=23), 50)
    buf = io.StringIO()
    save_count_series(s, buf)
    buf.seek(0)
    back = load_count_series(buf)
    assert back == s and s == back and type(back.timestamps) is tuple


def test_plot_data_rows_blank_before_first_window():
    from dealdesk._files import write_rows
    from dealdesk.waves import plot_data_rows

    s = CountSeries(tuple(str(i) for i in range(1, 7)), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    smoothed = moving_average(s, 3)
    poly = fit_polynomial(smoothed, 1)
    buf = io.StringIO(newline="")
    write_rows(buf, *plot_data_rows(s, smoothed, poly))
    lines = buf.getvalue().split("\n")
    assert lines[:3] == ["period,raw,smoothed,poly_fit", "1,1.0,,", "2,2.0,,"]
    assert lines[3].startswith("3,3.0,2.0,")
    assert lines[-1] == "" and len(lines) - 1 == 7
