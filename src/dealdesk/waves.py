"""Merger-wave time series: generation, smoothing and cycle diagnostics.

Synthetic transaction-count series follow a chosen trend regime (ideal,
linear, quadratic, exponential) plus noise. The diagnostics quantify how
much smoothing a random series manufactures apparent cycles: a k-window
trailing average of iid noise acquires lag-j autocorrelation close to
(k-j)/k, the Slutsky-Yule mechanism, so an averaged M&A count series can
look quasi-periodic with no cycle in the raw data.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ._files import parse_number, read_rows, text_cell, write_rows
from ._floats import float_checked, float_range, least_squares_r
from .errors import IllConditionedError, TooShortError, WindowTooLargeError, ZeroVarianceError

_MAX_POLY_DEGREE = 12
# the degrees of a wave report's RMS table, those below the smoothed length
_RMS_DEGREES = range(1, 9)
# _power_spectrum splits a length at its largest prime factor p when p is at
# least _SPLIT_PRIME and the cofactor at least _SPLIT_COFACTOR: past both,
# the split measured faster than rfft (the crossover table is in CHANGES.md)
_SPLIT_PRIME = 280
_SPLIT_COFACTOR = 4
# _power_spectrum twiddles and transforms its rows in one pass over blocks of
# about this many numbers (256 KB of complex numbers), adding no n-point array
_TWIDDLE_BLOCK = 1 << 14


class _PeriodLabels(Sequence):
    """The labels ``str(t)`` of the periods t in a ``range``, each made only
    when it is read: a generated series' periods 1..n without n strings.

    It stands in for the tuple of those labels. It compares equal to that
    tuple either way round and hashes as it does; a slice is another
    ``_PeriodLabels``, made in constant time.
    """

    __slots__ = ("_periods",)

    def __init__(self, periods: range):
        self._periods = periods

    def __len__(self) -> int:
        return len(self._periods)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _PeriodLabels(self._periods[index])
        return str(self._periods[index])

    def __iter__(self):
        return map(str, self._periods)

    def __eq__(self, other):
        if isinstance(other, _PeriodLabels):
            return self._periods == other._periods
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"_PeriodLabels({self._periods!r})"


@dataclass(frozen=True, eq=False)
class CountSeries:
    """Ordered period labels with one value per period.

    ``timestamps`` is kept as a tuple, or as the ``_PeriodLabels`` of a
    generated series, which compare equal to the tuple of the same
    labels; ``values`` is kept as a read-only float64 copy of the 1-D
    sequence of finite numbers given, so no step converts it again. Equal
    labels and values make equal series, whatever form either came in.
    """

    timestamps: Sequence[str]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got {values.ndim} dimensions")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        if len(self.timestamps) != len(values):
            raise ValueError("timestamps and values must align")
        values.flags.writeable = False
        if not isinstance(self.timestamps, _PeriodLabels):
            object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, CountSeries):
            return NotImplemented
        return self.timestamps == other.timestamps and np.array_equal(self.values, other.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TrendModel:
    """A trend regime, its coefficients, and the noise attached to it.

    Parameter layout by kind: ideal (c,), linear (a, b) for a*t + b,
    quadratic (a, b, c) for a*t^2 + b*t + c, exponential (a, b) for
    a*exp(b*t). Noise is Gaussian with ``noise_sigma`` by default;
    poisson draws counts with the trend as the mean and ignores sigma.
    """

    kind: Literal["ideal", "linear", "quadratic", "exponential"]
    parameters: tuple[float, ...]
    noise_sigma: float = 0.0
    seed: int = 0
    noise: Literal["gaussian", "poisson"] = "gaussian"

    _ARITY = {"ideal": 1, "linear": 2, "quadratic": 3, "exponential": 2}

    def __post_init__(self):
        if self.kind not in self._ARITY:
            raise ValueError(f"unknown trend kind {self.kind!r}")
        want = self._ARITY[self.kind]
        if len(self.parameters) != want:
            raise ValueError(f"{self.kind} trend takes {want} parameters, got {len(self.parameters)}")
        if not all(np.isfinite(self.parameters)):
            raise ValueError("trend parameters must be finite")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.noise not in ("gaussian", "poisson"):
            raise ValueError(f"unknown noise kind {self.noise!r}")

    def trend(self, t: np.ndarray) -> np.ndarray:
        p = self.parameters
        if self.kind == "ideal":
            return np.full_like(t, p[0], dtype=float)
        if self.kind == "linear":
            return p[0] * t + p[1]
        if self.kind == "quadratic":
            return p[0] * t**2 + p[1] * t + p[2]
        return p[0] * np.exp(p[1] * t)


@float_checked
def generate_series(model: TrendModel, length: int, clamp_at_zero: bool = True) -> CountSeries:
    """Draw one series of the given length, reproducible for a fixed seed.

    Periods run t = 1..length. Gaussian noise adds to the trend; poisson
    replaces each point with a count drawn at the trend mean (clamped to
    zero when negative), and refuses a mean too large for numpy to draw
    at. ``clamp_at_zero`` floors the result so it can stand in for
    transaction counts. Every step after the trend writes into one buffer:
    gaussian noise takes the trend in place, poisson counts replace the
    means in theirs, and the floor is taken in place.
    """
    if length < 2:
        raise TooShortError(f"series length must be >= 2, got {length}")
    t = np.arange(1, length + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        trend = model.trend(t)
    del t
    if not np.isfinite(trend).all():
        raise ValueError(
            f"{model.kind} trend with parameters {model.parameters} overflows the float range "
            f"by period {int(np.argmin(np.isfinite(trend))) + 1}"
        )
    rng = np.random.default_rng(model.seed)
    if model.noise == "poisson":
        values = np.maximum(trend, 0.0, out=trend)
        try:
            # the counts, cast to float in the means' own buffer
            values[...] = rng.poisson(values)
        except ValueError as exc:  # numpy's bare "lam value too large"
            raise ValueError(
                f"poisson noise cannot be drawn at the largest trend mean, {float(values.max())!r}: {exc}"
            ) from None
    else:
        # the noise takes the trend in place: noise + trend rounds as trend + noise
        values = rng.normal(0.0, model.noise_sigma, length) if model.noise_sigma > 0 else np.zeros(length)
        values += trend
    del trend
    if clamp_at_zero:
        np.maximum(values, 0.0, out=values)
    try:
        return CountSeries(timestamps=_PeriodLabels(range(1, length + 1)), values=values)
    except ValueError:
        # rng.normal raises no float flag, and the trend is finite, so only a
        # gaussian draw can be out of range; float_checked names this step
        raise FloatingPointError("overflow encountered in a gaussian draw") from None


def derive_seeds(master_seed: int, count: int) -> list[int]:
    """Independent child seeds derived deterministically from one master."""
    children = np.random.SeedSequence(master_seed).spawn(count)
    return [int(child.generate_state(1)[0]) for child in children]


@float_checked
def moving_average(s: CountSeries, window: int) -> CountSeries:
    """Trailing equal-weight average; each output keeps its window-end label.

    Each window is summed and then divided, in the sum's own buffer.
    """
    if not 1 <= window <= len(s):
        raise WindowTooLargeError(f"window {window} outside 1..{len(s)}")
    # sum before dividing so constant series come back bit-identical
    smoothed = np.convolve(s.values, np.ones(window), mode="valid")
    smoothed /= window
    try:
        return CountSeries(timestamps=s.timestamps[window - 1:], values=smoothed)
    except ValueError:
        # np.convolve raises no float flag, and s is finite, so only a window
        # sum can be out of range; float_checked names this step
        raise FloatingPointError("overflow encountered in a window sum") from None


@float_checked
def autocorrelation(s: CountSeries, max_lag: int) -> tuple[float, ...]:
    """Sample autocorrelation at lags 1..max_lag.

    Mean-removed, normalized by the lag-0 variance, so every value lies
    in [-1, 1]. Constant series have no variance to normalize by.
    """
    n = len(s)
    if not 1 <= max_lag < n:
        raise ValueError(f"max_lag must satisfy 1 <= L < {n}, got {max_lag}")
    x = s.values - s.values.mean()
    c0 = float(x @ x)
    if c0 == 0.0:
        raise ZeroVarianceError("series is constant; autocorrelation undefined")
    return tuple(float(x[:-lag] @ x[lag:]) / c0 for lag in range(1, max_lag + 1))


@float_checked
def dominant_period(s: CountSeries) -> tuple[float, float]:
    """Strongest cycle in the series after removing a straight-line trend.

    Returns (period, power_fraction): the periodogram's peak bin mapped to
    periods per cycle, and that bin's share of total non-DC power. The
    periodogram is ``np.abs(np.fft.rfft(x)) ** 2`` of the detrended series,
    computed by ``_power_spectrum``: on a length it splits, the bins agree
    with rfft's to rounding, so the fraction can move in its last digits.
    """
    _check_spectrum(s.values)
    return _period_from_r(s.values, _nested_r(s.values, 1))


def _check_spectrum(x: np.ndarray) -> None:
    n = len(x)
    if n < 8:
        raise TooShortError(f"need >= 8 points for a periodogram, got {n}")
    if np.ptp(x) == 0.0:
        raise ZeroVarianceError("series is constant; no spectrum")


def _period_from_r(x: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """``dominant_period`` of x, detrended by the line that R's leading 2x2
    block and z[:2] give (``_nested_r`` at any top >= 1). The peak is the
    first maximum of ``_power_spectrum`` past the DC bin.

    The detrended buffer goes straight into ``_power_spectrum``, which
    holds its only reference and drops it after its first transform.
    """
    n = len(x)
    power = _power_spectrum(_detrended(x, r))
    nondc = power[1:]
    total = float(nondc.sum())
    peak = int(np.argmax(nondc)) + 1
    return n / peak, float(power[peak]) / total


def _detrended(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x less the line of ``_period_from_r``, in a new buffer."""
    n = len(x)
    intercept, slope = np.linalg.solve(r[:2, :2], r[:2, -1])
    line = _mapped_t(n, 0, n)
    line *= slope
    line += intercept
    # x - line in line's own buffer: the same rounding as new arrays, with
    # one n-point array fewer held at the periodogram's memory peak
    detrended = np.subtract(x, line, out=line)
    # a straight line leaves only rounding, which the periodogram would
    # read as a cycle
    if np.abs(detrended).max() <= n * np.finfo(float).eps * np.abs(x).max():
        raise ZeroVarianceError("detrended series carries no power")
    return detrended


def _power_spectrum(x: np.ndarray) -> np.ndarray:
    """The periodogram ``np.abs(np.fft.rfft(x)) ** 2``: bins 0..n//2.

    numpy's FFT (pocketfft) transforms a length n whose largest prime
    factor p has p*p <= n with a generic O(n*p) pass at p, which is most of
    rfft's time at 999,991 = 17*59*997 points. When p is at least
    ``_SPLIT_PRIME`` and n/p at least ``_SPLIT_COFACTOR``, the transform is
    split at p instead (Cooley & Tukey 1965): length-p rffts down the
    columns of x laid out as p rows of n/p, which pocketfft computes with
    Bluestein's O(p log p) algorithm, then twiddle factors and length-n/p
    ffts along the rows, both in one pass over blocks of rows. The bins
    are rfft's up to rounding, about 1e-15 of the largest, with no padding.
    Every other length goes to rfft.

    It consumes x: once the first transform has read it, x is dropped, so
    a caller that passes its only reference frees it there. Each later
    step keeps only the arrays it still needs and squares in place.
    """
    n = len(x)
    p = _largest_prime_factor(n)
    m = n // p
    if p < _SPLIT_PRIME or m < _SPLIT_COFACTOR:
        z = np.fft.rfft(x)
        del x
        power = np.abs(z)
        del z
        return np.square(power, out=power)
    half = p // 2 + 1
    # row k1, column j2: the sum over j1 of x[j1*m + j2] * exp(-2πi j1 k1 / p)
    y = np.fft.rfft(x.reshape(p, m), axis=0)
    del x
    # one pass over blocks of rows: twiddle row k1 in place by
    # exp(-2πi k1 j2 / n), whose exponent k1 * j2 < n/2 is exact in integers,
    # so already reduced mod n (row 0's factor is 1), then take the rows'
    # length-m ffts, whose abs at row k1, column k2 is |X[k1 + p*k2]|
    j2 = np.arange(m)
    step = max(1, _TWIDDLE_BLOCK // m)
    power = np.empty(y.shape)
    for start in range(0, half, step):
        k1 = np.arange(start, min(start + step, half))[:, None]
        y[start:start + step] *= np.exp(-2j * np.pi / n * (k1 * j2))
        np.abs(np.fft.fft(y[start:start + step], axis=1), out=power[start:start + step])
    del y
    np.square(power, out=power)
    # bins in natural order; p is odd, and X[k] = conj(X[n - k]) puts a bin
    # with k1 > p//2 at row p - k1, column m - 1 - k2
    bins = n // 2 + 1
    needed = -(-bins // p)
    spectrum = np.empty((needed, p))
    spectrum[:, :half] = power[:, :needed].T
    spectrum[:, half:] = power[half - 1:0:-1, ::-1][:, :needed].T
    return spectrum.ravel()[:bins]


def _largest_prime_factor(n: int) -> int:
    factor = 2
    while factor * factor <= n:
        if n % factor:
            factor += 1
        else:
            n //= factor
    return n


@dataclass(frozen=True)
class PolynomialFit:
    """Least-squares polynomial, coefficients in ascending powers of t."""

    degree: int
    coefficients: tuple[float, ...]
    rms_error: float

    def __call__(self, t) -> np.ndarray:
        return np.polynomial.Polynomial(self.coefficients)(np.asarray(t, dtype=float))


def _check_degree(degree: int, n: int) -> None:
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > _MAX_POLY_DEGREE:
        raise IllConditionedError(f"degree {degree} exceeds the supported maximum {_MAX_POLY_DEGREE}")
    if n <= degree:
        raise TooShortError(f"need more than {degree} points, got {n}")


@float_checked
def fit_polynomial(s: CountSeries, degree: int) -> PolynomialFit:
    """Best degree-d polynomial over t = 1..n in the least-squares sense.

    Fitting happens in a normalized domain for conditioning and the
    coefficients are converted back to raw t. Degrees above 12 are
    refused; conversion back to the raw basis is no longer trustworthy.
    """
    n = len(s)
    _check_degree(degree, n)
    return _fit_from_r(_nested_r(s.values, degree), degree, n)


@float_checked
def rms_by_degree(s: CountSeries, degrees: Sequence[int] = tuple(_RMS_DEGREES)) -> dict[int, float]:
    """RMS error of the best fit at each degree, for inspection rather than a verdict.

    Equals ``fit_polynomial(s, d).rms_error`` for each d, up to rounding,
    and raises the same errors, but factorizes once, at the top degree.
    A wave report's table and fit come from one factorization, so there
    they are equal.
    """
    n = len(s)
    degrees = tuple(degrees)
    for d in degrees:
        _check_degree(d, n)
    if not degrees:
        return {}
    r = _nested_r(s.values, max(degrees))
    return {d: _rms_from_r(r, d, n) for d in degrees}


def _fit_from_r(r: np.ndarray, degree: int, n: int) -> PolynomialFit:
    """The degree-d fit of a series of n that R[:d+1, :d+1] and z give
    (``_nested_r`` at any top >= d)."""
    coefficients = np.linalg.solve(r[:degree + 1, :degree + 1], r[:degree + 1, -1])
    # a one-point fit is a constant, which any domain converts unchanged
    raw = np.polynomial.Polynomial(coefficients, domain=[1, max(n, 2)], window=[-1, 1]).convert()
    return PolynomialFit(
        degree=degree,
        coefficients=tuple(float(c) for c in raw.coef),
        rms_error=_rms_from_r(r, degree, n),
    )


def _rms_from_r(r: np.ndarray, degree: int, n: int) -> float:
    """RMS error of the degree-d fit of a series of n, from z[d+1:]
    (``_nested_r`` at any top >= d)."""
    return float(np.sqrt(np.sum(r[degree + 1:, -1] ** 2) / n))


def _mapped_t(n: int, start: int, stop: int) -> np.ndarray:
    """Periods t = start+1..stop of a series of n, mapped from [1, n] onto [-1, 1]."""
    return (2.0 * np.arange(start + 1, stop + 1, dtype=float) - (n + 1)) / max(n - 1, 1)


def _nested_r(x: np.ndarray, top: int) -> np.ndarray:
    """R of the QR of [1, u, ..., u^top | x], u = ``_mapped_t``: every
    least-squares polynomial fit of x up to degree ``top`` in one factorization.

    The degrees are nested (Golub & Van Loan, Matrix Computations, 5.3),
    so the last column of R is z, the data projected onto each basis
    direction and then the top fit's residual norm: the degree-d fit in u
    solves R[:d+1, :d+1] c = z[:d+1] and leaves a squared residual norm
    of sum(z[d+1:]**2). Needs len(x) > top; with len(x) == top + 1 the
    top fit is exact, and R's last row is zero.
    """
    n = len(x)

    def vandermonde(block, start, stop):
        u = _mapped_t(n, start, stop)
        block[:, 0] = 1.0
        for k in range(1, top + 1):
            np.multiply(block[:, k - 1], u, out=block[:, k])

    return least_squares_r(x, top + 1, vandermonde)


@dataclass(frozen=True)
class WaveDiagnostics:
    """Smoothing window, cycle measures and the polynomial approximation.

    ``smoothed`` is the averaged series every measure was taken on.
    ``rms_by_degree`` maps each degree 1..8 below the smoothed length to
    the RMS error of the best fit at that degree; the fit, that table and the
    periodogram's detrend line come from one factorization, so the fit's
    ``rms_error`` equals the table's entry at its degree.
    """

    window: int
    autocorrelation: tuple[float, ...]
    dominant_period: float
    power_fraction: float
    polynomial_fit: PolynomialFit
    rms_by_degree: dict[int, float]
    smoothed: CountSeries = field(repr=False)


def analyze(s: CountSeries, window: int, max_lag: int, degree: int) -> WaveDiagnostics:
    """Smooth, then measure: autocorrelation, dominant period, polynomial fit
    and RMS error by degree.

    The smoothed series is factorized once (``_nested_r``), at a top that
    covers both ``degree`` and the RMS table, and the detrend line, the fit
    and the table all read that R. Each step raises what ``dominant_period``,
    ``fit_polynomial`` and ``rms_by_degree`` raise, in that order.
    """
    smoothed = moving_average(s, window)
    acf = autocorrelation(smoothed, max_lag)
    x, n = smoothed.values, len(smoothed)
    with float_range("dominant_period"):
        _check_spectrum(x)
        # n >= 8 here, so the top covers the table; a degree out of range
        # is refused below, after the spectrum's own checks
        r = _nested_r(x, min(max(degree, max(_RMS_DEGREES)), n - 1, _MAX_POLY_DEGREE))
        period, fraction = _period_from_r(x, r)
    _check_degree(degree, n)
    with float_range("fit_polynomial"):
        poly = _fit_from_r(r, degree, n)
    with float_range("rms_by_degree"):
        rms = {d: _rms_from_r(r, d, n) for d in _RMS_DEGREES if d < n}
    return WaveDiagnostics(
        window=window,
        autocorrelation=acf,
        dominant_period=period,
        power_fraction=fraction,
        polynomial_fit=poly,
        rms_by_degree=rms,
        smoothed=smoothed,
    )


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def load_count_series(source) -> CountSeries:
    """Read (period,value) rows."""
    rows = read_rows(source, lambda row: (text_cell(row, "period"), parse_number(row["value"], "value")),
                     ("period", "value"), "count series CSV")
    periods, values = zip(*rows) if rows else ((), ())
    return CountSeries(timestamps=periods, values=values)


def save_count_series(s: CountSeries, dest) -> None:
    """Write (period,value) rows; inverse of load_count_series."""
    write_rows(dest, ("period", "value"), (s.timestamps, s.values.tolist()))


@float_checked
def plot_data_rows(raw: CountSeries, smoothed: CountSeries, poly: PolynomialFit) -> tuple[tuple, list]:
    """The header and columns (period, raw, smoothed, poly_fit) for external
    plotting, as ``_files.write_tables`` takes them. Smoothed and fitted
    cells are ``None`` (written blank) before the first full window. The
    first two columns are the raw series' own, so ``simulate-wave`` writes its
    series file from them in the same pass, turning each into text once."""
    fitted = poly(np.arange(1, len(smoothed) + 1, dtype=float)).tolist()
    pad = [None] * (len(raw) - len(smoothed))
    columns = [raw.timestamps, raw.values.tolist(), pad + smoothed.values.tolist(), pad + fitted]
    return ("period", "raw", "smoothed", "poly_fit"), columns
