"""Deal economics: the merger success condition, combined-firm DCF,
market-model fits and abnormal returns."""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from ._files import parse_cell, parse_number, read_rows, text_cell
from ._floats import float_checked, least_squares_r
from .errors import DegenerateRateError, DegenerateRegressorError, TooShortError


@dataclass(frozen=True)
class MergerAssessment:
    """Stand-alone values, the combined value, and the price paid."""

    v_combined: float
    v_acquirer: float
    v_target: float
    price_paid: float

    def __post_init__(self):
        for name in ("v_combined", "v_acquirer", "v_target", "price_paid"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.v_acquirer < 0 or self.v_target < 0:
            raise ValueError("stand-alone firm values must be non-negative")


def merger_success(a: MergerAssessment) -> tuple[bool, float]:
    """Surplus created by the deal and whether it clears zero.

    The deal succeeds when the combined firm is worth at least the two
    stand-alone values less the price paid for the target.
    """
    surplus = a.v_combined - (a.v_acquirer + a.v_target - a.price_paid)
    return surplus >= 0, surplus


@dataclass(frozen=True)
class CashFlowGrid:
    """Per-process, per-period net cash flows with one discount rate.

    ``flows[n][t]`` is the flow of process n in period t+1; discounting
    starts one period out, so there is no period-0 flow.
    """

    flows: tuple[tuple[float, ...], ...]
    discount_rate: float

    def __post_init__(self):
        if not self.flows or not self.flows[0]:
            raise ValueError("flows must be a non-empty matrix")
        width = len(self.flows[0])
        if any(len(row) != width for row in self.flows):
            raise ValueError("all processes must cover the same periods")
        if not (np.isfinite(self.flows).all() and math.isfinite(self.discount_rate)):
            raise ValueError("flows and discount rate must be finite")
        if 1.0 + self.discount_rate <= 0.0:
            raise DegenerateRateError(f"discount rate {self.discount_rate} makes 1+r non-positive")


@float_checked
def combined_firm_value(g: CashFlowGrid) -> float:
    """Present value of every process: sum of NCF[n][t] / (1+r)^t, t from 1."""
    flows = np.asarray(g.flows, dtype=float)
    t = np.arange(1, flows.shape[1] + 1)
    discount = (1.0 + g.discount_rate) ** t
    return float(np.sum(flows / discount))


@dataclass(frozen=True)
class ReturnSeries:
    """Aligned per-period returns for one firm and the market benchmark."""

    dates: tuple[date, ...]
    firm_returns: tuple[float, ...]
    market_returns: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.dates) == len(self.firm_returns) == len(self.market_returns)):
            raise ValueError("dates, firm_returns and market_returns must align")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)

    def window(self, start: int, stop: int) -> "ReturnSeries":
        """Index-range slice [start, stop), keeping all three columns aligned."""
        return ReturnSeries(
            dates=self.dates[start:stop],
            firm_returns=self.firm_returns[start:stop],
            market_returns=self.market_returns[start:stop],
        )


@dataclass(frozen=True)
class MarketModelFit:
    """Intercept/slope fit of firm returns on market returns.

    A positive alpha means the firm beat the benchmark after adjusting
    for its market exposure.
    """

    alpha: float
    beta: float
    residuals: tuple[float, ...]
    r_squared: float


@float_checked
def fit_market_model(s: ReturnSeries) -> MarketModelFit:
    """Least-squares fit of firm returns = alpha + beta * market returns.

    Needs at least three periods and a market series with some variation.
    The intercept guarantees residuals average to zero; r_squared is
    clamped to [0, 1] (a constant firm series fitted exactly counts as 1).
    """
    n = len(s)
    if n < 3:
        raise TooShortError(f"market model needs >= 3 periods, got {n}")
    market = np.asarray(s.market_returns, dtype=float)
    firm = np.asarray(s.firm_returns, dtype=float)
    if np.ptp(market) == 0.0:
        raise DegenerateRegressorError("market returns are constant; beta is unidentified")

    design = np.column_stack([np.ones(n), market])
    r = least_squares_r(firm, 2, lambda block, start, stop: np.copyto(block, design[start:stop]))
    coef = np.linalg.solve(r[:2, :2], r[:2, 2])
    alpha, beta = float(coef[0]), float(coef[1])
    residuals = firm - design @ coef
    ssr = float(np.sum(residuals**2))
    sst = float(np.sum((firm - firm.mean()) ** 2))
    if sst == 0.0:
        r_squared = 1.0 if math.isclose(ssr, 0.0, abs_tol=1e-18) else 0.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ssr / sst))
    return MarketModelFit(alpha=alpha, beta=beta, residuals=tuple(residuals.tolist()), r_squared=r_squared)


def abnormal_returns(s: ReturnSeries, fit: MarketModelFit) -> list[float]:
    """Per-period returns in excess of the fitted model's prediction.

    Over the estimation window itself this reproduces the fit residuals.
    """
    return [
        r_firm - (fit.alpha + fit.beta * r_mkt)
        for r_firm, r_mkt in zip(s.firm_returns, s.market_returns)
    ]


def load_return_series(source) -> ReturnSeries:
    """Read a return series from CSV with columns date, firm_return, market_return.

    Dates must be strictly increasing; the first row out of order is named.
    """
    previous = None

    def parse(row):
        nonlocal previous
        day = parse_cell(text_cell(row, "date"), date.fromisoformat, "date")
        if previous is not None and day <= previous:
            raise ValueError(f"date: {day} does not follow {previous}; dates must be strictly increasing")
        previous = day
        return (day, parse_number(row["firm_return"], "firm_return"),
                parse_number(row["market_return"], "market_return"))

    rows = read_rows(source, parse, ("date", "firm_return", "market_return"), "return series CSV")
    dates, firm, market = zip(*rows) if rows else ((), (), ())
    return ReturnSeries(dates=dates, firm_returns=firm, market_returns=market)
