"""Cross-country takeover-frequency regression.

Linear model of M&A frequency on institutional, sectoral and
technological variables, with the technology block also interacted
with binary regime dummies. The rank test, the coefficients and the
classical standard errors all come from one QR of [design | response].
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._files import open_text, parse_number, read_rows
from ._floats import float_checked, least_squares_r
from .errors import ConfigInvalidError, RankDeficientError, TooFewRowsError

_BLOCK_LIMITS = {
    "institutional": (1, 5),
    "sectoral": (1, 2),
    "technological": (1, 2),
    "regime": (1, 2),
}


def _as_matrix(rows, what: str) -> np.ndarray:
    m = np.asarray(rows, dtype=float)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"{what} must be a 2-D block, got shape {m.shape}")
    return m


@dataclass
class TakeoverRegressionSpec:
    """Response vector plus the regressor blocks, column names optional."""

    response: Sequence[float]
    institutional: Sequence[Sequence[float]]
    sectoral: Sequence[Sequence[float]]
    technological: Sequence[Sequence[float]]
    regime: Sequence[Sequence[float]]
    include_intercept: bool = True
    names: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        self.response = np.asarray(self.response, dtype=float).ravel()
        n = self.response.shape[0]
        for block, (lo, hi) in _BLOCK_LIMITS.items():
            m = _as_matrix(getattr(self, block), block)
            if m.shape[0] != n:
                raise ValueError(f"{block} has {m.shape[0]} rows, response has {n}")
            if not lo <= m.shape[1] <= hi:
                raise ValueError(f"{block} must have {lo}..{hi} columns, got {m.shape[1]}")
            setattr(self, block, m)
        if self.technological.shape[1] != self.regime.shape[1]:
            raise ValueError(
                "technological and regime blocks must pair up column for column, got "
                f"{self.technological.shape[1]} vs {self.regime.shape[1]}"
            )
        if not np.isin(self.regime, (0.0, 1.0)).all():
            raise ValueError("regime dummies must be 0/1")
        self.names = dict(self.names)  # defaults are added to a copy, not the caller's dict
        for block in _BLOCK_LIMITS:
            given = self.names.get(block)
            width = getattr(self, block).shape[1]
            if given is None:
                self.names[block] = tuple(f"{block}_{j + 1}" for j in range(width))
            elif len(given) != width:
                raise ValueError(f"{block} names count {len(given)} != column count {width}")

    def design(self) -> tuple[np.ndarray, tuple[str, ...]]:
        """Assemble [intercept | institutional | sectoral | technological | tech*regime]."""
        n = self.response.shape[0]
        cols, names = [], []
        if self.include_intercept:
            cols.append(np.ones((n, 1)))
            names.append("intercept")
        for block in ("institutional", "sectoral", "technological"):
            cols.append(getattr(self, block))
            names.extend(self.names[block])
        # regime dummies enter only through the interactions
        cols.append(self.technological * self.regime)
        names.extend(
            f"{t}_x_{r}"
            for t, r in zip(self.names["technological"], self.names["regime"])
        )
        return np.hstack(cols), tuple(names)


@dataclass(frozen=True)
class TakeoverRegressionFit:
    names: tuple[str, ...]
    coefficients: tuple[float, ...]
    standard_errors: tuple[float, ...]
    residuals: tuple[float, ...]
    r_squared: float
    n_rows: int

    def coefficient(self, name: str) -> float:
        return self.coefficients[self.names.index(name)]

    def standard_error(self, name: str) -> float:
        return self.standard_errors[self.names.index(name)]


@float_checked
def fit_takeover_regression(spec: TakeoverRegressionSpec) -> TakeoverRegressionFit:
    """Least-squares fit with classical standard errors.

    Needs strictly more rows than columns and a full-rank design: column
    j is redundant when |R[j, j]|, its distance from the columns before
    it, is rounding, and a rank failure names the redundant columns. The
    standard errors read (X'X)^-1 = R^-1 R^-T, which keeps the design's
    condition number unsquared.
    """
    design, names = spec.design()
    y = np.asarray(spec.response, dtype=float)
    n, p = design.shape
    if n <= p:
        raise TooFewRowsError(f"need more rows than the {p} design columns, got {n}")
    r = least_squares_r(y, p, lambda block, start, stop: np.copyto(block, design[start:stop]))
    triangle = r[:p, :p]
    tolerance = max(n, p) * np.finfo(float).eps * np.linalg.norm(design, axis=0)
    redundant = np.abs(np.diag(triangle)) <= tolerance
    if redundant.any():
        offenders = tuple(name for name, flag in zip(names, redundant) if flag)
        raise RankDeficientError(
            f"design is rank deficient; redundant columns: {', '.join(offenders)}",
            columns=offenders,
        )

    coef = np.linalg.solve(triangle, r[:p, p])
    residuals = y - design @ coef
    ssr = float(residuals @ residuals)
    sigma2 = ssr / (n - p)
    inverse = np.linalg.solve(triangle, np.eye(p))
    se = np.sqrt(sigma2 * np.sum(inverse**2, axis=1))
    sst = float(np.sum((y - y.mean()) ** 2)) if spec.include_intercept else float(y @ y)
    r_squared = 1.0 - ssr / sst if sst > 0 else 1.0
    return TakeoverRegressionFit(
        names=names,
        coefficients=tuple(coef.tolist()),
        standard_errors=tuple(se.tolist()),
        residuals=tuple(residuals.tolist()),
        r_squared=r_squared,
        n_rows=n,
    )


def load_regression_spec(source) -> TakeoverRegressionSpec:
    """Read a regression dataset from CSV with role-tagged columns.

    Leading comment lines declare which columns play which role::

        # role response = ma_frequency
        # role institutional = employment_protection, union_density
        # role sectoral = manufacturing_share
        # role technological = rd_intensity
        # role regime = post_reform
        # intercept = true

    followed by an ordinary CSV header and rows. Every role except the
    optional intercept flag must be declared; declared columns missing
    from the header are reported together.
    """
    with open_text(source) as stream:
        roles: dict[str, tuple[str, ...]] = {}
        include_intercept = True
        body_lines: list[str] = []
        for line in stream:
            stripped = line.strip()
            if stripped.startswith("#"):
                directive = stripped.lstrip("#").strip()
                key, sep, value = directive.partition("=")
                if not sep:
                    raise ConfigInvalidError(f"cannot parse directive {stripped!r}")
                key = key.strip()
                value = value.strip()
                if key == "intercept":
                    if value.lower() not in ("true", "false"):
                        raise ConfigInvalidError(f"intercept must be true or false, got {value!r}")
                    include_intercept = value.lower() == "true"
                elif key.startswith("role "):
                    role = key[5:].strip()
                    if role not in ("response", *_BLOCK_LIMITS):
                        raise ConfigInvalidError(f"unknown role {role!r}")
                    roles[role] = tuple(c.strip() for c in value.split(",") if c.strip())
                else:
                    raise ConfigInvalidError(f"unknown directive {stripped!r}")
            elif stripped:
                body_lines.append(line)

        missing_roles = [r for r in ("response", *_BLOCK_LIMITS) if not roles.get(r)]
        if missing_roles:
            raise ConfigInvalidError(f"roles not declared: {', '.join(missing_roles)}")
        if len(roles["response"]) != 1:
            raise ConfigInvalidError("role response must name exactly one column")

        declared = [c for cols in roles.values() for c in cols]

        def parse(row) -> dict[str, float]:
            cells = {c: parse_number(row[c], c) for c in declared}
            for c in roles["regime"]:
                if cells[c] not in (0.0, 1.0):
                    raise ValueError(f"{c}: regime dummies must be 0/1, got {row[c].strip()}")
            return cells

        # read inside the with, so csv's refusal of a cell names the file
        rows = read_rows(body_lines, parse, declared, "regression CSV")
        if not rows:
            raise ConfigInvalidError("regression CSV has no data rows")

        return TakeoverRegressionSpec(
            response=[r[roles["response"][0]] for r in rows],
            **{role: [[r[c] for c in roles[role]] for r in rows] for role in _BLOCK_LIMITS},
            include_intercept=include_intercept,
            names={role: roles[role] for role in _BLOCK_LIMITS},
        )
