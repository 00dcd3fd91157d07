"""Cross-country takeover-frequency regression.

Linear model of M&A frequency on institutional, sectoral and
technological variables, with the technology block also interacted
with binary regime dummies. Estimation uses an SVD least-squares
route; classical standard errors come from the unbiased residual
variance.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._files import open_text, parse_number
from .errors import (
    ConfigInvalidError,
    HeaderMismatchError,
    RankDeficientError,
    TooFewRowsError,
)

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


def _offending_columns(design: np.ndarray, names: tuple[str, ...]) -> tuple[str, ...]:
    # greedy scan: a column that fails to raise the rank is redundant
    kept: list[int] = []
    offenders: list[str] = []
    for j in range(design.shape[1]):
        trial = design[:, kept + [j]]
        if np.linalg.matrix_rank(trial) > len(kept):
            kept.append(j)
        else:
            offenders.append(names[j])
    return tuple(offenders)


def fit_takeover_regression(spec: TakeoverRegressionSpec) -> TakeoverRegressionFit:
    """Least-squares fit with classical standard errors.

    Needs strictly more rows than columns and a full-rank design; a rank
    failure names the redundant columns.
    """
    design, names = spec.design()
    y = np.asarray(spec.response, dtype=float)
    n, p = design.shape
    if n <= p:
        raise TooFewRowsError(f"need more rows than the {p} design columns, got {n}")
    if np.linalg.matrix_rank(design) < p:
        offenders = _offending_columns(design, names)
        raise RankDeficientError(
            f"design is rank deficient; redundant columns: {', '.join(offenders)}",
            columns=offenders,
        )

    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    ssr = float(residuals @ residuals)
    sigma2 = ssr / (n - p)
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    if spec.include_intercept:
        sst = float(np.sum((y - y.mean()) ** 2))
    else:
        sst = float(y @ y)
    r_squared = 1.0 - ssr / sst if sst > 0 else 1.0
    return TakeoverRegressionFit(
        names=names,
        coefficients=tuple(float(c) for c in coef),
        standard_errors=tuple(float(s) for s in se),
        residuals=tuple(float(r) for r in residuals),
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

        reader = csv.DictReader(io.StringIO("".join(body_lines)))
        header = reader.fieldnames or []
        declared = [c for cols in roles.values() for c in cols]
        absent = tuple(c for c in declared if c not in header)
        if absent:
            raise HeaderMismatchError(
                f"declared columns missing from CSV header: {', '.join(absent)}",
                missing=absent,
            )
        rows = list(reader)
        if not rows:
            raise ConfigInvalidError("regression CSV has no data rows")

        def column(name: str) -> list[float]:
            return [parse_number(r[name], name) for r in rows]

        def block(role: str) -> list[list[float]]:
            cols = [column(c) for c in roles[role]]
            return [list(values) for values in zip(*cols)]

        return TakeoverRegressionSpec(
            response=column(roles["response"][0]),
            institutional=block("institutional"),
            sectoral=block("sectoral"),
            technological=block("technological"),
            regime=block("regime"),
            include_intercept=include_intercept,
            names={role: roles[role] for role in _BLOCK_LIMITS},
        )
