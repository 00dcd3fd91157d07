"""Takeover-frequency regression: solver, errors, and the normal-equations
cross-check. The module estimates only via one QR of [design | response];
the direct (X'X)^-1 X'y route lives here as an independent oracle, in
floats and, for an ill-conditioned design, in exact rationals."""
import io
from fractions import Fraction

import numpy as np
import pytest

from dealdesk import (
    ConfigInvalidError,
    HeaderMismatchError,
    RankDeficientError,
    TakeoverRegressionSpec,
    TooFewRowsError,
    fit_takeover_regression,
    load_regression_spec,
)


def normal_equations(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    xtx = design.T @ design
    return np.linalg.solve(xtx, design.T @ y)


def make_spec(rng, n=200, k_inst=2, k_sec=1, k_tec=1, sigma=0.01,
              beta=None, intercept=True):
    inst = rng.normal(0.0, 1.0, (n, k_inst))
    sec = rng.normal(0.0, 1.0, (n, k_sec))
    tec = rng.normal(0.0, 1.0, (n, k_tec))
    reg = rng.integers(0, 2, (n, k_tec)).astype(float)
    p = int(intercept) + k_inst + k_sec + k_tec + k_tec
    if beta is None:
        beta = rng.uniform(-2, 2, p)
    design_cols = []
    if intercept:
        design_cols.append(np.ones((n, 1)))
    design_cols.extend([inst, sec, tec, tec * reg])
    design = np.hstack(design_cols)
    y = design @ beta + rng.normal(0.0, sigma, n)
    spec = TakeoverRegressionSpec(
        response=y, institutional=inst, sectoral=sec, technological=tec,
        regime=reg, include_intercept=intercept,
    )
    return spec, np.asarray(beta, dtype=float), design, y


def test_design_layout_and_names():
    rng = np.random.default_rng(0)
    spec, _, _, _ = make_spec(rng, n=50, k_inst=5, k_sec=2, k_tec=2)
    design, names = spec.design()
    assert design.shape == (50, 12)
    assert names == (
        "intercept",
        "institutional_1", "institutional_2", "institutional_3", "institutional_4", "institutional_5",
        "sectoral_1", "sectoral_2",
        "technological_1", "technological_2",
        "technological_1_x_regime_1", "technological_2_x_regime_2",
    )
    np.testing.assert_array_equal(design[:, 0], 1.0)
    # interactions vanish exactly where the regime dummy is zero
    tec, reg = spec.technological, spec.regime
    np.testing.assert_allclose(design[:, 10], tec[:, 0] * reg[:, 0])


def test_regime_enters_only_through_interactions():
    rng = np.random.default_rng(1)
    spec, _, _, _ = make_spec(rng, n=40)
    _, names = spec.design()
    assert not any(name == "regime_1" for name in names)
    assert any("_x_regime_1" in name for name in names)


def test_custom_names_flow_through():
    rng = np.random.default_rng(2)
    n = 30
    spec = TakeoverRegressionSpec(
        response=rng.normal(size=n),
        institutional=rng.normal(size=(n, 1)),
        sectoral=rng.normal(size=(n, 1)),
        technological=rng.normal(size=(n, 1)),
        regime=rng.integers(0, 2, (n, 1)).astype(float),
        names={"institutional": ("union_density",), "sectoral": ("mfg_share",),
               "technological": ("rd_intensity",), "regime": ("post_reform",)},
    )
    _, names = spec.design()
    assert names == ("intercept", "union_density", "mfg_share", "rd_intensity",
                     "rd_intensity_x_post_reform")


def test_default_names_go_into_a_copy_of_the_given_dict():
    rng = np.random.default_rng(2)
    n = 30
    given = {"institutional": ("union_density",)}
    spec = TakeoverRegressionSpec(
        response=rng.normal(size=n),
        institutional=rng.normal(size=(n, 1)),
        sectoral=rng.normal(size=(n, 1)),
        technological=rng.normal(size=(n, 1)),
        regime=rng.integers(0, 2, (n, 1)).astype(float),
        names=given,
    )
    assert given == {"institutional": ("union_density",)}
    assert spec.names is not given
    assert spec.names["sectoral"] == ("sectoral_1",)


def test_exact_recovery_without_noise():
    rng = np.random.default_rng(3)
    spec, beta, _, _ = make_spec(rng, sigma=0.0)
    fit = fit_takeover_regression(spec)
    np.testing.assert_allclose(fit.coefficients, beta, atol=1e-10)
    assert fit.r_squared == pytest.approx(1.0)


def test_solver_matches_normal_equations_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        spec, _, design, y = make_spec(rng, n=120, k_inst=3, k_sec=2, k_tec=2, sigma=0.5)
        fit = fit_takeover_regression(spec)
        oracle = normal_equations(design, y)
        np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-8)


def test_standard_errors_match_classical_formula():
    rng = np.random.default_rng(5)
    spec, _, design, y = make_spec(rng, n=150, sigma=0.3)
    fit = fit_takeover_regression(spec)
    n, p = design.shape
    resid = y - design @ np.asarray(fit.coefficients)
    sigma2 = (resid @ resid) / (n - p)
    expected = np.sqrt(np.diag(sigma2 * np.linalg.inv(design.T @ design)))
    np.testing.assert_allclose(fit.standard_errors, expected, rtol=1e-10)


def exact_standard_errors(design: np.ndarray, y: np.ndarray) -> list[float]:
    """Classical standard errors from the normal equations, solved in exact
    rationals over the float design, so only the final square root rounds."""
    x = [[Fraction(float(v)) for v in row] for row in design]
    n, p = design.shape
    gram = [[sum(row[i] * row[j] for row in x) for j in range(p)] for i in range(p)]
    xty = [sum(row[i] * Fraction(float(v)) for row, v in zip(x, y)) for i in range(p)]
    # Gauss-Jordan on [X'X | X'y | I] leaves [I | coefficients | (X'X)^-1]
    aug = [gram[i] + [xty[i]] + [Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    for c in range(p):
        pivot = next(r for r in range(c, p) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(p):
            if r != c:
                aug[r] = [a - aug[r][c] * b for a, b in zip(aug[r], aug[c])]
    coef = [aug[i][p] for i in range(p)]
    residuals = [Fraction(float(v)) - sum(a * c for a, c in zip(row, coef)) for row, v in zip(x, y)]
    sigma2 = sum(e * e for e in residuals) / (n - p)
    return [float(sigma2 * aug[i][p + 1 + i]) ** 0.5 for i in range(p)]


def test_standard_errors_hold_on_an_ill_conditioned_design():
    # x and x^2 over x in [1000, 1010]: condition number about 1.4e11, so
    # (X'X)^-1 in floats, at about 1e22, would keep only some 5 digits
    rng = np.random.default_rng(83)
    n = 40
    x = np.linspace(1000.0, 1010.0, n)
    spec = TakeoverRegressionSpec(
        response=0.3 * x - 2e-4 * x**2 + rng.normal(0.0, 0.1, n),
        institutional=np.column_stack([x, x**2]),
        sectoral=rng.normal(size=(n, 1)),
        technological=rng.normal(size=(n, 1)),
        regime=rng.integers(0, 2, (n, 1)).astype(float),
    )
    design, _ = spec.design()
    assert np.linalg.cond(design) > 1e11
    fit = fit_takeover_regression(spec)
    np.testing.assert_allclose(fit.standard_errors, exact_standard_errors(design, spec.response), rtol=1e-9)


def test_coefficients_within_three_ses_of_truth():
    hits, total = 0, 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        spec, beta, _, _ = make_spec(rng, n=300, k_inst=3, k_sec=1, k_tec=2, sigma=0.05)
        fit = fit_takeover_regression(spec)
        for est, se, true in zip(fit.coefficients, fit.standard_errors, beta):
            total += 1
            if abs(est - true) <= 3 * se:
                hits += 1
    # 3 sigma two-sided: ~99.7% expected; allow a little sampling slack
    assert hits / total >= 0.98


def test_named_accessors():
    rng = np.random.default_rng(6)
    spec, _, _, _ = make_spec(rng)
    fit = fit_takeover_regression(spec)
    assert fit.coefficient("intercept") == fit.coefficients[0]
    assert fit.standard_error("institutional_1") == fit.standard_errors[1]
    with pytest.raises(ValueError):
        fit.coefficient("nope")


def test_residuals_orthogonal_to_design():
    rng = np.random.default_rng(7)
    spec, _, design, _ = make_spec(rng, sigma=0.4)
    fit = fit_takeover_regression(spec)
    gram = design.T @ np.asarray(fit.residuals)
    np.testing.assert_allclose(gram, 0.0, atol=1e-8)


def test_too_few_rows():
    rng = np.random.default_rng(8)
    with pytest.raises(TooFewRowsError):
        spec, _, _, _ = make_spec(rng, n=6, k_inst=2, k_sec=1, k_tec=1)  # p = 6
        fit_takeover_regression(spec)


def test_rank_deficiency_names_offenders():
    rng = np.random.default_rng(9)
    n = 60
    inst = rng.normal(size=(n, 2))
    inst[:, 1] = 2.0 * inst[:, 0]  # exact collinearity inside the block
    spec = TakeoverRegressionSpec(
        response=rng.normal(size=n),
        institutional=inst,
        sectoral=rng.normal(size=(n, 1)),
        technological=rng.normal(size=(n, 1)),
        regime=rng.integers(0, 2, (n, 1)).astype(float),
    )
    with pytest.raises(RankDeficientError) as exc_info:
        fit_takeover_regression(spec)
    assert exc_info.value.columns == ("institutional_2",)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_rank_deficiency_is_found_at_any_column_scale(scale):
    # the institutional block at one scale, the sectoral column at its inverse
    rng = np.random.default_rng(12)
    n = 60
    inst = rng.normal(size=(n, 3)) * scale
    inst[:, 1] = 2.0 * inst[:, 0]  # exact
    inst[:, 2] = 0.3 * inst[:, 0] - 1.7 * scale  # up to rounding, with the intercept
    spec = TakeoverRegressionSpec(
        response=rng.normal(size=n),
        institutional=inst,
        sectoral=rng.normal(size=(n, 1)) / scale,
        technological=rng.normal(size=(n, 1)),
        regime=rng.integers(0, 2, (n, 1)).astype(float),
    )
    with pytest.raises(RankDeficientError) as exc_info:
        fit_takeover_regression(spec)
    assert exc_info.value.columns == ("institutional_2", "institutional_3")
    # collinear only up to relative noise: a poor design, but full rank
    for noise in (1e-6, 1e-9):
        noisy = inst.copy()
        noisy[:, 1:] *= 1.0 + noise * rng.normal(size=(n, 2))
        fit = fit_takeover_regression(TakeoverRegressionSpec(**{**vars(spec), "institutional": noisy}))
        assert all(np.isfinite(fit.standard_errors))


def test_non_finite_regressor_is_refused():
    rng = np.random.default_rng(14)
    spec, _, _, _ = make_spec(rng, n=40)
    spec.institutional[3, 0] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        fit_takeover_regression(spec)


def test_all_ones_regime_duplicates_tec_column():
    rng = np.random.default_rng(10)
    n = 50
    spec = TakeoverRegressionSpec(
        response=rng.normal(size=n),
        institutional=rng.normal(size=(n, 1)),
        sectoral=rng.normal(size=(n, 1)),
        technological=rng.normal(size=(n, 1)),
        regime=np.ones((n, 1)),  # interaction == tec column
    )
    with pytest.raises(RankDeficientError) as exc_info:
        fit_takeover_regression(spec)
    assert "technological_1_x_regime_1" in exc_info.value.columns


def test_spec_validation():
    rng = np.random.default_rng(11)
    n = 30
    good = dict(
        response=rng.normal(size=n),
        institutional=rng.normal(size=(n, 1)),
        sectoral=rng.normal(size=(n, 1)),
        technological=rng.normal(size=(n, 1)),
        regime=rng.integers(0, 2, (n, 1)).astype(float),
    )
    TakeoverRegressionSpec(**good)
    with pytest.raises(ValueError):  # row mismatch
        TakeoverRegressionSpec(**{**good, "institutional": rng.normal(size=(n - 1, 1))})
    with pytest.raises(ValueError):  # too many institutional columns
        TakeoverRegressionSpec(**{**good, "institutional": rng.normal(size=(n, 6))})
    with pytest.raises(ValueError):  # tec/regime width mismatch
        TakeoverRegressionSpec(**{**good, "technological": rng.normal(size=(n, 2))})
    with pytest.raises(ValueError):  # non-binary dummies
        TakeoverRegressionSpec(**{**good, "regime": np.full((n, 1), 0.5)})


CSV_TEXT = """# role response = ma_freq
# role institutional = emp_protection, union_density
# role sectoral = mfg_share
# role technological = rd_intensity
# role regime = post_reform
# intercept = true
ma_freq,emp_protection,union_density,mfg_share,rd_intensity,post_reform
1.2,0.5,0.3,0.2,1.1,0
0.8,0.1,0.2,0.4,0.9,1
1.5,0.7,0.5,0.3,1.3,0
1.1,0.4,0.1,0.5,1.0,1
0.9,0.2,0.6,0.1,0.8,0
1.3,0.6,0.4,0.6,1.2,1
1.0,0.3,0.35,0.25,1.05,0
1.4,0.65,0.45,0.55,1.25,1
"""


def test_load_regression_spec_roles_and_fit():
    spec = load_regression_spec(io.StringIO(CSV_TEXT))
    design, names = spec.design()
    assert names == ("intercept", "emp_protection", "union_density", "mfg_share",
                     "rd_intensity", "rd_intensity_x_post_reform")
    assert design.shape == (8, 6)
    fit = fit_takeover_regression(spec)
    oracle = normal_equations(design, np.asarray(spec.response))
    np.testing.assert_allclose(fit.coefficients, oracle, rtol=1e-8)


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_load_regression_spec_reads_any_line_ending(ending, tmp_path):
    path = tmp_path / "regress.csv"
    path.write_bytes(CSV_TEXT.replace("\n", ending).encode())
    spec = load_regression_spec(path)
    expected = load_regression_spec(io.StringIO(CSV_TEXT))
    np.testing.assert_array_equal(spec.design()[0], expected.design()[0])
    np.testing.assert_array_equal(spec.response, expected.response)


def test_load_regression_spec_intercept_flag():
    text = CSV_TEXT.replace("# intercept = true", "# intercept = false")
    spec = load_regression_spec(io.StringIO(text))
    _, names = spec.design()
    assert "intercept" not in names


def test_load_regression_spec_error_paths():
    with pytest.raises(ConfigInvalidError):  # missing role declarations
        load_regression_spec(io.StringIO("# role response = y\nx\n1\n"))
    with pytest.raises(ConfigInvalidError):  # unknown role
        load_regression_spec(io.StringIO("# role funky = y\n" + CSV_TEXT))
    with pytest.raises(ConfigInvalidError):  # bad intercept value
        load_regression_spec(io.StringIO(CSV_TEXT.replace("= true", "= maybe")))
    with pytest.raises(ConfigInvalidError):  # no data rows
        header_only = CSV_TEXT[: CSV_TEXT.index("1.2,")]
        load_regression_spec(io.StringIO(header_only))
    missing_col = CSV_TEXT.replace(
        "ma_freq,emp_protection,union_density", "ma_freq,emp_protection,union_dens"
    )
    with pytest.raises(HeaderMismatchError) as exc_info:
        load_regression_spec(io.StringIO(missing_col))
    assert exc_info.value.missing == ("union_density",)
