"""Estimate combining-rule hyperparameters from a condition/decision system.

Two models are fitted against the eight (condition, decision) pairs:

* linear mixture: solve R^T a = d by normal equations, then L1-normalize;
* nonlinear stacking: logistic regression sigma([R^T, 1] b) = d, fitted by
  full-batch gradient descent on the summed binary cross-entropy.

Residuals are mean squared over the eight conditions. The linear residual
and the t-statistics are computed on the unnormalized least-squares
solution; together with sample variance (divisor 7) these are the only
conventions that reproduce the published reference fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import backends
from .errors import DivergenceError
from .rules import (
    ConditionMatrix,
    DecisionVector,
    N_CONDITIONS,
    canonical_condition_matrix,
    rule_number,
)

DEFAULT_LEARNING_RATE = 1.0
DEFAULT_MAX_ITERS = 10_000

_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class LinearRule:
    """Mixing weights for (T2W, DWI_hb, ADC), constrained to the 3-simplex."""

    alpha: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.shape != (3,):
            raise ValueError(f"alpha must have 3 entries, got shape {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite")
        if np.any(alpha < -_SIMPLEX_TOL):
            raise ValueError(f"alpha entries must be non-negative, got {alpha.tolist()}")
        if abs(alpha.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"alpha must sum to 1, got sum {alpha.sum()!r}")
        alpha = np.maximum(alpha, 0.0)
        alpha.flags.writeable = False
        object.__setattr__(self, "alpha", alpha)

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(float(a) for a in self.alpha)


@dataclass(frozen=True)
class StackingRule:
    """Stacking weights [b1, b2, b3, b0], bias last."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=np.float64)
        if beta.shape != (4,):
            raise ValueError(f"beta must have 4 entries, got shape {beta.shape}")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta entries must be finite")
        beta.flags.writeable = False
        object.__setattr__(self, "beta", beta)

    @property
    def weights(self) -> np.ndarray:
        return self.beta[:3]

    @property
    def bias(self) -> float:
        return float(self.beta[3])


@dataclass
class FitReport:
    """Fitted coefficients plus the statistics reported alongside them."""

    model: str  # "linear" | "stacking"
    decision: DecisionVector
    coefficients: np.ndarray
    residual: float
    unnormalized_coefficients: np.ndarray | None = None
    t_stats: np.ndarray | None = None
    odds_ratios: np.ndarray | None = None
    iterations_used: int | None = None
    degenerate: bool = False
    options: dict = field(default_factory=dict)

    @property
    def rule_number(self) -> int:
        return rule_number(self.decision)

    def linear_rule(self) -> LinearRule:
        if self.model != "linear":
            raise ValueError("not a linear fit")
        return LinearRule(self.coefficients)

    def stacking_rule(self) -> StackingRule:
        if self.model != "stacking":
            raise ValueError("not a stacking fit")
        return StackingRule(self.coefficients)

    def to_dict(self) -> dict:
        def _arr(a):
            return None if a is None else [float(v) for v in a]

        return {
            "model": self.model,
            "zone": self.decision.zone.value,
            "rule_number": self.rule_number,
            "decision": self.decision.as_ints(),
            "coefficients": _arr(self.coefficients),
            "unnormalized_coefficients": _arr(self.unnormalized_coefficients),
            "residual": float(self.residual),
            "t_stats": _arr(self.t_stats),
            "odds_ratios": _arr(self.odds_ratios),
            "iterations_used": self.iterations_used,
            "degenerate": self.degenerate,
            "options": dict(self.options),
        }


def fit_linear(R: ConditionMatrix, d: DecisionVector) -> FitReport:
    """Least-squares mixing weights for decision d under condition system R.

    The unnormalized solution is x = (R R^T)^-1 R d; the reported weights
    are x / ||x||_1. A zero solution (e.g. the all-negative decision) is
    flagged degenerate and reported as uniform weights.
    """
    Rf = R.as_float()
    df = d.as_float()
    gram = Rf @ Rf.T
    try:
        x = np.linalg.solve(gram, Rf @ df)
    except np.linalg.LinAlgError as exc:
        raise DivergenceError(f"normal equations are singular: {exc}") from exc
    residual = float(np.sum((Rf.T @ x - df) ** 2) / N_CONDITIONS)

    norm = float(np.abs(x).sum())
    degenerate = norm == 0.0 or d.is_constant()
    if norm == 0.0:
        alpha = np.full(3, 1.0 / 3.0)
    else:
        alpha = x / norm

    report = FitReport(
        model="linear",
        decision=d,
        coefficients=alpha,
        residual=residual,
        unnormalized_coefficients=x,
        degenerate=degenerate,
    )
    report.t_stats = t_statistics(report, d)
    return report


def t_statistics(report: FitReport, d: DecisionVector) -> np.ndarray | None:
    """Per-modality t-statistics of a linear fit.

    T = x / sqrt(C_tt) with C = var(d) (R R^T)^-1, where x is the
    unnormalized coefficient vector and var(d) is the sample variance of the
    decisions (divisor 7). Returns None when d is constant, for which the
    statistics are undefined.
    """
    if report.model != "linear" or report.unnormalized_coefficients is None:
        raise ValueError("t_statistics requires a linear fit report")
    df = d.as_float()
    var_d = float(df.var(ddof=1))
    if var_d == 0.0:
        return None
    Rf = canonical_condition_matrix().as_float()
    cov = var_d * np.linalg.inv(Rf @ Rf.T)
    se = np.sqrt(np.diag(cov))
    return report.unnormalized_coefficients / se


def fit_stacking(
    R: ConditionMatrix,
    d: DecisionVector,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> FitReport:
    """Logistic-regression stacking weights for decision d.

    Gradient descent from beta = 0 on the summed cross-entropy of
    sigma([R^T, 1] beta) against d; the residual is the mean squared gap
    between d and the fitted probabilities. Raises DivergenceError if the
    loss turns non-finite.
    """
    return fit_stacking_batch(R, [d], learning_rate, max_iters)[0]


def fit_stacking_batch(
    R: ConditionMatrix,
    decisions,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> list[FitReport]:
    """`fit_stacking` for every decision vector in one batched descent.

    Each row descends independently, so its report matches a separate
    fit_stacking call. Raises DivergenceError for the first decision, in
    the given order, whose loss turned non-finite.
    """
    if not (learning_rate > 0 and math.isfinite(learning_rate)):
        raise ValueError(f"learning_rate must be a positive finite number, got {learning_rate}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    X = R.design_matrix()
    D = np.array([d.as_float() for d in decisions])
    B, used, finite = backends.fit_logistic(X, D, learning_rate, max_iters)
    reports = []
    for d, df, beta, n, ok in zip(decisions, D, B, used, finite):
        if not ok:
            raise DivergenceError(
                f"stacking fit diverged after {n} iterations "
                f"(learning_rate={learning_rate})"
            )
        probs = _sigmoid(X @ beta)
        reports.append(
            FitReport(
                model="stacking",
                decision=d,
                coefficients=beta,
                residual=float(np.sum((df - probs) ** 2) / N_CONDITIONS),
                odds_ratios=odds_ratios(StackingRule(beta)),
                iterations_used=int(n),
                degenerate=d.is_constant(),
                options={"learning_rate": learning_rate, "max_iters": max_iters},
            )
        )
    return reports


def odds_ratios(rule: StackingRule) -> np.ndarray:
    """Element-wise exp(beta): the multiplicative odds change per unit input."""
    return np.exp(rule.beta)


def predict_decisions(R: ConditionMatrix, rule, threshold: float | None = 0.5) -> np.ndarray:
    """Predicted decisions of a rule over the condition system.

    Accepts a LinearRule / StackingRule, or a raw length-3 (linear) or
    length-4 (stacking) coefficient vector such as an unnormalized fit.
    Returns boolean decisions (response strictly above `threshold`);
    pass threshold=None to get the raw per-condition responses instead.
    """
    if isinstance(rule, LinearRule):
        coef = rule.alpha
    elif isinstance(rule, StackingRule):
        coef = rule.beta
    else:
        coef = np.asarray(rule, dtype=np.float64)
    if coef.shape == (3,):
        response = R.as_float().T @ coef
    elif coef.shape == (4,):
        response = _sigmoid(R.design_matrix() @ coef)
    else:
        raise ValueError(f"rule must have 3 (linear) or 4 (stacking) entries, got {coef.shape}")
    if threshold is None:
        return response
    return response > threshold


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))
