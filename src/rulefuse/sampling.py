"""Hyperparameter sampling: Dirichlet draws, the simplex grid, and the
acceptance-rejection sweep that collects every fittable stacking rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .fitting import LinearRule, StackingRule
from .rules import DecisionVector, canonical_condition_matrix, decision_from_number

DEFAULT_ETA = 0.5


def sample_dirichlet(seed: int, concentration=(1.0, 1.0, 1.0)) -> LinearRule:
    """One Dirichlet draw on the 3-simplex, renormalized so the sum is exact."""
    conc = np.asarray(concentration, dtype=np.float64)
    if conc.shape != (3,) or np.any(conc <= 0):
        raise ValueError(f"concentration must be 3 positive reals, got {concentration}")
    rng = np.random.default_rng(seed)
    alpha = rng.dirichlet(conc)
    alpha = np.clip(alpha, 0.0, None)
    return LinearRule(alpha / alpha.sum())


def simplex_grid(step: float = 0.1) -> list[LinearRule]:
    """All mixing weights with entries on a regular grid summing to one.

    step must divide 1 evenly; step 0.1 yields the 66 lattice points of the
    3-simplex, boundary included.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    m = round(1.0 / step)
    if m < 1 or abs(m * step - 1.0) > 1e-9:
        raise ValueError(f"step must divide 1 evenly, got {step}")
    rules = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            k = m - i - j
            alpha = np.array([i, j, k], dtype=np.float64) / m
            rules.append(LinearRule(alpha / alpha.sum()))
    return rules


@dataclass(frozen=True)
class SampledRule:
    rule_number: int
    decision: DecisionVector
    rule: StackingRule
    residual: float


@dataclass
class SampledRuleSet:
    """Stacking rules that the logistic fit reproduced within tolerance.

    entries are sorted by rule number; rejected holds (rule_number, residual)
    pairs for the decisions the fixed optimization budget could not fit.
    """

    entries: list[SampledRule]
    eta: float
    rejected: list[tuple[int, float]] = field(default_factory=list)
    options: dict = field(default_factory=dict)

    @property
    def accepted_count(self) -> int:
        return len(self.entries)

    def rule_numbers(self) -> list[int]:
        return [e.rule_number for e in self.entries]

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "threshold_sq_norm": self.eta**2 / 8.0,
            "accepted_count": self.accepted_count,
            "options": dict(self.options),
            "entries": [
                {
                    "rule_number": e.rule_number,
                    "decision": e.decision.as_ints(),
                    "beta": [float(b) for b in e.rule.beta],
                    "residual": float(e.residual),
                }
                for e in self.entries
            ],
            "rejected": [
                {"rule_number": n, "residual": float(r)} for n, r in self.rejected
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SampledRuleSet":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        entries = [
            SampledRule(
                rule_number=int(e["rule_number"]),
                decision=decision_from_number(int(e["rule_number"])),
                rule=StackingRule(np.array(e["beta"], dtype=np.float64)),
                residual=float(e["residual"]),
            )
            for e in payload["entries"]
        ]
        return cls(
            entries=entries,
            eta=float(payload["eta"]),
            rejected=[(int(r["rule_number"]), float(r["residual"])) for r in payload["rejected"]],
            options=payload.get("options", {}),
        )


def rejection_sample_stacking(
    n_rules: int = 256,
    eta: float = DEFAULT_ETA,
    learning_rate: float = fitting.DEFAULT_LEARNING_RATE,
    max_iters: int = fitting.DEFAULT_MAX_ITERS,
) -> SampledRuleSet:
    """Fit every decision rule 0..n_rules-1 and keep the fittable ones.

    A rule is accepted when the squared L2 gap between its decisions and the
    fitted probabilities over the eight conditions is at most eta^2 / 8;
    exactly the linearly separable decisions pass, up to optimizer budget.
    All rules are fitted in one batched descent.
    """
    if not 1 <= n_rules <= 256:
        raise ValueError(f"n_rules must be in [1, 256], got {n_rules}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    threshold = eta**2 / 8.0
    reports = fitting.fit_stacking_batch(
        canonical_condition_matrix(),
        [decision_from_number(n) for n in range(n_rules)],
        learning_rate=learning_rate,
        max_iters=max_iters,
    )

    accepted: list[SampledRule] = []
    rejected: list[tuple[int, float]] = []
    for number, report in enumerate(reports):
        if report.residual * 8.0 <= threshold:
            accepted.append(
                SampledRule(
                    rule_number=number,
                    decision=report.decision,
                    rule=report.stacking_rule(),
                    residual=report.residual,
                )
            )
        else:
            rejected.append((number, report.residual))
    return SampledRuleSet(
        entries=accepted,
        eta=eta,
        rejected=rejected,
        options={"learning_rate": learning_rate, "max_iters": max_iters, "n_rules": n_rules},
    )
