"""Hyperparameter sampling: Dirichlet draws, the simplex grid, and the
acceptance-rejection sweep that collects every fittable stacking rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fitting
from .errors import DataError
from .fitting import LinearRule, StackingRule
from .rules import DecisionVector, canonical_condition_matrix, decision_from_number

DEFAULT_ETA = 0.5


def sample_dirichlet(seed: int, concentration=(1.0, 1.0, 1.0)) -> LinearRule:
    """One Dirichlet draw on the 3-simplex, renormalized so the sum is exact."""
    conc = np.asarray(concentration, dtype=np.float64)
    if conc.shape != (3,) or not np.all((conc > 0) & np.isfinite(conc)):
        raise ValueError(f"concentration must be 3 positive finite reals, got {concentration}")
    return dirichlet_rule(np.random.default_rng(seed), concentration)


def dirichlet_rule(rng: np.random.Generator, concentration) -> LinearRule:
    """A linear rule drawn from `rng`'s Dirichlet at `concentration`,
    renormalized so the sum is exact.

    A concentration too large to draw from makes numpy return all zeros, so
    a draw whose sum is not positive and finite is a ValueError naming it.
    """
    alpha = rng.dirichlet(concentration)
    total = alpha.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"concentration {[float(c) for c in concentration]} is too large to "
                         f"draw from: its Dirichlet draw sums to {total}")
    return LinearRule(alpha / total)


# The finest grid: 1/step divisions per axis, (d + 1)(d + 2)/2 rules for d
# divisions, so 501 501 rules at step 0.001.
MAX_GRID_DIVISIONS = 1000


def simplex_grid(step: float = 0.1) -> list[LinearRule]:
    """All mixing weights with entries on a regular grid summing to one.

    step must divide 1 evenly, at most `MAX_GRID_DIVISIONS` times; step 0.1
    yields the 66 lattice points of the 3-simplex, boundary included.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    if 1.0 / step > MAX_GRID_DIVISIONS:
        raise ValueError(f"step must be at least {1 / MAX_GRID_DIVISIONS:g} "
                         f"(at most {MAX_GRID_DIVISIONS} divisions), got {step}")
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


def _is_real(value) -> bool:
    """A finite JSON number (bool excluded)."""
    return type(value) in (int, float) and math.isfinite(value)


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

    @classmethod
    def load(cls, path) -> "SampledRuleSet":
        """Read a rule set laid out as `to_dict` writes it; DataError naming the
        file when it is not valid JSON of that shape."""
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            doc = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # invalid JSON or UTF-8
            raise DataError(f"rule set {path} is not valid JSON: {exc}") from None
        if not (isinstance(doc, dict) and isinstance(doc.get("entries"), list)
                and isinstance(doc.get("rejected"), list) and _is_real(doc.get("eta"))):
            raise DataError(f"rule set {path} must be a JSON object with an 'entries' list, "
                            "a numeric 'eta' and a 'rejected' list")
        for key in ("entries", "rejected"):
            for i, e in enumerate(doc[key]):
                e = e if isinstance(e, dict) else {}
                n, beta = e.get("rule_number"), e.get("beta")
                if not (type(n) is int and 0 <= n <= 255 and _is_real(e.get("residual")) and (
                        key == "rejected" or isinstance(beta, list) and len(beta) == 4
                        and all(map(_is_real, beta)))):
                    raise DataError(f"rule set {path}: {key}[{i}] needs an integer rule_number "
                                    "in [0, 255], a numeric residual and, in entries, a 4-number beta")
        entries = [
            SampledRule(rule_number=e["rule_number"], decision=decision_from_number(e["rule_number"]),
                        rule=StackingRule(np.array(e["beta"], dtype=np.float64)),
                        residual=float(e["residual"]))
            for e in doc["entries"]
        ]
        rejected = [(r["rule_number"], float(r["residual"])) for r in doc["rejected"]]
        return cls(entries=entries, eta=float(doc["eta"]), rejected=rejected,
                   options=doc.get("options", {}))


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
    if not (eta > 0 and math.isfinite(eta * eta)):
        raise ValueError(f"eta must be positive with a finite square, got {eta}")
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
