"""Closed-form divergences and simple evaluation metrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import betaln, digamma

from .errors import DimensionMismatchError, InvalidArgumentError, check_probability
from .graph import BetaParams, EntryKey


def kl_beta(p: BetaParams, q: BetaParams) -> float:
    """KL(Beta(p) || Beta(q)) in nats, via log-Beta and digamma terms."""
    a1, b1 = p.alpha, p.beta
    a2, b2 = q.alpha, q.beta
    return float(
        betaln(a2, b2)
        - betaln(a1, b1)
        + (a1 - a2) * digamma(a1)
        + (b1 - b2) * digamma(b1)
        + (a2 - a1 + b2 - b1) * digamma(a1 + b1)
    )


@dataclass(frozen=True)
class KlReport:
    """Per-entry KL divergences between two posterior maps, plus their sum."""

    per_entry: dict[EntryKey, float]
    total: float


def kl_joint(p: Mapping[EntryKey, BetaParams], q: Mapping[EntryKey, BetaParams]) -> KlReport:
    """Sum of independent per-entry Beta KL divergences.

    Both maps must cover identical entry sets; factorised posteriors
    make the joint divergence exactly this sum.
    """
    if p.keys() != q.keys():
        missing = p.keys() ^ q.keys()
        raise DimensionMismatchError(f"posterior maps disagree on entries {sorted(missing)}")
    per_entry = {key: kl_beta(p[key], q[key]) for key in p}
    return KlReport(per_entry=per_entry, total=float(sum(per_entry.values())))


def accuracy(
    predictions: Sequence[float] | np.ndarray,
    labels: Sequence[int] | np.ndarray,
    threshold: float = 0.5,
) -> float | np.ndarray:
    """Fraction of labels matched by thresholding class-1 probabilities.

    predictions hold one probability per label, or a (G, labels) stack of
    such rows, which gives one accuracy per row as an array. An (R, G,
    labels) stack of R such stacks takes an (R, labels) stack of labels,
    row r labelling stack r, and gives an (R, G) array. A prediction
    exactly at the threshold counts as class 1. A NaN or infinite
    prediction raises InvalidArgumentError: it has no class.
    """
    check_probability("threshold", threshold)
    preds = np.asarray(predictions, dtype=float)
    labs = np.asarray(labels)
    lead = labs.shape[:-1]  # the stack axes that labels share with predictions
    if labs.ndim > preds.ndim or preds.shape[: len(lead)] + preds.shape[-1:] != labs.shape:
        raise DimensionMismatchError(f"{preds.shape} predictions vs {labs.shape} labels")
    if preds.shape[-1] == 0:
        raise DimensionMismatchError("cannot score an empty prediction set")
    if not np.isfinite(preds).all():
        raise InvalidArgumentError("predictions must be finite probabilities")
    labs = labs.reshape(lead + (1,) * (preds.ndim - labs.ndim) + labs.shape[-1:])
    hits = np.mean((preds >= threshold) == labs, axis=-1)
    return float(hits) if preds.ndim == 1 else hits


@dataclass(frozen=True)
class PrivacyCheckReport:
    """Outcome of an analytic density-ratio sweep for one mechanism."""

    mechanism: str
    epsilon_claimed: float
    max_log_ratio_observed: float
    passed: bool

    @classmethod
    def from_observation(
        cls, mechanism: str, epsilon_claimed: float, max_log_ratio_observed: float
    ) -> "PrivacyCheckReport":
        return cls(
            mechanism=mechanism,
            epsilon_claimed=epsilon_claimed,
            max_log_ratio_observed=max_log_ratio_observed,
            passed=bool(max_log_ratio_observed <= epsilon_claimed + 1e-9),
        )
