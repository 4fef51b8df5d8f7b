"""Training objectives: masked reconstruction losses for the two pretraining
tasks, and MSE + negative-Pearson for fine-tuning. Masked losses touch only
their supervised entries, so gradients are exactly zero elsewhere.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensorcore as tc
from .tensorcore import Tensor
from .tensorcore.checkpoint import atomic_write


class ZeroVarianceError(ValueError):
    """A correlation term was asked for on a constant vector; callers may
    skip the term for that cross-section instead of failing the batch."""


@dataclass
class LossReport:
    step: int
    l_t: float | None = None
    l_g: float | None = None
    l_pre: float | None = None
    l_mse: float | None = None
    l_pearson: float | None = None
    l_fine: float | None = None

    @classmethod
    def merge(cls, step: int, reports: list["LossReport"]) -> "LossReport":
        """One optimizer step's report from its per-sample reports: each loss
        term is averaged over the samples that computed it."""
        out = cls(step=step)
        for f in fields(cls)[1:]:  # the loss terms
            values = [getattr(r, f.name) for r in reports if getattr(r, f.name) is not None]
            setattr(out, f.name, float(np.mean(values)) if values else None)
        return out

    @property
    def total(self) -> float | None:
        """The objective that was minimized: l_pre in pretraining, l_fine in fine-tuning."""
        return self.l_fine if self.l_pre is None else self.l_pre

    def row(self) -> list[str]:
        return [str(self.step)] + ["" if v is None else f"{v:.8g}" for v in astuple(self)[1:]]


def write_loss_log(path: str | Path, reports: list[LossReport]) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(LossReport))
        writer.writerows(r.row() for r in reports)


def _masked_mse(target, pred: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of (pred - target)^2 over the entries where mask, broadcast to
    pred's shape, is true."""
    diff = pred - target
    return tc.mean(tc.masked_select(diff * diff, mask))


def loss_temporal(x, x_r: Tensor, mask: np.ndarray) -> Tensor:
    """Mean squared reconstruction error over masked (node, step) positions,
    all feature channels included. Unmasked positions cannot influence it."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("temporal loss needs at least one masked position")
    return _masked_mse(x, x_r, mask[:, :, None])


def loss_graph(a, a_hat: Tensor, kept: np.ndarray) -> Tensor:
    """Mean squared adjacency reconstruction error over entries the model was
    allowed to see (kept); hidden entries stay unsupervised."""
    kept = np.asarray(kept, dtype=bool)
    a_arr = np.asarray(a.data if isinstance(a, Tensor) else a)
    if not np.any(kept & (a_arr != 0)):
        raise ValueError("graph loss needs at least one supervised edge")
    return _masked_mse(a_arr, a_hat, kept)


def loss_mse(y_hat: Tensor, y) -> Tensor:
    y_shape = y.shape if isinstance(y, Tensor) else np.shape(y)
    if y_hat.shape != y_shape:
        raise ValueError(f"length mismatch: {y_hat.shape} vs {y_shape}")
    diff = y_hat - y
    return tc.mean(diff * diff)


def loss_pearson(y_hat: Tensor, y) -> Tensor:
    """Negative Pearson correlation: minus the mean product of the two
    standardized vectors (population variance). Raises ZeroVarianceError on
    constant input."""
    y_arr = y.data if isinstance(y, Tensor) else np.asarray(y, dtype=y_hat.data.dtype)
    if float(np.var(y_hat.data)) == 0.0 or float(np.var(y_arr)) == 0.0:
        raise ZeroVarianceError("pearson loss undefined for constant vectors")
    z_y = (y_arr - y_arr.mean()) / y_arr.std()
    return tc.mean(tc.normalize(y_hat, 0.0) * -z_y)


def loss_finetune(y_hat: Tensor, y, lambda_m: float = 0.3
                  ) -> tuple[Tensor, Tensor, Tensor | None]:
    """Weighted MSE plus negative Pearson over one cross-section, returned as
    (total, mse, pearson). A constant cross-section drops the Pearson term
    (pearson is None) instead of failing the batch."""
    mse = loss_mse(y_hat, y)
    try:
        pearson = loss_pearson(y_hat, y)
    except ZeroVarianceError:
        return lambda_m * mse, mse, None
    return lambda_m * mse + pearson, mse, pearson


def loss_pretrain(l_t: Tensor | None, l_g: Tensor | None, beta: float = 1.0) -> Tensor:
    """Combined pretraining objective l_t + beta * l_g; either term may be
    dropped (ablations) but not both."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    if l_t is None and l_g is None:
        raise ValueError("at least one pretraining task must be active")
    if l_t is None:
        return beta * l_g
    if l_g is None or beta == 0.0:
        return l_t
    return l_t + beta * l_g
