"""Training objectives: masked reconstruction losses for the two pretraining
tasks, and MSE + negative-Pearson for fine-tuning. Masked losses touch only
their supervised entries, so gradients are exactly zero elsewhere.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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

    FIELDS = ("step", "l_t", "l_g", "l_pre", "l_mse", "l_pearson", "l_fine")

    @classmethod
    def merge(cls, step: int, reports: list["LossReport"]) -> "LossReport":
        """One optimizer step's report from its per-sample reports: each loss
        term is averaged over the samples that computed it."""
        out = cls(step=step)
        for name in cls.FIELDS[1:]:  # the loss terms
            values = [getattr(r, name) for r in reports if getattr(r, name) is not None]
            setattr(out, name, float(np.mean(values)) if values else None)
        return out

    @property
    def total(self) -> float | None:
        """The objective that was minimized: l_pre in pretraining, l_fine in fine-tuning."""
        return self.l_fine if self.l_pre is None else self.l_pre

    def row(self) -> list[str]:
        out = []
        for name in self.FIELDS:
            v = getattr(self, name)
            out.append("" if v is None else (str(v) if name == "step" else f"{v:.8g}"))
        return out


def write_loss_log(path: str | Path, reports: list[LossReport]) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LossReport.FIELDS)
        writer.writerows(r.row() for r in reports)


def _as_const(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def loss_temporal(x, x_r: Tensor, mask: np.ndarray) -> Tensor:
    """Mean squared reconstruction error over masked (node, step) positions,
    all feature channels included. Unmasked positions cannot influence it."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("temporal loss needs at least one masked position")
    x_const = _as_const(x, x_r)
    diff = x_r - x_const
    sq = diff * diff
    selected = tc.masked_select(sq, mask[:, :, None])
    return tc.mean(selected)


def loss_graph(a, a_hat: Tensor, kept: np.ndarray) -> Tensor:
    """Mean squared adjacency reconstruction error over entries the model was
    allowed to see (kept); hidden entries stay unsupervised."""
    kept = np.asarray(kept, dtype=bool)
    a_arr = np.asarray(a.data if isinstance(a, Tensor) else a)
    if not np.any(kept & (a_arr != 0)):
        raise ValueError("graph loss needs at least one supervised edge")
    a_const = _as_const(a_arr, a_hat)
    diff = a_hat - a_const
    sq = diff * diff
    return tc.mean(tc.masked_select(sq, kept))


def loss_mse(y_hat: Tensor, y) -> Tensor:
    y_const = _as_const(y, y_hat)
    if y_hat.shape != y_const.shape:
        raise ValueError(f"length mismatch: {y_hat.shape} vs {y_const.shape}")
    diff = y_hat - y_const
    return tc.mean(diff * diff)


def loss_pearson(y_hat: Tensor, y) -> Tensor:
    """Negative Pearson correlation: minus the mean product of the two
    standardized vectors (population variance). Raises ZeroVarianceError on
    constant input."""
    y_arr = _as_const(y, y_hat).data
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
