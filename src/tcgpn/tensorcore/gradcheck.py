"""Central-finite-difference verification of analytic gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import ParamStore, forward_backward
from .tensor import no_grad


@dataclass
class PathCheck:
    path: str
    max_rel_err: float
    flagged: bool
    unprobeable: bool = False


@dataclass
class GradCheckReport:
    eps: float
    tol: float
    checks: list[PathCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        errs = [c.max_rel_err for c in self.checks if not c.unprobeable]
        return max(errs) if errs else math.nan

    def failed(self) -> list[PathCheck]:
        return [c for c in self.checks if c.flagged or c.unprobeable]

    def ok(self) -> bool:
        return not self.failed()

    def format_table(self) -> str:
        width = max([len(c.path) for c in self.checks] + [4])
        lines = [f"{'path'.ljust(width)}  max_rel_err  status"]
        for c in self.checks:
            if c.unprobeable:
                status, err = "UNPROBEABLE", "-"
            else:
                status = "FAIL" if c.flagged else "ok"
                err = f"{c.max_rel_err:.3e}"
            lines.append(f"{c.path.ljust(width)}  {err:>11}  {status}")
        return "\n".join(lines)


def grad_check(loss_fn, params: ParamStore, eps: float = 1e-5, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central differences, per path.

    Relative error per entry is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    Requires a double-precision store; single precision makes the probe noise
    larger than honest gradient errors.
    """
    if params.dtype != np.float64:
        raise ValueError("grad_check requires a float64 ParamStore "
                         "(use init_params(..., dtype=np.float64))")
    if eps <= 0:
        raise ValueError("eps must be positive")

    _, analytic = forward_backward(loss_fn, params)
    report = GradCheckReport(eps=eps, tol=tol)

    for path, tensor in params.items():
        a = analytic.get(path)
        if a is None:
            a = np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        a_flat = np.asarray(a).reshape(-1)
        worst = 0.0
        unprobeable = False
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                up = float(loss_fn(params).data)
                flat[i] = orig - eps
                down = float(loss_fn(params).data)
            flat[i] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                unprobeable = True
                break
            numeric = (up - down) / (2.0 * eps)
            denom = max(1e-8, abs(a_flat[i]) + abs(numeric))
            rel = abs(a_flat[i] - numeric) / denom
            worst = max(worst, rel)
        report.checks.append(PathCheck(
            path=path,
            max_rel_err=worst,
            flagged=(not unprobeable) and worst > tol,
            unprobeable=unprobeable,
        ))
    return report
