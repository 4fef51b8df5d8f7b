"""Self-contained tensor engine: reverse-mode autodiff, Adam, gradient
checking, checkpointing and live-memory accounting."""

from . import memory, tensor as _tensor
from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, PathCheck, grad_check
from .optim import Adam
from .params import ParamStore, forward_backward
from .tensor import (
    ShapeError,
    Tensor,
    add,
    attention,
    div,
    feed_forward,
    graph_attention,
    linear,
    masked_select,
    matmul,
    mean,
    mul,
    no_grad,
    normalize,
    reshape,
    sub,
    sum,
    transpose,
)


def is_grad_enabled() -> bool:
    """False inside `no_grad`, where primitives record no backward graph."""
    return _tensor._grad_enabled


__all__ = [
    "Adam",
    "GradCheckReport",
    "MAGIC",
    "ParamStore",
    "PathCheck",
    "ShapeError",
    "Tensor",
    "add",
    "attention",
    "div",
    "feed_forward",
    "forward_backward",
    "grad_check",
    "graph_attention",
    "is_grad_enabled",
    "linear",
    "load_checkpoint",
    "masked_select",
    "matmul",
    "mean",
    "memory",
    "mul",
    "no_grad",
    "normalize",
    "reshape",
    "save_checkpoint",
    "sub",
    "sum",
    "transpose",
]
