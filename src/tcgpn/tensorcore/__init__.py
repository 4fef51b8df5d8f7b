"""Self-contained tensor engine: reverse-mode autodiff, Adam, gradient
checking, checkpointing and live-memory accounting."""

from . import memory
from .checkpoint import MAGIC, load_checkpoint, save_checkpoint
from .gradcheck import GradCheckReport, PathCheck, grad_check
from .optim import Adam
from .params import ParamStore, forward_backward
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    decay_softmax,
    div,
    leaky_relu,
    masked_select,
    matmul,
    mean,
    mul,
    neg,
    no_grad,
    relu,
    reshape,
    sqrt,
    sub,
    sum,
    transpose,
)

__all__ = [
    "Adam",
    "GradCheckReport",
    "MAGIC",
    "ParamStore",
    "PathCheck",
    "ShapeError",
    "Tensor",
    "add",
    "concat",
    "decay_softmax",
    "div",
    "forward_backward",
    "grad_check",
    "leaky_relu",
    "load_checkpoint",
    "masked_select",
    "matmul",
    "mean",
    "memory",
    "mul",
    "neg",
    "no_grad",
    "relu",
    "reshape",
    "save_checkpoint",
    "sqrt",
    "sub",
    "sum",
    "transpose",
]
