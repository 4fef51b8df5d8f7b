"""Named parameter storage with seeded, order-deterministic initialization."""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .tensor import Tensor


class ParamStore:
    """Learnable tensors keyed by hierarchical path (e.g. "enc.block0.attn.wq").

    Paths are unique; enumeration is lexicographic. Initialization draws
    happen in add() call order from a seeded generator, so the same seed and
    the same construction sequence give bit-identical parameters.
    """

    def __init__(self, seed: int = 0, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._rng = np.random.default_rng(seed)
        self._entries: dict[str, Tensor] = {}

    def add(self, path: str, shape: tuple[int, ...], init: str = "fan_in") -> Tensor:
        if path in self._entries:
            raise ValueError(f"duplicate parameter path: {path}")
        if init == "zeros":
            data = np.zeros(shape, dtype=self.dtype)
        elif init == "ones":
            data = np.ones(shape, dtype=self.dtype)
        elif init == "fan_in":
            bound = 1.0 / np.sqrt(shape[0])
            data = self._rng.uniform(-bound, bound, size=shape).astype(self.dtype)
        else:
            raise ValueError(f"unknown init: {init}")
        t = Tensor(data, requires_grad=True)
        self._entries[path] = t
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._entries[path]

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def paths(self) -> list[str]:
        return sorted(self._entries)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        for path in self.paths():
            yield path, self._entries[path]

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {p: tuple(t.shape) for p, t in self.items()}

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def clone(self) -> "ParamStore":
        return ParamStore.from_arrays({path: t.data for path, t in self._entries.items()})

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ParamStore":
        dtypes = {a.dtype for a in arrays.values()}
        if len(dtypes) > 1:
            raise ValueError(f"mixed parameter dtypes: {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        out = cls(dtype=dtype)
        for path in sorted(arrays):
            out._entries[path] = Tensor(np.array(arrays[path]), requires_grad=True)
        return out


def forward_backward(loss_fn, params: ParamStore) -> tuple[float, dict[str, np.ndarray]]:
    """Evaluate a scalar loss over the store and return (loss, grads by path).

    Grads contain an entry for every parameter the loss actually touched;
    untouched parameters are absent.
    """
    params.zero_grad()
    loss = loss_fn(params)
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    loss.backward()
    grads = {path: t.grad for path, t in params.items() if t.grad is not None}
    return float(loss.data), grads
