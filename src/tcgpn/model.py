"""The fusion encoder and its heads.

Pipeline: feature fusion + sinusoidal positions, per-step graph attention
across nodes added back onto each node's own signal (a residual, so nodes
with the same neighbour set stay distinct), then a stack of causal
transformer blocks whose attention is damped by a Gaussian decay over time
distance. Decoders reconstruct the masked series and the adjacency; the
fine-tune head reads out one score per node.

Causality is enforced with hard zeros: `tc.decay_softmax` excludes future
positions from the attention row max and gives them exp(-inf) = 0 weight,
so they cannot move earlier outputs even at the bit level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import tensorcore as tc
from .tensorcore import ParamStore, Tensor


@dataclass
class ModelConfig:
    n_features: int
    d_model: int = 128
    gat_heads: int = 4
    gat_dim: int = 32
    tgm_blocks: int = 3
    tgm_heads: int = 8
    sigma_h: float | None = None  # defaults to T/4
    window: int = 30
    leaky_slope: float = 0.2
    d_a: int = 32
    ffn_hidden: int | None = None  # defaults to 2*d_model
    head_hidden: int | None = None  # defaults to 2*d_model
    decoder_blocks: int = 1
    use_gat: bool = True

    def __post_init__(self):
        if self.sigma_h is None:
            self.sigma_h = self.window / 4.0
        if self.ffn_hidden is None:
            self.ffn_hidden = 2 * self.d_model
        if self.head_hidden is None:
            self.head_hidden = 2 * self.d_model
        if self.d_model % self.tgm_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by tgm_heads={self.tgm_heads}")
        if self.sigma_h <= 0:
            raise ValueError("sigma_h must be positive")
        if self.decoder_blocks != 1:
            raise ValueError("the temporal decoder is a single block")

    @property
    def gat_out(self) -> int:
        return self.gat_heads * self.gat_dim if self.use_gat else self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class EncoderOutput:
    o_l: Tensor  # (N, T, d_model)
    attention: Optional[list[np.ndarray]] = None  # per block, (N, H, T, T)


HEAD_PREFIX = "head."


# parameters ------------------------------------------------------------------


def _block_shapes(prefix: str, cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, h = cfg.d_model, cfg.ffn_hidden
    shapes: dict[str, tuple[int, ...]] = {}
    for name in ("wq", "wk", "wv", "wo"):
        shapes[f"{prefix}.attn.{name}"] = (d, d)
    for name in ("bq", "bv", "bo"):  # no key bias: the row softmax cancels q.bk
        shapes[f"{prefix}.attn.{name}"] = (d,)
    shapes[f"{prefix}.ln1.gamma"] = (d,)
    shapes[f"{prefix}.ln1.beta"] = (d,)
    shapes[f"{prefix}.ln2.gamma"] = (d,)
    shapes[f"{prefix}.ln2.beta"] = (d,)
    shapes[f"{prefix}.ffn.w1"] = (d, h)
    shapes[f"{prefix}.ffn.b1"] = (h,)
    shapes[f"{prefix}.ffn.w2"] = (h, d)
    shapes[f"{prefix}.ffn.b2"] = (d,)
    return shapes


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every learnable path and its shape; also the checkpoint contract."""
    shapes: dict[str, tuple[int, ...]] = {
        "fuse.weight": (cfg.n_features, cfg.d_model),
        "fuse.bias": (cfg.d_model,),
    }
    if cfg.use_gat:
        for k in range(cfg.gat_heads):
            shapes[f"gat.h{k}.weight"] = (cfg.d_model, cfg.gat_dim)
            shapes[f"gat.h{k}.attn"] = (2 * cfg.gat_dim, 1)
    shapes["proj.weight"] = (cfg.gat_out, cfg.d_model)
    shapes["proj.bias"] = (cfg.d_model,)
    for i in range(cfg.tgm_blocks):
        shapes.update(_block_shapes(f"enc.block{i}", cfg))
    shapes.update(_block_shapes("dec.block0", cfg))
    shapes["dec.out.weight"] = (cfg.d_model, cfg.n_features)
    shapes["dec.out.bias"] = (cfg.n_features,)
    for side in ("left", "right"):
        shapes[f"adj.{side}.weight"] = (cfg.d_model, cfg.d_a)
        shapes[f"adj.{side}.bias"] = (cfg.d_a,)
    shapes["head.fc1.weight"] = (cfg.d_model, cfg.head_hidden)
    shapes["head.fc1.bias"] = (cfg.head_hidden,)
    shapes["head.fc2.weight"] = (cfg.head_hidden, cfg.d_model)
    shapes["head.fc2.bias"] = (cfg.d_model,)
    shapes["head.out.weight"] = (cfg.window * cfg.d_model, 1)
    shapes["head.out.bias"] = (1,)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ParamStore:
    """Fan-in uniform weights, zero biases, unit layer-norm gains; creation
    order is fixed so a seed fully determines the initialization."""
    store = ParamStore(seed=seed, dtype=dtype)
    for path, shape in param_shapes(cfg).items():
        if path.endswith(("gamma",)):
            store.add(path, shape, "ones")
        elif path.endswith(("bias", "beta", ".b1", ".b2", ".bq", ".bv", ".bo")):
            store.add(path, shape, "zeros")
        else:
            store.add(path, shape, "fan_in")
    return store


# building blocks --------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def positional_table(window: int, d_model: int) -> np.ndarray:
    """Sin/cos table over (step, channel): even channels sine, odd cosine."""
    pe = np.zeros((window, d_model))
    pos = np.arange(window)[:, None]
    idx = np.arange(0, d_model, 2)
    rates = np.exp(-math.log(10000.0) * idx / d_model)
    angles = pos * rates[None, :]
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : pe[:, 1::2].shape[1]])
    pe.flags.writeable = False
    return pe


@functools.lru_cache(maxsize=32)
def gaussian_mask(window: int, sigma_h: float) -> np.ndarray:
    """Causal decay matrix: zero strictly above the diagonal, else
    exp(-(i-j)^2 / (2 sigma_h^2)) for query step i and key step j."""
    if sigma_h <= 0:
        raise ValueError("sigma_h must be positive")
    i = np.arange(window)[:, None]
    j = np.arange(window)[None, :]
    decay = np.exp(-((j - i) ** 2) / (2.0 * sigma_h ** 2))
    out = np.where(j > i, 0.0, decay)
    out.flags.writeable = False
    return out


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return tc.matmul(x, w) + b


def _layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mu = tc.mean(x, axis=-1, keepdims=True)
    centered = x - mu
    var = tc.mean(centered * centered, axis=-1, keepdims=True)
    return (centered / tc.sqrt(var + eps)) * gamma + beta


# forward passes ----------------------------------------------------------------


def fuse_and_position(values, params: ParamStore, cfg: ModelConfig) -> Tensor:
    """Map raw features to model width and add the positional table."""
    w, b = params["fuse.weight"], params["fuse.bias"]
    x = _as_tensor(values, w.data.dtype)
    if x.shape[2] != cfg.n_features or w.shape[0] != x.shape[2]:
        raise ValueError(f"feature dim {x.shape[2]} does not match fusion weight {w.shape}")
    if x.shape[1] != cfg.window:
        raise ValueError(f"window {x.shape[1]} != configured {cfg.window}")
    pe = positional_table(cfg.window, cfg.d_model).astype(w.data.dtype)
    return _linear(x, w, b) + pe[None, :, :]


def gat_forward(x: Tensor, connectivity: np.ndarray, params: ParamStore,
                cfg: ModelConfig) -> Tensor:
    """Multi-head graph attention applied independently at every time step
    with shared weights. Neighbor sets come from nonzero adjacency entries
    plus an always-present self-loop; per-head aggregations are concatenated.

    The stage runs time-major: x goes to (T, N, d) once, each head attends
    over (T, N, N) logits [t, i, j], and the result comes back to (N, T, .).
    """
    n = x.shape[0]
    if connectivity.shape != (n, n):
        raise ValueError(f"connectivity shape {connectivity.shape} != ({n}, {n})")
    keep = np.asarray(connectivity, dtype=bool) | np.eye(n, dtype=bool)
    g = cfg.gat_dim
    half = np.zeros((2 * g, 1), dtype=bool)
    half[:g] = True
    x_t = tc.transpose(x, (1, 0, 2))  # (T, N, d)
    heads = []
    for k in range(cfg.gat_heads):
        w = params[f"gat.h{k}.weight"]
        a = params[f"gat.h{k}.attn"]
        h = tc.matmul(x_t, w)  # (T, N, g)
        a_src = tc.reshape(tc.masked_select(a, half), (g, 1))
        a_dst = tc.reshape(tc.masked_select(a, ~half), (g, 1))
        e_src = tc.matmul(h, a_src)  # (T, N, 1)
        e_dst = tc.transpose(tc.matmul(h, a_dst), (0, 2, 1))  # (T, 1, N)
        alpha = tc.decay_softmax(tc.leaky_relu(e_src + e_dst, cfg.leaky_slope), keep)
        heads.append(tc.matmul(alpha, h))  # (T, N, g)
    z = heads[0] if len(heads) == 1 else tc.concat(heads, axis=2)
    return tc.leaky_relu(tc.transpose(z, (1, 0, 2)), cfg.leaky_slope)


def tgm_block(x: Tensor, params: ParamStore, prefix: str, cfg: ModelConfig,
              decay: np.ndarray, attention_out: list[np.ndarray] | None = None) -> Tensor:
    """One causal transformer block: per-node multi-head attention over time
    reweighted by the Gaussian decay, then residual + layer norm, a
    position-wise feed-forward, and a second residual + layer norm."""
    n, t = x.shape[0], x.shape[1]
    d, n_heads = cfg.d_model, cfg.tgm_heads
    dk = d // n_heads

    def split_heads(y: Tensor) -> Tensor:
        return tc.transpose(tc.reshape(y, (n, t, n_heads, dk)), (0, 2, 1, 3))

    q = split_heads(_linear(x, params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"]))
    k = split_heads(tc.matmul(x, params[f"{prefix}.attn.wk"]))
    v = split_heads(_linear(x, params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"]))
    scores = tc.matmul(q, tc.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dk))
    weights = tc.decay_softmax(scores, decay)  # (N, H, T, T)
    if attention_out is not None:
        attention_out.append(weights.data.copy())
    mixed = tc.reshape(tc.transpose(tc.matmul(weights, v), (0, 2, 1, 3)), (n, t, d))
    mixed = _linear(mixed, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])
    x1 = _layer_norm(x + mixed, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"])
    inner = tc.relu(_linear(x1, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"]))
    ffn = _linear(inner, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    return _layer_norm(x1 + ffn, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])


def encoder_forward(values, connectivity: np.ndarray, params: ParamStore,
                    cfg: ModelConfig, record_attention: bool = False) -> EncoderOutput:
    """Full encoder: fusion + positions, a residual graph-attention stage,
    then the stack of causal decay blocks.

    The graph stage adds the projected neighbour aggregation to each node's
    own signal, x + proj(GAT(x)), so members of one clique keep distinct
    encodings; GAT alone would give them nearly one shared vector. With GAT
    ablated the stage is the width projection proj(x).
    """
    x = fuse_and_position(values, params, cfg)
    if cfg.use_gat:
        x = x + _linear(gat_forward(x, connectivity, params, cfg),
                        params["proj.weight"], params["proj.bias"])
    else:
        x = _linear(x, params["proj.weight"], params["proj.bias"])
    decay = gaussian_mask(cfg.window, cfg.sigma_h)
    maps: list[np.ndarray] | None = [] if record_attention else None
    for i in range(cfg.tgm_blocks):
        x = tgm_block(x, params, f"enc.block{i}", cfg, decay, attention_out=maps)
    return EncoderOutput(o_l=x, attention=maps)


def temporal_decoder(out: EncoderOutput, params: ParamStore, cfg: ModelConfig) -> Tensor:
    """Causal single-block decoder mapping encodings back to feature space."""
    decay = gaussian_mask(cfg.window, cfg.sigma_h)
    x = tgm_block(out.o_l, params, "dec.block0", cfg, decay)
    return _linear(x, params["dec.out.weight"], params["dec.out.bias"])


def adjacency_decoder(out: EncoderOutput, params: ParamStore) -> Tensor:
    """Key-value adjacency reconstruction from time-averaged node summaries:
    two linear maps produce left/right factors whose outer product is the
    predicted adjacency (rank bounded by the factor width)."""
    summary = tc.mean(out.o_l, axis=1)  # (N, d_model)
    left = _linear(summary, params["adj.left.weight"], params["adj.left.bias"])
    right = _linear(summary, params["adj.right.weight"], params["adj.right.bias"])
    return tc.matmul(left, tc.transpose(right, (1, 0)))


def finetune_head(out: EncoderOutput | Tensor, params: ParamStore, cfg: ModelConfig) -> Tensor:
    """Per-node score: residual two-layer MLP on the encoding, then a predict
    layer over the flattened window."""
    o_l = out.o_l if isinstance(out, EncoderOutput) else out
    o_l = _as_tensor(o_l, params["head.fc1.weight"].data.dtype)
    n, t, d = o_l.shape
    inner = tc.relu(_linear(o_l, params["head.fc1.weight"], params["head.fc1.bias"]))
    inner = _linear(inner, params["head.fc2.weight"], params["head.fc2.bias"])
    merged = inner + o_l
    flat = tc.reshape(merged, (n, t * d))
    score = _linear(flat, params["head.out.weight"], params["head.out.bias"])
    return tc.reshape(score, (n,))
