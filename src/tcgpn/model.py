"""The fusion encoder and its heads.

Pipeline: feature fusion + sinusoidal positions, per-step graph attention
across nodes added back onto each node's own signal (a residual, so nodes
with the same neighbour set stay distinct), then a stack of causal
transformer blocks whose attention is damped by a Gaussian decay over time
distance. Decoders reconstruct the masked series and the adjacency; the
fine-tune head reads out one score per node. The temporal decoder runs its
query side on the masked steps only, the rows the reconstruction loss reads.

Causality is enforced with hard zeros: `tc.attention` excludes future
positions from the attention row max and gives them exp(-inf) = 0 weight,
so they cannot move earlier outputs even at the bit level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

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
        if not 0 < self.leaky_slope <= 1:
            raise ValueError(f"leaky_slope must be in (0, 1], got {self.leaky_slope}")

    @property
    def gat_out(self) -> int:
        return self.gat_heads * self.gat_dim if self.use_gat else self.d_model

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Ones for layer-norm gains (`*.gamma`), zeros for every other 1-D parameter, fan-in
    uniform for the rest; creation order is fixed so a seed fully determines the initialization."""
    store = ParamStore(seed=seed, dtype=dtype)
    for path, shape in param_shapes(cfg).items():
        store.add(path, shape, "ones" if path.endswith(".gamma") else "zeros" if len(shape) == 1 else "fan_in")
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


# forward passes ----------------------------------------------------------------

NODE_CHUNK = 32  # most nodes per chunk of a forward-only temporal stage; above acceptance's 20


def _by_node_chunk(x: Tensor, stage) -> Tensor:
    """stage(x) for a stage that keeps x's (N, ...) shape and maps each node's rows on their own. Under
    no_grad it runs on the fewest even chunks of at most NODE_CHUNK nodes into one output Tensor, counted
    from the start; in grad mode it runs once, as chunked weight gradients would sum in another order."""
    n = x.shape[0]
    if tc.is_grad_enabled() or n <= NODE_CHUNK:
        return stage(x)
    out, parts = Tensor(np.empty_like(x.data)), -(-n // NODE_CHUNK)
    for i in range(parts):
        rows = slice(n * i // parts, n * (i + 1) // parts)
        out.data[rows] = stage(Tensor(x.data[rows])).data
    return out


def fuse_and_position(values, params: ParamStore, cfg: ModelConfig) -> Tensor:
    """Map raw features to model width and add the positional table."""
    w, b = params["fuse.weight"], params["fuse.bias"]
    x = values if isinstance(values, Tensor) else Tensor(np.asarray(values, dtype=w.data.dtype))
    if x.shape[2] != cfg.n_features or w.shape[0] != x.shape[2]:
        raise ValueError(f"feature dim {x.shape[2]} does not match fusion weight {w.shape}")
    if x.shape[1] != cfg.window:
        raise ValueError(f"window {x.shape[1]} != configured {cfg.window}")
    pe = positional_table(cfg.window, cfg.d_model).astype(w.data.dtype)
    return tc.linear(x, w, b) + pe[None, :, :]


def gat_forward(x: Tensor, connectivity: np.ndarray, params: ParamStore,
                cfg: ModelConfig) -> Tensor:
    """Multi-head graph attention applied independently at every time step
    with shared weights. Neighbor sets come from nonzero adjacency entries
    plus an always-present self-loop; per-head aggregations are concatenated.

    The stage runs time-major: x goes to (T, N, d) once. Each head projects
    h = x W (T, N, g) and scores both halves of its attention vector in one
    product, e = h @ [a_src a_dst] of shape (T, N, 2). The stage ends at the
    `tc.graph_attention` node, the whole GAT layer with each head's LeakyReLU
    and a node-major (N, T, H g) output; it keeps (T, H, E) edge weights for
    backward, not dense (T, N, N) maps, and nothing under no_grad.
    """
    n = x.shape[0]
    if connectivity.shape != (n, n):
        raise ValueError(f"connectivity shape {connectivity.shape} != ({n}, {n})")
    keep = np.asarray(connectivity, dtype=bool) | np.eye(n, dtype=bool)
    t, d = x.shape[1:]
    # one contiguous (T, N, d) copy: the (T*N, d) reshape of the transposed
    # view copies it, so no head's projection or weight gradient copies again
    x_t = tc.reshape(tc.reshape(tc.transpose(x, (1, 0, 2)), (t * n, d)), (t, n, d))
    hs, es = [], []
    for k in range(cfg.gat_heads):
        hs.append(tc.linear(x_t, params[f"gat.h{k}.weight"]))  # (T, N, g)
        a = tc.transpose(tc.reshape(params[f"gat.h{k}.attn"], (2, cfg.gat_dim)), (1, 0))  # (g, 2)
        es.append(tc.linear(hs[-1], a))  # (T, N, 2)
    del x_t  # under no_grad nothing else holds it; in grad mode the head linears do
    return tc.graph_attention(hs, es, keep, cfg.leaky_slope)  # (N, T, H g)


def tgm_block(x: Tensor, params: ParamStore, prefix: str, cfg: ModelConfig,
              decay: np.ndarray, attention_out: list[np.ndarray] | None = None,
              queries: Tensor | None = None) -> Tensor:
    """One causal transformer block: per-node multi-head attention over time
    reweighted by the Gaussian decay, then residual + layer norm, a
    position-wise feed-forward, and a second residual + layer norm.

    Keys and values come from every row of x (N, T, d). The query side (the
    query projection, attention rows, output projection, both residuals and
    layer norms, and the feed-forward) runs on `queries` (N, S, d), which
    defaults to x; `decay` then has S rows, (S, T) or per node (N, 1, S, T).

    Each activation is dropped after its last reader: the projections and
    attention weights before the output projection, the attention output
    after it, the hidden layers inside the feed-forward. Under no_grad
    nothing else holds them, so the feed-forward runs without the attention
    stage's arrays; in grad mode the vjps keep what they read, as before.
    """
    q_in = x if queries is None else queries
    mixed, weights = tc.attention(  # weights (N, H, S, T)
        tc.linear(q_in, params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.bq"]),
        tc.linear(x, params[f"{prefix}.attn.wk"]),
        tc.linear(x, params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.bv"]), decay, cfg.tgm_heads)
    if attention_out is not None:
        attention_out.append(weights.data.copy())
    del weights
    mixed = tc.linear(mixed, params[f"{prefix}.attn.wo"], params[f"{prefix}.attn.bo"])
    x1 = tc.normalize(q_in + mixed, 1e-5, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"])
    del mixed
    ffn = tc.linear(tc.relu(tc.linear(x1, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"])),
                    params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    return tc.normalize(x1 + ffn, 1e-5, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])


def encoder_forward(values, connectivity: np.ndarray, params: ParamStore, cfg: ModelConfig,
                    attention_out: list[np.ndarray] | None = None) -> Tensor:
    """Full encoder: fusion + positions, a residual graph-attention stage,
    then the stack of causal decay blocks; returns the (N, T, d_model)
    encodings. With attention_out, each block appends its (N, H, T, T)
    attention map to that list. Under no_grad each decay block, which treats
    each node on its own, runs per node chunk (`_by_node_chunk`).

    The graph stage adds the projected neighbour aggregation to each node's
    own signal, x + proj(GAT(x)), so members of one clique keep distinct
    encodings; GAT alone would give them nearly one shared vector. With GAT
    ablated the stage is the width projection proj(x).
    """
    x = fuse_and_position(values, params, cfg)
    if cfg.use_gat:
        x = x + tc.linear(gat_forward(x, connectivity, params, cfg),
                          params["proj.weight"], params["proj.bias"])
    else:
        x = tc.linear(x, params["proj.weight"], params["proj.bias"])
    decay = gaussian_mask(cfg.window, cfg.sigma_h)
    for i in range(cfg.tgm_blocks):
        maps = None if attention_out is None else []  # the block's map of each node chunk
        x = _by_node_chunk(x, functools.partial(tgm_block, params=params, prefix=f"enc.block{i}", cfg=cfg,
                                                decay=decay, attention_out=maps))
        if maps is not None:
            attention_out.append(np.concatenate(maps))
    return x


def temporal_decoder(o_l: Tensor, params: ParamStore, cfg: ModelConfig,
                     mask: np.ndarray | None = None) -> Tensor:
    """Causal single-block decoder mapping encodings back to feature space,
    evaluated only at the (N, T) steps where `mask` is true (every step when
    mask is None). Returns (N, T, F) with exact zeros at the other steps.

    Every node must have the same count S of true steps. One constant one-hot
    (N, T, S) array does both moves: its transpose gathers their encodings
    into (N, S, d) queries, the block attends from them over all T
    encodings, and its product scatters the decoded rows back into place.
    """
    n, t, _ = o_l.shape
    mask = np.ones((n, t), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != (n, t) or np.ptp(mask.sum(axis=1)) != 0:
        raise ValueError(f"temporal_decoder: mask must be ({n}, {t}) with the same step count on every node")
    steps = np.nonzero(mask)[1].reshape(n, -1)  # each node's S true steps, ascending
    s = steps.shape[1]
    scatter = np.zeros((n, t, s), dtype=o_l.data.dtype)
    scatter[np.arange(n)[:, None], steps, np.arange(s)] = 1.0
    rows = tc.matmul(scatter.transpose(0, 2, 1), o_l)  # (N, S, d)
    decay = gaussian_mask(cfg.window, cfg.sigma_h)[steps][:, None]  # (N, 1, S, T)
    x = tgm_block(o_l, params, "dec.block0", cfg, decay, queries=rows)
    out = tc.linear(x, params["dec.out.weight"], params["dec.out.bias"])  # (N, S, F)
    return tc.matmul(scatter, out)


def adjacency_decoder(o_l: Tensor, params: ParamStore) -> Tensor:
    """Key-value adjacency reconstruction from time-averaged node summaries:
    two linear maps produce left/right factors whose outer product is the
    predicted adjacency (rank bounded by the factor width)."""
    summary = tc.mean(o_l, axis=1)  # (N, d_model)
    left = tc.linear(summary, params["adj.left.weight"], params["adj.left.bias"])
    right = tc.linear(summary, params["adj.right.weight"], params["adj.right.bias"])
    return tc.matmul(left, tc.transpose(right, (1, 0)))


def finetune_head(o_l: Tensor, params: ParamStore, cfg: ModelConfig) -> Tensor:
    """Per-node score: residual two-layer MLP on the encoding, then a predict
    layer over the flattened window. Under no_grad the MLP runs per node chunk
    (`_by_node_chunk`); the predict layer's (N, T d) @ (T d, 1) product, whose
    rounding may depend on its row count, runs once over all nodes."""
    n, t, d = o_l.shape

    def mlp(x: Tensor) -> Tensor:
        inner = tc.relu(tc.linear(x, params["head.fc1.weight"], params["head.fc1.bias"]))
        return tc.linear(inner, params["head.fc2.weight"], params["head.fc2.bias"]) + x

    flat = tc.reshape(_by_node_chunk(o_l, mlp), (n, t * d))
    score = tc.linear(flat, params["head.out.weight"], params["head.out.bias"])
    return tc.reshape(score, (n,))
