"""The benchmark's workloads: seeded input files, set-up, the four timed
phases (pretrain, finetune, predict, backtest) and the output checks.

Every workload runs every phase, because every end-to-end metric is reported
on every workload; the phase sizes differ so that each workload is bound by a
different layer. One caller in one process drives the same public functions
the CLI subcommands call.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tcgpn import augment, backtest, data, graphs, losses, model, train
from tcgpn.tensorcore import checkpoint as checkpoint_format
from tcgpn.tensorcore import memory, optim, save_checkpoint
from tcgpn.tensorcore import tensor as tensor_module

from hostspeed import adjusted_rate, time_reference
from spans import Patches, Tracer, summarize, under

# tests/test_acceptance.py BENCH_MODEL, the acceptance scale.
ACCEPT_MODEL = dict(n_features=4, d_model=24, gat_heads=2, gat_dim=8, tgm_blocks=1,
                    tgm_heads=4, window=30, d_a=8, ffn_hidden=48, head_hidden=48)
# ModelConfig defaults are the paper width: d=128, 4x32 GAT heads, 3 TGM blocks x 8 heads.
PAPER_MODEL = dict(n_features=4)
SMOKE_MODEL = dict(n_features=4, d_model=8, gat_heads=1, gat_dim=4, tgm_blocks=1,
                   tgm_heads=2, window=8, d_a=4, ffn_hidden=8, head_hidden=8)

TRAIN_FRAC, VAL_FRAC = 0.7, 0.15
BATCH = 8
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.25  # least time between two timings of the host reference
# How the interpreted backtest's speed moves with the host's, as a power of the
# reference's speed; Plan.host_sensitivity gives it for the model phases.
BACKTEST_SENSITIVITY = 1.0
PHASES = ("pretrain", "finetune", "predict", "backtest")


@dataclass(frozen=True)
class Plan:
    """Input sizes and phase sizes of one workload. A window count of None
    keeps every window of that split."""

    nodes: int  # multiple of 5: lead-lag clusters of five
    dates: int
    model: dict
    graph: str  # "truth": generator's graph file; "build": kNN in set-up; "file": kNN file
    strides: tuple[int, int, int]  # train, val, test window strides
    pretrain_windows: tuple[int | None, int | None]  # train, val
    pretrain_epochs: int
    pretrain_lr: float
    finetune_windows: tuple[int | None, int | None]
    finetune_epochs: int
    finetune_lr: float
    test_windows: int | None
    budget: dict  # phase -> its measuring time as a fraction of --seconds
    headline: str  # phase whose tensor high-water mark is tensor_peak_mb
    # How the speed of pretrain, finetune and predict moves with the host's, as a
    # power of the reference's speed (hostspeed.adjusted_rate): 1 where small
    # interpreted tensor ops bind, less where BLAS and memory do.
    host_sensitivity: float
    n_sub: int = 0
    knn_k: int = 10
    input_checkpoint: bool = False  # set-up loads a checkpoint instead of initializing
    generated_scores: bool = False  # backtest a generated score history, not the predictions
    check_loss_drop: bool = False
    min_units: dict = field(default_factory=dict)  # phase -> units run even past the budget
    predict_chunk: int | None = None  # test windows per predict unit; None is a whole pass


PLANS = {
    "accept_pipeline": Plan(
        nodes=20, dates=600, model=ACCEPT_MODEL, graph="truth", strides=(2, 1, 1),
        pretrain_windows=(None, None), pretrain_epochs=2, pretrain_lr=2e-3,
        finetune_windows=(None, None), finetune_epochs=2, finetune_lr=5e-3,
        test_windows=None, check_loss_drop=True, headline="pretrain", host_sensitivity=1.0,
        budget={"pretrain": 0.42, "finetune": 0.3, "predict": 0.06, "backtest": 0.22}),
    "paper_pretrain": Plan(
        nodes=200, dates=240, model=PAPER_MODEL, graph="build", strides=(8, 1, 1),
        pretrain_windows=(8, 1), pretrain_epochs=1, pretrain_lr=1e-3,
        finetune_windows=(4, 1), finetune_epochs=1, finetune_lr=1e-3,
        test_windows=4, headline="pretrain", host_sensitivity=0.6,
        budget={"pretrain": 0.74, "finetune": 0.1, "predict": 0.06, "backtest": 0.1},
        min_units={"pretrain": 2, "finetune": 2, "predict": 2, "backtest": 10}),
    "paper_infer": Plan(
        nodes=200, dates=1500, model=PAPER_MODEL, graph="file", strides=(5, 5, 5),
        pretrain_windows=(16, 1), pretrain_epochs=1, pretrain_lr=1e-3, n_sub=24,
        finetune_windows=(4, 1), finetune_epochs=1, finetune_lr=1e-3,
        test_windows=None, input_checkpoint=True, generated_scores=True, headline="predict",
        host_sensitivity=0.6,
        budget={"pretrain": 0.1, "finetune": 0.15, "predict": 0.5, "backtest": 0.25},
        predict_chunk=13, min_units={"pretrain": 2, "finetune": 2, "predict": 3, "backtest": 3}),
}

# Shrunk so a whole run takes seconds; used by the harness self-test.
SMOKE = {
    "accept_pipeline": dict(nodes=10, dates=120, model=SMOKE_MODEL, strides=(4, 2, 2),
                            pretrain_epochs=3, pretrain_lr=1e-2),
    "paper_pretrain": dict(nodes=10, dates=120, model=SMOKE_MODEL, strides=(4, 2, 2),
                           pretrain_windows=(4, 1), finetune_windows=(2, 1),
                           test_windows=2, knn_k=3),
    "paper_infer": dict(nodes=10, dates=160, model=SMOKE_MODEL, strides=(4, 4, 4),
                        pretrain_windows=(4, 1), n_sub=6, knn_k=3, predict_chunk=2),
}


def plan_for(workload: str, smoke: bool = False) -> Plan:
    plan = PLANS[workload]
    return dataclasses.replace(plan, **SMOKE[workload]) if smoke else plan


# inputs ---------------------------------------------------------------------------


@dataclass
class Inputs:
    panel: Path
    returns: Path
    graph: Path | None = None
    checkpoint: Path | None = None
    scores: Path | None = None


def make_inputs(plan: Plan, seed: int, work: Path) -> Inputs:
    """Write the workload's input files; the same seed gives the same files."""
    spec = data.SyntheticSpec(n_clusters=plan.nodes // 5, nodes_per_cluster=5, lag=1,
                              noise_std=0.4, length=plan.dates, seed=seed)
    panel, truth = data.gen_synthetic(spec)
    inputs = Inputs(panel=work / "panel.csv", returns=work / "returns.csv")
    data.save_panel(inputs.panel, panel)
    data.save_returns(inputs.returns, panel)
    if plan.graph != "build":
        inputs.graph = work / "graph.txt"
        graph = truth if plan.graph == "truth" else graphs.build_distance_graph(
            data.split_by_fraction(panel, TRAIN_FRAC, VAL_FRAC)[0], plan.knn_k)
        graphs.save_graph(inputs.graph, graph)
    if plan.input_checkpoint:
        inputs.checkpoint = work / "input.ckpt"
        cfg = model.ModelConfig(**plan.model)
        save_checkpoint(inputs.checkpoint, model.init_params(cfg, seed=seed),
                        config={"model": cfg.to_dict(), "phase": "pretrain"})
    if plan.generated_scores:
        # A score history with some skill: the next date's return plus noise.
        inputs.scores = work / "scores.csv"
        rng = np.random.default_rng(seed)
        nxt = np.concatenate([panel.targets[:, 1:], np.zeros((plan.nodes, 1))], axis=1)
        noisy = nxt / nxt.std() + rng.normal(0.0, 3.0, size=nxt.shape)
        rows = [(d, panel.node_ids, noisy[:, j]) for j, d in enumerate(panel.dates)]
        train.write_predictions(inputs.scores, rows)
    return inputs


# set-up ---------------------------------------------------------------------------


@dataclass
class Ready:
    """What set-up hands to the phases."""

    cfg: model.ModelConfig
    graph: graphs.CorrelationGraph
    windows: tuple[list, list, list]  # train, val, test
    params: object  # the input checkpoint's parameters, if the workload has one


def set_up(plan: Plan, inputs: Inputs, seed: int) -> Ready:
    """Load panel and graph, split, standardize and window, then load the
    input checkpoint if there is one, as the CLI subcommands do before working."""
    panel, _ = data.load_panel(inputs.panel)
    parts = data.split_by_fraction(panel, TRAIN_FRAC, VAL_FRAC)
    if plan.graph == "build":
        graph = graphs.build_distance_graph(parts[0], plan.knn_k)
    else:
        graph = graphs.load_graph(inputs.graph, panel.node_ids)
    stats = data.feature_stats(parts[0])
    parts = tuple(data.standardize(p, stats) for p in parts)
    cfg = model.ModelConfig(**plan.model)
    windows = tuple(data.window_samples(p, cfg.window, s) for p, s in zip(parts, plan.strides))
    params = None  # train.pretrain initializes its own parameters
    if inputs.checkpoint is not None:
        params, cfg = train.load_pretrained(inputs.checkpoint, cfg)
    # Warm-up a user pays once per process: the lru_cache tables and a first BLAS call.
    model.positional_table(cfg.window, cfg.d_model)
    model.gaussian_mask(cfg.window, cfg.sigma_h)
    eye = np.eye(cfg.d_model, dtype=np.float32)
    float((eye @ eye).sum())
    return Ready(cfg=cfg, graph=graph, windows=windows, params=params)


def _first(items: list, n: int | None) -> list:
    return items if n is None else items[:n]


# instrumentation --------------------------------------------------------------------


# (owner, attribute, span name). Each wrapper sits where the caller looks the
# function up: train imports the checkpoint functions by name, model functions
# call each other through module globals, Tensor.backward and Adam.step are
# class attributes.
SPAN_SITES = [
    (tensor_module.Tensor, "backward", "tensorcore.backward"),
    (optim.Adam, "step", "tensorcore.adam_step"),
    (train, "save_checkpoint", "tensorcore.ckpt_save"),
    (train, "load_checkpoint", "tensorcore.ckpt_load"),
    (model, "encoder_forward", "model.encoder"),
    (model, "fuse_and_position", "model.fuse"),
    (model, "gat_forward", "model.gat"),
    (model, "tgm_block", "model.tgm_block"),
    (model, "temporal_decoder", "model.temporal_decoder"),
    (model, "adjacency_decoder", "model.adjacency_decoder"),
    (model, "finetune_head", "model.head"),
    (losses, "loss_temporal", "losses.temporal"),
    (losses, "loss_graph", "losses.graph"),
    (losses, "loss_mse", "losses.finetune"),
    (losses, "loss_pearson", "losses.finetune"),
    (augment, "make_masked_sample", "augment.masked_sample"),
    (graphs, "build_distance_graph", "graphs.setup"),
    (graphs, "load_graph", "graphs.setup"),
    (data, "load_panel", "data.load_panel"),
    (data, "window_samples", "data.window"),
    (train, "pretrain", "train.pretrain"),
    (train, "_pretrain_validation", "train.pretrain_val"),
    (train, "finetune", "train.finetune"),
    (train, "predict", "train.predict"),
    (backtest, "read_score_file", "backtest.read"),
    (backtest, "run_strategy", "backtest.strategy"),
    (backtest, "ic_series", "backtest.ic"),
    (backtest, "compute_metrics", "backtest.metrics"),
]
SPAN_NAMES = sorted({name for _, _, name in SPAN_SITES})


def _count_gat_density(tracer: Tracer, args, result) -> None:
    conn = np.asarray(args[1], dtype=bool)
    tracer.counters["gat.kept"] += int((conn | np.eye(len(conn), dtype=bool)).sum())
    tracer.counters["gat.cells"] += conn.size


def _count_masked_steps(tracer: Tracer, args, result) -> None:
    tracer.counters["masked.steps"] += int(result.panel.mask_positions.sum())
    tracer.counters["masked.cells"] += result.panel.mask_positions.size


def _count_rejected(tracer: Tracer, args, result) -> None:
    tracer.counters["adam.rejected"] += result


AFTER = {"model.gat": _count_gat_density, "augment.masked_sample": _count_masked_steps,
         "tensorcore.adam_step": _count_rejected}


def install_tracing(tracer: Tracer, patches: Patches) -> None:
    for owner, attr, name in SPAN_SITES:
        patches.wrap(owner, attr, lambda fn, name=name: tracer.wrap(name, fn, AFTER.get(name)))
    patches.wrap(memory, "note_alloc", lambda fn: tracer.count_bytes("alloc", fn))

    def per_sample(fn):
        def counted(*args, **kwargs):
            calls, nbytes = tracer.counters["alloc.calls"], tracer.counters["alloc.bytes"]
            out = fn(*args, **kwargs)
            tracer.counters["sample.count"] += 1
            tracer.counters["sample.tensors"] += tracer.counters["alloc.calls"] - calls
            tracer.counters["sample.bytes"] += tracer.counters["alloc.bytes"] - nbytes
            return out
        return counted

    patches.wrap(train, "pretrain_sample_losses", per_sample)


# checks -----------------------------------------------------------------------------


def _all_finite(values) -> bool:
    return all(v is None or math.isfinite(v) for v in values)


def mdd_oracle(cumulative: np.ndarray) -> float:
    """Brute force over every index pair i <= j of cum[i] - cum[j]."""
    diffs = cumulative[:, None] - cumulative[None, :]
    return float(np.triu(diffs).max())


def _dense(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    dates = np.array(sorted({r[0] for r in rows}))
    syms = np.array(sorted({r[1] for r in rows}))
    table = np.full((len(dates), len(syms)), np.nan)
    di = np.searchsorted(dates, [r[0] for r in rows])
    si = np.searchsorted(syms, [r[1] for r in rows])
    table[di, si] = [float(r[2]) for r in rows]
    return dates, syms, table


def mean_ic_oracle(scores: Path, returns: Path) -> float:
    """Mean per-date Pearson IC recomputed from the raw files with numpy."""
    p_dates, p_syms, p = _dense(scores)
    r_dates, r_syms, r = _dense(returns)
    r = r[:, np.searchsorted(r_syms, p_syms)]  # the generated universes are equal
    ics = []
    for i, d in enumerate(p_dates):
        j = np.searchsorted(r_dates, d, side="right")
        if j == len(r_dates):
            continue
        ok = ~np.isnan(p[i]) & ~np.isnan(r[j])
        x, y = p[i][ok], r[j][ok]
        if len(x) >= 2 and x.std() > 0 and y.std() > 0:
            ics.append(np.corrcoef(x, y)[0, 1])
    return float(np.mean(ics))


# one pass over a workload ---------------------------------------------------------------


@dataclass
class Pass:
    """One pass: set-up repeats, then the four phases under a time budget.
    With a tracer, every span site is wrapped for the duration of the pass."""

    plan: Plan
    inputs: Inputs
    seed: int
    work: Path
    seconds: float
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    unit_times: dict = field(default_factory=lambda: defaultdict(list))
    # phase -> [(work, seconds, end time)]: one per pretraining window, windows x
    # epochs per finetune call, one per predicted window, score + return rows per
    # backtest pass
    samples: dict = field(default_factory=lambda: {p: [] for p in PHASES})
    peaks: dict = field(default_factory=dict)  # phase -> tensor high-water mark, MB
    facts: dict = field(default_factory=dict)  # recorded, not gated
    finetune_windows: int = 0
    probes: list = field(default_factory=list)  # (end time, seconds) of the host reference
    probe_s: float = 0.0
    _ticks: list = field(default_factory=list)  # (event, time before, time after) in pretrain
    _in_validation: bool = False
    _pretrained: Path | None = None
    _finetuned: object = None
    _predictions: Path | None = None
    _pass_rows: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def execute(self) -> "Pass":
        patches = Patches()
        if self.tracer is not None:
            install_tracing(self.tracer, patches)
        patches.wrap(optim.Adam, "step", self._clock_step)
        patches.wrap(train, "_make_sample", self._clock_window)
        patches.wrap(train, "_pretrain_validation", self._mark_validation)
        try:
            self._run()
        except Exception as e:  # one failed operation ends the pass; it is counted
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{type(e).__name__}: {e}")
        finally:
            patches.restore()
        return self

    def _probe(self) -> None:
        """Time the host reference if the last timing is PROBE_EVERY_S old."""
        now = time.perf_counter()
        if not self.probes or now - self.probes[-1][0] >= PROBE_EVERY_S:
            seconds = time_reference()
            self.probes.append((now + seconds, seconds))
            self.probe_s += time.perf_counter() - now

    # Pretraining is timed per window: from one training window's sample
    # construction to the next (or to the optimizer step), plus an equal share
    # of the step. Validation windows are not training windows.

    def _clock_step(self, step):
        def timed(opt, params, grads):
            t = time.perf_counter()
            self._ticks.append(("step", t, t))
            out = step(opt, params, grads)
            t = time.perf_counter()
            self._ticks.append(("step_end", t, t))
            return out
        return timed

    def _clock_window(self, make_sample):
        def timed(*args, **kwargs):
            if not self._in_validation:
                before = time.perf_counter()
                self._probe()
                self._ticks.append(("window", before, time.perf_counter()))
            return make_sample(*args, **kwargs)
        return timed

    def _mark_validation(self, validate):
        def marked(*args, **kwargs):
            self._in_validation = True
            try:
                return validate(*args, **kwargs)
            finally:
                self._in_validation = False
        return marked

    def _window_samples(self) -> list[tuple[int, float, float]]:
        samples, starts, ends, step_start = [], [], [], 0.0
        for event, before, after in self._ticks:
            if event == "window":
                if starts:
                    ends.append(before)
                starts.append(after)
            elif event == "step":
                step_start = before
                ends.append(before)
            elif starts:  # step_end of a pretraining step
                share = (after - step_start) / len(starts)
                samples += [(1, end - start + share, end) for start, end in zip(starts, ends)]
                starts, ends = [], []
        self._ticks.clear()
        return samples

    def _run(self) -> None:
        time_reference()  # first touch of its arrays, not a timing
        for _ in range(SETUP_REPEATS):
            self.attempted += 1
            t0 = time.perf_counter()
            ready = set_up(self.plan, self.inputs, self.seed)
            self.setup_times.append(time.perf_counter() - t0)
        units = {"pretrain": self._pretrain, "finetune": self._finetune,
                 "predict": self._predict, "backtest": self._backtest}
        done = dict.fromkeys(PHASES, 0.0)

        def run(phase: str) -> None:
            self._probe()
            memory.reset_peak()
            probed = self.probe_s
            elapsed = units[phase](ready) - (self.probe_s - probed)
            self.unit_times[phase].append(elapsed)
            done[phase] += elapsed
            self.peaks[phase] = max(self.peaks.get(phase, 0.0), memory.peak_bytes() / 1e6)

        def progress(phase: str) -> float:
            return min(done[phase] / (self.plan.budget[phase] * self.seconds),
                       len(self.unit_times[phase]) / self.plan.min_units.get(phase, 1))

        # Once in pipeline order, since each phase uses the one before; then the
        # phase furthest behind its time share and unit count goes next, so the
        # units of every phase are spread over the whole run. On a shared host the
        # CPU's speed drifts by tens of percent over seconds, and this way every
        # phase sees the same mix of it.
        for phase in PHASES:
            run(phase)
        while min(map(progress, PHASES)) < 1.0:
            run(min(PHASES, key=progress))

    def _unit_dir(self, name: str) -> Path:
        path = self.work / f"{name}-{len(self.unit_times[name])}-{id(self)}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _pretrain(self, ready: Ready) -> float:
        plan = self.plan
        tw = _first(ready.windows[0], plan.pretrain_windows[0])
        vw = _first(ready.windows[1], plan.pretrain_windows[1])
        cfg = train.TrainConfig(epochs=plan.pretrain_epochs, batch_size=BATCH, n_sub=plan.n_sub,
                                learning_rate=plan.pretrain_lr, seed=self.seed,
                                early_stop_patience=1000)
        run_dir = self._unit_dir("pretrain")
        self.attempted += 1
        self._ticks.clear()
        t0 = time.perf_counter()
        result = train.pretrain(tw, vw, ready.graph, ready.cfg, cfg, run_dir=run_dir)
        elapsed = time.perf_counter() - t0
        self.samples["pretrain"] += self._window_samples()
        n_batches = math.ceil(len(tw) / BATCH)

        losses_seen = [v for r in result.history for v in (r.l_pre, r.l_t, r.l_g)]
        self.check(_all_finite(losses_seen + [v for _, v in result.val_history]),
                   "non-finite pretraining loss")
        epoch_means = [statistics.fmean(r.l_pre for r in result.history[i:i + n_batches])
                       for i in range(0, len(result.history), n_batches)]
        if plan.check_loss_drop:
            self.check(epoch_means[-1] < epoch_means[0],
                       f"pretraining loss did not fall: epoch means {epoch_means}")
        loaded, _ = checkpoint_format.load_checkpoint(result.checkpoint_path)
        self.check(loaded.paths() == result.params.paths() and all(
            loaded[p].data.dtype == t.data.dtype and loaded[p].data.tobytes() == t.data.tobytes()
            for p, t in result.params.items()), "checkpoint round trip is not bit-identical")
        self.facts.setdefault("final_pretrain_loss", result.history[-1].l_pre)
        self.facts.setdefault("pretrain_epoch_means", epoch_means)
        self._pretrained = Path(result.checkpoint_path)
        return elapsed

    def _finetune(self, ready: Ready) -> float:
        plan = self.plan
        tw = _first(ready.windows[0], plan.finetune_windows[0])
        vw = _first(ready.windows[1], plan.finetune_windows[1])
        cfg = train.TrainConfig(epochs=plan.finetune_epochs, batch_size=BATCH,
                                learning_rate=plan.finetune_lr, seed=self.seed,
                                early_stop_patience=1000)
        if ready.params is not None:
            params, model_cfg = ready.params, ready.cfg
        else:
            params, model_cfg = train.load_pretrained(self._pretrained, ready.cfg)
        run_dir = self._unit_dir("finetune")
        self.attempted += 1
        t0 = time.perf_counter()
        result = train.finetune(params, tw, vw, ready.graph, model_cfg, cfg, run_dir=run_dir)
        elapsed = time.perf_counter() - t0
        self.samples["finetune"].append((len(tw) * plan.finetune_epochs, elapsed, t0 + elapsed))
        self.finetune_windows += len(tw) + len(vw)
        self.check(_all_finite([v for r in result.history for v in (r.l_fine, r.l_mse, r.l_pearson)]
                               + [v for _, v in result.val_history]),
                   "non-finite fine-tuning loss or validation IC")
        self._finetuned = result.params
        return elapsed

    def _predict(self, ready: Ready) -> float:
        """Score the next chunk of test windows, cycling; each completed pass
        over the test windows is written as the predictions file."""
        windows = _first(ready.windows[2], self.plan.test_windows)
        completed = None
        t_start = time.perf_counter()
        for _ in range(self.plan.predict_chunk or len(windows)):
            w = windows[len(self._pass_rows)]
            self.attempted += 1
            self._probe()
            t0 = time.perf_counter()
            self._pass_rows += train.predict(self._finetuned, ready.cfg, [w], ready.graph)
            t1 = time.perf_counter()
            self.samples["predict"].append((1, t1 - t0, t1))
            if len(self._pass_rows) == len(windows):
                completed, self._pass_rows = self._pass_rows, []
                self._predictions = self._unit_dir("predict") / "predictions.csv"
                train.write_predictions(self._predictions, completed)
        elapsed = time.perf_counter() - t_start
        if completed is not None and "scores_sha256" not in self.facts:
            n = len(ready.graph.node_ids)
            self.check(all(len(ids) == n and scores.shape == (n,) and np.all(np.isfinite(scores))
                           for _, ids, scores in completed),
                       "predictions are not one finite score per node per window")
            self.facts["scores_sha256"] = hashlib.sha256(
                b"".join(np.asarray(s, dtype="<f8").tobytes() for _, _, s in completed)).hexdigest()
        return elapsed

    def _backtest(self, ready: Ready) -> float:
        scores = self.inputs.scores or self._predictions
        self.attempted += 1
        t0 = time.perf_counter()
        predictions = backtest.read_score_file(scores, "score")
        returns = backtest.read_score_file(self.inputs.returns, "return")
        universe = {s for per in predictions.values() for s in per}
        pnl, _ = backtest.run_strategy(predictions, returns, max(1, len(universe) // 10))
        _, ics, _ = backtest.ic_series(predictions, returns)
        mean_ic = float(np.mean(ics)) if ics else None
        metrics = backtest.compute_metrics(pnl, backtest.TRADING_DAYS_PER_YEAR, ic=mean_ic)
        elapsed = time.perf_counter() - t0
        rows = sum(map(len, predictions.values())) + sum(map(len, returns.values()))
        self.samples["backtest"].append((rows, elapsed, t0 + elapsed))
        self.facts["tradeable_frac"] = len(pnl.daily) / len(predictions)
        self.check(metrics.mdd == mdd_oracle(pnl.cumulative),
                   "max_drawdown differs from the all-pairs oracle")
        if "mean_ic" not in self.facts:
            oracle = mean_ic_oracle(scores, self.inputs.returns)
            self.check(mean_ic is not None and abs(mean_ic - oracle) <= 1e-9,
                       f"mean IC {mean_ic} differs from the numpy recomputation {oracle}")
            self.facts["mean_ic"] = mean_ic
        return elapsed

    # results ------------------------------------------------------------------------

    def phase_time(self) -> float:
        """Set-up plus one unit of every phase, each a median."""
        return statistics.median(self.setup_times) + sum(
            statistics.median(self.unit_times[p]) for p in PHASES)

    def raw_rate(self, phase: str) -> float:
        """Work per second over all of the phase's samples in the run."""
        work, seconds, _ = map(sum, zip(*self.samples[phase]))
        return work / seconds

    def rate(self, phase: str) -> float:
        """Median work per second of the phase's samples, each adjusted to the
        nominal host speed by the reference timed next to it. A shared host
        runs interpreted code at two speeds about 1.8x apart, for tens of
        seconds at a time, so whole runs land in one or the other; the
        reference, which no change to the program can touch, tracks it."""
        power = BACKTEST_SENSITIVITY if phase == "backtest" else self.plan.host_sensitivity
        return adjusted_rate(self.samples[phase], self.probes, power)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_times),
            "pretrain_windows_per_s": self.rate("pretrain"),
            "finetune_windows_per_s": self.rate("finetune"),
            "predict_windows_per_s": self.rate("predict"),
            "backtest_rows_per_s": self.rate("backtest"),
            "tensor_peak_mb": self.peaks[self.plan.headline],
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }

    def per_layer(self, untraced: "Pass") -> dict[str, float]:
        spans, c = self.tracer.spans, self.tracer.counters
        table = summarize(spans)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            row = table.get(name, {"calls": 0, "self_s": 0.0})
            out[name + "_s"] = row["self_s"] / max(row["calls"], 1)
            out[name + "_calls"] = row["calls"]
        out["tensorcore.tensors_per_sample"] = c["sample.tensors"] / c["sample.count"]
        out["tensorcore.alloc_mb_per_sample"] = c["sample.bytes"] / c["sample.count"] / 1e6
        out["tensorcore.adam_rejected"] = c["adam.rejected"]
        out["model.gat_logit_density"] = c["gat.kept"] / c["gat.cells"]
        out["augment.masked_step_frac"] = c["masked.steps"] / c["masked.cells"]
        out["train.step_s"] = BATCH / self.raw_rate("pretrain")
        encodes = under(spans, "model.encoder", "train.finetune")
        out["train.finetune_encode_s"] = sum(s.end - s.start for s in encodes) / len(
            self.unit_times["finetune"])
        out["train.finetune_encoder_calls_per_window"] = len(encodes) / self.finetune_windows
        out["backtest.tradeable_frac"] = self.facts["tradeable_frac"]
        wall = sum(self.setup_times) + sum(sum(self.unit_times[p]) for p in PHASES)
        self_sum = sum(row["self_s"] for row in table.values())
        out["trace.op_wall_s"] = wall
        out["trace.self_sum_s"] = self_sum
        out["trace.uncovered_frac"] = 1.0 - self_sum / wall
        out["trace.overhead_s"] = self.phase_time() - untraced.phase_time()
        out["trace.overhead_frac"] = out["trace.overhead_s"] / untraced.phase_time()
        return out
