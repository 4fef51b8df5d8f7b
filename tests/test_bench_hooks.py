"""The benchmark's tracing hooks still find what they wrap.

perfbench/workloads.py wraps functions where their callers look them up
(`--trace 1`, and the pretraining clock of every run); a refactor that renames
or inlines one of them would break the benchmark, not the package.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
        yield workloads


def test_span_sites_resolve(workloads):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in workloads.SPAN_SITES if not callable(getattr(owner, attr, None))]
    assert not missing


def test_other_patched_names_resolve(workloads):
    from tcgpn import train
    from tcgpn.tensorcore import memory, optim
    for owner, attr in [(train, "pretrain_sample_losses"), (train, "_make_sample"),
                        (train, "_pretrain_validation"), (memory, "note_alloc"),
                        (memory, "reset_peak"), (memory, "peak_bytes"), (optim.Adam, "step")]:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_training_calls_go_through_the_wrapped_names(workloads, tmp_path):
    from spans import Patches, Tracer, summarize

    from tcgpn import data, model, train
    panel, graph = data.gen_synthetic(data.SyntheticSpec(n_clusters=2, nodes_per_cluster=3,
                                                         length=60, seed=0))
    train_part, val_part, _ = data.split_by_fraction(panel, 0.6, 0.2)
    wtrain = data.window_samples(train_part, 8, 4)
    wval = data.window_samples(val_part, 8, 4)
    cfg = model.ModelConfig(**workloads.SMOKE_MODEL)
    tcfg = train.TrainConfig(epochs=1, batch_size=4)
    tracer, patches = Tracer(), Patches()
    workloads.install_tracing(tracer, patches)
    try:
        pre = train.pretrain(wtrain, wval, graph, cfg, tcfg, run_dir=tmp_path)
        train.finetune(pre.params, wtrain, wval, graph, cfg, tcfg)
    finally:
        patches.restore()
    calls = {name: row["calls"] for name, row in summarize(tracer.spans).items()}
    for name in ("train.pretrain", "train.pretrain_val", "train.finetune", "train.predict",
                 "losses.finetune", "tensorcore.ckpt_save", "tensorcore.adam_step"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counters["sample.count"] == len(wtrain) + len(wval)  # training + validation
