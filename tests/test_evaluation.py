import csv
import dataclasses
import json
import types

import numpy as np
import pytest

from gesturemem import evaluation, training
from gesturemem.dataset import (LabelMap, ShortTermSample, SplitSpec,
                                SynthesisConfig, synthesize_recordings,
                                window_dataset)
from gesturemem.errors import ConfigError, StructuralError
from gesturemem.evaluation import (ConfusionMatrix, evaluate, export_addressing,
                                   format_grid_table, run_grid)
from gesturemem.inference import FrozenModel, predict, window_features
from gesturemem.memory import MemoryQueue, address
from gesturemem.training import CONTRAST_KINDS, TrainConfig, init_state, train

from helpers import random_unit_rows

SPLIT = SplitSpec.from_lists(["s00", "s01", "s02"], ["s03", "s04"])


def small_dataset(seed=0):
    return synthesize_recordings(
        SynthesisConfig(classes=("standing", "walking", "jumping"), subjects=5,
                        frames_per_class=60), seed)


def small_config(**overrides):
    base = dict(short_len=6, window_scale=2, stride=3, queue_capacity=64,
                feature_dim=8, width=4, batch_size=8, epochs=1,
                learning_rate=0.01, seed=0, eval_every=0)
    base.update(overrides)
    return TrainConfig(**base)


def varied_config(**overrides):
    """:func:`small_config` with the desk input transform, 2 epochs and a
    larger step: its runs' test accuracies differ across seeds and cells
    (seeds 0-2 give full/memory 0.333/0.483/0.333 and full/views
    0.467/0.5/0.333), where small_config's sit at 1/3."""
    return small_config(**dict(dict(epochs=2, learning_rate=0.05, center=True,
                                    input_scale=1000.0), **overrides))


def biased_model(n_classes=2, favored=0):
    """A frozen model that always predicts ``favored`` via a decoder bias."""
    config = TrainConfig(short_len=6, window_scale=2, queue_capacity=8,
                         feature_dim=8, width=4, epochs=0, seed=0,
                         use_recall=False, dtype="float64")
    state = init_state(config, LabelMap(names=[f"g{i}" for i in range(n_classes)]))
    state.decoder["w"][:] = 0.0
    state.decoder["b"][:] = 0.0
    state.decoder["b"][favored] = 50.0
    return FrozenModel.from_state(state)


def windows_with_labels(labels, seed=0):
    rng = np.random.default_rng(seed)
    return [ShortTermSample(data=rng.normal(size=(3, 6, 3)), label=int(l),
                            recording_id="r", start_frame=i)
            for i, l in enumerate(labels)]


def test_confusion_matrix_from_hand_tally():
    cm = ConfusionMatrix.from_predictions([0, 1, 2], [0, 2, 2], n_classes=3)
    assert np.array_equal(cm.counts, [[1, 0, 0], [0, 0, 1], [0, 0, 1]])
    assert cm.total == 3
    assert cm.accuracy() == pytest.approx(2 / 3)
    assert cm.per_class_recall() == [1.0, 0.0, 1.0]


def test_confusion_matrix_undefined_recall_for_absent_class():
    cm = ConfusionMatrix.from_predictions([0, 0], [0, 1], n_classes=3)
    recalls = cm.per_class_recall()
    assert recalls[0] == pytest.approx(0.5)
    assert recalls[1] is None and recalls[2] is None
    assert np.array_equal(cm.counts, [[1, 1, 0], [0, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("y_true,y_pred,bad", [([0, -1, 1], [0, 1, 1], -1),
                                                ([0, 1, 1], [0, 3, 1], 3)])
def test_confusion_matrix_refuses_a_label_outside_the_classes(y_true, y_pred, bad):
    with pytest.raises(StructuralError, match=f"label {bad} is outside"):
        ConfusionMatrix.from_predictions(y_true, y_pred, n_classes=3)


def test_evaluate_refuses_a_window_label_past_the_model_classes():
    model = biased_model(n_classes=2, favored=0)
    with pytest.raises(StructuralError, match="label 9 is outside the model's 2 classes"):
        evaluate(model, windows_with_labels([0, 9, 1]))


def test_evaluate_always_class_zero_on_balanced_set():
    model = biased_model(n_classes=2, favored=0)
    samples = windows_with_labels([0, 0, 1, 1])
    result = evaluate(model, samples)
    assert result.accuracy == pytest.approx(0.5)
    assert np.array_equal(result.confusion.counts, [[2, 0], [2, 0]])
    assert result.per_class_recall == [1.0, 0.0]


def test_evaluate_perfect_predictor_is_identity():
    samples = windows_with_labels([0, 1, 0, 1])
    # artificial perfection: evaluate against a model biased per call
    model0 = biased_model(favored=0)
    result = evaluate(model0, [s for s in samples if s.label == 0])
    assert result.accuracy == 1.0
    assert np.array_equal(result.confusion.counts, [[2, 0], [0, 0]])
    assert result.per_class_recall == [1.0, None]


def test_evaluate_rejects_empty_set():
    with pytest.raises(ConfigError):
        evaluate(biased_model(), [])


def test_evaluate_total_matches_sample_count():
    recordings, label_map = small_dataset()
    config = small_config()
    result = train(config, recordings, label_map, SPLIT)
    model = FrozenModel.from_state(result.state)
    samples = window_dataset(recordings, label_map, config.short_len,
                             stride=config.short_len).shorts
    res = evaluate(model, samples)
    assert res.confusion.total == len(samples)
    trace = int(np.trace(res.confusion.counts))
    assert res.accuracy == trace / len(samples)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_evaluate_probs_are_predicts_rows_bitwise(dtype):
    recordings, label_map = small_dataset()
    config = small_config(dtype=dtype)
    model = FrozenModel.from_state(train(config, recordings, label_map, SPLIT).state)
    assert model.use_recall and model.queue.fill > 0
    samples = window_dataset(recordings, label_map, config.short_len,
                             stride=config.short_len).shorts
    res = evaluate(model, samples)
    assert res.probs.shape == (len(samples), model.num_classes)
    assert res.probs.dtype == model.dtype
    for row, s in zip(res.probs, samples):
        assert np.array_equal(row, predict(model, s.data)[1])
    assert res.accuracy == np.mean(res.probs.argmax(axis=1) == [s.label for s in samples])


def test_evaluate_calls_predict_once_per_window_in_sample_order(monkeypatch):
    """evaluate reaches single-window predict through ``evaluation.predict``,
    once per sample and in sample order; the benchmark's evaluate check
    records predictions through that name."""
    model = biased_model(n_classes=3, favored=1)
    samples = windows_with_labels([0, 1, 2, 1, 0])
    calls = []

    def recording_predict(m, window):
        out = predict(m, window)
        calls.append((m, window, out))
        return out

    monkeypatch.setattr(evaluation, "predict", recording_predict)
    res = evaluate(model, samples)
    assert len(calls) == len(samples)
    for (m, window, (_, probs)), s, row in zip(calls, samples, res.probs):
        assert m is model and window is s.data
        assert np.array_equal(row, probs)


GRID_KEYS = {"baseline", "recall_only", "contrast_only/memory", "contrast_only/views",
             "full/memory", "full/views"}


def test_grid_six_keys_and_baseline_delta_zero():
    recordings, label_map = small_dataset()
    result = run_grid(small_config(), recordings, label_map, SPLIT)
    assert set(result["accuracies"]) == set(result["mean"]) == GRID_KEYS
    assert all(len(v) == 1 for v in result["accuracies"].values())
    assert result["delta"]["baseline"] == 0.0
    assert "p_value" not in result  # one seed: no t-test
    table = format_grid_table(result)
    assert all(key in table for key in GRID_KEYS)


def test_grid_rows_and_ttest():
    recordings, label_map = small_dataset()
    result = run_grid(varied_config(), recordings, label_map, SPLIT, seeds=[0, 1, 2])
    assert result["seeds"] == [0, 1, 2]
    for key in GRID_KEYS:
        assert len(result["accuracies"][key]) == 3
        assert all(0.0 <= a <= 1.0 for a in result["accuracies"][key])
        assert result["delta"][key] == result["mean"][key] - result["mean"]["baseline"]
    for key in ("full/memory", "full/views"):  # the runs differ across seeds
        assert len(set(result["accuracies"][key])) > 1, key
    assert result["t_statistic"] is not None
    assert result["p_value"] is not None and 0.0 <= result["p_value"] <= 1.0
    assert "full/memory vs full/views" in format_grid_table(result)


def test_grid_refuses_a_repeated_seed():
    recordings, label_map = small_dataset()
    with pytest.raises(ConfigError, match="seed 2 is listed twice"):
        run_grid(small_config(), recordings, label_map, SPLIT, seeds=[2, 0, 2])


def test_grid_ttest_compares_full_memory_with_full_views(monkeypatch):
    """With stand-in runs whose accuracy encodes their config, each key gets
    its own runs, and the t-test is scipy's pooled test of full/memory
    against full/views."""
    from scipy import stats

    def fake_accuracy(cfg):
        return (0.1 * cfg.use_recall + 0.2 * cfg.use_mal
                + 0.3 * (cfg.use_mal and cfg.contrast_loss == "views")
                + 0.01 * cfg.seed ** 2)

    monkeypatch.setattr(evaluation, "train", lambda cfg, *args: types.SimpleNamespace(
        state=cfg, test_samples=[]))
    monkeypatch.setattr(evaluation.FrozenModel, "from_state", staticmethod(lambda cfg: cfg))
    monkeypatch.setattr(evaluation, "evaluate", lambda cfg, samples: types.SimpleNamespace(
        accuracy=fake_accuracy(cfg)))
    seeds = [0, 1, 3]
    result = run_grid(small_config(), [], None, SPLIT, seeds=seeds)
    want = {"baseline": (False, False, "memory"), "recall_only": (True, False, "memory"),
            "contrast_only/memory": (False, True, "memory"),
            "contrast_only/views": (False, True, "views"),
            "full/memory": (True, True, "memory"), "full/views": (True, True, "views")}
    for key, (use_recall, use_mal, kind) in want.items():
        assert result["accuracies"][key] == [
            fake_accuracy(small_config(use_recall=use_recall, use_mal=use_mal,
                                       contrast_loss=kind, seed=seed)) for seed in seeds]
    t, p = stats.ttest_ind(result["accuracies"]["full/memory"],
                           result["accuracies"]["full/views"], equal_var=True)
    assert (result["t_statistic"], result["p_value"]) == (float(t), float(p))
    assert 0.0 < result["p_value"] < 1.0


def test_run_grid_with_the_config_seed_is_reproducible():
    """The recall x contrast-loss ablation (every grid key, the config's own
    seed) repeats exactly."""
    recordings, label_map = small_dataset()
    r1 = run_grid(varied_config(), recordings, label_map, SPLIT)
    r2 = run_grid(varied_config(), recordings, label_map, SPLIT)
    assert set(r1["accuracies"]) == GRID_KEYS
    assert r1 == r2


def test_run_grid_over_two_seeds_is_reproducible():
    """The contrast-loss comparison (full/memory against full/views and their
    t-test over two seeds) repeats exactly."""
    recordings, label_map = small_dataset()
    r1 = run_grid(varied_config(), recordings, label_map, SPLIT, seeds=[0, 1])
    r2 = run_grid(varied_config(), recordings, label_map, SPLIT, seeds=[0, 1])
    for key in ("full/memory", "full/views"):
        assert r1["accuracies"][key] == r2["accuracies"][key]
    assert "p_value" in r1 and "t_statistic" in r1
    assert r1 == r2


@pytest.mark.parametrize("use_recall", [False, True])
def test_cells_without_the_contrast_loss_ignore_its_kind(use_recall):
    """The grid trains baseline and recall_only once per seed: with use_mal
    off, the contrast kind changes no metric, parameter or queue bit."""
    recordings, label_map = small_dataset()
    runs = [train(small_config(epochs=2, eval_every=1, use_recall=use_recall,
                               use_mal=False, contrast_loss=kind),
                  recordings, label_map, SPLIT) for kind in CONTRAST_KINDS]
    first, *others = runs
    assert any(m["split"] == "test" for m in first.metrics)
    for other in others:
        assert other.metrics == first.metrics
        for name in ("params_s", "params_l", "decoder"):
            mine, theirs = getattr(first.state, name), getattr(other.state, name)
            assert mine.keys() == theirs.keys()
            assert all(np.array_equal(mine[k], theirs[k]) for k in mine)
        q, ref = other.state.queue, first.state.queue
        assert (q.fill, q.head) == (ref.fill, ref.head)
        assert q.features.tobytes() == ref.features.tobytes()
        assert q.labels.tobytes() == ref.labels.tobytes()


def test_each_cell_windows_its_data_once(monkeypatch):
    calls = []
    real = training.prepare_data

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(training, "prepare_data", spy)
    monkeypatch.setattr(evaluation, "prepare_data", spy, raising=False)
    recordings, label_map = small_dataset()
    run_grid(small_config(), recordings, label_map, SPLIT, seeds=[0, 1])
    assert len(calls) == 6 * 2
    runs = [(c.use_recall, c.use_mal, c.contrast_loss, c.seed) for c in calls]
    assert sorted(runs) == sorted(
        [(False, False, "memory", seed) for seed in (0, 1)]
        + [(True, False, "memory", seed) for seed in (0, 1)]
        + [(use_recall, True, kind, seed) for use_recall in (False, True)
           for kind in CONTRAST_KINDS for seed in (0, 1)])


def test_export_addressing_shapes_and_row_mass(tmp_path):
    recordings, label_map = small_dataset()
    config = small_config(epochs=1, queue_capacity=64)
    result = train(config, recordings, label_map, SPLIT)
    model = FrozenModel.from_state(result.state)
    samples = window_dataset(recordings, label_map, config.short_len,
                             stride=config.short_len).shorts
    out = tmp_path / "addr.csv"
    stats = export_addressing(model, samples, n_slots=16, n_samples=12,
                              seed=3, out_path=out)
    assert stats["matrix"].shape == (16, 12)
    # sub-vectors of full addressing vectors: column mass bounded by 1
    assert np.all(stats["matrix"].sum(axis=0) <= 1.0 + 1e-9)
    assert np.all(stats["matrix"] > 0.0)
    assert list(stats["slot_labels"]) == sorted(stats["slot_labels"])
    assert list(stats["sample_labels"]) == sorted(stats["sample_labels"])

    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 17 and len(rows[0]) == 13
    meta = json.loads((tmp_path / "addr.csv.meta.json").read_text())
    assert meta["n_slots"] == 16 and meta["n_samples"] == 12

    # every slot exported: each column is a whole addressing vector
    stats = export_addressing(model, samples, n_slots=model.queue.fill, n_samples=12,
                              seed=3, out_path=out)
    eps = np.finfo(model.dtype).eps
    assert np.abs(stats["matrix"].sum(axis=0) - 1.0).max() <= 4 * eps


def test_export_addressing_matches_per_window_address(tmp_path):
    recordings, label_map = small_dataset()
    config = small_config(epochs=1, queue_capacity=64)
    model = FrozenModel.from_state(train(config, recordings, label_map, SPLIT).state)
    samples = window_dataset(recordings[3:], label_map, config.short_len,
                             stride=config.short_len).shorts[:20]
    n_slots = model.queue.fill  # every slot and every sample, in label order
    stats = export_addressing(model, samples, n_slots=n_slots, n_samples=len(samples),
                              seed=0, out_path=tmp_path / "a.csv")
    slot_order = np.argsort(model.queue.filled_labels, kind="stable")
    chosen = sorted(samples, key=lambda s: s.label)
    ref = np.stack([address(model.queue, window_features(model, [s.data])[0])
                    for s in chosen], axis=1)[slot_order]
    assert stats["matrix"].shape == (n_slots, len(samples))
    assert np.abs(stats["matrix"] - ref).max() <= 1e-6


def test_export_addressing_requires_enough_slots(tmp_path):
    model = biased_model()
    samples = windows_with_labels([0, 1])
    with pytest.raises(ConfigError):
        export_addressing(model, samples, n_slots=4, n_samples=2,
                          seed=0, out_path=tmp_path / "x.csv")
    queue = MemoryQueue(8, 8, dtype=np.float64)
    queue.enqueue_batch(random_unit_rows(np.random.default_rng(1), 4, 8), [0, 1] * 2)
    model = dataclasses.replace(model, queue=queue)
    assert model.queue.fill == 4
    for n_slots, n_samples in ((0, 2), (-1, 2), (5, 2), (4, 0), (4, 3)):
        with pytest.raises(ConfigError):
            export_addressing(model, samples, n_slots=n_slots, n_samples=n_samples,
                              seed=0, out_path=tmp_path / "x.csv")
