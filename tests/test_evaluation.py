import csv
import json

import numpy as np
import pytest

from gesturemem.dataset import (LabelMap, ShortTermSample, SplitSpec,
                                SynthesisConfig, synthesize_recordings,
                                window_dataset)
from gesturemem.errors import ConfigError
from gesturemem.evaluation import (ConfusionMatrix, compare_losses, evaluate,
                                   export_addressing, format_ablation_table,
                                   run_ablation)
from gesturemem.inference import FrozenModel, window_features
from gesturemem.memory import address
from gesturemem.training import TrainConfig, init_state, train

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
    norm = cm.normalized()
    assert np.allclose(norm[0].sum(), 1.0, atol=1e-9)
    assert np.array_equal(norm[1], np.zeros(3))


def test_evaluate_always_class_zero_on_balanced_set():
    model = biased_model(n_classes=2, favored=0)
    samples = windows_with_labels([0, 0, 1, 1])
    result = evaluate(model, samples)
    assert result.accuracy == pytest.approx(0.5)
    assert np.array_equal(result.confusion.normalized(), [[1, 0], [1, 0]])


def test_evaluate_perfect_predictor_is_identity():
    samples = windows_with_labels([0, 1, 0, 1])
    # artificial perfection: evaluate against a model biased per call
    model0 = biased_model(favored=0)
    result = evaluate(model0, [s for s in samples if s.label == 0])
    assert result.accuracy == 1.0
    assert np.array_equal(result.confusion.normalized()[0], [1, 0])


def test_evaluate_rejects_empty_set():
    with pytest.raises(ConfigError):
        evaluate(biased_model(), [])


def test_evaluate_total_matches_sample_count():
    recordings, label_map = small_dataset()
    config = small_config()
    result = train(config, recordings, label_map, SPLIT)
    model = FrozenModel.from_state(result.state)
    samples = window_dataset(recordings, label_map, config.short_len,
                             stride=config.short_len, with_long=False).shorts
    res = evaluate(model, samples)
    assert res.confusion.total == len(samples)
    trace = int(np.trace(res.confusion.counts))
    assert res.accuracy == trace / len(samples)


def test_run_ablation_four_cells_and_baseline_delta_zero():
    recordings, label_map = small_dataset()
    result = run_ablation(small_config(), recordings, label_map, SPLIT)
    assert set(result["cells"]) == {"baseline", "recall_only", "contrast_only", "full"}
    assert all(len(v) == 1 for v in result["cells"].values())
    assert result["delta"]["baseline"] == 0.0
    table = format_ablation_table(result)
    assert "baseline" in table and "full" in table


def test_run_ablation_is_reproducible():
    recordings, label_map = small_dataset()
    r1 = run_ablation(small_config(), recordings, label_map, SPLIT)
    r2 = run_ablation(small_config(), recordings, label_map, SPLIT)
    assert r1["cells"] == r2["cells"]


def test_compare_losses_rows_and_ttest():
    recordings, label_map = small_dataset()
    result = compare_losses(small_config(epochs=3, learning_rate=0.05),
                            recordings, label_map, SPLIT, seeds=[0, 1, 2])
    for kind in ("memory", "views"):
        assert len(result["accuracies"][kind]) == 3
        assert all(0.0 <= a <= 1.0 for a in result["accuracies"][kind])
    assert "p_value" in result
    if result["p_value"] is not None:  # undefined when all runs coincide
        assert 0.0 <= result["p_value"] <= 1.0


def test_compare_losses_reproducible():
    recordings, label_map = small_dataset()
    r1 = compare_losses(small_config(), recordings, label_map, SPLIT)
    r2 = compare_losses(small_config(), recordings, label_map, SPLIT)
    assert r1["accuracies"] == r2["accuracies"]


def test_export_addressing_shapes_and_row_mass(tmp_path):
    recordings, label_map = small_dataset()
    config = small_config(epochs=1, queue_capacity=64)
    result = train(config, recordings, label_map, SPLIT)
    model = FrozenModel.from_state(result.state)
    samples = window_dataset(recordings, label_map, config.short_len,
                             stride=config.short_len, with_long=False).shorts
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


def test_export_addressing_matches_per_window_address(tmp_path):
    recordings, label_map = small_dataset()
    config = small_config(epochs=1, queue_capacity=64)
    model = FrozenModel.from_state(train(config, recordings, label_map, SPLIT).state)
    samples = window_dataset(recordings[3:], label_map, config.short_len,
                             stride=config.short_len, with_long=False).shorts[:20]
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
    model.queue.enqueue_batch(random_unit_rows(np.random.default_rng(1), 4, 8), [0, 1] * 2)
    for n_samples in (0, 3):
        with pytest.raises(ConfigError):
            export_addressing(model, samples, n_slots=4, n_samples=n_samples,
                              seed=0, out_path=tmp_path / "x.csv")
