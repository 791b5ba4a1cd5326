"""Evaluation harness: confusion metrics, ablation grid, loss comparison, and
addressing-matrix export for plotting."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from dataclasses import dataclass

import numpy as np

from . import memory as mem
from .errors import ConfigError
from .inference import FrozenModel, predict, window_features
from .training import prepare_data, train

log = logging.getLogger(__name__)

ABLATION_CELLS = (
    ("baseline", False, False),
    ("recall_only", True, False),
    ("contrast_only", False, True),
    ("full", True, True),
)


@dataclass
class ConfusionMatrix:
    """Row = true class, column = predicted class."""

    counts: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes):
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            counts[t, p] += 1
        return cls(counts=counts)

    @property
    def total(self):
        return int(self.counts.sum())

    def accuracy(self):
        return float(np.trace(self.counts) / self.total)

    def normalized(self):
        """Rows normalized over the true condition; empty rows stay zero."""
        sums = self.counts.sum(axis=1, keepdims=True)
        out = np.zeros(self.counts.shape, dtype=np.float64)
        nonzero = sums[:, 0] > 0
        out[nonzero] = self.counts[nonzero] / sums[nonzero]
        return out

    def per_class_recall(self):
        """Diagonal of the normalized matrix; None for classes absent from the data."""
        sums = self.counts.sum(axis=1)
        return [float(self.counts[i, i] / sums[i]) if sums[i] > 0 else None
                for i in range(self.counts.shape[0])]


@dataclass
class EvalResult:
    accuracy: float
    confusion: ConfusionMatrix
    per_class_recall: list


def evaluate(model, samples):
    """Accuracy, confusion matrix, and per-class recall over short windows.

    Calls :func:`gesturemem.inference.predict` once per window, so the
    reported accuracy is exactly what single-window prediction, and so
    streaming, produces; a batched :func:`~gesturemem.inference.predict_batch`
    may differ from it in the last bits of a probability.
    """
    if not samples:
        raise ConfigError("cannot evaluate on an empty sample set")
    y_true = [s.label for s in samples]
    y_pred = [predict(model, s.data)[0] for s in samples]
    confusion = ConfusionMatrix.from_predictions(y_true, y_pred, model.num_classes)
    return EvalResult(accuracy=confusion.accuracy(), confusion=confusion,
                      per_class_recall=confusion.per_class_recall())


def _train_and_score(config, recordings, label_map, split):
    result = train(config, recordings, label_map, split)
    model = FrozenModel.from_state(result.state)
    test_samples = prepare_data(config, recordings, label_map, split)["test_samples"]
    return evaluate(model, test_samples).accuracy, result


def _configs_equal_modulo(base, other, ignore):
    a, b = dataclasses.asdict(base), dataclasses.asdict(other)
    for key in ignore:
        a.pop(key), b.pop(key)
    return a == b


def run_ablation(config, recordings, label_map, split, seeds=None):
    """Train the four (use_recall, use_mal) cells and report test accuracies.

    All cells share every config field but the two flags (asserted), and each
    seed is applied to all four cells. Returns ``{"cells": {name: [acc...]},
    "mean": {...}, "delta": {...}}`` with deltas against the baseline mean.
    """
    seeds = list(seeds) if seeds else [config.seed]
    cells = {name: [] for name, _, _ in ABLATION_CELLS}
    for seed in seeds:
        for name, use_recall, use_mal in ABLATION_CELLS:
            cfg = dataclasses.replace(config, use_recall=use_recall,
                                      use_mal=use_mal, seed=seed)
            if not _configs_equal_modulo(config, cfg, ("use_recall", "use_mal", "seed")):
                raise ConfigError("ablation cells drifted beyond the two flags")
            acc, _ = _train_and_score(cfg, recordings, label_map, split)
            log.info("ablation seed %d cell %s: accuracy %.4f", seed, name, acc)
            cells[name].append(acc)
    mean = {name: float(np.mean(v)) for name, v in cells.items()}
    delta = {name: mean[name] - mean["baseline"] for name in mean}
    return {"cells": cells, "mean": mean, "delta": delta, "seeds": seeds}


def format_ablation_table(result):
    lines = [f"{'setting':<14} {'accuracy':>9} {'delta':>8}"]
    for name, _, _ in ABLATION_CELLS:
        lines.append(f"{name:<14} {result['mean'][name]:>9.4f} "
                     f"{result['delta'][name]:>+8.4f}")
    return "\n".join(lines)


def compare_losses(config, recordings, label_map, split, seeds=None):
    """Train with the memory contrastive loss vs. the in-batch views baseline.

    Identical configs apart from ``contrast_loss``. With >= 2 seeds, adds a
    pooled two-tailed t-test over the per-seed accuracies.
    """
    seeds = list(seeds) if seeds else [config.seed]
    rows = {"memory": [], "views": []}
    for seed in seeds:
        for kind in rows:
            cfg = dataclasses.replace(config, contrast_loss=kind, use_mal=True,
                                      seed=seed)
            acc, _ = _train_and_score(cfg, recordings, label_map, split)
            log.info("loss comparison seed %d %s: accuracy %.4f", seed, kind, acc)
            rows[kind].append(acc)
    out = {"accuracies": rows,
           "mean": {k: float(np.mean(v)) for k, v in rows.items()},
           "seeds": seeds}
    if len(seeds) >= 2:
        import warnings

        from scipy import stats

        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # identical groups -> moment warnings
            t, p = stats.ttest_ind(rows["memory"], rows["views"], equal_var=True)
        # zero variance in both groups leaves the statistic undefined
        out["t_statistic"] = None if np.isnan(t) else float(t)
        out["p_value"] = None if np.isnan(p) else float(p)
    return out


def format_loss_table(result):
    lines = [f"{'loss':<8} {'accuracy':>9}"]
    for kind in ("memory", "views"):
        lines.append(f"{kind:<8} {result['mean'][kind]:>9.4f}")
    if "p_value" in result:
        if result["p_value"] is None:
            lines.append("t-test undefined (no variance across runs)")
        else:
            lines.append(f"t = {result['t_statistic']:.3f}, "
                         f"p = {result['p_value']:.4f} "
                         f"(two-tailed, {len(result['seeds'])} runs each)")
    return "\n".join(lines)


def export_addressing(model, samples, n_slots, n_samples, seed, out_path):
    """Export an addressing submatrix (rows = memory slots, columns = samples).

    Randomly selects ``n_slots`` filled slots and ``n_samples`` windows, sorts
    both by class label, and writes the addressing weights as CSV (plus a JSON
    metadata sidecar). Also reports the mean address mass that samples place on
    same-class vs. different-class slots within the exported block.
    """
    if model.queue.fill < n_slots:
        raise ConfigError(
            f"queue holds {model.queue.fill} slots; cannot export {n_slots}")
    if not 0 < n_samples <= len(samples):
        raise ConfigError(
            f"{len(samples)} samples available; cannot export {n_samples}")
    rng = np.random.default_rng(seed)
    slot_idx = np.sort(rng.choice(model.queue.fill, size=n_slots, replace=False))
    sample_idx = np.sort(rng.choice(len(samples), size=n_samples, replace=False))

    slot_labels = model.queue.filled_labels[slot_idx]
    order = np.argsort(slot_labels, kind="stable")
    slot_idx, slot_labels = slot_idx[order], slot_labels[order]

    sample_labels = np.asarray([samples[i].label for i in sample_idx])
    order = np.argsort(sample_labels, kind="stable")
    sample_idx, sample_labels = sample_idx[order], sample_labels[order]

    weights = mem.address_batch(
        model.queue, window_features(model, [samples[i].data for i in sample_idx]))
    matrix = weights[:, slot_idx].T.astype(np.float64)

    same = slot_labels[:, None] == sample_labels[None, :]
    same_mean = float(matrix[same].mean()) if same.any() else float("nan")
    diff_mean = float(matrix[~same].mean()) if (~same).any() else float("nan")

    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot_label"] + [int(l) for l in sample_labels])
        for i in range(n_slots):
            writer.writerow([int(slot_labels[i])] + [repr(float(v)) for v in matrix[i]])
    meta = {
        "n_slots": int(n_slots), "n_samples": int(n_samples), "seed": int(seed),
        "slot_indices": [int(i) for i in slot_idx],
        "slot_labels": [int(l) for l in slot_labels],
        "sample_labels": [int(l) for l in sample_labels],
        "same_class_mean": same_mean, "diff_class_mean": diff_mean,
    }
    with open(str(out_path) + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return {"matrix": matrix, "slot_labels": slot_labels,
            "sample_labels": sample_labels, "same_class_mean": same_mean,
            "diff_class_mean": diff_mean, "csv_path": str(out_path)}
