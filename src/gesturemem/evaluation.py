"""Evaluation harness: confusion metrics, the recall x contrast-loss ablation
grid with its table, and addressing-matrix export for plotting."""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, StructuralError
from .inference import FrozenModel, exp_logits, predict, window_features
from .training import CONTRAST_KINDS, train

log = logging.getLogger(__name__)

# (key, use_recall, use_mal, contrast_loss) of each run of a grid seed
GRID = (("baseline", False, False, CONTRAST_KINDS[0]),
        ("recall_only", True, False, CONTRAST_KINDS[0]),
        *((f"{cell}/{kind}", use_recall, True, kind)
          for cell, use_recall in (("contrast_only", False), ("full", True))
          for kind in CONTRAST_KINDS))


@dataclass
class ConfusionMatrix:
    """Row = true class, column = predicted class."""

    counts: np.ndarray

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes):
        """Tally (true, predicted) label pairs; a label outside
        0..n_classes-1 is a :class:`StructuralError` naming it."""
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            for label in (t, p):
                if not 0 <= label < n_classes:
                    raise StructuralError(
                        f"label {label} is outside the model's {n_classes} classes")
            counts[t, p] += 1
        return cls(counts=counts)

    @property
    def total(self):
        return int(self.counts.sum())

    def accuracy(self):
        return float(np.trace(self.counts) / self.total)

    def per_class_recall(self):
        """Diagonal of the row-normalized counts; None for classes absent from the data."""
        sums = self.counts.sum(axis=1)
        return [float(self.counts[i, i] / sums[i]) if sums[i] > 0 else None
                for i in range(self.counts.shape[0])]


@dataclass
class EvalResult:
    accuracy: float
    confusion: ConfusionMatrix
    per_class_recall: list
    probs: np.ndarray  # [N, classes]: row i is predict's vector for sample i


def evaluate(model, samples):
    """Accuracy, confusion matrix, per-class recall and class probabilities
    over short windows.

    Calls :func:`gesturemem.inference.predict` once per window, so the
    reported accuracy and probabilities are exactly what single-window
    prediction, and so streaming, produces; a batched
    :func:`~gesturemem.inference.predict_batch` may differ from it in the last
    bits of a probability.
    """
    if not samples:
        raise ConfigError("cannot evaluate on an empty sample set")
    y_true = [s.label for s in samples]
    y_pred, probs = zip(*(predict(model, s.data) for s in samples))
    confusion = ConfusionMatrix.from_predictions(y_true, y_pred, model.num_classes)
    return EvalResult(accuracy=confusion.accuracy(), confusion=confusion,
                      per_class_recall=confusion.per_class_recall(),
                      probs=np.stack(probs))


def run_grid(config, recordings, label_names, split, seeds=None):
    """Train the recall x contrast-loss ablation grid; report test accuracies.

    Per seed, baseline and recall_only train once: with ``use_mal`` off,
    training never reads ``contrast_loss``. contrast_only and full train once
    per kind in :data:`~gesturemem.training.CONTRAST_KINDS`, keyed
    ``"<cell>/<kind>"``. Runs differ from ``config`` only in ``use_recall``,
    ``use_mal``, ``contrast_loss`` and ``seed``. Returns ``{"accuracies": {key:
    [acc per seed]}, "mean": {...}, "delta": {...}, "seeds": [...]}``, deltas
    against the baseline mean; with >= 2 seeds, adds the pooled two-tailed
    t-test of ``full/memory`` against ``full/views``. A seed listed twice,
    or one that no config takes, is a :class:`ConfigError` before any run.
    """
    seeds = list(seeds) if seeds else [config.seed]
    check_distinct_seeds(seeds)
    runs = [(seed, key, dataclasses.replace(config, use_recall=use_recall, use_mal=use_mal,
                                            contrast_loss=kind, seed=seed))
            for seed in seeds for key, use_recall, use_mal, kind in GRID]
    accuracies = {key: [] for key, *_ in GRID}
    for seed, key, cfg in runs:
        result = train(cfg, recordings, label_names, split)
        acc = evaluate(FrozenModel.from_state(result.state), result.test_samples).accuracy
        log.info("grid seed %d %s: accuracy %.4f", seed, key, acc)
        accuracies[key].append(acc)
    mean = {key: float(np.mean(v)) for key, v in accuracies.items()}
    out = {"accuracies": accuracies, "mean": mean,
           "delta": {key: mean[key] - mean["baseline"] for key in mean},
           "seeds": seeds}
    if len(seeds) >= 2:
        import warnings

        from scipy import stats

        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # identical groups -> moment warnings
            t, p = stats.ttest_ind(accuracies["full/memory"], accuracies["full/views"],
                                   equal_var=True)
        # zero variance in both groups leaves the statistic undefined
        out["t_statistic"] = None if np.isnan(t) else float(t)
        out["p_value"] = None if np.isnan(p) else float(p)
    return out


def check_distinct_seeds(seeds):
    """:class:`ConfigError` naming a seed listed twice: its runs would repeat
    one training and count it as two samples in the t-test."""
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ConfigError(f"seed {seed} is listed twice")


def format_grid_table(result):
    lines = [f"{'setting':<20} {'accuracy':>9} {'delta':>8}"]
    for key, *_ in GRID:
        lines.append(f"{key:<20} {result['mean'][key]:>9.4f} "
                     f"{result['delta'][key]:>+8.4f}")
    if "p_value" in result:
        if result["p_value"] is None:
            lines.append("full/memory vs full/views: t-test undefined "
                         "(no variance across runs)")
        else:
            lines.append(f"full/memory vs full/views: t = {result['t_statistic']:.3f}, "
                         f"p = {result['p_value']:.4f} "
                         f"(two-tailed, {len(result['seeds'])} runs each)")
    return "\n".join(lines)


def export_addressing(model, samples, n_slots, n_samples, seed, out_path):
    """Export an addressing submatrix (rows = memory slots, columns = samples).

    Randomly selects ``n_slots`` filled slots and ``n_samples`` windows, sorts
    both by class label, and writes the addressing weights (prediction's read,
    :func:`~gesturemem.inference.exp_logits`, normalized) as CSV plus a JSON
    metadata sidecar. Also reports the mean address mass that samples place on
    same-class vs. different-class slots within the exported block. A
    negative seed is a :class:`ConfigError`.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 0 < n_slots <= model.queue.fill:
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

    e = exp_logits(model, window_features(model, [samples[i].data for i in sample_idx]))
    matrix = (e / e.sum(axis=1, keepdims=True))[:, slot_idx].T.astype(np.float64)

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
