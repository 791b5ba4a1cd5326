"""Span tracing for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces the public functions of the ``gesturemem`` layers
with wrappers that record one span per call: name, start, end, parent span and
request id. Each name is replaced where its caller looks it up (for example
``gesturemem.evaluation.predict``, which ``evaluation`` imports by name), so
no file under ``src/`` changes. Spans stay in memory until ``write`` is
called at the end of the run.

A layer's self time is the total duration of its spans minus the part covered
by their child spans and minus the tracer's own work around those children:
the counters observed at a child's boundary and the span bookkeeping. The
requests of a run fall into phases: ``setup``, ``warmup``, ``check``, and the
measured phase, whose request ids name the operation (``step:i``, ``line:j``,
``replay:j``, ``chunk:k``). ``layer_metrics`` reports a layer's mean self
milliseconds per entry into the layer (a span whose parent belongs to another
layer) over one phase only, next to the counts recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from gesturemem import dataset, encoder, evaluation, inference, losses, memory, training

# (module or class, attribute, span name); the name None means the span is
# named per call (short vs long encoder forward).
_PATCHES = (
    (encoder, "encode_forward", None),
    (encoder, "encode_backward", "encoder.backward"),
    (encoder, "momentum_update", "encoder.momentum_update"),
    (encoder, "classify", "encoder.classify"),
    (memory, "address", "memory.recall"),
    (memory, "address_batch", "memory.recall"),
    (memory, "recall", "memory.recall"),
    (memory, "recall_for_query", "memory.recall"),
    (memory, "recall_batch_with_grad", "memory.recall"),
    (memory, "recall_batch_backward", "memory.recall"),
    (memory.MemoryQueue, "enqueue_batch", "memory.enqueue"),
    (losses, "memory_augmented_loss_with_grad", "losses.mal"),
    (losses, "softmax_cross_entropy_batch", "losses.ce"),
    (training, "train_step", "training.train_step"),
    (training, "prepare_data", "training.prepare_data"),
    (training, "window_dataset", "dataset.window"),
    (dataset, "window_dataset", "dataset.window"),
    (dataset, "synthesize_recordings", "dataset.synthesize"),
    (inference.StreamSession, "handle_line", "inference.handle_line"),
    (inference, "predict", "inference.predict"),
    (evaluation, "predict", "inference.predict"),
    (evaluation, "evaluate", "evaluation.evaluate"),
)

# Per-layer time metrics: (metric name, span name).
TIME_METRICS = (
    ("encoder.forward_short.ms", "encoder.forward_short"),
    ("encoder.forward_long.ms", "encoder.forward_long"),
    ("encoder.backward.ms", "encoder.backward"),
    ("encoder.momentum_update.ms", "encoder.momentum_update"),
    ("encoder.classify.ms", "encoder.classify"),
    ("memory.recall.ms", "memory.recall"),
    ("memory.enqueue.ms", "memory.enqueue"),
    ("losses.mal.ms", "losses.mal"),
    ("losses.ce.ms", "losses.ce"),
    ("training.train_step.self_ms", "training.train_step"),
    ("training.prepare_data.ms", "training.prepare_data"),
    ("dataset.synthesize.ms", "dataset.synthesize"),
    ("dataset.window.ms", "dataset.window"),
    ("inference.handle_line.self_ms", "inference.handle_line"),
    ("inference.predict.self_ms", "inference.predict"),
    ("evaluation.evaluate.self_ms", "evaluation.evaluate"),
)

# Phases in the order a layer's time is looked up (see ``layer_metrics``).
PHASES = ("measure", "setup", "check")


def phase_of(request):
    """``setup``, ``warmup`` and ``check`` are phases; any other request is measured."""
    return request if request in ("setup", "warmup", "check") else "measure"


COUNT_METRICS = ("encoder.windows", "memory.slots_scanned", "memory.fill",
                 "inference.frames", "inference.emissions", "inference.errors",
                 "inference.raised")


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self, short_len):
        self.short_len = short_len
        self.request = "setup"
        # [name, start_s, end_s, parent index, request, tracer's own s in children]
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.anchors = 0
        self.valid_anchors = 0
        self._stack = []
        self._saved = []

    # --- installation ------------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attr))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, fn, name, attr):
        observe = getattr(self, f"_observe_{attr}", None)
        outcome = self._outcome_handle_line if attr == "handle_line" else None
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            span_name = name or self._forward_name(args[1])
            if observe is not None:
                observe(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [span_name, 0.0, 0.0, parent, self.request, 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            raised = True
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                span[2] = clock()
                stack.pop()
                if outcome is not None:
                    outcome(None if raised else out, raised)
                if parent >= 0:   # the tracer's work here is not the parent's
                    spans[parent][5] += span[1] - entered + clock() - span[2]
            return out

        return wrapper

    # --- counters recorded at the layer boundaries -------------------------------

    def _forward_name(self, x):
        long = x.shape[2] > self.short_len
        return "encoder.forward_long" if long else "encoder.forward_short"

    def _observe_encode_forward(self, params, x, *args, **kwargs):
        self.counts["encoder.windows"] += int(x.shape[0])

    def _observe_address(self, queue, query):
        self._scan(queue, 1)

    def _observe_address_batch(self, queue, queries):
        self._scan(queue, int(np.shape(queries)[0]))

    def _scan(self, queue, queries):
        self.counts["memory.slots_scanned"] += queue.fill * queries
        self.counts["memory.fill"] = max(self.counts["memory.fill"], queue.fill)

    def _observe_memory_augmented_loss_with_grad(self, features, labels, queue, cfg):
        labels = np.asarray(labels)
        self.anchors += labels.shape[0]
        if queue.fill == 0:
            return
        slot_labels = queue.filled_labels
        has_pos = np.isin(labels, slot_labels)
        if cfg.denominator_mode == "negatives":
            has_den = np.array([(slot_labels != y).any() for y in labels])
        else:
            has_den = np.ones(labels.shape[0], dtype=bool)
        self.valid_anchors += int((has_pos & has_den).sum())

    def _observe_handle_line(self, session, line):
        self.counts["inference.frames"] += 1

    def _outcome_handle_line(self, out, raised):
        if raised:
            self.counts["inference.raised"] += 1
        elif out is None:
            return
        elif "error" in out:
            self.counts["inference.errors"] += 1
        else:
            self.counts["inference.emissions"] += 1

    # --- results -----------------------------------------------------------------

    def self_times(self, phase):
        """Per span name: (total self seconds, entries into the layer) in one phase."""
        spans = self.spans
        self_s = [s[2] - s[1] - s[5] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_s[s[3]] -= s[2] - s[1]
        out = {}
        for i, s in enumerate(spans):
            if phase_of(s[4]) != phase:
                continue
            total, entries = out.get(s[0], (0.0, 0))
            entered = s[3] < 0 or spans[s[3]][0] != s[0]
            out[s[0]] = (total + self_s[i], entries + entered)
        return out

    def layer_metrics(self, speed=1.0):
        """Every per-layer metric: mean self ms per layer entry, and the counts.

        A layer's time comes from the measured phase when the layer runs
        there, else from set-up, else from the checks; which phase a layer
        falls in depends only on the workload, so the mean never mixes calls
        of different shapes in proportions that change with the program's
        speed. Times are multiplied by ``speed`` (the host's speed relative to
        the reference, see calib.py); the unscaled value is kept as ``wall``.
        """
        by_phase = {phase: self.self_times(phase) for phase in PHASES}
        out = {}
        for metric, span_name in TIME_METRICS:
            phase, total, entries = next(
                ((p, *by_phase[p][span_name]) for p in PHASES if span_name in by_phase[p]),
                (None, 0.0, 0))
            wall = total * 1e3 / entries if entries else 0.0
            out[metric] = {"value": wall * speed, "unit": "ms", "wall": wall,
                           "entries": entries, "phase": phase}
        for metric in COUNT_METRICS:
            out[metric] = {"value": self.counts[metric], "unit": "count"}
        share = self.valid_anchors / self.anchors if self.anchors else 0.0
        out["losses.mal.valid_anchor_share"] = {"value": share, "unit": "share",
                                                "anchors": self.anchors}
        return out

    def write(self, path):
        """Write every span as one JSON array per line, times in microseconds.

        The last field is the tracer's own time around the span's children.
        """
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, tracer_s in self.spans:
                fh.write(json.dumps([name, round((start - t0) * 1e6, 3),
                                     round((end - t0) * 1e6, 3), parent, request,
                                     round(tracer_s * 1e6, 3)]))
                fh.write("\n")
