"""The benchmark's three workloads, driven through the public gesturemem API.

Every workload has the same life cycle: ``setup`` builds its inputs from the
seed (timed by the caller, several times), ``warmup`` runs untimed work so
caches and lazy set-up are done, ``measure`` runs the timed loop for a number
of seconds, and ``check`` verifies the outputs against a reference built from
the public batched functions. ``report`` turns a measurement into the named
metrics of ``README.md``.

Layer functions are always called through their module (``training.train_step``,
``evaluation.evaluate``), so the span wrappers of the traced run see them. The
reference path binds its functions at import time instead, so it is never
traced and never shares a wrapper with the code under test.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from gesturemem import dataset, encoder, evaluation, inference, training
from gesturemem.dataset import SplitSpec, SynthesisConfig, mean_center
from gesturemem.encoder import classify as ref_classify
from gesturemem.encoder import encode_forward as ref_encode_forward
from gesturemem.memory import MemoryQueue
from gesturemem.memory import address_batch as ref_address_batch

import calib
from stats import summary

# Output checks. Single-window predict and the batched reference run the same
# float32 arithmetic in a different order, so probabilities may differ in the
# last digits; a class may differ only where the reference's top two
# probabilities are within TIE_TOL of each other.
PROB_ATOL = 1e-4
TIE_TOL = 1e-4
# Open-loop latency limit: a frame must be handled within one frame period.
LATENCY_LIMIT_MS = 1000.0 / 30.0
# Idle time after a line that must remain for its calibration reading to run.
CAL_SLACK_S = 250e-6

MALFORMED_KINDS = ("bad_json", "missing_joints", "wrong_shape", "non_finite",
                   "non_numeric", "ragged")


@dataclass(frozen=True)
class Scale:
    """Input sizes of a run; FULL is the benchmark, SMOKE only tests the harness."""

    subjects: int = 5
    frames_per_class: int = 400
    recipe_steps: int = 400          # steps of the shared desk training recipe
    setup_repeats: int = 3
    sessions: int = 64
    frame_hz: float = 30.0
    stride_ms: float = 180.0
    malformed_share: float = 0.01
    warmup_s: float = 1.0            # open-loop traffic sent before measuring
    big_capacity: int = 65536
    filler_subjects: int = 10
    filler_frames_per_class: int = 1400
    fill_batch: int = 1024
    eval_chunk: int = 32


FULL = Scale()
SMOKE = Scale(subjects=2, frames_per_class=80, recipe_steps=6, setup_repeats=1,
              sessions=4, warmup_s=0.5, big_capacity=600,
              filler_subjects=1, filler_frames_per_class=200, fill_batch=256,
              eval_chunk=8)


def metric(value, unit, n=None, percentile=None, wall=None):
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = int(n)
    if percentile is not None:
        out["percentile"] = percentile
    if wall is not None:
        out["wall"] = float(wall)
    return out


def latency_metrics(prefix, wall_ms, readings_ms, ref_ms):
    """p10, p50 and tail at the reference speed, each with its wall-clock value.

    The p10 is scaled by the readings' p10, the p50 and the tail by their p50.
    """
    s = summary(wall_ms)
    fast, typical = (calib.scale(readings_ms, pct, ref_ms) for pct in (10.0, 50.0))
    return {f"{prefix}_{stat}": metric(s[stat] * factor, "ms", s["n"], pct, s[stat])
            for stat, pct, factor in (("p10", 10.0, fast), ("p50", 50.0, typical),
                                      ("tail", s["tail_pct"], typical))}


# --- shared desk recipe ---------------------------------------------------------


@dataclass
class Recipe:
    """Desk-profile data for one seed: the last subject is held out, the rest train."""

    config: training.TrainConfig
    label_map: dataset.LabelMap
    data: dict
    test_recording: dataset.Recording


def make_recipe(seed, scale):
    recordings, label_map = dataset.synthesize_recordings(
        SynthesisConfig(subjects=scale.subjects, frames_per_class=scale.frames_per_class),
        seed)
    ids = [r.subject_id for r in recordings]
    split = SplitSpec.from_lists(ids[:-1], ids[-1:])
    config = training.TrainConfig.desk_profile(seed=seed, use_recall=True, use_mal=True)
    data = training.prepare_data(config, recordings, label_map, split)
    return Recipe(config=config, label_map=label_map, data=data,
                  test_recording=recordings[-1])


def batch_indices(state, n, batch_size):
    """Endless minibatch indices in the order ``training.train`` draws them."""
    while True:
        order = state.rng.permutation(n)
        for lo in range(0, n, batch_size):
            yield order[lo:lo + batch_size]


def train_recipe(recipe, steps, meter=None):
    """Train a fresh state for a fixed number of steps; returns the state.

    A ``calib.Meter`` given as ``meter`` is marked after every step.
    """
    state = training.init_state(recipe.config, recipe.label_map)
    d = recipe.data
    batches = batch_indices(state, d["y_train"].shape[0], recipe.config.batch_size)
    for _ in range(steps):
        idx = next(batches)
        training.train_step(state, d["x_short"][idx], d["x_long"][idx], d["y_train"][idx])
        if meter is not None:
            meter.mark()
    return state


def preprocess(windows, center, input_scale, dtype):
    """The model's input transform for a batch of raw [C, T, V] windows."""
    x = np.asarray(windows, dtype=np.float64)
    if center:
        x = mean_center(x)
    if input_scale != 1.0:
        x = x * input_scale
    return np.ascontiguousarray(x, dtype=dtype)


# --- output checks ---------------------------------------------------------------


def reference_probs(model, windows, chunk=64):
    """Class probabilities from encode_forward + address_batch + classify."""
    out = []
    for lo in range(0, len(windows), chunk):
        x = preprocess(windows[lo:lo + chunk], model.center, model.input_scale,
                       model.dtype)
        feats, _ = ref_encode_forward(model.params, x, model.adjacency, model.encoder_cfg)
        if model.use_recall and model.queue.fill > 0:
            weights = ref_address_batch(model.queue, feats)
            feats = feats + weights @ model.queue.filled_features
        out.append(ref_classify(model.decoder, feats))
    return np.concatenate(out) if out else np.zeros((0, model.num_classes))


def prediction_matches(cls, probs, ref):
    """True when (cls, probs) agrees with one reference probability row."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != ref.shape or not np.allclose(probs, ref, rtol=0.0, atol=PROB_ATOL):
        return False
    best = int(ref.argmax())
    return cls == best or (0 <= cls < ref.shape[0] and ref[best] - ref[cls] <= TIE_TOL)


def capture_evaluate(model, samples):
    """Run ``evaluation.evaluate`` and capture every (class, probs) it predicts."""
    captured = []
    inner = evaluation.predict

    def recording_predict(m, window):
        out = inner(m, window)
        captured.append(out)
        return out

    evaluation.predict = recording_predict
    try:
        result = evaluation.evaluate(model, samples)
    finally:
        evaluation.predict = inner
    return result, captured


def verify_evaluate(model, samples):
    """Evaluate once with capture; returns (result, classes, mismatched indices)."""
    result, captured = capture_evaluate(model, samples)
    ref = reference_probs(model, [s.data for s in samples])
    bad = [i for i, (cls, probs) in enumerate(captured)
           if not prediction_matches(cls, probs, ref[i])]
    if len(captured) != len(samples):
        bad = list(range(len(samples)))
    return result, [c for c, _ in captured], bad


@dataclass
class Measure:
    """One timed phase: per-operation latencies and what was attempted.

    ``readings_ms`` holds the calibration readings taken among the
    operations (see calib.py). ``items`` were processed in ``wall_s`` seconds
    of timed operations, the basis of the workload's throughput.
    """

    op_ms: list
    readings_ms: list
    attempted: int
    failed: int
    items: int
    wall_s: float
    extra: dict = field(default_factory=dict)


@dataclass
class Check:
    """Outcome of the output checks; ``attempted`` counts operations the check
    itself ran (train-desk's held-out predictions), ``failed`` the mismatches."""

    correct: bool
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


# --- train-desk -----------------------------------------------------------------


class TrainDesk:
    """Desk-profile training steps with recall and the MAL on."""

    name = "train-desk"
    reading_ref_ms = calib.REF_READING_MS
    generic = {f"{kind}_ms_{stat}": f"train_step_ms_{stat}"
               for kind in ("latency", "predict_latency") for stat in ("p10", "p50")}

    def setup(self, seed, scale, seconds, meter=None):
        return {"recipe": make_recipe(seed, scale), "scale": scale}

    def warmup(self, ctx):
        """Nothing: each measured run starts with untimed steps that fill the queue."""

    def measure(self, ctx, seconds, tracer=None):
        """Train one fresh state until time is up, timing every step.

        The first steps fill the 512-slot queue untimed, so every timed step
        reads and writes a full memory. The state after ``recipe_steps`` steps
        is kept: it is the model whose held-out accuracy is reported.
        """
        recipe, scale = ctx["recipe"], ctx["scale"]
        config, d = recipe.config, recipe.data
        state = training.init_state(config, recipe.label_map)
        batches = batch_indices(state, d["y_train"].shape[0], config.batch_size)
        if tracer is not None:
            tracer.request = "warmup"
        for _ in range(-(-config.queue_capacity // config.batch_size)):
            idx = next(batches)
            training.train_step(state, d["x_short"][idx], d["x_long"][idx], d["y_train"][idx])
        step_ms, readings, losses, errors = [], [], [], []
        samples = attempted = 0
        model_state = None
        clock = time.perf_counter
        deadline = clock() + seconds
        while True:
            idx = next(batches)
            xs, xl, y = d["x_short"][idx], d["x_long"][idx], d["y_train"][idx]
            if tracer is not None:
                tracer.request = f"step:{attempted}"
            attempted += 1
            t0 = clock()
            try:
                out = training.train_step(state, xs, xl, y)
            except Exception as e:  # a failed step is counted, not fatal
                errors.append(repr(e))
                out = None
            t1 = clock()
            if out is not None:
                step_ms.append((t1 - t0) * 1e3)
                readings.append(calib.reading())
                losses.append(out["loss"])
                samples += len(idx)
            if state.step == scale.recipe_steps and model_state is None:
                model_state = copy.deepcopy(state)
            if t1 >= deadline:
                break
        return Measure(op_ms=step_ms, readings_ms=readings, attempted=attempted,
                       failed=len(errors), items=samples, wall_s=sum(step_ms) / 1e3,
                       extra={"losses": losses, "errors": errors,
                              "model_state": model_state})

    def check(self, ctx, m):
        chk = Check(correct=True)
        losses = np.asarray(m.extra["losses"], dtype=np.float64)
        bad = int((~np.isfinite(losses)).sum())
        if bad or m.extra["errors"]:
            chk.correct = False
            chk.failed += bad
            chk.notes.append(f"{bad} non-finite losses, {len(m.extra['errors'])} "
                             f"steps raised: {m.extra['errors'][:3]}")
        recipe = ctx["recipe"]
        state = m.extra["model_state"]
        if state is None:   # the run ended before recipe_steps
            state = train_recipe(recipe, ctx["scale"].recipe_steps)
        model = inference.FrozenModel.from_state(state)
        result, _, mismatched = verify_evaluate(model, recipe.data["test_samples"])
        chk.attempted = len(recipe.data["test_samples"])
        chk.failed += len(mismatched)
        if mismatched:
            chk.correct = False
            chk.notes.append(f"{len(mismatched)} held-out predictions differ "
                             f"from the batched reference")
        chk.quality["test_accuracy"] = metric(result.accuracy, "share",
                                              len(recipe.data["test_samples"]))
        return chk

    def report(self, ctx, m):
        out = latency_metrics("train_step_ms", m.op_ms, m.readings_ms, self.reading_ref_ms)
        out["train_samples_per_s"] = metric(m.items / m.wall_s, "1/s", len(m.op_ms))
        return out


# --- stream-desk ----------------------------------------------------------------


def _malformed_line(kind, t, joints):
    row = [float(v) for v in joints[0]]
    if kind == "bad_json":
        return '{"t": %r, "joints": [[%r, %r' % (t, row[0], row[1])
    if kind == "missing_joints":
        return json.dumps({"t": t})
    if kind == "wrong_shape":
        return json.dumps({"t": t, "joints": joints[:2].tolist()})
    if kind == "non_finite":
        return json.dumps({"t": t, "joints": [[float("nan")] + row[1:]]
                           + joints[1:].tolist()})
    if kind == "non_numeric":
        return json.dumps({"t": t, "joints": [["x", "y", "z"]] + joints[1:].tolist()})
    if kind == "ragged":
        return json.dumps({"t": t, "joints": [row, row[:2], row]})
    raise ValueError(kind)


@dataclass
class Stream:
    """Open-loop traffic: event j goes to session j % K, due at j / (K * hz)."""

    lines: list          # NDJSON text per event
    sessions: list       # session index per event
    kinds: list          # "frame" or a malformed kind
    frames: list         # recording frame index per event (-1 when malformed)
    times: list          # session timestamp in ms per event
    warm: int            # events sent before measuring starts
    rate_hz: float       # total event rate over all sessions


def build_stream(seed, recording, scale, seconds):
    """K sessions replay the held-out recording from staggered offsets at frame_hz.

    About ``malformed_share`` of each session's lines are malformed instead of
    carrying its next frame; a malformed line does not advance the session.
    """
    rng = np.random.default_rng([seed, 7])
    k, hz = scale.sessions, scale.frame_hz
    warm = int(round(scale.warmup_s * hz)) * k
    total = warm + int(math.ceil(seconds * hz)) * k
    per_session = total // k
    n_frames = len(recording)
    period_ms = 1000.0 / hz
    plans = []
    for s in range(k):
        offset = s * n_frames // k
        made = 0
        plan = []
        malformed = rng.random(per_session) < scale.malformed_share
        kinds = rng.integers(0, len(MALFORMED_KINDS), size=per_session)
        for e in range(per_session):
            frame = (offset + made) % n_frames
            t = made * period_ms
            joints = recording.joints[frame]
            if malformed[e]:
                kind = MALFORMED_KINDS[kinds[e]]
                plan.append((_malformed_line(kind, t, joints), kind, -1, t))
            else:
                plan.append((json.dumps({"t": t, "joints": joints.tolist()}),
                             "frame", frame, t))
                made += 1
        plans.append(plan)
    lines, sessions, kinds, frames, times = [], [], [], [], []
    for e in range(per_session):
        for s in range(k):
            line, kind, frame, t = plans[s][e]
            lines.append(line)
            sessions.append(s)
            kinds.append(kind)
            frames.append(frame)
            times.append(t)
    return Stream(lines=lines, sessions=sessions, kinds=kinds, frames=frames,
                  times=times, warm=warm, rate_hz=k * hz)


def _replay(model, stream, scale, tracer=None):
    """Closed loop: every line as soon as the previous one returns."""
    sessions = [inference.StreamSession(model, stride_ms=scale.stride_ms,
                                        frame_hz=scale.frame_hz)
                for _ in range(scale.sessions)]
    handlers = [s.handle_line for s in sessions]
    outs = []
    clock = time.perf_counter
    started = clock()
    for j, (s, line) in enumerate(zip(stream.sessions, stream.lines)):
        if tracer is not None:
            tracer.request = f"replay:{j}" if j >= stream.warm else "warmup"
        try:
            outs.append(handlers[s](line))
        except Exception as e:
            outs.append(e)
    return outs, clock() - started


class StreamDesk:
    """Open-loop NDJSON serving over interleaved 30 Hz sessions."""

    name = "stream-desk"
    reading_ref_ms = calib.REF_READING_MS
    generic = {f"{kind}_ms_{stat}": f"{op}_latency_ms_{stat}"
               for kind, op in (("latency", "frame"), ("predict_latency", "emit"))
               for stat in ("p10", "p50")}

    def setup(self, seed, scale, seconds, meter=None):
        recipe = make_recipe(seed, scale)
        state = train_recipe(recipe, scale.recipe_steps, meter)
        model = inference.FrozenModel.from_state(state)
        stream = build_stream(seed, recipe.test_recording, scale, seconds)
        return {"model": model, "stream": stream, "scale": scale,
                "recording": recipe.test_recording}

    def warmup(self, ctx):
        stream, n = ctx["stream"], ctx["stream"].warm
        _replay(ctx["model"], dataclasses.replace(
            stream, lines=stream.lines[:n], sessions=stream.sessions[:n]), ctx["scale"])

    def measure(self, ctx, seconds, tracer=None):
        """Send every line when it is due and time it from that moment.

        The first ``warm`` events fill the session buffers and are not
        recorded. Waiting is a short sleep and then a spin, so a frame is not
        charged for the sleep's wake-up delay. The idle time after a line
        holds a calibration reading when one fits before the next line is due.
        """
        model, stream, scale = ctx["model"], ctx["stream"], ctx["scale"]
        sessions = [inference.StreamSession(model, stride_ms=scale.stride_ms,
                                            frame_hz=scale.frame_hz)
                    for _ in range(scale.sessions)]
        handlers = [s.handle_line for s in sessions]
        total = len(stream.lines)
        outs = [None] * total
        latency = np.empty(total)
        lag = np.empty(total)
        readings = []
        dt = 1.0 / stream.rate_hz
        clock, sleep = time.perf_counter, time.sleep
        origin = clock() + 0.01
        for j in range(total):
            due = origin + j * dt
            now = clock()
            if due - now > 0.002:
                sleep(due - now - 0.001)
            while clock() < due:
                pass
            if tracer is not None:
                tracer.request = f"line:{j}" if j >= stream.warm else "warmup"
            start = clock()
            try:
                out = handlers[stream.sessions[j]](stream.lines[j])
            except Exception as e:  # counted as failed by check()
                out = e
            end = clock()
            outs[j] = out
            latency[j] = end - due
            lag[j] = start - due
            if j >= stream.warm and origin + (j + 1) * dt - clock() > CAL_SLACK_S:
                readings.append(calib.reading())
        replay_outs, replay_s = _replay(model, stream, scale, tracer)
        w = stream.warm
        return Measure(op_ms=latency[w:] * 1e3, readings_ms=readings,
                       attempted=total - w, failed=0, items=total, wall_s=replay_s,
                       extra={"outs": outs, "lag_ms": lag[w:] * 1e3,
                              "replay_outs": replay_outs})

    def check(self, ctx, m):
        """Replays the emission policy and compares every output of the measured part.

        The policy (from the serving protocol): a valid frame enters the
        session's window; once the window holds T frames, a prediction is due
        when no earlier one exists or at least ``stride_ms`` of frame time has
        passed since it. Every malformed line must produce ``{"error": ...}``.
        """
        model, stream, scale = ctx["model"], ctx["stream"], ctx["scale"]
        recording = ctx["recording"]
        outs = m.extra["outs"]
        chk = Check(correct=True)
        raised = {}
        wrong = []
        windows, emitted, emit_frames = [], [], []
        buffers = [deque(maxlen=model.short_len) for _ in range(scale.sessions)]
        last_emit = [None] * scale.sessions
        for j, kind in enumerate(stream.kinds):
            s, out, measured = stream.sessions[j], outs[j], j >= stream.warm
            expect_emit = False
            if kind == "frame":
                t = stream.times[j]
                buffers[s].append(stream.frames[j])
                if len(buffers[s]) == model.short_len and (
                        last_emit[s] is None
                        or t - last_emit[s] >= scale.stride_ms - inference.TIME_EPS_MS):
                    expect_emit = True
                    last_emit[s] = t
            if not measured:
                continue
            if isinstance(out, Exception):
                key = f"{kind}:{type(out).__name__}"
                raised[key] = raised.get(key, 0) + 1
                continue
            if kind != "frame":
                ok = isinstance(out, dict) and "error" in out
            elif expect_emit:
                ok = isinstance(out, dict) and "class" in out
                if ok:
                    idx = list(buffers[s])
                    windows.append(recording.joints[idx].transpose(2, 0, 1))
                    emitted.append(out)
                    emit_frames.append(idx[-1])
                    ok = out.get("t") == stream.times[j]
            else:
                ok = out is None
            if not ok:
                wrong.append(j)
        ref = reference_probs(model, windows)
        for i, out in enumerate(emitted):
            if not (prediction_matches(out["class"], out["probs"], ref[i])
                    and out["name"] == model.label_names[out["class"]]):
                wrong.append(-1 - i)
        replay_same = all(_same_output(a, b) for a, b in
                          zip(outs[stream.warm:], m.extra["replay_outs"][stream.warm:]))
        n_raised = sum(raised.values())
        chk.failed = n_raised + len(wrong)
        if wrong or not replay_same:
            chk.correct = False
            chk.notes.append(f"{len(wrong)} outputs differ from the expected ones; "
                             f"closed-loop replay identical: {replay_same}")
        if raised:
            chk.notes.append(f"exceptions escaped handle_line: {raised}")
        chk.quality["raised_by_kind"] = raised
        hits = sum(int(o["class"] == recording.labels[f])
                   for o, f in zip(emitted, emit_frames))
        chk.quality["stream_accuracy"] = metric(hits / max(len(emitted), 1), "share",
                                                len(emitted))
        return chk

    def report(self, ctx, m):
        stream = ctx["stream"]
        w = stream.warm
        outs = m.extra["outs"][w:]
        lat = np.asarray(m.op_ms)
        valid = [i for i, k in enumerate(stream.kinds[w:])
                 if k == "frame" and not isinstance(outs[i], Exception)]
        emits = [i for i in valid if isinstance(outs[i], dict) and "class" in outs[i]]
        out = latency_metrics("frame_latency_ms", lat[valid], m.readings_ms,
                              self.reading_ref_ms)
        out.update(latency_metrics("emit_latency_ms", lat[emits], m.readings_ms,
                                   self.reading_ref_ms))
        lag = summary(m.extra["lag_ms"])
        out["stream_lag_ms_tail"] = metric(lag["tail"], "ms", lag["n"], lag["tail_pct"])
        out["stream_capacity_fps"] = metric(m.items / m.wall_s, "1/s", m.items)
        out["offered_fps"] = metric(stream.rate_hz, "1/s")
        within = out["frame_latency_ms_tail"]["wall"] <= LATENCY_LIMIT_MS
        out["frame_tail_within_limit"] = metric(within, "bool")
        return out


def _same_output(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


# --- eval-bigmem ----------------------------------------------------------------


def fill_big_queue(seed, state, config, scale, meter=None):
    """A paper-scale queue filled with long-encoder features of synthetic windows.

    Windows come from recordings of subjects outside the desk recipe, one
    distinct long window per slot, encoded by the trained long-term encoder.
    """
    recordings, label_map = dataset.synthesize_recordings(
        SynthesisConfig(subjects=scale.filler_subjects,
                        frames_per_class=scale.filler_frames_per_class,
                        subject_prefix="m"), seed + 1_000_003)
    long_len = config.short_len * config.window_scale
    enc_cfg = config.encoder_config()
    adj = state.graph.normalized
    queue = MemoryQueue(scale.big_capacity, config.feature_dim, dtype=config.np_dtype)
    for rec in recordings:
        windows = dataset.window_dataset([rec], label_map, long_len, stride=1,
                                         with_long=False).shorts
        for lo in range(0, len(windows), scale.fill_batch):
            room = queue.capacity - queue.fill
            if room == 0:
                return queue
            chunk = windows[lo:lo + min(scale.fill_batch, room)]
            x = preprocess([s.data for s in chunk], config.center,
                           config.input_scale, config.np_dtype)
            feats, _ = encoder.encode_forward(state.params_l, x, adj, enc_cfg)
            queue.enqueue_batch(feats, [s.label for s in chunk])
            if meter is not None:
                meter.mark()
    if queue.fill < queue.capacity:
        raise RuntimeError(f"filler data gave only {queue.fill} of "
                           f"{queue.capacity} slots")
    return queue


class EvalBigmem:
    """Held-out evaluation against a 65536-slot memory queue."""

    name = "eval-bigmem"
    reading_ref_ms = calib.REF_ADDRESSING_MS
    generic = {f"{kind}_ms_{stat}": f"eval_window_ms_{stat}"
               for kind in ("latency", "predict_latency") for stat in ("p10", "p50")}

    def setup(self, seed, scale, seconds, meter=None):
        recipe = make_recipe(seed, scale)
        state = train_recipe(recipe, scale.recipe_steps, meter)
        queue = fill_big_queue(seed, state, recipe.config, scale, meter)
        model = dataclasses.replace(inference.FrozenModel.from_state(state), queue=queue)
        samples = recipe.data["test_samples"]
        c = scale.eval_chunk
        starts = range(0, len(samples) * c, c)
        chunks = [[samples[(lo + i) % len(samples)] for i in range(c)] for lo in starts]
        return {"model": model, "samples": samples, "chunks": chunks,
                "cal_matrix": calib.addressing_matrix(queue.capacity, queue.feature_dim)}

    def warmup(self, ctx):
        evaluation.evaluate(ctx["model"], ctx["chunks"][0])

    def measure(self, ctx, seconds, tracer=None):
        """``evaluate`` over chunks of held-out windows, cycling until time is up.

        Each chunk is paired with an addressing reading (see calib.py), since
        scans of the 65536-slot queue dominate its time.
        """
        model, chunks, matrix = ctx["model"], ctx["chunks"], ctx["cal_matrix"]
        window_ms, readings, results, errors = [], [], [], []
        windows = attempted = 0
        busy = 0.0
        clock = time.perf_counter
        deadline = clock() + seconds
        k = 0
        while True:
            chunk = chunks[k % len(chunks)]
            if tracer is not None:
                tracer.request = f"chunk:{k}"
            attempted += len(chunk)
            t0 = clock()
            try:
                res = evaluation.evaluate(model, chunk)
            except Exception as e:  # the chunk's windows count as failed
                errors.append((k, repr(e)))
                res = None
            t1 = clock()
            if res is not None:
                window_ms.append((t1 - t0) * 1e3 / len(chunk))
                readings.append(calib.addressing_reading(matrix))
                windows += len(chunk)
                busy += t1 - t0
            results.append(res)
            k += 1
            if t1 >= deadline:
                break
        return Measure(op_ms=window_ms, readings_ms=readings, attempted=attempted,
                       failed=len(errors) * len(chunks[0]),
                       items=windows, wall_s=busy,
                       extra={"results": results, "errors": errors})

    def check(self, ctx, m):
        """Per-window predictions against the reference, then every timed chunk.

        A verification pass captures each prediction ``evaluate`` makes; each
        timed chunk's confusion matrix must equal the one those predictions give.
        """
        model, samples, chunks = ctx["model"], ctx["samples"], ctx["chunks"]
        chk = Check(correct=True)
        result, classes, mismatched = verify_evaluate(model, samples)
        index = {id(s): i for i, s in enumerate(samples)}
        wrong = {id(samples[i]) for i in mismatched}
        bad_chunks = 0
        for k, res in enumerate(m.extra["results"]):
            if res is None:
                continue
            chunk = chunks[k % len(chunks)]
            expect = evaluation.ConfusionMatrix.from_predictions(
                [s.label for s in chunk], [classes[index[id(s)]] for s in chunk],
                model.num_classes)
            if not np.array_equal(expect.counts, res.confusion.counts):
                bad_chunks += 1
                chk.failed += len(chunk)
            else:
                chk.failed += sum(id(s) in wrong for s in chunk)
        if mismatched or bad_chunks:
            chk.correct = False
            chk.notes.append(f"{len(mismatched)} predictions differ from the "
                             f"reference; {bad_chunks} timed chunks disagree")
        if m.extra["errors"]:
            chk.notes.append(f"evaluate raised: {m.extra['errors'][:3]}")
        chk.quality["eval_accuracy"] = metric(result.accuracy, "share", len(samples))
        return chk

    def report(self, ctx, m):
        out = latency_metrics("eval_window_ms", m.op_ms, m.readings_ms, self.reading_ref_ms)
        out["eval_windows_per_s"] = metric(m.items / m.wall_s, "1/s", m.items)
        return out


WORKLOADS = {w.name: w for w in (TrainDesk, StreamDesk, EvalBigmem)}
