"""Frame ingestion, sliding-window sample construction, and synthetic gesture data.

Windowing is vectorized per recording: purity comes from where each frame's
run of equal labels ends, and a recording's short windows are one gather from
a strided view into an [N, C, T, V] block whose disjoint rows are the samples'
``data``, so a retained sample keeps its recording's block alive.
:func:`window_starts` holds the start and purity rules of short windows and of
the S*T-frame long windows that pair with them. Training gathers its short and
long arrays from those starts with no sample objects, centered by the in-order
frame sums that ``mean`` makes over T, so its bits match :func:`preprocess`.

File formats
------------
Frames file: one frame per line,
``recording_id,subject_id,frame_index,label_id,hx,hy,hz,lx,ly,lz,rx,ry,rz``
(head, left thigh, right thigh; y is vertical). ``#`` lines are comments.
Label map file: lines of ``label_id,gesture_name``. A dataset directory holds
``frames.csv`` plus ``labels.csv``. Every file is read as UTF-8, whole, with a
leading BOM ignored.

Synthetic recordings are sampled at ``FRAME_HZ``, also a stream's default
frame rate, and each moving gesture follows its fixed ``GAITS`` entry.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_field_types, text_records
from .errors import ConfigError, DataIntegrityError, NonFiniteError, ParseError

NUM_JOINTS = 3
NUM_CHANNELS = 3

FRAMES_FILENAME = "frames.csv"
LABELS_FILENAME = "labels.csv"
# Most class names load_recordings makes up for frames with no labels.csv
MAX_UNNAMED_CLASSES = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class Recording:
    """All frames of one recording, stored densely.

    ``joints`` has shape [F, V, C]; ``labels`` has shape [F]. Frame indices are
    gapless, starting at ``first_frame_index``.
    """

    recording_id: str
    subject_id: str
    joints: np.ndarray
    labels: np.ndarray
    first_frame_index: int = 0

    def __len__(self):
        return self.joints.shape[0]


@dataclass
class ShortTermSample:
    """A label-pure window of T frames, laid out as [C, T, V]."""

    data: np.ndarray
    label: int
    recording_id: str
    start_frame: int


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/test subject sets for cross-subject evaluation."""

    train_subjects: frozenset
    test_subjects: frozenset

    def __post_init__(self):
        overlap = self.train_subjects & self.test_subjects
        if overlap:
            raise ConfigError(f"subjects in both train and test sets: {sorted(overlap)}")

    @classmethod
    def from_lists(cls, train, test):
        return cls(frozenset(train), frozenset(test))


@dataclass
class SampleSet:
    """The label-pure short windows of some recordings, in recording order."""

    shorts: list


def _non_negative(text, field, line_no):
    """The non-negative integer that a frames field spells, or a :class:`ParseError`."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"bad {field} {text!r}", line_no) from None
    if value < 0:
        raise ParseError(f"negative {field} {value}", line_no)
    return value


def _parse_frame_line(line, line_no):
    """The ids, frame index, label and 9 coordinates of one frames line."""
    parts = line.split(",")
    if len(parts) != 4 + NUM_JOINTS * NUM_CHANNELS:
        raise ParseError(f"expected 13 comma-separated fields, got {len(parts)}", line_no)
    rec_id, subj_id = parts[0].strip(), parts[1].strip()
    if not rec_id or not subj_id:
        raise ParseError("empty recording_id or subject_id", line_no)
    frame_index = _non_negative(parts[2], "frame_index", line_no)
    label = _non_negative(parts[3], "label_id", line_no)
    if label > _INT64_MAX:  # a recording's labels are int64
        raise ParseError(f"label_id {label} is past the int64 range", line_no)
    try:
        coords = [float(p) for p in parts[4:]]
    except ValueError:
        raise ParseError("bad coordinate value", line_no) from None
    for v in coords:
        if not math.isfinite(v):
            raise NonFiniteError(f"line {line_no}: non-finite coordinate {v!r}")
    return rec_id, subj_id, frame_index, label, coords


def resolve_frames_path(path):
    """The frames file of ``path``: the file itself, or a directory's ``frames.csv``."""
    if os.path.isdir(path):
        return os.path.join(path, FRAMES_FILENAME)
    return path


def load_label_map(path):
    """Read a ``label_id,gesture_name`` file into the tuple of class names, in
    id order; ids must be 0..N-1 without gaps, and no name may repeat."""
    entries, names = {}, set()
    for line_no, line in text_records(path, ParseError):
        parts = line.split(",", 1)
        if len(parts) != 2:
            raise ParseError("expected 'label_id,gesture_name'", line_no)
        try:
            label = int(parts[0])
        except ValueError:
            raise ParseError(f"bad label_id {parts[0]!r}", line_no) from None
        if label in entries:
            raise ParseError(f"duplicate label_id {label}", line_no)
        name = parts[1].strip()
        if name in names:
            raise ParseError(f"duplicate gesture_name {name!r}", line_no)
        names.add(name)
        entries[label] = name
    if sorted(entries) != list(range(len(entries))):
        raise DataIntegrityError(f"label ids not contiguous from 0: {sorted(entries)}")
    return tuple(entries[i] for i in range(len(entries)))


def load_recordings(path):
    """Load a frames file (or dataset directory) into per-recording arrays.

    Returns ``(recordings, label_names)``. Frames are grouped by recording_id
    and sorted by frame_index; indices must be strictly increasing and
    gapless. The class names are read from a sibling ``labels.csv`` when
    present, otherwise made up from the labels observed in the data:
    ``class_0`` up to the largest label, which must lie below
    ``MAX_UNNAMED_CLASSES``.
    """
    frames_path = resolve_frames_path(path)
    groups = {}  # rec_id -> (subject, list[(frame_index, label, coordinates)])
    for line_no, line in text_records(frames_path, ParseError):
        rec_id, subj_id, frame_index, label, coords = _parse_frame_line(line, line_no)
        subject, rows = groups.setdefault(rec_id, (subj_id, []))
        if subject != subj_id:
            raise DataIntegrityError(
                f"recording {rec_id!r} claims two subjects: "
                f"{subject!r} and {subj_id!r} (line {line_no})")
        rows.append((frame_index, label, coords))

    recordings = []
    for rec_id, (subj_id, rows) in groups.items():
        rows.sort(key=lambda r: r[0])
        indices = [r[0] for r in rows]
        for prev, cur in zip(indices, indices[1:]):
            if cur == prev:
                raise DataIntegrityError(f"recording {rec_id!r}: duplicate frame_index {cur}")
            if cur != prev + 1:
                raise DataIntegrityError(
                    f"recording {rec_id!r}: frame_index gap between {prev} and {cur}")
        joints = np.array([r[2] for r in rows]).reshape(-1, NUM_JOINTS, NUM_CHANNELS)
        labels = np.array([r[1] for r in rows], dtype=np.int64)
        recordings.append(Recording(rec_id, subj_id, joints, labels,
                                    first_frame_index=indices[0]))
    recordings.sort(key=lambda r: r.recording_id)
    max_label = max((int(r.labels.max()) for r in recordings), default=-1)

    labels_path = os.path.join(os.path.dirname(frames_path), LABELS_FILENAME)
    if os.path.exists(labels_path):
        label_names = load_label_map(labels_path)
        if max_label >= len(label_names):
            raise DataIntegrityError(
                f"frames reference label {max_label} but label map has "
                f"{len(label_names)} classes")
    elif max_label >= MAX_UNNAMED_CLASSES:
        raise DataIntegrityError(
            f"frames reference label {max_label}, and without a {LABELS_FILENAME} at "
            f"most {MAX_UNNAMED_CLASSES} class names are made up: write a "
            f"{LABELS_FILENAME} that names the classes")
    else:
        label_names = tuple(f"class_{i}" for i in range(max_label + 1))
    return recordings, label_names


def refuse_unnamed_labels(recordings, n_classes):
    """:class:`DataIntegrityError` naming the first recording with a label
    outside ``[0, n_classes)``, and that label."""
    for rec in recordings:
        labels = np.asarray(rec.labels)
        bad = labels[(labels < 0) | (labels >= n_classes)]
        if bad.size:
            raise DataIntegrityError(f"recording {rec.recording_id!r} has label "
                                     f"{bad[0]}, which is no class id")


def _check_writable(recordings, label_names):
    """:class:`DataIntegrityError` for what :func:`load_recordings` would not
    read back as written: an id that is empty, holds a comma or a line
    break, has surrounding whitespace, or is a recording id that starts with
    ``#`` (a comment line) or repeats another; a recording with no frames or
    a non-finite coordinate; a label that names no class of ``label_names``,
    or without them, a label outside ``[0, MAX_UNNAMED_CLASSES)``; a class
    name with a line break or surrounding whitespace, or one that repeats
    another."""
    names = label_names or ()
    top = MAX_UNNAMED_CLASSES if label_names is None else len(names)
    for rec in recordings:
        for kind, text in (("recording", rec.recording_id), ("subject", rec.subject_id)):
            if not text or text != text.strip() or any(c in text for c in ",\r\n"):
                raise DataIntegrityError(f"{kind} id {text!r} cannot be written as a field")
        if rec.recording_id.startswith("#"):
            raise DataIntegrityError(f"recording id {rec.recording_id!r} reads as a comment")
        if len(rec) == 0:
            raise DataIntegrityError(f"recording {rec.recording_id!r} has no frames")
        if not np.isfinite(rec.joints).all():
            raise DataIntegrityError(f"recording {rec.recording_id!r} has a non-finite "
                                     f"coordinate")
    refuse_unnamed_labels(recordings, top)
    if len({r.recording_id for r in recordings}) != len(recordings):
        raise DataIntegrityError("two recordings share an id")
    for name in names:
        if name != name.strip() or "\r" in name or "\n" in name:
            raise DataIntegrityError(f"class name {name!r} cannot be written as a line")
    if len(set(names)) != len(names):
        raise DataIntegrityError(f"class names {label_names} repeat a name")


def write_frames(path, recordings, label_names=None):
    """Write recordings (and optionally their class names) in the documented
    format. Content that would not read back as written is refused (see
    :func:`_check_writable`) before any directory or file is made."""
    _check_writable(recordings, label_names)
    frames_path = resolve_frames_path(path)
    os.makedirs(os.path.dirname(frames_path) or ".", exist_ok=True)
    with open(frames_path, "w", encoding="utf-8") as fh:
        fh.write("# recording_id,subject_id,frame_index,label_id,"
                 "hx,hy,hz,lx,ly,lz,rx,ry,rz\n")
        for rec in recordings:
            for i in range(len(rec)):
                coords = ",".join(f"{v:.6f}" for v in rec.joints[i].reshape(-1))
                fh.write(f"{rec.recording_id},{rec.subject_id},"
                         f"{rec.first_frame_index + i},{int(rec.labels[i])},{coords}\n")
    if label_names is not None:
        labels_path = os.path.join(os.path.dirname(frames_path), LABELS_FILENAME)
        with open(labels_path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(label_names):
                fh.write(f"{i},{name}\n")
    return frames_path


def _run_ends(labels):
    """For each frame, the index one past the last frame of its run of equal labels."""
    ends = np.append(np.flatnonzero(labels[1:] != labels[:-1]) + 1, len(labels))
    return np.repeat(ends, np.diff(ends, prepend=0))


def window_starts(recording, short_len, stride=1, window_scale=1, at=None):
    """Window start frames and which are kept, the label-pure ones. Without
    ``at``: short windows at ``0, stride, ...``. Given short starts ``at``:
    their S*T-frame long windows, ``floor(S/2) * T`` frames earlier, shifted
    into the recording (which must hold them). A long window holds its short
    window, so a pure one has its short window's label."""
    if at is None:
        at = np.arange(0, len(recording) - short_len + 1, stride)
    total = window_scale * short_len
    starts = np.clip(at - window_scale // 2 * short_len, 0, len(recording) - total)
    return starts, _run_ends(recording.labels)[starts] >= starts + total


def _windows(joints, starts, length):
    """The windows ``joints[s:s + length]`` for ``s`` in ``starts``, as one
    contiguous [N, C, length, V] block gathered from a strided view."""
    frames = np.ascontiguousarray(joints.transpose(2, 0, 1))  # [C, F, V]
    view = sliding_window_view(frames, length, axis=1).transpose(1, 0, 3, 2)
    return np.ascontiguousarray(view[starts])


def split_windows(recording, short_len, stride):
    """Slide a window of ``short_len`` frames over a recording at ``stride``.

    Windows that straddle a label boundary are skipped (equivalent, at stride 1,
    to re-sliding until the window is pure): the run of equal labels holding a
    kept window's first frame reaches its last. Each ``data`` is a row of one
    gathered block, which a retained sample keeps alive. A recording shorter
    than the window yields no samples.
    """
    if short_len < 1 or stride < 1:
        raise ConfigError("short_len and stride must be >= 1")
    if len(recording) < short_len:
        return []
    starts, pure = window_starts(recording, short_len, stride)
    starts = starts[pure]
    block = _windows(recording.joints, starts, short_len)
    rec_id, first = recording.recording_id, recording.first_frame_index
    return [ShortTermSample(data, label, rec_id, first + start) for data, label, start
            in zip(block, recording.labels[starts].tolist(), starts.tolist())]


def window_dataset(recordings, label_names, short_len, stride=1, with_long=False):
    """Window every recording, in order, into label-pure short samples. Long
    windows come only from :func:`training.prepare_data`, so ``with_long``
    must be False. Nothing reads ``label_names``; the parameter stays because
    the benchmark in ``perfbench/`` passes it by position."""
    if with_long:
        raise ConfigError("window_dataset builds no long windows; "
                          "training.prepare_data gathers them")
    shorts = [s for rec in recordings for s in split_windows(rec, short_len, stride)]
    return SampleSet(shorts=shorts)


def mean_center(data):
    """Subtract each joint's per-channel temporal mean (optional transform).

    Removes static posture and subject-specific offsets from a [C, T, V] window
    (or a batch [B, C, T, V]), leaving only within-window motion.
    """
    # the sum and divide that ndarray.mean runs on float32 and float64 input,
    # without its Python-level set-up
    return data - np.add.reduce(data, axis=-2, keepdims=True) / data.shape[-2]


def input_frames(windows, center, input_scale, dtype):
    """A model's input transform of [B, C, T, V] windows into channels-last
    [B, T, V, C] frames, the layout the encoder kernel reads as rows:
    optional :func:`mean_center` in float64, then the scaling and the cast to
    ``dtype`` in one pass. A window gets the same bits alone as in a batch.
    A finite value that the scaling or the cast takes past the float range
    becomes inf; the caller holds ``np.errstate(over="ignore")`` and refuses it."""
    x = np.asarray(windows, dtype=np.float64)
    if center:
        x = mean_center(x)
    b, c, t, v = x.shape
    frames = np.empty((b, t, v, c), dtype)
    np.multiply(x.transpose(0, 2, 3, 1), input_scale, out=frames, casting="unsafe")
    return frames


def preprocess(windows, center, input_scale, dtype):
    """:func:`input_frames` of a [C, T, V] window or [B, C, T, V] batch, laid
    out contiguously as [..., C, T, V]. A finite value that the scaling or
    the cast takes past the float range becomes inf without a warning; the
    encoder's input check rejects it."""
    x = np.asarray(windows)
    with np.errstate(over="ignore"):
        frames = input_frames(x.reshape(-1, *x.shape[-3:]), center, input_scale, dtype)
    return np.ascontiguousarray(frames.transpose(0, 3, 1, 2)).reshape(x.shape)


# --- synthetic gesture generator ------------------------------------------------

# Sampling rate of the synthetic recordings and of a served stream's frames.
FRAME_HZ = 30.0
# (frequency in Hz, amplitude in m) of each moving gesture's motion.
GAITS = {"walking": (1.4, 0.06), "jogging": (2.6, 0.11), "jumping": (1.1, 0.18),
         "squatting": (0.6, 0.20)}
GESTURE_CLASSES = ("standing", *GAITS)


@dataclass
class SynthesisConfig:
    """Parametric desk-scale gesture generator settings.

    Classes are drawn from a built-in family: standing (stationary + noise),
    walking/jogging (anti-phase thigh oscillation, jogging faster and larger),
    jumping (synchronized vertical pulses), squatting (slow synchronized dips).
    Each moving gesture's frequency and amplitude is fixed in ``GAITS`` and
    frames are sampled at ``FRAME_HZ``; the data is a stand-in for recordings,
    not something to tune. One recording per subject concatenates all classes
    in order, so label boundaries occur inside recordings.
    """

    classes: tuple = GESTURE_CLASSES
    subjects: int = 5
    frames_per_class: int = 400
    noise_sigma: float = 0.01
    subject_prefix: str = "s"

    def __post_init__(self):
        check_field_types(self)
        self.classes = tuple(self.classes)
        unknown = [c for c in self.classes if c not in GESTURE_CLASSES]
        if unknown:
            raise ConfigError(f"unknown gesture class(es) {unknown}; "
                              f"known: {list(GESTURE_CLASSES)}")
        if len(self.classes) < 2:
            raise ConfigError("need at least 2 gesture classes")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError("duplicate gesture classes")
        if self.subjects < 1:
            raise ConfigError("need at least 1 subject")
        if self.frames_per_class < 1:
            raise ConfigError("frames_per_class must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")

    def subject_ids(self):
        width = max(2, len(str(self.subjects - 1)))
        return [f"{self.subject_prefix}{i:0{width}d}" for i in range(self.subjects)]


def _lift(t, freq, phase):
    """Positive half-sine lift pulses: a thigh rises when the leg steps up."""
    return np.maximum(0.0, np.sin(2 * np.pi * freq * t + phase))


def _class_trajectory(cls, t, base, phase):
    """Joint positions [F, V, C] for one class; t is time in seconds [F].

    Stepping gestures lift the thighs in alternation (disjoint positive pulses,
    hence negatively correlated); jumping raises all joints together; squatting
    dips all joints together, slowly.
    """
    pos = np.tile(base, (t.shape[0], 1, 1))
    if cls == "standing":
        return pos
    freq, amp = GAITS[cls]
    if cls in ("walking", "jogging"):
        pos[:, 1, 1] += amp * _lift(t, freq, phase)
        pos[:, 2, 1] += amp * _lift(t, freq, phase + np.pi)
        pos[:, 0, 1] += 0.2 * amp * np.sin(4 * np.pi * freq * t + 2 * phase)
    elif cls == "jumping":
        pos[:, :, 1] += amp * (_lift(t, freq, phase) ** 3)[:, None]
    else:  # squatting
        dip = 0.5 * (1.0 - np.cos(2 * np.pi * freq * t + phase))
        pos[:, :, 1] -= amp * dip[:, None]
    return pos


def synthesize_recordings(cfg, seed):
    """In-memory synthesis: returns ``(recordings, label_names)``.

    Per-subject random offsets (stature, thigh height, lateral stance, phase)
    emulate inter-person variation; one recording per subject concatenates all
    classes, so label boundaries occur mid-recording. A negative seed is a
    :class:`ConfigError`.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    recordings = []
    for subj in cfg.subject_ids():
        head_h = 1.60 + rng.uniform(-0.08, 0.08)
        thigh_h = 0.80 + rng.uniform(-0.04, 0.04)
        stance = 0.12 + rng.uniform(-0.02, 0.02)
        phase = rng.uniform(0.0, 2 * np.pi)
        base = np.array([
            [0.0, head_h, 0.0],
            [-stance, thigh_h, 0.02],
            [stance, thigh_h, 0.02],
        ])
        t = np.arange(cfg.frames_per_class) / FRAME_HZ
        chunks, labels = [], []
        for label, cls in enumerate(cfg.classes):
            pos = _class_trajectory(cls, t, base, phase)
            if cfg.noise_sigma > 0:
                pos = pos + rng.normal(0.0, cfg.noise_sigma, size=pos.shape)
            chunks.append(pos)
            labels.append(np.full(cfg.frames_per_class, label, dtype=np.int64))
        recordings.append(Recording(
            recording_id=f"rec_{subj}", subject_id=subj,
            joints=np.concatenate(chunks), labels=np.concatenate(labels)))
    return recordings, cfg.classes


def synthesize_gestures(cfg, seed, out_dir):
    """Generate a labeled synthetic dataset on disk; pure function of (cfg, seed).

    Writes ``frames.csv`` and ``labels.csv`` in ``out_dir`` and returns the
    frames path; the written file round-trips through :func:`load_recordings`.
    """
    recordings, label_names = synthesize_recordings(cfg, seed)
    return write_frames(os.path.join(out_dir, FRAMES_FILENAME), recordings, label_names)
