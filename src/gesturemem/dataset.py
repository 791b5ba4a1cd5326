"""Frame ingestion, sliding-window sample construction, and synthetic gesture data.

File formats
------------
Frames file: one frame per line,
``recording_id,subject_id,frame_index,label_id,hx,hy,hz,lx,ly,lz,rx,ry,rz``
(head, left thigh, right thigh; y is vertical). ``#`` lines are comments.
Label map file: lines of ``label_id,gesture_name``. A dataset directory holds
``frames.csv`` plus ``labels.csv``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataIntegrityError, NonFiniteError, ParseError

NUM_JOINTS = 3
NUM_CHANNELS = 3
JOINT_NAMES = ("head", "left_thigh", "right_thigh")

FRAMES_FILENAME = "frames.csv"
LABELS_FILENAME = "labels.csv"


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


@dataclass
class LongTermSample:
    """The S*T-frame context window centered on one short-term sample."""

    data: np.ndarray  # [C, S*T, V]
    label: int
    center_sample_index: int


@dataclass
class LabelMap:
    """Ordered class-index -> gesture-name mapping."""

    names: list[str]

    @property
    def num_classes(self):
        return len(self.names)

    def name(self, label):
        return self.names[label]


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
    """Parallel lists of short windows, their optional long windows, and subjects."""

    shorts: list
    longs: list
    subjects: list
    label_map: LabelMap

    def __len__(self):
        return len(self.shorts)


def _parse_frame_line(line, line_no):
    parts = line.split(",")
    if len(parts) != 4 + NUM_JOINTS * NUM_CHANNELS:
        raise ParseError(f"expected 13 comma-separated fields, got {len(parts)}", line_no)
    rec_id, subj_id = parts[0].strip(), parts[1].strip()
    if not rec_id or not subj_id:
        raise ParseError("empty recording_id or subject_id", line_no)
    try:
        frame_index = int(parts[2])
    except ValueError:
        raise ParseError(f"bad frame_index {parts[2]!r}", line_no) from None
    if frame_index < 0:
        raise ParseError(f"negative frame_index {frame_index}", line_no)
    try:
        label = int(parts[3])
    except ValueError:
        raise ParseError(f"bad label_id {parts[3]!r}", line_no) from None
    if label < 0:
        raise ParseError(f"negative label_id {label}", line_no)
    try:
        coords = [float(p) for p in parts[4:]]
    except ValueError:
        raise ParseError("bad coordinate value", line_no) from None
    for v in coords:
        if not math.isfinite(v):
            raise NonFiniteError(f"line {line_no}: non-finite coordinate {v!r}")
    joints = np.asarray(coords, dtype=np.float64).reshape(NUM_JOINTS, NUM_CHANNELS)
    return rec_id, subj_id, frame_index, label, joints


def _resolve_frames_path(path):
    if os.path.isdir(path):
        return os.path.join(path, FRAMES_FILENAME)
    return path


def load_label_map(path):
    """Read a ``label_id,gesture_name`` file; ids must be 0..N-1 without gaps."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",", 1)
            if len(parts) != 2:
                raise ParseError("expected 'label_id,gesture_name'", line_no)
            try:
                label = int(parts[0])
            except ValueError:
                raise ParseError(f"bad label_id {parts[0]!r}", line_no) from None
            if label in entries:
                raise ParseError(f"duplicate label_id {label}", line_no)
            entries[label] = parts[1].strip()
    if not entries:
        return LabelMap(names=[])
    if sorted(entries) != list(range(len(entries))):
        raise DataIntegrityError(f"label ids not contiguous from 0: {sorted(entries)}")
    return LabelMap(names=[entries[i] for i in range(len(entries))])


def load_recordings(path):
    """Load a frames file (or dataset directory) into per-recording arrays.

    Returns ``(recordings, label_map)``. Frames are grouped by recording_id and
    sorted by frame_index; indices must be strictly increasing and gapless. The
    label map is read from a sibling ``labels.csv`` when present, otherwise
    synthesized from the labels observed in the data.
    """
    frames_path = _resolve_frames_path(path)
    groups = {}  # rec_id -> (subject, list[(frame_index, label, joints)])
    with open(frames_path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            rec_id, subj_id, frame_index, label, joints = _parse_frame_line(line, line_no)
            if rec_id not in groups:
                groups[rec_id] = (subj_id, [])
            elif groups[rec_id][0] != subj_id:
                raise DataIntegrityError(
                    f"recording {rec_id!r} claims two subjects: "
                    f"{groups[rec_id][0]!r} and {subj_id!r} (line {line_no})")
            groups[rec_id][1].append((frame_index, label, joints))

    recordings = []
    max_label = -1
    for rec_id, (subj_id, rows) in groups.items():
        rows.sort(key=lambda r: r[0])
        indices = [r[0] for r in rows]
        for prev, cur in zip(indices, indices[1:]):
            if cur == prev:
                raise DataIntegrityError(f"recording {rec_id!r}: duplicate frame_index {cur}")
            if cur != prev + 1:
                raise DataIntegrityError(
                    f"recording {rec_id!r}: frame_index gap between {prev} and {cur}")
        joints = np.stack([r[2] for r in rows]) if rows else np.zeros((0, NUM_JOINTS, NUM_CHANNELS))
        labels = np.asarray([r[1] for r in rows], dtype=np.int64)
        if len(labels):
            max_label = max(max_label, int(labels.max()))
        recordings.append(Recording(rec_id, subj_id, joints, labels,
                                    first_frame_index=indices[0] if indices else 0))
    recordings.sort(key=lambda r: r.recording_id)

    labels_path = os.path.join(os.path.dirname(frames_path), LABELS_FILENAME)
    if os.path.exists(labels_path):
        label_map = load_label_map(labels_path)
        if max_label >= label_map.num_classes:
            raise DataIntegrityError(
                f"frames reference label {max_label} but label map has "
                f"{label_map.num_classes} classes")
    else:
        label_map = LabelMap(names=[f"class_{i}" for i in range(max_label + 1)])
    return recordings, label_map


def write_frames(path, recordings, label_map=None):
    """Write recordings (and optionally a label map) in the documented format."""
    frames_path = _resolve_frames_path(path)
    os.makedirs(os.path.dirname(frames_path) or ".", exist_ok=True)
    with open(frames_path, "w", encoding="utf-8") as fh:
        fh.write("# recording_id,subject_id,frame_index,label_id,"
                 "hx,hy,hz,lx,ly,lz,rx,ry,rz\n")
        for rec in recordings:
            for i in range(len(rec)):
                coords = ",".join(f"{v:.6f}" for v in rec.joints[i].reshape(-1))
                fh.write(f"{rec.recording_id},{rec.subject_id},"
                         f"{rec.first_frame_index + i},{int(rec.labels[i])},{coords}\n")
    if label_map is not None:
        labels_path = os.path.join(os.path.dirname(frames_path), LABELS_FILENAME)
        with open(labels_path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(label_map.names):
                fh.write(f"{i},{name}\n")
    return frames_path


def split_windows(recording, short_len, stride):
    """Slide a window of ``short_len`` frames over a recording at ``stride``.

    Windows that straddle a label boundary are skipped (equivalent, at stride 1,
    to re-sliding until the window is pure). A recording shorter than the window
    yields no samples.
    """
    if short_len < 1 or stride < 1:
        raise ConfigError("short_len and stride must be >= 1")
    samples = []
    n = len(recording)
    labels = recording.labels
    for start in range(0, n - short_len + 1, stride):
        window = labels[start:start + short_len]
        if (window == window[0]).all():
            data = np.ascontiguousarray(
                recording.joints[start:start + short_len].transpose(2, 0, 1))
            samples.append(ShortTermSample(
                data=data, label=int(window[0]), recording_id=recording.recording_id,
                start_frame=recording.first_frame_index + start))
    return samples


def build_long_term(samples, recording, i, window_scale, purity_required=True):
    """Build the ``window_scale * T``-frame context window around sample ``i``.

    The window spans ``[start - floor(S/2)*T, start + (S - floor(S/2))*T)`` in
    frames and is shifted to fit when it overruns either end of the recording.
    Returns ``None`` when the recording is too short, or when ``purity_required``
    and the window mixes labels.
    """
    if window_scale < 1:
        raise ConfigError("window_scale must be >= 1")
    sample = samples[i]
    short_len = sample.data.shape[1]
    total = window_scale * short_len
    n = len(recording)
    if n < total:
        return None
    half = window_scale // 2
    start = (sample.start_frame - recording.first_frame_index) - half * short_len
    start = min(max(start, 0), n - total)
    window_labels = recording.labels[start:start + total]
    if purity_required and not (window_labels == sample.label).all():
        return None
    data = np.ascontiguousarray(recording.joints[start:start + total].transpose(2, 0, 1))
    return LongTermSample(data=data, label=sample.label, center_sample_index=i)


def window_dataset(recordings, label_map, short_len, window_scale=1, stride=1,
                   purity_required=True, with_long=True):
    """Window every recording and (optionally) attach long-term context windows."""
    shorts, longs, subjects = [], [], []
    for rec in recordings:
        rec_samples = split_windows(rec, short_len, stride)
        for j, s in enumerate(rec_samples):
            shorts.append(s)
            subjects.append(rec.subject_id)
            if with_long:
                longs.append(build_long_term(rec_samples, rec, j, window_scale,
                                             purity_required))
            else:
                longs.append(None)
    return SampleSet(shorts=shorts, longs=longs, subjects=subjects, label_map=label_map)


def split_subjects(sample_set, spec):
    """Partition sample indices by subject according to a SplitSpec.

    Every subject present in the data must appear in exactly one of the two
    sets; the SplitSpec constructor already rejects overlap.
    """
    present = set(sample_set.subjects)
    unassigned = present - set(spec.train_subjects) - set(spec.test_subjects)
    if unassigned:
        raise ConfigError(f"subjects not covered by the split: {sorted(unassigned)}")
    train_idx = [i for i, s in enumerate(sample_set.subjects) if s in spec.train_subjects]
    test_idx = [i for i, s in enumerate(sample_set.subjects) if s in spec.test_subjects]
    return train_idx, test_idx


def mean_center(data):
    """Subtract each joint's per-channel temporal mean (optional transform).

    Removes static posture and subject-specific offsets from a [C, T, V] window
    (or a batch [B, C, T, V]), leaving only within-window motion.
    """
    return data - data.mean(axis=-2, keepdims=True)


def preprocess(windows, center, input_scale, dtype):
    """A model's input transform of a [C, T, V] window or [B, C, T, V] batch:
    optional :func:`mean_center` and scaling in float64, then a contiguous
    cast to ``dtype``. A window gets the same bits alone as in a batch."""
    x = np.asarray(windows, dtype=np.float64)
    if center:
        x = mean_center(x)
    if input_scale != 1.0:
        x = x * input_scale
    return np.ascontiguousarray(x, dtype=dtype)


# --- synthetic gesture generator ------------------------------------------------

GESTURE_CLASSES = ("standing", "walking", "jogging", "jumping", "squatting")


@dataclass
class SynthesisConfig:
    """Parametric desk-scale gesture generator settings.

    Classes are drawn from a built-in family: standing (stationary + noise),
    walking/jogging (anti-phase thigh oscillation, jogging faster and larger),
    jumping (synchronized vertical pulses), squatting (slow synchronized dips).
    One recording per subject concatenates all classes in order, so label
    boundaries occur inside recordings.
    """

    classes: tuple = GESTURE_CLASSES
    subjects: int = 5
    frames_per_class: int = 400
    fps: float = 30.0
    noise_sigma: float = 0.01
    walk_freq: float = 1.4
    walk_amp: float = 0.06
    jog_freq: float = 2.6
    jog_amp: float = 0.11
    jump_freq: float = 1.1
    jump_amp: float = 0.18
    squat_freq: float = 0.6
    squat_amp: float = 0.20
    subject_prefix: str = "s"

    def __post_init__(self):
        if isinstance(self.classes, str):
            self.classes = tuple(c.strip() for c in self.classes.split(",") if c.strip())
        else:
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
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")

    def subject_ids(self):
        width = max(2, len(str(self.subjects - 1)))
        return [f"{self.subject_prefix}{i:0{width}d}" for i in range(self.subjects)]


def _lift(t, freq, phase):
    """Positive half-sine lift pulses: a thigh rises when the leg steps up."""
    return np.maximum(0.0, np.sin(2 * np.pi * freq * t + phase))


def _class_trajectory(cls, cfg, t, base, phase):
    """Joint positions [F, V, C] for one class; t is time in seconds [F].

    Stepping gestures lift the thighs in alternation (disjoint positive pulses,
    hence negatively correlated); jumping raises all joints together; squatting
    dips all joints together, slowly.
    """
    pos = np.tile(base, (t.shape[0], 1, 1))
    if cls == "standing":
        return pos
    if cls in ("walking", "jogging"):
        freq = cfg.walk_freq if cls == "walking" else cfg.jog_freq
        amp = cfg.walk_amp if cls == "walking" else cfg.jog_amp
        pos[:, 1, 1] += amp * _lift(t, freq, phase)
        pos[:, 2, 1] += amp * _lift(t, freq, phase + np.pi)
        pos[:, 0, 1] += 0.2 * amp * np.sin(4 * np.pi * freq * t + 2 * phase)
        return pos
    if cls == "jumping":
        pos[:, :, 1] += cfg.jump_amp * (_lift(t, cfg.jump_freq, phase) ** 3)[:, None]
        return pos
    if cls == "squatting":
        dip = 0.5 * (1.0 - np.cos(2 * np.pi * cfg.squat_freq * t + phase))
        pos[:, :, 1] -= cfg.squat_amp * dip[:, None]
        return pos
    raise ConfigError(f"unknown gesture class {cls!r}")


def synthesize_recordings(cfg, seed):
    """In-memory synthesis: returns ``(recordings, label_map)``.

    Per-subject random offsets (stature, thigh height, lateral stance, phase)
    emulate inter-person variation; one recording per subject concatenates all
    classes, so label boundaries occur mid-recording.
    """
    rng = np.random.default_rng(seed)
    label_map = LabelMap(names=list(cfg.classes))
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
        t = np.arange(cfg.frames_per_class) / cfg.fps
        chunks, labels = [], []
        for label, cls in enumerate(cfg.classes):
            pos = _class_trajectory(cls, cfg, t, base, phase)
            if cfg.noise_sigma > 0:
                pos = pos + rng.normal(0.0, cfg.noise_sigma, size=pos.shape)
            chunks.append(pos)
            labels.append(np.full(cfg.frames_per_class, label, dtype=np.int64))
        recordings.append(Recording(
            recording_id=f"rec_{subj}", subject_id=subj,
            joints=np.concatenate(chunks), labels=np.concatenate(labels)))
    return recordings, label_map


def synthesize_gestures(cfg, seed, out_dir):
    """Generate a labeled synthetic dataset on disk; pure function of (cfg, seed).

    Writes ``frames.csv`` and ``labels.csv`` in ``out_dir`` and returns the
    frames path; the written file round-trips through :func:`load_recordings`.
    """
    recordings, label_map = synthesize_recordings(cfg, seed)
    return write_frames(os.path.join(out_dir, FRAMES_FILENAME), recordings, label_map)
