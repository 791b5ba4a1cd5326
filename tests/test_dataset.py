import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem.dataset import (MAX_UNNAMED_CLASSES, Recording, SplitSpec,
                                SynthesisConfig, load_recordings, mean_center,
                                split_windows,
                                synthesize_gestures, synthesize_recordings,
                                window_dataset,
                                window_starts, write_frames)
from gesturemem.errors import (ConfigError, DataIntegrityError,
                               NonFiniteError, ParseError)
from gesturemem.training import TrainConfig, prepare_data
from helpers import ref_split_windows


def make_recording(labels, rec_id="r0", subject="s0", seed=0):
    labels = np.asarray(labels, dtype=np.int64)
    joints = np.random.default_rng(seed).normal(size=(len(labels), 3, 3))
    return Recording(rec_id, subject, joints, labels)


# --- loading ----------------------------------------------------------------------

def test_load_empty_file(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text("# only a comment\n")
    recordings, label_map = load_recordings(path)
    assert recordings == []
    assert label_map == ()


def test_load_round_trips_writer(tmp_path):
    rec = make_recording([0] * 60)
    write_frames(tmp_path / "frames.csv", [rec], ("standing",))
    loaded, label_map = load_recordings(tmp_path)
    assert len(loaded) == 1
    assert len(loaded[0]) == 60
    assert loaded[0].first_frame_index == 0
    assert label_map == ("standing",)
    assert np.allclose(loaded[0].joints, rec.joints, atol=1e-6)  # 6-decimal format


UNWRITABLE = {
    "empty_recording_id": dict(rec_id=""),
    "comment_recording_id": dict(rec_id="#r0"),
    "line_break_recording_id": dict(rec_id="r\n0"),
    "repeated_recording_id": dict(copies=2),
    "comma_subject_id": dict(subject="a,b"),
    "spaced_subject_id": dict(subject=" s0"),
    "carriage_return_subject_id": dict(subject="s\r0"),
    "spaced_class_name": dict(names=("standing ",)),
    "line_break_class_name": dict(names=("stand\ning",)),
    "repeated_class_name": dict(names=("a", "a")),
    # load_recordings drops a recording without frames, refuses a non-finite
    # coordinate, and a label the label map does not name
    "recording_without_frames": dict(labels=[]),
    "nan_coordinate": dict(coordinate=np.nan),
    "infinite_coordinate": dict(coordinate=-np.inf),
    "label_past_the_names": dict(labels=[0, 0, 5], names=tuple("abcde")),
    "negative_label": dict(labels=[0, -1, 0]),
    "negative_label_without_names": dict(labels=[-1], names=None),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_write_frames_refuses_what_would_not_read_back(tmp_path, case):
    fields = dict(rec_id="r0", subject="s0", names=("standing",), copies=1,
                  labels=[0] * 6, coordinate=0.5)
    fields.update(UNWRITABLE[case])
    rec = make_recording(fields["labels"], rec_id=fields["rec_id"],
                         subject=fields["subject"])
    if len(rec):
        rec.joints[-1, 2, 1] = fields["coordinate"]
    with pytest.raises(DataIntegrityError):
        write_frames(tmp_path / "out" / "frames.csv", [rec] * fields["copies"],
                     fields["names"])
    assert not (tmp_path / "out").exists()


# field text with what the writer's rules turn on: commas, comment marks,
# line breaks and other whitespace, beside plain letters
FIELD_TEXT = st.one_of(st.text("ab#", min_size=1, max_size=3),
                       st.text("ab#,; \t\r\n\x0b\x85\u2028", max_size=4))


@st.composite
def recording_sets(draw):
    names = draw(st.lists(FIELD_TEXT, min_size=1, max_size=3))
    recordings = []
    for _ in range(draw(st.integers(1, 3))):
        # labels one past either end of the names, and recordings without frames
        labels = draw(st.lists(st.integers(-1, len(names)), max_size=4))
        joints = np.zeros((len(labels), 3, 3))
        joints[..., 0] = draw(st.sampled_from([0.0, 0.0, np.nan, np.inf]))
        recordings.append(Recording(draw(FIELD_TEXT), draw(FIELD_TEXT), joints,
                                    np.asarray(labels, dtype=np.int64)))
    return recordings, names


@given(recording_sets())
@settings(max_examples=300, deadline=None)
def test_what_write_frames_accepts_reads_back(case):
    recordings, names = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "data"
        try:
            write_frames(out / "frames.csv", recordings, names)
        except DataIntegrityError:
            assert not out.exists()
            return
        loaded, loaded_names = load_recordings(out)
    assert loaded_names == tuple(names)
    fields = lambda recs: sorted((r.recording_id, r.subject_id, r.labels.tolist())
                                 for r in recs)
    assert fields(loaded) == fields(recordings)


def test_write_frames_without_names_keeps_any_label_that_is_not_negative(tmp_path):
    rec = make_recording([0, 7, 7])
    write_frames(tmp_path / "frames.csv", [rec])
    loaded, names = load_recordings(tmp_path)
    assert loaded[0].labels.tolist() == [0, 7, 7] and len(names) == 8


@pytest.mark.parametrize("label", [MAX_UNNAMED_CLASSES, 10**6, 2**63 - 1])
def test_load_without_names_refuses_a_label_past_the_made_up_names(tmp_path, label):
    coords = ",".join(["0.1"] * 9)
    (tmp_path / "frames.csv").write_text(f"r0,s0,0,{label},{coords}\n")
    with pytest.raises(DataIntegrityError, match=f"label {label}, .*write a labels.csv"):
        load_recordings(tmp_path)
    # nor is it written without names, as it would not read back
    with pytest.raises(DataIntegrityError, match=f"label {label}, which is no class id"):
        write_frames(tmp_path / "out" / "frames.csv", [make_recording([0, label])])
    assert not (tmp_path / "out").exists()


def test_load_without_names_makes_up_names_below_the_bound(tmp_path):
    write_frames(tmp_path / "frames.csv", [make_recording([MAX_UNNAMED_CLASSES - 1])])
    _, names = load_recordings(tmp_path)
    assert len(names) == MAX_UNNAMED_CLASSES and names[-1] == f"class_{len(names) - 1}"


def test_load_rejects_nan_with_line_number(tmp_path):
    lines = ["# header"]
    for i in range(6):
        coords = ",".join(["0.1"] * 9)
        lines.append(f"r0,s0,{i},0,{coords}")
    lines[5] = "r0,s0,4,0," + ",".join(["0.1"] * 4 + ["NaN"] + ["0.1"] * 4)
    path = tmp_path / "frames.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonFiniteError, match="line 6"):
        load_recordings(path)


def test_load_rejects_malformed_record_with_line_number(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text("r0,s0,0,0,1,2,3\n")
    with pytest.raises(ParseError, match="line 1"):
        load_recordings(path)


def test_load_rejects_frame_gap(tmp_path):
    coords = ",".join(["0.0"] * 9)
    path = tmp_path / "frames.csv"
    path.write_text(f"r0,s0,0,0,{coords}\nr0,s0,2,0,{coords}\n")
    with pytest.raises(DataIntegrityError, match="gap"):
        load_recordings(path)


def test_load_rejects_conflicting_subject(tmp_path):
    coords = ",".join(["0.0"] * 9)
    path = tmp_path / "frames.csv"
    path.write_text(f"r0,s0,0,0,{coords}\nr0,s1,1,0,{coords}\n")
    with pytest.raises(DataIntegrityError, match="two subjects"):
        load_recordings(path)


COORDS = ",".join(["0.5"] * 9)
# a frames line (line 3, after a comment and a good frame) and what reading
# the dataset directory raises; labels.csv names two classes
BAD_FRAMES = {
    "empty_subject_id": (f"r0,,1,0,{COORDS}", ParseError,
                         "line 3: empty recording_id or subject_id"),
    "bad_frame_index": (f"r0,s0,x,0,{COORDS}", ParseError, "line 3: bad frame_index 'x'"),
    "negative_frame_index": (f"r0,s0,-1,0,{COORDS}", ParseError,
                             "line 3: negative frame_index -1"),
    "bad_label_id": (f"r0,s0,1,1.0,{COORDS}", ParseError, "line 3: bad label_id '1.0'"),
    "negative_label_id": (f"r0,s0,1,-2,{COORDS}", ParseError, "line 3: negative label_id -2"),
    "bad_coordinate": ("r0,s0,1,0," + ",".join(["0.5"] * 8 + ["abc"]), ParseError,
                       "line 3: bad coordinate value"),
    "label_past_int64": (f"r0,s0,1,{2**63},{COORDS}", ParseError,
                         f"line 3: label_id {2**63} is past the int64 range"),
    "largest_int64_label": (f"r0,s0,1,{2**63 - 1},{COORDS}", DataIntegrityError,
                            f"frames reference label {2**63 - 1} but label map has 2 classes"),
    "duplicate_frame_index": (f"r0,s0,0,1,{COORDS}", DataIntegrityError,
                              "recording 'r0': duplicate frame_index 0"),
    "label_past_the_label_map": (f"r0,s0,1,2,{COORDS}", DataIntegrityError,
                                 "frames reference label 2 but label map has 2 classes"),
}


@pytest.mark.parametrize("case", sorted(BAD_FRAMES))
def test_frames_file_refusals(tmp_path, case):
    line, error, message = BAD_FRAMES[case]
    (tmp_path / "frames.csv").write_text(f"# header\nr0,s0,0,0,{COORDS}\n{line}\n")
    (tmp_path / "labels.csv").write_text("0,standing\n1,walking\n")
    with pytest.raises(error) as info:
        load_recordings(tmp_path)
    assert str(info.value) == message


# labels.csv text and what reading the dataset directory raises
BAD_LABELS = {
    "no_comma": ("0,standing\n1 walking\n", ParseError,
                 "line 2: expected 'label_id,gesture_name'"),
    "bad_label_id": ("# ids\n0,standing\none,walking\n", ParseError,
                     "line 3: bad label_id 'one'"),
    "duplicate_label_id": ("0,standing\n\n0,walking\n", ParseError,
                           "line 3: duplicate label_id 0"),
    "ids_not_contiguous": ("0,standing\n2,walking\n", DataIntegrityError,
                           "label ids not contiguous from 0: [0, 2]"),
}


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_label_file_refusals(tmp_path, case):
    text, error, message = BAD_LABELS[case]
    (tmp_path / "frames.csv").write_text(f"r0,s0,0,0,{COORDS}\n")
    (tmp_path / "labels.csv").write_text(text)
    with pytest.raises(error) as info:
        load_recordings(tmp_path)
    assert str(info.value) == message


def test_load_ignores_a_leading_bom(tmp_path):
    synthesize_gestures(SynthesisConfig(subjects=2, frames_per_class=10), 5, tmp_path / "a")
    bom = tmp_path / "b"
    bom.mkdir()
    for name in ("frames.csv", "labels.csv"):
        (bom / name).write_bytes(b"\xef\xbb\xbf" + (tmp_path / "a" / name).read_bytes())
    (plain, plain_names), (read, names) = load_recordings(tmp_path / "a"), load_recordings(bom)
    assert names == plain_names and len(read) == len(plain) == 2
    for a, b in zip(plain, read):
        assert (a.recording_id, a.subject_id) == (b.recording_id, b.subject_id)
        assert np.array_equal(a.joints, b.joints) and np.array_equal(a.labels, b.labels)


def test_a_non_utf8_byte_is_reported_before_any_record_fault(tmp_path):
    # longer than one 8 KiB decode chunk: the whole file is decoded before
    # its first record is read
    path = tmp_path / "frames.csv"
    lines = [f"r0,s0,{i},0,{COORDS}" for i in range(2000)]
    path.write_bytes(("r0,s0,x,0\n" + "\n".join(lines) + "\n").encode() + b"\xff\n")
    with pytest.raises(ParseError) as info:
        load_recordings(path)
    assert str(info.value) == f"{path} is not UTF-8 text (invalid start byte)"


# --- windowing --------------------------------------------------------------------

def test_split_windows_single_class():
    rec = make_recording(["a" == "a" and 0] * 4)  # [0,0,0,0]
    samples = split_windows(rec, short_len=2, stride=2)
    assert [s.start_frame for s in samples] == [0, 2]
    assert all(s.label == 0 for s in samples)
    assert samples[0].data.shape == (3, 2, 3)


def test_split_windows_skips_boundary():
    rec = make_recording([0, 0, 0, 1, 1, 1])
    samples = split_windows(rec, short_len=3, stride=1)
    assert [s.start_frame for s in samples] == [0, 3]
    assert [s.label for s in samples] == [0, 1]


def test_split_windows_no_pure_window():
    rec = make_recording([0, 1, 0])
    assert split_windows(rec, short_len=3, stride=1) == []


def test_split_windows_short_recording_is_empty():
    rec = make_recording([0, 0])
    assert split_windows(rec, short_len=5, stride=1) == []


def test_split_windows_data_matches_frames():
    rec = make_recording([0] * 10, seed=3)
    samples = split_windows(rec, short_len=4, stride=3)
    for s in samples:
        expected = rec.joints[s.start_frame:s.start_frame + 4].transpose(2, 0, 1)
        assert np.array_equal(s.data, expected)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=50),
       st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_split_windows_stride_one_equals_enumeration(labels, short_len):
    rec = make_recording(labels)
    samples = split_windows(rec, short_len=short_len, stride=1)
    expected_starts = [j for j in range(len(labels) - short_len + 1)
                       if len(set(labels[j:j + short_len])) == 1]
    assert [s.start_frame for s in samples] == expected_starts
    for s in samples:
        window = labels[s.start_frame:s.start_frame + short_len]
        assert set(window) == {s.label}


@given(st.integers(0, 1000), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_build_long_term_always_full_length_within_recording(seed, short_len, scale):
    """Every pure short window of a recording that holds S*T frames gets a
    long window of exactly S*T frames inside the recording that holds the
    short one, kept when label-pure; a shorter recording, or one whose long
    windows all mix labels, gives no training pair."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    rec = make_recording(rng.integers(0, 2, size=n), seed=seed)
    shorts = [s.start_frame for s in split_windows(rec, short_len, stride=1)]
    # windowing reads no temporal_kernel; 1 admits every short_len drawn
    config = TrainConfig(short_len=short_len, window_scale=scale, stride=1, center=False,
                         input_scale=1.0, dtype="float64", temporal_kernel=1)
    build = lambda: prepare_data(config, [rec], ("a", "b"),
                                 SplitSpec.from_lists(["s0"], ["s1"]))
    total = scale * short_len
    keep = np.zeros(0, dtype=bool)
    if n >= total and shorts:
        starts, keep = window_starts(rec, short_len, window_scale=scale,
                                     at=np.asarray(shorts))
        assert ((0 <= starts) & (starts + total <= n)).all()
        assert ((starts <= shorts) & (np.asarray(shorts) + short_len <= starts + total)).all()
        assert keep.tolist() == [len(set(rec.labels[s:s + total])) == 1 for s in starts]
    if not keep.any():
        with pytest.raises(ConfigError, match="long-term window"):
            build()
        return
    data = build()
    assert data["x_long"].shape == (keep.sum(), 3, total, 3)
    for i, start in enumerate(starts[keep]):
        assert np.array_equal(data["x_long"][i],
                              rec.joints[start:start + total].transpose(2, 0, 1))


# --- vectorized windowing against the per-window reference -----------------------

def assert_same_sample(got, want):
    """Same type, same data bits (dtype and shape too), same other fields."""
    if want is None:
        assert got is None
        return
    assert type(got) is type(want)
    assert got.data.dtype == want.data.dtype and got.data.shape == want.data.shape
    assert got.data.flags.c_contiguous
    assert got.data.tobytes() == want.data.tobytes()
    fields = lambda s: {k: (type(v), v) for k, v in vars(s).items() if k != "data"}
    assert fields(got) == fields(want)


@st.composite
def run_recordings(draw, rec_id="r0", subject="s0"):
    """A recording built from label runs, of any length from 0 frames up."""
    runs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 12)), max_size=6))
    labels = np.repeat([lab for lab, _ in runs], [k for _, k in runs]).astype(np.int64)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    joints = np.random.default_rng(len(labels)).normal(size=(len(labels), 3, 3))
    return Recording(rec_id, subject, joints.astype(dtype), labels,
                     first_frame_index=draw(st.integers(0, 1000)))


@given(st.lists(run_recordings(), min_size=1, max_size=3), st.integers(1, 8),
       st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_windowing_equals_per_window_reference(recs, short_len, stride):
    for k, rec in enumerate(recs):
        rec.recording_id, rec.subject_id = f"r{k}", f"s{k % 2}"
    ds = window_dataset(recs, ("a", "b", "c"), short_len, stride)
    want_shorts, want_subjects = [], []
    for rec in recs:
        samples = split_windows(rec, short_len, stride)
        want = ref_split_windows(rec, short_len, stride)
        assert len(samples) == len(want)
        for got_s, want_s in zip(samples, want):
            assert_same_sample(got_s, want_s)
        want_shorts += want
        want_subjects += [rec.subject_id] * len(want)
    assert len(ds.shorts) == len(want_shorts)
    for got_s, want_s in zip(ds.shorts, want_shorts):
        assert_same_sample(got_s, want_s)
    subject_of = {rec.recording_id: rec.subject_id for rec in recs}
    assert [subject_of[s.recording_id] for s in ds.shorts] == want_subjects


def test_windows_of_one_block_do_not_alias():
    rec = make_recording([0] * 12, seed=6)
    samples = window_dataset([rec], ("a",), short_len=3).shorts
    before = [s.data.copy() for s in samples]
    samples[4].data[...] = -1.0
    for j, s in enumerate(samples):
        assert np.array_equal(s.data, before[j]) == (j != 4)
    assert np.array_equal(rec.joints, make_recording([0] * 12, seed=6).joints)


def test_window_dataset_refuses_long_windows():
    with pytest.raises(ConfigError, match="prepare_data"):
        window_dataset([make_recording([0] * 12)], ("a",), short_len=3,
                       with_long=True)


# --- subject splits ---------------------------------------------------------------

def test_split_spec_rejects_overlap():
    with pytest.raises(ConfigError):
        SplitSpec.from_lists(["s1", "s2"], ["s2"])


# --- synthesis --------------------------------------------------------------------

def test_synthesize_unknown_class_rejected():
    with pytest.raises(ConfigError, match="unknown gesture"):
        SynthesisConfig(classes=("standing", "flying"))
    with pytest.raises(ConfigError):
        SynthesisConfig(classes=("standing",))


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.01])
def test_synthesis_refuses_noise_sigma_that_is_not_finite_and_non_negative(sigma):
    with pytest.raises(ConfigError, match="noise_sigma"):
        SynthesisConfig(noise_sigma=sigma)


@pytest.mark.parametrize("field,value", [("subjects", 2.5), ("subjects", "3"),
                                         ("noise_sigma", "0.1"), ("frames_per_class", True)])
def test_synthesis_config_fields_are_type_checked(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        SynthesisConfig(**{field: value})


def test_synthesis_classes_may_be_a_list():
    assert SynthesisConfig(classes=["standing", "walking"]).classes == ("standing", "walking")


def test_synthesis_refuses_a_negative_seed(tmp_path):
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        synthesize_gestures(SynthesisConfig(), -1, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_synthesized_data_is_pinned(tmp_path):
    # SHA-256 prefixes of the default generator's output: the synthetic data
    # is a fixed stand-in for recordings, so any change to it shows here
    for seed, digest in ((0, "8852bb97d14ab986"), (3, "876f727d625e7be1"),
                         (40, "02b398ebd79d7214")):
        h = hashlib.sha256()
        for rec in synthesize_recordings(SynthesisConfig(), seed)[0]:
            for part in (rec.recording_id.encode(), rec.subject_id.encode(),
                         rec.joints.tobytes(), rec.labels.tobytes()):
                h.update(part)
        assert h.hexdigest()[:16] == digest, seed
    frames = Path(synthesize_gestures(SynthesisConfig(), 0, tmp_path)).read_bytes()
    assert hashlib.sha256(frames).hexdigest()[:16] == "229205a97bc2d253"


def test_synthesize_deterministic_bytes(tmp_path):
    cfg = SynthesisConfig(classes=("standing", "walking"), subjects=2,
                          frames_per_class=50)
    p1 = synthesize_gestures(cfg, 7, tmp_path / "a")
    p2 = synthesize_gestures(cfg, 7, tmp_path / "b")
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    p3 = synthesize_gestures(cfg, 8, tmp_path / "c")
    assert Path(p1).read_bytes() != Path(p3).read_bytes()


def test_synthesize_standing_noise_free_is_constant(tmp_path):
    cfg = SynthesisConfig(classes=("standing", "squatting"), subjects=1,
                          frames_per_class=40, noise_sigma=0.0)
    synthesize_gestures(cfg, 0, tmp_path)
    recordings, label_map = load_recordings(tmp_path)
    rec = recordings[0]
    standing = rec.joints[rec.labels == label_map.index("standing")]
    assert np.array_equal(standing, np.tile(standing[0], (len(standing), 1, 1)))


def test_synthesize_walking_thighs_anti_phase(tmp_path):
    cfg = SynthesisConfig(classes=("standing", "walking"), subjects=1,
                          frames_per_class=240)
    synthesize_gestures(cfg, 3, tmp_path)
    recordings, label_map = load_recordings(tmp_path)
    rec = recordings[0]
    walking = rec.joints[rec.labels == label_map.index("walking")]
    left_y, right_y = walking[:, 1, 1], walking[:, 2, 1]
    corr = np.corrcoef(left_y, right_y)[0, 1]
    assert corr < 0


def test_synthesize_round_trips_through_loader(tmp_path):
    cfg = SynthesisConfig(subjects=2, frames_per_class=30)
    synthesize_gestures(cfg, 11, tmp_path)
    recordings, label_map = load_recordings(tmp_path)
    assert len(recordings) == 2
    assert len(label_map) == len(cfg.classes)
    for rec in recordings:
        assert len(rec) == cfg.frames_per_class * len(cfg.classes)


def test_mean_center_zeroes_channel_means():
    x = np.random.default_rng(0).normal(size=(3, 6, 3)) + 5.0
    centered = mean_center(x)
    assert np.allclose(centered.mean(axis=(1, 2)), 0.0, atol=1e-12)
