from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturemem.dataset import (LabelMap, Recording, SplitSpec,
                                SynthesisConfig, build_long_term,
                                load_recordings, mean_center, split_subjects,
                                split_windows, synthesize_gestures,
                                window_dataset, write_frames)
from gesturemem.errors import (ConfigError, DataIntegrityError,
                               NonFiniteError, ParseError)


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
    assert label_map.num_classes == 0


def test_load_round_trips_writer(tmp_path):
    rec = make_recording([0] * 60)
    write_frames(tmp_path / "frames.csv", [rec], LabelMap(names=["standing"]))
    loaded, label_map = load_recordings(tmp_path)
    assert len(loaded) == 1
    assert len(loaded[0]) == 60
    assert loaded[0].first_frame_index == 0
    assert label_map.names == ["standing"]
    assert np.allclose(loaded[0].joints, rec.joints, atol=1e-6)  # 6-decimal format


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


# --- long-term windows ------------------------------------------------------------

def test_build_long_term_scale_one_equals_short():
    rec = make_recording([0] * 12, seed=1)
    samples = split_windows(rec, short_len=3, stride=1)
    long = build_long_term(samples, rec, 4, window_scale=1)
    assert np.array_equal(long.data, samples[4].data)
    assert long.label == samples[4].label
    assert long.center_sample_index == 4


def test_build_long_term_centered_window():
    # S=2 -> floor(S/2)=1 leading short window: start 6 covers frames [3, 9)
    rec = make_recording([0] * 20, seed=2)
    samples = split_windows(rec, short_len=3, stride=1)
    i = [s.start_frame for s in samples].index(6)
    long = build_long_term(samples, rec, i, window_scale=2)
    assert long.data.shape == (3, 6, 3)
    assert np.array_equal(long.data, rec.joints[3:9].transpose(2, 0, 1))


def test_build_long_term_clamps_left_edge():
    rec = make_recording([0] * 20, seed=4)
    samples = split_windows(rec, short_len=3, stride=1)
    long = build_long_term(samples, rec, 0, window_scale=4)  # start 0
    assert long.data.shape == (3, 12, 3)
    assert np.array_equal(long.data, rec.joints[0:12].transpose(2, 0, 1))


def test_build_long_term_clamps_right_edge_and_length():
    rec = make_recording([0] * 15, seed=5)
    samples = split_windows(rec, short_len=3, stride=1)
    last = len(samples) - 1  # start 12
    long = build_long_term(samples, rec, last, window_scale=4)
    assert long.data.shape == (3, 12, 3)
    assert np.array_equal(long.data, rec.joints[3:15].transpose(2, 0, 1))


def test_build_long_term_too_short_recording():
    rec = make_recording([0] * 5)
    samples = split_windows(rec, short_len=3, stride=1)
    assert build_long_term(samples, rec, 0, window_scale=2) is None


def test_build_long_term_purity():
    rec = make_recording([0] * 6 + [1] * 6)
    samples = split_windows(rec, short_len=3, stride=1)
    i = [s.start_frame for s in samples].index(6)  # window [3, 9) mixes labels
    assert build_long_term(samples, rec, i, window_scale=2) is None
    long = build_long_term(samples, rec, i, window_scale=2, purity_required=False)
    assert long is not None and long.label == 1
    assert np.array_equal(long.data, rec.joints[3:9].transpose(2, 0, 1))


@given(st.integers(0, 1000), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_build_long_term_always_full_length_within_recording(seed, short_len, scale):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    rec = make_recording(rng.integers(0, 2, size=n), seed=seed)
    samples = split_windows(rec, short_len, stride=1)
    for i in range(len(samples)):
        long = build_long_term(samples, rec, i, scale, purity_required=False)
        if n < scale * short_len:
            assert long is None
        else:
            assert long.data.shape[1] == scale * short_len


# --- subject splits ---------------------------------------------------------------

def test_split_subjects_basic():
    recs = [make_recording([0] * 8, rec_id=f"r{i}", subject=f"s{i}") for i in range(2)]
    ds = window_dataset(recs, LabelMap(names=["a"]), short_len=4, stride=4,
                        with_long=False)
    train, test = split_subjects(ds, SplitSpec.from_lists(["s0"], ["s1"]))
    assert all(ds.subjects[i] == "s0" for i in train)
    assert all(ds.subjects[i] == "s1" for i in test)
    assert len(train) + len(test) == len(ds)


def test_split_spec_rejects_overlap():
    with pytest.raises(ConfigError):
        SplitSpec.from_lists(["s1", "s2"], ["s2"])


def test_split_subjects_requires_cover():
    recs = [make_recording([0] * 8, rec_id=f"r{i}", subject=f"s{i}") for i in range(3)]
    ds = window_dataset(recs, LabelMap(names=["a"]), short_len=4, with_long=False)
    with pytest.raises(ConfigError):
        split_subjects(ds, SplitSpec.from_lists(["s0"], ["s1"]))


def test_split_subjects_count_conservation_25_subjects():
    cfg = SynthesisConfig(classes=("standing", "walking"), subjects=25,
                          frames_per_class=30)
    recs = []
    rng = np.random.default_rng(0)
    for subj in cfg.subject_ids():
        recs.append(make_recording(rng.integers(0, 2, size=40),
                                   rec_id=f"rec_{subj}", subject=subj))
    ds = window_dataset(recs, LabelMap(names=["a", "b"]), short_len=5, with_long=False)
    subjects = cfg.subject_ids()
    train, test = split_subjects(ds, SplitSpec.from_lists(subjects[:18], subjects[18:]))
    assert len(train) + len(test) == len(ds)
    assert set(train).isdisjoint(test)


# --- synthesis --------------------------------------------------------------------

def test_synthesize_unknown_class_rejected():
    with pytest.raises(ConfigError, match="unknown gesture"):
        SynthesisConfig(classes=("standing", "flying"))
    with pytest.raises(ConfigError):
        SynthesisConfig(classes=("standing",))


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
    standing = rec.joints[rec.labels == label_map.names.index("standing")]
    assert np.array_equal(standing, np.tile(standing[0], (len(standing), 1, 1)))


def test_synthesize_walking_thighs_anti_phase(tmp_path):
    cfg = SynthesisConfig(classes=("standing", "walking"), subjects=1,
                          frames_per_class=240)
    synthesize_gestures(cfg, 3, tmp_path)
    recordings, label_map = load_recordings(tmp_path)
    rec = recordings[0]
    walking = rec.joints[rec.labels == label_map.names.index("walking")]
    left_y, right_y = walking[:, 1, 1], walking[:, 2, 1]
    corr = np.corrcoef(left_y, right_y)[0, 1]
    assert corr < 0


def test_synthesize_round_trips_through_loader(tmp_path):
    cfg = SynthesisConfig(subjects=2, frames_per_class=30)
    synthesize_gestures(cfg, 11, tmp_path)
    recordings, label_map = load_recordings(tmp_path)
    assert len(recordings) == 2
    assert label_map.num_classes == len(cfg.classes)
    for rec in recordings:
        assert len(rec) == cfg.frames_per_class * len(cfg.classes)


def test_mean_center_zeroes_channel_means():
    x = np.random.default_rng(0).normal(size=(3, 6, 3)) + 5.0
    centered = mean_center(x)
    assert np.allclose(centered.mean(axis=(1, 2)), 0.0, atol=1e-12)
