import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gesturemem
from gesturemem import cli
from gesturemem.cli import main
from gesturemem.config import (apply_overrides, dataclass_from_mapping,
                               read_kv_file)
from gesturemem.dataset import (SynthesisConfig, load_recordings, synthesize_recordings,
                                window_dataset)
from gesturemem.errors import ConfigError, ParseError
from gesturemem.training import TrainConfig


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


DEMO_SYNTH = """
# demo generator settings
classes = standing,walking,jumping
subjects = 5
frames_per_class = 60
noise_sigma = 0.01
"""

DEMO_TRAIN = """
short_len = 6
window_scale = 2
stride = 3
queue_capacity = 64
feature_dim = 8
width = 4
batch_size = 8
epochs = 1
learning_rate = 0.01
train_subjects = s00,s01,s02
test_subjects = s03,s04
"""


def test_no_args_prints_usage_and_exits_1(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["generate"]) == 1


def test_bad_config_key_is_runtime_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", "not_a_key = 3\n")
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert "not_a_key" in capsys.readouterr().err


def test_generate_deterministic_across_invocations(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "demo.cfg", DEMO_SYNTH)
    assert main(["generate", "--config", cfg, "--set", "seed=7",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--config", cfg, "--set", "seed=7",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "frames.csv").read_bytes()
    b = (tmp_path / "b" / "frames.csv").read_bytes()
    assert a == b


def test_full_pipeline_generate_train_eval(tmp_path, capsys):
    synth = write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH)
    traincfg = write_cfg(tmp_path / "train.cfg", DEMO_TRAIN)
    data = str(tmp_path / "data")
    ckpt = str(tmp_path / "model.ckpt")
    log = str(tmp_path / "metrics.jsonl")
    assert main(["generate", "--config", synth, "--out", data]) == 0
    assert main(["train", "--config", traincfg, "--data", data,
                 "--out", ckpt, "--log", log]) == 0
    out = capsys.readouterr().out
    assert "final test accuracy" in out
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--subjects", "s03,s04"]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    rows = [json.loads(line) for line in Path(log).read_text().splitlines()]
    assert any(r["split"] == "test" for r in rows)


def test_eval_windows_only_the_requested_subjects(monkeypatch):
    recordings, label_map = synthesize_recordings(SynthesisConfig(frames_per_class=30), 0)
    model = SimpleNamespace(short_len=6)
    windowed = []

    def spy(recs, *args, **kwargs):
        windowed.extend(r.subject_id for r in recs)
        return window_dataset(recs, *args, **kwargs)

    monkeypatch.setattr(cli, "window_dataset", spy)
    key = lambda s: (s.data.tobytes(), s.label, s.recording_id, s.start_frame)
    for subjects, stride, want_subjects in ((["s03", "s01"], 4, {"s01", "s03"}),
                                            (None, None, {r.subject_id for r in recordings})):
        windowed.clear()
        samples = cli._eval_windows(model, recordings, label_map, subjects, stride)
        assert set(windowed) == want_subjects and len(windowed) == len(want_subjects)
        every = window_dataset(recordings, label_map, 6, stride=stride or 6)
        assert [key(s) for s in samples] == [key(s) for s, subject
                                             in zip(every.shorts, every.subjects)
                                             if subject in want_subjects]


def generate_and_train(tmp_path):
    """A demo data directory and a checkpoint trained on it."""
    data = str(tmp_path / "data")
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--out", data]) == 0
    assert main(["train", "--config", write_cfg(tmp_path / "train.cfg", DEMO_TRAIN),
                 "--data", data, "--out", ckpt]) == 0
    return data, ckpt


def test_subjects_lists_are_stripped_and_checked(tmp_path, capsys):
    data, ckpt = generate_and_train(tmp_path)
    capsys.readouterr()
    outs = []
    for subjects in ("s03,s04", " s03 , s04 ", "s03, s04,"):
        assert main(["eval", "--model", ckpt, "--data", data, "--subjects", subjects]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2] and "over 60 windows" in outs[0], outs
    assert main(["eval", "--model", ckpt, "--data", data, "--subjects", "s03"]) == 0
    assert "over 30 windows" in capsys.readouterr().out
    export = ["export-addressing", "--model", ckpt, "--data", data, "--n-slots", "4",
              "--n-samples", "4", "--out", str(tmp_path / "addr.csv")]
    for command in (["eval", "--model", ckpt, "--data", data], export):
        for subjects, needle in (("s03, s99", "no subject s99 in the data"),
                                 ("s3", "no subject s3 in the data"),
                                 (" , ", "lists no subject")):
            assert main(command + ["--subjects", subjects]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err, err
    assert not (tmp_path / "addr.csv").exists()


def test_infer_emits_ndjson(tmp_path, capsys):
    data, ckpt = generate_and_train(tmp_path)
    capsys.readouterr()
    assert main(["infer", "--model", ckpt, "--data", data]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    row = json.loads(lines[0])
    assert {"recording", "start_frame", "true", "class", "name"} <= set(row)


def test_out_of_range_stride_and_n_slots_exit_2(tmp_path, capsys):
    data, ckpt = generate_and_train(tmp_path)
    capsys.readouterr()
    for command in ("eval", "infer"):
        assert main([command, "--model", ckpt, "--data", data, "--stride", "0"]) == 2
        assert "stride must be >= 1" in capsys.readouterr().err
    export = ["export-addressing", "--model", ckpt, "--data", data, "--n-samples", "4"]
    for n_slots in ("-1", "0"):
        out = tmp_path / f"addr{n_slots}.csv"
        assert main(export + ["--n-slots", n_slots, "--out", str(out)]) == 2
        assert f"cannot export {n_slots}" in capsys.readouterr().err
        assert not out.exists()
    assert main(export + ["--n-slots", "4", "--out", str(tmp_path / "addr.csv")]) == 0


def test_serve_stdin_subprocess_round_trip(tmp_path):
    synth = write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH)
    traincfg = write_cfg(tmp_path / "train.cfg", DEMO_TRAIN)
    data = str(tmp_path / "data")
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["generate", "--config", synth, "--out", data]) == 0
    assert main(["train", "--config", traincfg, "--data", data, "--out", ckpt]) == 0

    rng = np.random.default_rng(0)
    lines = []
    for i in range(8):
        lines.append(json.dumps({"t": i * 33.0,
                                 "joints": rng.normal(size=(3, 3)).tolist()}))
    # the child imports the same package as this process, however it was found
    src = os.path.dirname(os.path.dirname(gesturemem.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gesturemem.cli", "serve", "--model", ckpt,
         "--stdin", "--stride-ms", "0"],
        input="\n".join(lines) + "\n", text=True, capture_output=True, timeout=120,
        env=env)
    assert proc.returncode == 0, proc.stderr
    outs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(outs) == 3
    assert all("class" in o for o in outs)


def test_read_kv_file_and_overrides(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", "a = 1\n# comment\nb = two words\n")
    mapping = read_kv_file(cfg)
    assert mapping == {"a": "1", "b": "two words"}
    merged = apply_overrides(mapping, ["a=5", "c=x"])
    assert merged == {"a": "5", "b": "two words", "c": "x"}
    with pytest.raises(ConfigError):
        apply_overrides(mapping, ["oops"])


def test_dataclass_from_mapping_coercion():
    cfg = dataclass_from_mapping(TrainConfig, {
        "short_len": "8", "learning_rate": "0.1", "use_recall": "false",
        "eval_stride": "none", "dtype": "float64",
    })
    assert cfg.short_len == 8
    assert cfg.learning_rate == 0.1
    assert cfg.use_recall is False
    assert cfg.eval_stride is None
    with pytest.raises(ConfigError):
        dataclass_from_mapping(TrainConfig, {"short_len": "many"})
    with pytest.raises(ConfigError):
        dataclass_from_mapping(TrainConfig, {"use_recall": "perhaps"})


NOT_UTF8 = b"seed = 1\n\xff\xfe bad bytes\n"


def _corrupt(path):
    path.write_bytes(path.read_bytes() + NOT_UTF8)


BAD_INPUTS = {
    "generate_seed_not_int": (["generate", "--set", "seed=abc"], "seed"),
    "train_fraction_not_number": (["train", "--set", "train_fraction=abc"],
                                  "train_fraction"),
    "config_not_utf8": (["generate", "--config", "{tmp}/bad.cfg"], "UTF-8"),
    "frames_not_utf8": (["train", "--set", "train_fraction=0.5"], "frames.csv"),
    "labels_not_utf8": (["train", "--set", "train_fraction=0.5"], "labels.csv"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_an_error_line_and_exit_2(tmp_path, capsys, case):
    data = tmp_path / "data"
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--out", str(data)]) == 0
    (tmp_path / "bad.cfg").write_bytes(NOT_UTF8)
    if case.startswith(("frames", "labels")):
        _corrupt(data / f"{case.split('_')[0]}.csv")
    argv, needle = BAD_INPUTS[case]
    argv = [a.format(tmp=tmp_path) for a in argv]
    if argv[0] == "generate":
        argv += ["--out", str(tmp_path / "out")]
    else:
        argv += ["--data", str(data)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err, err


def test_non_utf8_files_raise_typed_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(NOT_UTF8)
    with pytest.raises(ConfigError, match="UTF-8"):
        read_kv_file(bad)
    data = tmp_path / "data"
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--out", str(data)]) == 0
    for name in ("labels.csv", "frames.csv"):
        _corrupt(data / name)
        with pytest.raises(ParseError, match=name):
            load_recordings(str(data))
