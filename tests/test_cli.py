import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gesturemem
from gesturemem.cli import main
from gesturemem.config import (apply_overrides, dataclass_from_mapping,
                               read_kv_file)
from gesturemem.errors import ConfigError
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


def test_infer_emits_ndjson(tmp_path, capsys):
    synth = write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH)
    traincfg = write_cfg(tmp_path / "train.cfg", DEMO_TRAIN)
    data = str(tmp_path / "data")
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["generate", "--config", synth, "--out", data]) == 0
    assert main(["train", "--config", traincfg, "--data", data, "--out", ckpt]) == 0
    capsys.readouterr()
    assert main(["infer", "--model", ckpt, "--data", data]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines
    row = json.loads(lines[0])
    assert {"recording", "start_frame", "true", "class", "name"} <= set(row)


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
