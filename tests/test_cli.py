import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gesturemem
from gesturemem import cli, evaluation
from gesturemem.cli import main
from gesturemem.config import (apply_overrides, dataclass_from_mapping,
                               read_kv_file)
from gesturemem.dataset import (Recording, SynthesisConfig, load_recordings,
                                synthesize_recordings, window_dataset, write_frames)
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


@pytest.mark.parametrize("key", ["walk_freq", "squat_amp", "fps"])
def test_generate_refuses_gesture_shape_keys(tmp_path, capsys, key):
    # the gestures and the frame rate are constants, not settings
    assert main(["generate", "--set", f"{key}=2", "--out", str(tmp_path / "d")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


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
    # a held-out figure from before the last epoch is not called final
    assert main(["train", "--config", traincfg, "--data", data,
                 "--set", "epochs=3", "--set", "eval_every=2"]) == 0
    out = capsys.readouterr().out
    assert "epoch 2 of 3 test accuracy: " in out and "final" not in out, out
    assert main(["eval", "--model", ckpt, "--data", data,
                 "--subjects", "s03,s04"]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    rows = [json.loads(line) for line in Path(log).read_text().splitlines()]
    assert any(r["split"] == "test" for r in rows)


def test_eval_windows_only_the_requested_subjects(monkeypatch):
    recordings, label_map = synthesize_recordings(SynthesisConfig(frames_per_class=30), 0)
    model = SimpleNamespace(short_len=6, num_classes=5, label_names=label_map)
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
        every = window_dataset(recordings, label_map, 6, stride=stride or 6).shorts
        subject_of = {r.recording_id: r.subject_id for r in recordings}
        assert [key(s) for s in samples] == [key(s) for s in every
                                             if subject_of[s.recording_id] in want_subjects]


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
                                 (" , ", "lists no subject"), ("", "lists no subject")):
            assert main(command + ["--subjects", subjects]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and needle in err, err
    assert not (tmp_path / "addr.csv").exists()


@pytest.mark.parametrize("path,value", [(("rng_state", "state", "inc"), -1),
                                        (("config", "short_len"), 2**70)],
                         ids=["negative_rng_inc", "huge_short_len"])
def test_eval_of_a_checkpoint_whose_header_is_out_of_range_exits_2(tmp_path, capsys,
                                                                   path, value):
    data, ckpt = generate_and_train(tmp_path)
    header_line, payload = Path(ckpt).read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    node = header
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    Path(ckpt).write_bytes(json.dumps(header).encode() + b"\n" + payload)
    capsys.readouterr()
    assert main(["eval", "--model", ckpt, "--data", data]) == 2
    assert capsys.readouterr().err.startswith("error: ")


FIVE_CLASSES = DEMO_SYNTH.replace("standing,walking,jumping",
                                  "standing,walking,jogging,jumping,squatting")


def test_eval_data_and_model_class_counts_differ(tmp_path, capsys):
    data3, ckpt3 = generate_and_train(tmp_path)
    data5, ckpt5 = str(tmp_path / "data5"), str(tmp_path / "model5.ckpt")
    assert main(["generate", "--config", write_cfg(tmp_path / "synth5.cfg", FIVE_CLASSES),
                 "--out", data5]) == 0
    capsys.readouterr()
    for command in ("eval", "infer"):
        assert main([command, "--model", ckpt3, "--data", data5]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "the model has 3 classes" in err, err
    assert main(["train", "--config", write_cfg(tmp_path / "train.cfg", DEMO_TRAIN),
                 "--data", data5, "--out", ckpt5]) == 0
    capsys.readouterr()
    confusion = tmp_path / "confusion.csv"
    assert main(["eval", "--model", ckpt5, "--data", data3,
                 "--confusion-out", str(confusion)]) == 0
    names = ["standing", "walking", "jogging", "jumping", "squatting"]
    recalls = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("recall[")]
    assert [line.split("]")[0][len("recall["):] for line in recalls] == names
    # the data's classes (standing, walking, jumping) are matched by name:
    # only the model's jogging and squatting see no window
    assert [line.endswith("undefined") for line in recalls] == [
        False, False, True, False, True]
    with open(confusion, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["true\\pred"] + names
    assert [row[0] for row in rows[1:]] == names
    row_totals = [sum(int(v) for v in row[1:]) for row in rows[1:]]
    assert [total > 0 for total in row_totals] == [True, True, False, True, False]
    assert main(["infer", "--model", ckpt5, "--data", data3]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {line["true"] for line in lines} == {0, 1, 3}


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_split_naming_absent_subjects_exits_2(tmp_path, capsys, command):
    data = str(tmp_path / "data")
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--set", "subjects=3", "--out", data]) == 0
    base = [command, "--config", write_cfg(tmp_path / "train.cfg", DEMO_TRAIN),
            "--data", data, "--out" if command == "train" else "--json-out",
            str(tmp_path / "out")]
    capsys.readouterr()
    for train, test, absent in (("s00,s01,s02", "s3", "s3"),
                                ("s00, s01,s09", "s02", "s09")):
        assert main(base + ["--set", f"train_subjects={train}",
                            "--set", f"test_subjects={test}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"data lacks: {absent}" in err, err
    assert not (tmp_path / "out").exists()


def test_split_with_an_empty_side_exits_2(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--out", data]) == 0
    one_subject = str(tmp_path / "one")
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--set", "subjects=1", "--out", one_subject]) == 0
    base = ["train", "--config", write_cfg(tmp_path / "train.cfg", DEMO_TRAIN),
            "--out", str(tmp_path / "out")]
    capsys.readouterr()
    for data_dir, overrides, needle in (
            (data, ["train_subjects= , ", "test_subjects=s03"],
             "train_subjects lists no subject"),
            (data, ["train_subjects=s00", "test_subjects=, "],
             "test_subjects lists no subject"),
            (one_subject, ["train_subjects=", "test_subjects=", "train_fraction=0.5"],
             "train_fraction needs at least 2 subjects; the data has 1")):
        sets = [arg for kv in overrides for arg in ("--set", kv)]
        assert main(base + ["--data", data_dir] + sets) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err
    assert not (tmp_path / "out").exists()


def test_ablate_trains_the_grid_and_checks_seeds(tmp_path, capsys):
    data = str(tmp_path / "data")
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--out", data]) == 0
    cfg = write_cfg(tmp_path / "train.cfg", DEMO_TRAIN)
    ablate = ["ablate", "--config", cfg, "--data", data]
    capsys.readouterr()
    for seeds, needle in (("1,x", "--seeds must list integers"),
                          (",", "--seeds lists no seed"), ("", "--seeds lists no seed"),
                          ("0,0", "seed 0 is listed twice"),
                          ("3, 1,2,1", "seed 1 is listed twice")):
        assert main(ablate + ["--seeds", seeds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err
    out = tmp_path / "grid.json"
    assert main(ablate + ["--seeds", " 0, 1", "--json-out", str(out)]) == 0
    table = capsys.readouterr().out
    result = json.loads(out.read_text())
    assert result["seeds"] == [0, 1]
    assert set(result["accuracies"]) == {
        "baseline", "recall_only", "contrast_only/memory", "contrast_only/views",
        "full/memory", "full/views"}
    assert all(key in table for key in result["accuracies"])
    assert "full/memory vs full/views" in table
    # what reproduces the grid rides along with it
    assert TrainConfig(**result["config"]) == dataclass_from_mapping(
        TrainConfig, read_kv_file(cfg), extra_keys=cli.SPLIT_KEYS)
    assert result["split"] == {"train_subjects": ["s00", "s01", "s02"],
                               "test_subjects": ["s03", "s04"]}
    frames = Path(data, "frames.csv").read_bytes()
    assert result["data_sha256"] == hashlib.sha256(frames).hexdigest()
    assert result["git_commit"] is None or re.fullmatch("[0-9a-f]{40}", result["git_commit"])
    assert isinstance(result["wall_s"], float) and result["wall_s"] > 0


def test_serve_refuses_bad_frame_rate_before_reading(tmp_path, capsys, monkeypatch):
    _, ckpt = generate_and_train(tmp_path)

    class Unread:
        """stdin and its byte buffer, failing on any read."""

        def read(self, *args):
            raise AssertionError("read a line")

        readline = __iter__ = read

        @property
        def buffer(self):
            return self

    def bind(*args):
        raise AssertionError("bound a server")

    monkeypatch.setattr(sys, "stdin", Unread())
    monkeypatch.setattr(cli.inference, "_SessionServer", bind)
    capsys.readouterr()
    for flags, needle in ((["--frame-hz", "0"], "frame_hz"),
                          (["--frame-hz", "nan"], "frame_hz"),
                          (["--stride-ms", "-5"], "stride_ms"),
                          (["--port", "0", "--frame-hz", "-1"], "frame_hz"),
                          (["--port", "0", "--stride-ms", "inf"], "stride_ms"),
                          (["--port", "65536"], "port"),
                          (["--port", "-1"], "port")):
        assert main(["serve", "--model", ckpt] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err, err


def test_docstring_names_every_subcommand():
    listed = re.search(r"Subcommands: (.*?)\.", cli.__doc__, re.S).group(1)
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert [name.strip() for name in listed.split(",")] == list(subparsers.choices)


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


NEGATIVE_SEEDS = {
    "generate": ["generate", "--set", "seed=-1", "--out", "{tmp}/out"],
    "train": ["train", "--config", "{tmp}/train.cfg", "--data", "{data}",
              "--set", "seed=-1", "--out", "{tmp}/out"],
    "ablate_first": ["ablate", "--config", "{tmp}/train.cfg", "--data", "{data}",
                     "--seeds=-1,2", "--json-out", "{tmp}/out"],
    "ablate_last": ["ablate", "--config", "{tmp}/train.cfg", "--data", "{data}",
                    "--seeds=2,-1", "--json-out", "{tmp}/out"],
    "export_addressing": ["export-addressing", "--model", "{ckpt}", "--data", "{data}",
                          "--seed", "-1", "--n-slots", "4", "--n-samples", "4",
                          "--out", "{tmp}/out"],
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SEEDS))
def test_negative_seed_is_an_error_line_and_exit_2(tmp_path, capsys, monkeypatch, case):
    data, ckpt = generate_and_train(tmp_path)
    # the grid refuses a bad seed before it trains any of its runs
    monkeypatch.setattr(evaluation, "train", lambda *args, **kw: pytest.fail("trained"))
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path, data=data, ckpt=ckpt) for a in NEGATIVE_SEEDS[case]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0" in err, err
    assert not (tmp_path / "out").exists()


def serve_stdin(ckpt, data, **env):
    """``serve --stdin`` of the bytes ``data`` in a child process."""
    # the child imports the same package as this process, however it was found
    src = os.path.dirname(os.path.dirname(gesturemem.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    return subprocess.run(
        [sys.executable, "-m", "gesturemem.cli", "serve", "--model", ckpt,
         "--stdin", "--stride-ms", "0"],
        input=data, capture_output=True, timeout=120, env=env)


def frame_lines(n):
    rng = np.random.default_rng(0)
    return [json.dumps({"t": i * 33.0, "joints": rng.normal(size=(3, 3)).tolist()})
            for i in range(n)]


def test_serve_stdin_subprocess_round_trip(tmp_path):
    _, ckpt = generate_and_train(tmp_path)
    proc = serve_stdin(ckpt, ("\n".join(frame_lines(8)) + "\n").encode())
    assert proc.returncode == 0, proc.stderr
    outs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(outs) == 3
    assert all("class" in o for o in outs)


def test_serve_stdin_answers_a_line_that_is_not_utf8(tmp_path):
    # a strict UTF-8 stdin (PYTHONIOENCODING) must not end the session
    _, ckpt = generate_and_train(tmp_path)
    lines = [line.encode() for line in frame_lines(8)]
    data = b"\n".join(lines[:2] + [b"\xff"] + lines[2:]) + b"\n"
    proc = serve_stdin(ckpt, data, PYTHONIOENCODING="utf-8")
    assert proc.returncode == 0, proc.stderr
    outs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(outs) == 4 and set(outs[0]) == {"error"}
    assert all("class" in o for o in outs[1:])


def test_serve_refuses_stdin_and_port_together(tmp_path, capsys):
    assert main(["serve", "--model", str(tmp_path / "absent.ckpt"),
                 "--stdin", "--port", "0"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err


UNSETTABLE = {
    "eval": ["--model", "m.ckpt", "--data", "d"],
    "infer": ["--model", "m.ckpt", "--data", "d"],
    "serve": ["--model", "m.ckpt"],
    "export-addressing": ["--model", "m.ckpt", "--data", "d", "--out", "a.csv"],
}


@pytest.mark.parametrize("flag", ["--set", "--config"])
@pytest.mark.parametrize("command", sorted(UNSETTABLE))
def test_commands_without_settings_refuse_config_and_set(tmp_path, capsys, command, flag):
    # these read no config key, so a --config or --set would do nothing
    value = "stride=3" if flag == "--set" else write_cfg(tmp_path / "c.cfg", "stride = 3\n")
    assert main([command, *UNSETTABLE[command], flag, value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_serve_port_serves_the_bound_server_and_closes_it(tmp_path, monkeypatch):
    _, ckpt = generate_and_train(tmp_path)
    served = []
    monkeypatch.setattr(cli.inference._SessionServer, "serve_forever",
                        lambda server: served.append(server))
    assert main(["serve", "--model", ckpt, "--port", "0"]) == 0
    [server] = served
    assert server.server_address[0] == "127.0.0.1" and server.server_address[1] > 0
    assert server.socket.fileno() == -1


def test_read_kv_file_and_overrides(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", "a = 1\n# comment\nb = two words\n")
    mapping = read_kv_file(cfg)
    assert mapping == {"a": "1", "b": "two words"}
    merged = apply_overrides(mapping, ["a=5", "c=x"])
    assert merged == {"a": "5", "b": "two words", "c": "x"}
    with pytest.raises(ConfigError):
        apply_overrides(mapping, ["oops"])


def test_read_kv_file_refuses_a_repeated_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.cfg", "epochs = 1\n# again\nepochs = 2\n")
    with pytest.raises(ConfigError, match=r"c\.cfg:3: 'epochs' already set on line 1"):
        read_kv_file(cfg)
    assert main(["train", "--config", cfg, "--data", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'epochs' already set on line 1" in err, err


@pytest.mark.parametrize("text, where, message", [
    ("epochs = 1\n\nepochs 2\n", 3, "expected 'key = value'"),
    ("# settings\n = 2\n", 2, "empty key"),
], ids=["no_equals_sign", "empty_key"])
def test_config_file_refusals(tmp_path, text, where, message):
    cfg = write_cfg(tmp_path / "c.cfg", text)
    with pytest.raises(ConfigError) as info:
        read_kv_file(cfg)
    assert str(info.value) == f"{cfg}:{where}: {message}"


def test_read_kv_file_ignores_a_leading_bom(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfepochs = 2\n# \xef\xbb\xbf kept in a comment\n")
    mapping = read_kv_file(cfg)
    assert mapping == {"epochs": "2"}
    assert dataclass_from_mapping(TrainConfig, mapping).epochs == 2


def four_subject_data(tmp_path):
    """A dataset directory of four one-frame recordings, subjects out of order."""
    recordings = [Recording(f"r{s}", s, np.zeros((1, 3, 3)), np.zeros(1, dtype=np.int64))
                  for s in "bdac"]
    write_frames(tmp_path / "data" / "frames.csv", recordings, ("standing",))
    return str(tmp_path / "data")


@pytest.mark.parametrize("settings, message", [
    (["train_subjects=a"], "train_subjects and test_subjects must be set together"),
    (["test_subjects=a,b"], "train_subjects and test_subjects must be set together"),
    ([], "config must set train_subjects/test_subjects or train_fraction"),
    (["train_fraction=1"], "train_fraction must be in (0, 1), got 1.0"),
    (["train_fraction=0"], "train_fraction must be in (0, 1), got 0.0"),
    (["train_fraction=nan"], "train_fraction must be in (0, 1), got nan"),
], ids=["train_alone", "test_alone", "no_split", "fraction_one", "fraction_zero",
        "fraction_nan"])
def test_split_refusals(tmp_path, settings, message):
    argv = ["train", "--data", four_subject_data(tmp_path)]
    args = cli.build_parser().parse_args(argv + [f"--set={s}" for s in settings])
    with pytest.raises(ConfigError) as info:
        args.func(args)
    assert str(info.value) == message


@pytest.mark.parametrize("fraction, train", [("0.5", "ab"), ("0.1", "a"), ("0.9", "abc")])
def test_train_fraction_trains_on_a_sorted_prefix_of_subjects(tmp_path, monkeypatch,
                                                              fraction, train):
    splits = []

    def fake_train(config, recordings, label_names, split, **kwargs):
        splits.append(split)
        return SimpleNamespace(state=None, metrics=[])

    monkeypatch.setattr(cli.training, "train", fake_train)
    assert main(["train", "--data", four_subject_data(tmp_path),
                 "--set", f"train_fraction={fraction}"]) == 0
    [split] = splits
    assert split.train_subjects == frozenset(train)
    assert split.test_subjects == frozenset("abcd") - frozenset(train)


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
    "labels_name_repeated": (["train", "--set", "train_fraction=0.5"],
                             "line 3: duplicate gesture_name 'walking'"),
    "frames_label_past_int64": (["train", "--set", "train_fraction=0.5"],
                                f"line 2: label_id {10**30} is past the int64 range"),
    # neither would read back: inf coordinates, and subject ids with a comma
    "generate_noise_sigma_inf": (["generate", "--set", "noise_sigma=inf"], "noise_sigma"),
    "generate_subject_prefix_comma": (["generate", "--set", "subject_prefix=a,b"],
                                      "id 'rec_a,b00'"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_an_error_line_and_exit_2(tmp_path, capsys, case):
    data = tmp_path / "data"
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--out", str(data)]) == 0
    (tmp_path / "bad.cfg").write_bytes(NOT_UTF8)
    if case == "labels_name_repeated":
        labels = data / "labels.csv"
        labels.write_text(labels.read_text().replace("jumping", "walking"))
    elif case == "frames_label_past_int64":
        frames = data / "frames.csv"
        header, rest = frames.read_text().split("\n", 1)
        frames.write_text(f"{header}\nr0,s0,0,{10**30},{','.join(['0'] * 9)}\n{rest}")
    elif case.startswith(("frames", "labels")):
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


def test_unallocatable_config_is_an_error_line_and_exit_2(tmp_path, capsys):
    # numpy refuses a queue of 10**15 slots before touching any memory
    data = str(tmp_path / "data")
    assert main(["generate", "--config", write_cfg(tmp_path / "synth.cfg", DEMO_SYNTH),
                 "--out", data]) == 0
    capsys.readouterr()
    assert main(["train", "--config", write_cfg(tmp_path / "train.cfg", DEMO_TRAIN),
                 "--data", data, "--set", f"queue_capacity={10**15}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err, err


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
