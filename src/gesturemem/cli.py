"""Command-line entry points tying the toolkit together.

Subcommands: generate, train, eval, ablate, infer, serve, export-addressing.
Only generate, train and ablate read settings: each accepts ``--config <file>``
(flat ``key = value`` text) plus repeated ``--set key=value`` overrides, and
the other subcommands refuse both as unrecognized arguments. Exit codes: 0
success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import subprocess
import sys
import time

from . import inference, training
from .config import apply_overrides, coerce, dataclass_from_mapping, read_kv_file
from .dataset import (FRAME_HZ, SplitSpec, SynthesisConfig, load_recordings,
                      resolve_frames_path, synthesize_gestures, window_dataset)
from .errors import ConfigError, ToolkitError
from .evaluation import (check_distinct_seeds, evaluate, export_addressing,
                         format_grid_table, run_grid)
from .inference import FrozenModel
from .training import TrainConfig

log = logging.getLogger(__name__)

SPLIT_KEYS = ("train_subjects", "test_subjects", "train_fraction")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_mapping(args):
    mapping = read_kv_file(args.config) if args.config else {}
    return apply_overrides(mapping, args.set)


def _names(text):
    """The names of a comma-separated list, stripped, empty ones dropped."""
    return [s.strip() for s in text.split(",") if s.strip()]


def _resolve_split(mapping, recordings):
    """Subject split from explicit lists or a deterministic sorted-prefix fraction."""
    subjects = sorted({r.subject_id for r in recordings})
    train = mapping.get("train_subjects")
    test = mapping.get("test_subjects")
    if train or test:
        if not (train and test):
            raise ConfigError("train_subjects and test_subjects must be set together")
        train, test = _names(train), _names(test)
        for key, names in (("train_subjects", train), ("test_subjects", test)):
            if not names:
                raise ConfigError(f"{key} lists no subject")
        if absent := sorted(set(train + test) - set(subjects)):
            raise ConfigError(f"the split names subjects the data lacks: {', '.join(absent)}")
        return SplitSpec.from_lists(train, test)
    fraction = mapping.get("train_fraction")
    if fraction is None:
        raise ConfigError("config must set train_subjects/test_subjects "
                          "or train_fraction")
    fraction = coerce(fraction, "float", "train_fraction")
    if not 0 < fraction < 1:
        raise ConfigError(f"train_fraction must be in (0, 1), got {fraction}")
    if len(subjects) < 2:
        raise ConfigError(f"train_fraction needs at least 2 subjects; "
                          f"the data has {len(subjects)}")
    n_train = min(max(int(round(fraction * len(subjects))), 1), len(subjects) - 1)
    return SplitSpec.from_lists(subjects[:n_train], subjects[n_train:])


def _eval_windows(model, recordings, label_names, subjects=None):
    """Non-overlapping windows of the recordings of ``subjects`` (of all when
    None), each labelled with the model's index of its data class, matched by name.

    An empty list, one naming a subject the data lacks, or a window of a
    class the model lacks is a :class:`ConfigError`.
    """
    if subjects is not None:
        keep = set(subjects)
        if not keep:
            raise ConfigError("--subjects lists no subject")
        unknown = sorted(keep - {r.subject_id for r in recordings})
        if unknown:
            raise ConfigError(f"--subjects: no subject {', '.join(unknown)} in the data")
        recordings = [r for r in recordings if r.subject_id in keep]
    samples = window_dataset(recordings, label_names, model.short_len,
                             stride=model.short_len).shorts
    to_model = {}
    for label in sorted({s.label for s in samples}):
        name = label_names[label]
        if name not in model.label_names:
            raise ConfigError(f"the data has class {name!r}, but the model has "
                              f"{model.num_classes} classes: "
                              f"{', '.join(model.label_names)}")
        to_model[label] = model.label_names.index(name)
    return [dataclasses.replace(s, label=to_model[s.label]) for s in samples]


def cmd_generate(args):
    mapping = _load_mapping(args)
    seed = coerce(mapping.pop("seed", "0"), "int", "seed")
    cfg = dataclass_from_mapping(SynthesisConfig, mapping)
    path = synthesize_gestures(cfg, seed, args.out)
    print(f"wrote {path}")
    return 0


def cmd_train(args):
    mapping = _load_mapping(args)
    recordings, label_names = load_recordings(args.data)
    split = _resolve_split(mapping, recordings)
    config = dataclass_from_mapping(TrainConfig, mapping, extra_keys=SPLIT_KEYS)
    result = training.train(config, recordings, label_names, split,
                            log_path=args.log, resume_from=args.resume)
    if args.out:
        training.save_checkpoint(result.state, args.out)
        print(f"checkpoint: {args.out}")
    test_rows = [m for m in result.metrics if m["split"] == "test"]
    if test_rows:
        print(f"final test accuracy: {test_rows[-1]['accuracy']:.4f}")
    return 0


def cmd_eval(args):
    model = FrozenModel.from_state(training.load_checkpoint(args.model))
    recordings, label_names = load_recordings(args.data)
    subjects = None if args.subjects is None else _names(args.subjects)
    samples = _eval_windows(model, recordings, label_names, subjects)
    result = evaluate(model, samples)
    print(f"accuracy: {result.accuracy:.4f} over {len(samples)} windows")
    for name, recall in zip(model.label_names, result.per_class_recall):
        shown = "undefined" if recall is None else f"{recall:.4f}"
        print(f"recall[{name}]: {shown}")
    if args.confusion_out:
        with open(args.confusion_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["true\\pred", *model.label_names])
            for name, row in zip(model.label_names, result.confusion.counts):
                writer.writerow([name] + [int(v) for v in row])
        print(f"confusion matrix: {args.confusion_out}")
    return 0


def _parse_seeds(text):
    """The seeds of a comma-separated list, or None when it is not given."""
    if text is None:
        return None
    try:
        seeds = [int(s) for s in _names(text)]
    except ValueError:
        raise ConfigError(f"--seeds must list integers, got {text!r}") from None
    if not seeds:
        raise ConfigError("--seeds lists no seed")
    check_distinct_seeds(seeds)
    return seeds


def _git_provenance():
    """``git_commit``, HEAD of the git checkout holding this package's source,
    and ``git_dirty``, whether a tracked file there differs from it; both None
    without git or a checkout."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True, check=True,
                              cwd=os.path.dirname(os.path.abspath(__file__)),
                              timeout=10).stdout
    try:
        return {"git_commit": git("rev-parse", "HEAD").strip(),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_commit": None, "git_dirty": None}


def cmd_ablate(args):
    start = time.monotonic()
    mapping = _load_mapping(args)
    seeds = _parse_seeds(args.seeds)
    recordings, label_names = load_recordings(args.data)
    with open(resolve_frames_path(args.data), "rb") as fh:
        data_sha256 = hashlib.sha256(fh.read()).hexdigest()
    split = _resolve_split(mapping, recordings)
    config = dataclass_from_mapping(TrainConfig, mapping, extra_keys=SPLIT_KEYS)
    result = run_grid(config, recordings, label_names, split, seeds=seeds)
    print(format_grid_table(result))
    if args.json_out:
        result.update(config=dataclasses.asdict(config), data_sha256=data_sha256,
                      split={"train_subjects": sorted(split.train_subjects),
                             "test_subjects": sorted(split.test_subjects)},
                      **_git_provenance(), wall_s=time.monotonic() - start)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
    return 0


def cmd_infer(args):
    model = FrozenModel.from_state(training.load_checkpoint(args.model))
    recordings, label_names = load_recordings(args.data)
    samples = _eval_windows(model, recordings, label_names)
    correct = 0
    for s in samples:
        cls, probs = inference.predict(model, s.data)
        correct += int(cls == s.label)
        print(json.dumps({"recording": s.recording_id, "start_frame": s.start_frame,
                          "true": s.label, "class": cls,
                          "name": model.label_names[cls]}))
    if samples:
        log.info("accuracy %.4f over %d windows", correct / len(samples), len(samples))
    return 0


def cmd_serve(args):
    model = FrozenModel.from_state(training.load_checkpoint(args.model))
    timing = dict(stride_ms=args.stride_ms, frame_hz=args.frame_hz)
    if args.port is None:
        inference.serve_connection(model, sys.stdin.buffer, sys.stdout.buffer, **timing)
    else:
        with inference.tcp_server(model, args.host, args.port, **timing) as server:
            log.info("serving on %s:%d (stride %.0f ms)", args.host, args.port, args.stride_ms)
            server.serve_forever()
    return 0


def cmd_export_addressing(args):
    model = FrozenModel.from_state(training.load_checkpoint(args.model))
    recordings, label_names = load_recordings(args.data)
    subjects = None if args.subjects is None else _names(args.subjects)
    samples = _eval_windows(model, recordings, label_names, subjects)
    stats = export_addressing(model, samples, args.n_slots, args.n_samples,
                              args.seed, args.out)
    print(f"wrote {stats['csv_path']}")
    print(f"same-class mean address mass: {stats['same_class_mean']:.6f}")
    print(f"diff-class mean address mass: {stats['diff_class_mean']:.6f}")
    return 0


def build_parser():
    parser = _Parser(prog="gesturemem",
                     description="Memory-augmented in-place gesture classification")
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, func, help_text, settings=False):
        p = sub.add_parser(name, help=help_text)
        if settings:
            p.add_argument("--config", help="flat key = value config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                           help="override a config key (repeatable)")
        p.set_defaults(func=func)
        return p

    p = add("generate", cmd_generate, "synthesize a labeled gesture dataset", settings=True)
    p.add_argument("--out", required=True, help="output dataset directory")

    p = add("train", cmd_train, "train a model on a dataset directory", settings=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--log", help="metrics JSONL output path")
    p.add_argument("--resume", help="checkpoint to resume from")

    p = add("eval", cmd_eval, "evaluate a checkpoint on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subjects", help="comma-separated subject filter")
    p.add_argument("--confusion-out", help="write the confusion matrix as CSV")

    p = add("ablate", cmd_ablate,
            "train the six-cell recall x contrast-loss grid", settings=True)
    p.add_argument("--data", required=True)
    p.add_argument("--seeds", help="comma-separated seeds (default: config seed)")
    p.add_argument("--json-out", help="write the results and their provenance as JSON")

    p = add("infer", cmd_infer, "batch-predict windows of a dataset as NDJSON")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)

    p = add("serve", cmd_serve, "stream NDJSON frames to predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--port", type=int,
                   help="serve NDJSON sessions over TCP (default: one session "
                        "over stdin/stdout)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--stride-ms", type=float, default=inference.STRIDE_MS)
    p.add_argument("--frame-hz", type=float, default=FRAME_HZ)

    p = add("export-addressing", cmd_export_addressing,
            "export an addressing submatrix for plotting")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subjects", help="comma-separated subject filter")
    p.add_argument("--n-slots", type=int, default=32)
    p.add_argument("--n-samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 1
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ToolkitError, OSError, MemoryError) as e:
        # MemoryError: a configured size (a queue, a width) that cannot be allocated
        print(f"error: {e}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
