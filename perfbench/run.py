"""Benchmark launcher: runs one workload and prints its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

Workloads: train-desk, stream-desk, eval-bigmem (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run, and the spans are written to
``.perfbench/spans-<workload>.jsonl``. Lines before it give every metric by
name with its unit, sample count and percentile, plus a ``detail`` JSON line.
``--smoke`` shrinks every input so the harness can be tested in seconds.

Exit codes: 0 after a result line, 2 when the checkout has no gesturemem
sources (no result is printed then).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: every workload is single-threaded
# Python around small matrix products, and BLAS threads only add variance.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402

import calib  # noqa: E402
from stats import median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for testing the harness only")
    return p.parse_args(argv)


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": int(BLAS_THREADS), "machine": platform.machine()}


def print_metrics(workload, named, generic):
    for name, m in named.items():
        aliases = [k for k, v in generic.items() if v == name]
        alias = f" [{', '.join(aliases)}]" if aliases else ""
        extra = []
        if "percentile" in m and m["percentile"] is not None:
            extra.append(f"p{m['percentile']:g}")
        if "n" in m:
            extra.append(f"n={m['n']}")
        if "wall" in m:
            extra.append(f"wall={m['wall']:.6g}")
        print(f"{workload:<12} {name + alias:<48} {m['value']:>14.6g} {m['unit']:<6}"
              f" {' '.join(extra)}")


def run_plain(wl, scale, args):
    """Set up several times, then warm up, measure and check.

    Each set-up is timed by a ``calib.Meter``: its steps end segments that are
    scaled to the reference speed, and a last segment closes at its end.
    Returns the set-up times as (wall, reference-speed) lists.
    """
    wall, ref = [], []
    ctx = None
    for _ in range(scale.setup_repeats):
        meter = calib.Meter()
        ctx = wl.setup(args.seed, scale, args.seconds, meter)
        meter.mark(readings=5)
        wall.append(meter.wall_s)
        ref.append(meter.ref_s)
    wl.warmup(ctx)
    m = wl.measure(ctx, args.seconds)
    chk = wl.check(ctx, m)
    return ctx, (wall, ref), m, chk


def run_traced(wl, scale, args):
    """Set up once, traced; measure untraced, then measure and check traced."""
    from gesturemem.training import TrainConfig
    from spans import Tracer
    from workloads import Check

    tracer = Tracer(short_len=TrainConfig.desk_profile().short_len)
    tracer.install()
    try:
        ctx = wl.setup(args.seed, scale, args.seconds)
    finally:
        tracer.uninstall()
    wl.warmup(ctx)
    plain = wl.measure(ctx, args.seconds)
    plain_chk = wl.check(ctx, plain)
    tracer.install()
    try:
        traced = wl.measure(ctx, args.seconds, tracer)
        tracer.request = "check"
        chk = wl.check(ctx, traced)
    finally:
        tracer.uninstall()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{wl.name}.jsonl"
    tracer.write(spans_path)
    both = Check(correct=plain_chk.correct and chk.correct,
                 attempted=plain_chk.attempted + chk.attempted,
                 failed=plain_chk.failed + chk.failed,
                 notes=plain_chk.notes + chk.notes, quality=chk.quality)
    return ctx, plain, traced, both, tracer, spans_path


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "gesturemem" / "__init__.py").is_file():
        print(f"perfbench: no gesturemem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gesturemem

    if Path(gesturemem.__file__).resolve().parent != SRC / "gesturemem":
        print(f"perfbench: imported gesturemem from {gesturemem.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    scale = SMOKE if args.smoke else FULL
    wl = WORKLOADS[args.workload]()
    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": environment(),
              "generic": wl.generic}

    if args.trace:
        ctx, plain, m, chk, tracer, spans_path = run_traced(wl, scale, args)
        named = wl.report(ctx, m)
        key = wl.generic["latency_ms_p10"]
        untraced = wl.report(ctx, plain)[key]["value"]
        layers = tracer.layer_metrics(wl.reading_ref_ms / median(m.readings_ms))
        detail["layers"] = layers
        detail["trace_overhead"] = {
            "metric": key, "untraced": untraced, "traced": named[key]["value"],
            "share": named[key]["value"] / untraced - 1.0, "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT))}
        attempted, failed = plain.attempted + m.attempted, plain.failed + m.failed
        result_metrics = {name: {"value": layers[name]["value"],
                                 "unit": layers[name]["unit"]}
                          for name in bench_metric_names("per_layer")}
    else:
        ctx, (setup_wall, setup_ref), m, chk = run_plain(wl, scale, args)
        named = wl.report(ctx, m)
        named["setup_s"] = {"value": median(setup_ref), "unit": "s",
                            "n": len(setup_ref), "percentile": 50.0,
                            "wall": median(setup_wall)}
        detail["setup_runs_s"] = {"wall": setup_wall, "ref": setup_ref}
        attempted, failed = m.attempted, m.failed
        result_metrics = {}
        for name in bench_metric_names("end_to_end"):
            source = named[wl.generic.get(name, name)]
            result_metrics[name] = {"value": source["value"], "unit": source["unit"]}

    detail["host_slowdown"] = median(m.readings_ms) / wl.reading_ref_ms
    attempted += chk.attempted
    failed += chk.failed
    named["failed_share"] = {"value": failed / attempted if attempted else 0.0,
                             "unit": "share", "n": attempted}
    named.update(chk.quality)
    detail["metrics"] = named
    detail["checks"] = {"correct": chk.correct, "notes": chk.notes}

    print_metrics(wl.name, {k: v for k, v in named.items() if "value" in v}, wl.generic)
    if args.trace:
        for name, m_ in detail["layers"].items():
            phase = f" ({m_['phase']})" if m_.get("phase") else ""
            print(f"{wl.name:<12} {name:<48} {m_['value']:>14.6g} {m_['unit']}{phase}")
        ov = detail["trace_overhead"]
        print(f"{wl.name:<12} {'trace overhead on ' + ov['metric']:<48} "
              f"{ov['share'] * 100:>13.2f}% ({ov['untraced']:.4g} -> {ov['traced']:.4g} ms)")
    for note in chk.notes:
        print(f"{wl.name:<12} check: {note}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": bool(chk.correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": result_metrics}))
    return 0


def bench_metric_names(kind):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


if __name__ == "__main__":
    sys.exit(main())
