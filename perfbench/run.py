"""thermotrack benchmark: one workload per invocation.

Run from the root of a source checkout (it imports the package from
``./src``):

    python3 perfbench/run.py --workload stream_dense --seed 1 --seconds 25 --trace 0

Workloads: stream_dense, stream_640_external, calibrate, eval_dense (see
perfbench/README.md). ``--trace 0`` measures the unwrapped library and
prints the end-to-end metrics; ``--trace 1`` alternates untraced rounds with
rounds in which every layer is wrapped, and prints the per-layer metrics and
the tracing overhead. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A results file with provenance
and output digests goes to ``.perfbench_results/``; scratch files live in
``.perfbench_work/`` and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

PERF = time.perf_counter
ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_results"
WORK = ROOT / ".perfbench_work"

IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import thermotrack"
IMPORT_SAMPLES = {"full": 5, "smoke": 2}

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB"}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="input size; smoke is the self-test's tiny version",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_library() -> None:
    """Import thermotrack from this checkout's src/, and nowhere else."""
    if not (SRC / "thermotrack" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no thermotrack sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import thermotrack

    if Path(thermotrack.__file__).resolve().parent != (SRC / "thermotrack").resolve():
        raise SystemExit(f"perfbench: imported thermotrack from {thermotrack.__file__}, not {SRC}")


def _import_tree(stderr: str) -> tuple[dict[str, int], int]:
    """Self time in microseconds of every module ``import thermotrack``
    loaded, and the cumulative total, from ``python -X importtime`` output.

    importtime prints a module after its children, indented one step
    deeper, so the package's tree is the run of deeper lines that ends at
    the top-level ``thermotrack`` line.
    """
    rows = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[0]), int(fields[1])))
    end = max(i for i, (depth, name, _, _) in enumerate(rows) if depth == 1 and name == "thermotrack")
    start = end
    while start > 0 and rows[start - 1][0] > 1:
        start -= 1
    return {name: own for _, name, own, _ in rows[start : end + 1]}, rows[end][3]


def import_seconds(samples: int) -> tuple[float, float]:
    """Import time of the package over fresh interpreters: the sum over
    modules of each module's fastest load (the set-up figure), and the
    median total, in seconds."""
    trees, totals = [], []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        tree, total = _import_tree(out.stderr)
        trees.append(tree)
        totals.append(total)
    best = sum(min(tree.get(name, own) for tree in trees) for name, own in trees[0].items())
    return best / 1e6, statistics.median(totals) / 1e6


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": workload.params(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values: list[float]) -> tuple[float, int]:
    """p99 and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return ordered[rank], len(ordered) - rank - 1


def report_lines(workload, tally, setup_s: float, import_s: tuple[float, float]) -> tuple[dict, list[str]]:
    """The workload's metrics under their descriptive names, with units.
    These cover every round of the run, so machine noise shows in them."""
    ops = len(tally.op_times)
    p50_ms = 1000.0 * median(tally.op_times)
    named: dict[str, tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "op_p50_ref": (tally.ref_p50(), "ref"),
        "best_p50_ms": (1000.0 * tally.best_p50(), "ms"),
        "reference_p50_ms": (1000.0 * median(tally.ref_times), "ms"),
    }
    notes = [
        f"setup: import {import_s[0]:.4f} s (each module's fastest load; median total "
        f"{import_s[1]:.4f} s) + construction {median(tally.setup_times):.6f} s "
        f"(median of {len(tally.setup_times)})",
        f"op_p50_ref over {ops} {workload.op_unit}s, each over the reference kernel timed after its round; "
        f"best_p50_ms over {len(tally.rounds)} rounds of {len(tally.rounds[0])} {workload.op_unit}s",
    ]
    if workload.op_unit == "frame":
        p99, beyond = tail(tally.op_times)
        named["frames_per_s"] = (ops / tally.busy_s, "1/s")
        named["frame_p50_ms"] = (p50_ms, "ms")
        named["frame_p99_ms"] = (1000.0 * p99, "ms")
        named["detection_recall"] = (tally.matched / tally.faces if tally.faces else 0.0, "frac")
        named["worst_error_c"] = (tally.worst_error_c, "C")
        notes.append(f"frame latency: {ops} pull intervals, {beyond} beyond p99")
    elif workload.op_unit == "calibration":
        named["calibrate_s"] = (p50_ms / 1000.0, "s")
        notes.append(f"calibrate_s: median of {ops} calibrations")
        kind, cv_mse, cv_r2 = workload.report_top
        notes.append(f"top CV entry {kind} mse={cv_mse:.6f} r2={cv_r2:.6f}; selected {workload.selected}")
    else:
        named["eval_s"] = (p50_ms / 1000.0, "s")
        notes.append(f"eval_s: median of {ops} evaluations")
    named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named["failed_frac"] = (tally.failed / tally.attempted if tally.attempted else 1.0, "frac")
    lines = [f"{name} = {value!r} {unit}" for name, (value, unit) in named.items()]
    return {name: {"value": v, "unit": u} for name, (v, u) in named.items()}, lines + notes


def run(args) -> int:
    import_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")  # the external adapter's scratch dir lands here
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size], work)
        build_start = PERF()
        workload.build()
        build_s = PERF() - build_start
        import_s = import_seconds(IMPORT_SAMPLES[args.size])
        prov = provenance(args, workload)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("provenance " + json.dumps(prov, sort_keys=True))
        print(f"inputs built in {build_s:.3f} s (untimed)")

        # One untimed, checked warm-up round for streams: first-touch page
        # faults and output-file creation are not what a live session pays.
        warm = workloads.Tally()
        if workload.op_unit == "frame":
            workload.round(warm, None)
        result: dict = {"provenance": prov}
        if args.trace:
            tracer = tracing.Tracer()
            base, tally = workloads.measure_traced(workload, args.seconds, tracer)
            metrics = tracing.per_layer(tracer, tally, tally.best_p50() / base.best_p50() - 1.0)
            tally.merge_checks(base)
            tally.merge_checks(warm)
            units = tracing.PER_LAYER_UNITS
            spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
            tracer.dump(spans_path)
            ranking = tracing.self_time_ranking(tracer, len(tally.op_times))
            print(f"traced {len(tally.op_times)} {workload.op_unit}s, {len(tracer.spans)} spans "
                  f"-> {spans_path.relative_to(ROOT)}")
            print(f"self time per {workload.op_unit} (ms): " + ", ".join(f"{n} {v:.4f}" for n, v in ranking[:6]))
            result["self_time_ms_per_op"] = dict(ranking)
        else:
            tally = workloads.measure(workload, args.seconds)
            tally.merge_checks(warm)
            setup_s = import_s[0] + median(tally.setup_times)
            metrics = {
                "setup_s": setup_s,
                "op_p50_ref": tally.ref_p50(),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = END_TO_END_UNITS
            named, lines = report_lines(workload, tally, setup_s, import_s)
            result["named_metrics"] = named
            for line in lines:
                print(line)
        correct = workload.correct(tally) and tally.attempted > 0
        digests = workload.digests()
        for name, digest in digests.items():
            print(f"sha256 {name} {digest}")
        for problem in tally.problems[:20]:
            print(f"FAILED CHECK: {problem}")
        for name, value in metrics.items():
            print(f"{name} = {value!r} {units[name]}")
        final = {
            "correct": bool(correct),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        result.update(final, digests=digests, problems=tally.problems, import_s=import_s)
        RESULTS.mkdir(exist_ok=True)
        results_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        results_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"results -> {results_path.relative_to(ROOT)}")
        print(json.dumps(final))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
