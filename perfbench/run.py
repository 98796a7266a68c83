"""Closed-loop benchmark of the mbplace command line.

One caller runs a workload's CLI calls in process through
``mbplace.cli.main(argv)``, each after the previous one returns, cycling
through the workload's call list until ``--seconds`` have gone by and at
least one pass is complete. Every output is checked by a solver-independent
validator outside the timed window.

    python3 perfbench/run.py --workload greedy_geo --seed 0 --seconds 40 --trace 0

Run it from the root of an mbplace checkout: it imports ``src/mbplace`` from
there and writes its scratch files under ``.bench_work/`` (spans of a traced
run under ``.bench_out/``). The last line of standard output is the result as
JSON; the lines before it are a human-readable record of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import io
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import validate
from workloads import WORKLOADS

DEFAULT_SEED = 0
# Cold imports of mbplace timed per run; setup_s is their median.
SETUP_REPEATS = 21
DIGESTS = Path(__file__).with_name("digests.json")

# End-to-end metrics of an untraced run, in output order: name -> unit.
END_TO_END = {
    "solve_s.p50": "s",
    "placed_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "middleboxes_total": "count",
}
# Printed with them but left out of the result, see ``end_to_end``.
PRINTED_ONLY = {"solve_s.p90": "s", "fail_ratio": "ratio", "approx_ratio.mean": "ratio",
                "inputs_s": "s"}


@dataclass
class CallResult:
    label: str
    seconds: float
    error: str | None = None
    outcome: validate.Outcome | None = None
    wrong_output: bool = False  # the call wrote an output the checks rejected


def run_call(cli, call, expected_digest: str | None) -> CallResult:
    """Time one ``main(argv)`` call, then validate what it wrote."""
    call.out.unlink(missing_ok=True)
    captured = io.StringIO()
    error = None
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        try:
            code = cli.main(call.argv)
        except (Exception, SystemExit) as exc:  # one failed call; the run goes on
            code, error = None, f"crashed: {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit {code}: {captured.getvalue().strip()}"
    if error is not None:
        return CallResult(call.label, seconds, error)
    try:
        text = call.out.read_text()
        outcome = call.check(text)
        if expected_digest is not None and validate.digest(text, call.kind) != expected_digest:
            raise validate.Invalid("output digest differs from the recorded one")
    except Exception as exc:  # any validator failure marks the call failed
        return CallResult(call.label, seconds, f"invalid: {type(exc).__name__}: {exc}",
                          wrong_output=True)
    return CallResult(call.label, seconds, None, outcome)


def run_calls(cli, calls, seconds: float, digests: dict, *, whole_passes: bool,
              tracer=None):
    """Cycle through ``calls`` until ``seconds`` have gone by, always finishing
    the first pass, and every pass when ``whole_passes`` is set."""
    results: list[CallResult] = []
    deadline = time.perf_counter() + seconds
    while (len(results) < len(calls) or time.perf_counter() < deadline
           or whole_passes and len(results) % len(calls)):
        call = calls[len(results) % len(calls)]
        if tracer is not None:
            tracer.call = len(results)
        results.append(run_call(cli, call, digests.get(call.label)))
    return results


def cold_import():
    """Import ``mbplace.cli`` with no mbplace module loaded; returns the module
    and the time taken."""
    for name in [m for m in sys.modules if m == "mbplace" or m.startswith("mbplace.")]:
        del sys.modules[name]
    start = time.perf_counter()
    cli = importlib.import_module("mbplace.cli")
    return cli, time.perf_counter() - start


def percentile_rank(results: list[CallResult], q: float) -> float:
    """Nearest-rank percentile of call times; a failed call ranks above every
    success."""
    ranked = sorted(results, key=lambda r: (r.error is not None, r.seconds))
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)].seconds


def end_to_end(results, per_pass: int, setup_times, inputs_s: float
               ) -> dict[str, tuple[float, int]]:
    """Every end-to-end metric as (value, sample count). The last four are
    only printed: ``solve_s.p90`` has ten samples above it on ``desk_cli``
    alone, ``fail_ratio`` is 0 on a good run, ``approx_ratio.mean`` exists
    on ``desk_cli`` alone and ``inputs_s`` times the benchmark's own
    generators, not mbplace."""
    ok = [r for r in results if r.error is None]
    first = [r.outcome for r in results[:per_pass] if r.error is None]
    boxes = [o.middleboxes for o in first if o.middleboxes is not None]
    ratios = [o.approx_ratio for o in first if o.approx_ratio is not None]
    times = [r.seconds for r in results]
    return {
        "solve_s.p50": (statistics.median(times), len(times)),
        "placed_per_s": (sum(r.outcome.served for r in ok) / sum(times), len(times)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "middleboxes_total": (float(sum(boxes)), len(boxes)),
        "solve_s.p90": (percentile_rank(results, 0.9), len(times)),
        "fail_ratio": ((len(results) - len(ok)) / len(results), len(results)),
        "approx_ratio.mean": (statistics.fmean(ratios) if ratios else float("nan"), len(ratios)),
        "inputs_s": (inputs_s, 1),
    }


def run_record(root: Path, args, calls, results) -> str:
    commit = ""
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((root / "src" / "mbplace").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"run: workload={args.workload} seed={args.seed} trace={args.trace} "
            f"commit={commit or 'unknown'} src_sha256={src.hexdigest()[:12]} "
            f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
            f"calls={len(results)} passes={len(results) / len(calls):.2f} "
            f"calls_per_pass={len(calls)}")


def print_table(rows: dict[str, tuple[float, str, int]]) -> None:
    print(f"{'metric':34} {'value':>14} {'unit':6} {'n':>6}")
    for name, (value, unit, n) in rows.items():
        print(f"{name:34} {value:14.6g} {unit:6} {n:6d}")


def operations(results) -> tuple[int, int]:
    """(attempted, failed) over the workload's distinct calls. The loop
    repeats each call for timing, and a call fails if any of its repeats
    fails. Counting repeats would make both numbers depend on how many passes
    fit in the run's time rather than on the seed and the code."""
    failed = {r.label for r in results if r.error is not None}
    return len({r.label for r in results}), len(failed)


def failures(results) -> None:
    """One line per failed call, with how many times it failed."""
    failed: dict[str, list[str]] = {}
    for r in results:
        if r.error is not None:
            failed.setdefault(r.label, []).append(r.error)
    for label, errors in failed.items():
        print(f"FAILED {label} ({len(errors)}x): {errors[0]}")


def write_spans(root: Path, args, tracer) -> Path:
    out = root / ".bench_out" / f"spans-{args.workload}.jsonl.gz"
    out.parent.mkdir(exist_ok=True)
    with gzip.open(out, "wt") as fh:
        fh.write(json.dumps(spans.Span._fields) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps(s, separators=(",", ":")) + "\n")
    return out


def measure(root: Path, args, workdir: Path) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        cli, seconds = cold_import()
        setup_times.append(seconds)
    start = time.perf_counter()
    calls = WORKLOADS[args.workload](args.seed, workdir)
    inputs_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: mbplace was imported from {cli.__file__}, not {root / 'src'}")
    digests = {}
    if args.seed == DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text())[args.workload]
    run_call(cli, calls[0], None)  # warm-up, untimed
    if not args.trace:
        results = run_calls(cli, calls, args.seconds, digests, whole_passes=False)
        units = END_TO_END | PRINTED_ONLY
        rows = {name: (value, units[name], n) for name, (value, n)
                in end_to_end(results, len(calls), setup_times, inputs_s).items()}
        metrics = {name: rows[name][:2] for name in END_TO_END}
    else:
        untraced = run_calls(cli, calls, args.seconds / 2, digests, whole_passes=True)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_calls(cli, calls, 0, digests, whole_passes=True, tracer=tracer)
        results = untraced + traced
        overhead = (sum(r.seconds for r in traced) / len(traced)
                    / (sum(r.seconds for r in untraced) / len(untraced)))
        layer = spans.layer_metrics(tracer.spans)
        units = {name: unit for name, unit, _ in spans.METRICS}
        rows = {name: (value, units[name], 1) for name, value in layer.items()}
        rows["trace.overhead_ratio"] = (overhead, "ratio", 1)
        metrics = {name: row[:2] for name, row in rows.items()}
        top = max(spans.LAYERS, key=lambda name: layer[f"{name}.self_s"])
        print(f"spans: {len(tracer.spans)} written to {write_spans(root, args, tracer)}")
        print(f"largest self time: {top} ({layer[f'{top}.self_s']:.4g} s per pass)")
    print(run_record(root, args, calls, results))
    print_table(rows)
    failures(results)
    attempted, failed = operations(results)
    return {
        # A call that exits non-zero or crashes fails without an output; the
        # outputs are wrong only when a written one fails validation.
        "correct": not any(r.wrong_output for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "mbplace" / "cli.py").is_file():
        print(f"error: no src/mbplace under {root}; run from the root of an mbplace checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_work"))
    try:
        result = measure(root, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / ".bench_work").rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
