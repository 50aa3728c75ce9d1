#!/usr/bin/env python3
"""hvkit benchmark: three closed-loop workloads, untraced or traced.

    python3 bench/run.py --workload determinize-local --seed 1 --seconds 35 --trace 0
    python3 bench/run.py                  # every workload, untraced

Run from the root of a checkout; the library is imported from ``src/``
of that checkout.  One client sends requests one after another in this
process and thread.  A request is what one CLI command does without
process start-up: ``parse_model_text`` on a model file's text, the
library call, and the result.  Inputs come from ``bench/inputs.py``,
fixed by the seed.  Every output is checked outside the timed region.

With ``--trace 0`` the run replays blocks of inputs until ``--seconds``
of requests have been timed (and at least MIN_REQUESTS requests), and
reports the end-to-end metrics.  With ``--trace 1`` it replays a fixed
number of blocks once untraced and twice traced, and reports per-layer
metrics per request; the two traced passes must agree on every count.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``bench/README.md`` for the metrics and what each should move.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import inputs
import tracing
import verify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("determinize-local", "check-zoo", "realizability")
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())
DEFAULT_SEED = GOLDEN["seed"]
SETUP_REPEATS = 7
MIN_REQUESTS = 100  # so that at least 10 latencies lie beyond p90
GOLDEN_BLOCKS = GOLDEN["blocks"]  # every run completes the blocks the golden digest covers
TRACE_BLOCKS = {"determinize-local": 6, "check-zoo": 10, "realizability": 4}
MIN_SELF_COVERAGE = 0.95
CHECKERS = (
    "check_locality", "check_parameter_independence", "check_outcome_independence",
    "check_lambda_independence", "check_weak_determinism", "check_strong_determinism", "check_all",
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def import_hvkit():
    """Import hvkit from this checkout's src/, never from anywhere else."""
    if not (SRC / "hvkit" / "__init__.py").is_file():
        raise BenchError(f"no hvkit sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import hvkit
    import hvkit.cli

    if Path(hvkit.__file__).resolve().parent != SRC / "hvkit":
        raise BenchError(f"imported hvkit from {hvkit.__file__}, expected {SRC / 'hvkit'}")
    return hvkit


def request_function(workload, hvkit):
    """One request of the workload, as the CLI would run it.

    Library functions are looked up on their modules at call time, so
    the tracer's rebinding is seen.
    """
    cli, determinize = hvkit.cli, hvkit.determinize
    properties, realizability = hvkit.properties, hvkit.realizability
    precondition_error = hvkit.PreconditionError

    def determinize_local(text):
        model = cli.parse_model_text(text)
        try:
            return cli.serialize_model(determinize.determinize_local(model))
        except precondition_error as exc:
            return verify.Precondition(str(exc))

    def check_zoo(text):
        return properties.check_all(cli.parse_model_text(text))

    def local_realizability(text):
        return realizability.local_hvm_exists(cli.parse_model_text(text))

    return {
        "determinize-local": determinize_local,
        "check-zoo": check_zoo,
        "realizability": local_realizability,
    }[workload]


# -- checking ------------------------------------------------------------------


class Outcomes:
    """Attempted and failed requests, and the golden digest of the first blocks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.golden = hashlib.sha256()

    def record(self, requests, results, in_golden):
        for request, (result, error) in zip(requests, results):
            self.attempted += 1
            problem = error or verify.CHECKS[self.workload](request, result)
            if problem:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{request.kind}: {problem}")
            if in_golden:
                self.golden.update(b"error\n" if error else verify.digest(self.workload, result))


def run_block(call, requests):
    """Time each request; an exception is a failed request, not the end of the run."""
    results, latencies = [], []
    for request in requests:
        error = None
        result = None
        start = time.perf_counter()
        try:
            result = call(request.text)
        except Exception:
            error = traceback.format_exc()
            sys.stderr.write(error)
            error = error.strip().splitlines()[-1]
        latencies.append(time.perf_counter() - start)
        results.append((result, error))
    return results, latencies


# -- set-up --------------------------------------------------------------------


def setup_once(workload, seed):
    """Import, generate and serialize the first block, run one warm-up request."""
    hvkit = import_hvkit()
    next(inputs.blocks(workload, seed))
    call = request_function(workload, hvkit)
    call(inputs.warmup(workload, seed).text)
    return hvkit, call


def measure_setup(workload, seed):
    """Median set-up time over fresh processes, each with its own imports."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed: {child.stderr.strip()[-500:]}")
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times), times


# -- untraced run --------------------------------------------------------------


def run_untraced(workload, seed, seconds):
    setup_s, setup_samples = measure_setup(workload, seed)
    hvkit, call = setup_once(workload, seed)
    outcomes = Outcomes(workload)
    latencies, block_rates = [], []
    measured = 0.0
    for index, requests in enumerate(inputs.blocks(workload, seed)):
        if measured >= seconds and len(latencies) >= MIN_REQUESTS and index >= GOLDEN_BLOCKS:
            break
        start = time.perf_counter()
        results, block_latencies = run_block(call, requests)
        elapsed = time.perf_counter() - start
        outcomes.record(requests, results, index < GOLDEN_BLOCKS)
        latencies += block_latencies
        block_rates.append(len(requests) / elapsed)
        measured += elapsed

    percentiles = statistics.quantiles(latencies, n=100)
    metrics = {
        "ops_per_s": (statistics.median(block_rates), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_p90_ms": (percentiles[89] * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "requests": len(latencies),
        "blocks": index,
        "measured_s": measured,
        "setup_samples_s": setup_samples,
    }
    return outcomes, metrics, notes


# -- traced run ----------------------------------------------------------------


def run_traced(workload, seed):
    """Each trace block once untraced, then under each of two tracers.

    Interleaving the three passes block by block keeps them close in
    time, so drift in machine speed does not enter the overhead figure.
    """
    hvkit, call = setup_once(workload, seed)
    outcomes = Outcomes(workload)
    tracers = (tracing.Tracer(), tracing.Tracer())
    untraced_s, traced_s, requests = 0.0, [0.0 for _ in tracers], 0
    trace_blocks = itertools.islice(inputs.blocks(workload, seed), TRACE_BLOCKS[workload])
    for index, block in enumerate(trace_blocks):
        start = time.perf_counter()
        results, _ = run_block(call, block)
        untraced_s += time.perf_counter() - start
        outcomes.record(block, results, index < GOLDEN_BLOCKS)
        for i, tracer in enumerate(tracers):
            tracer.install(hvkit)
            try:
                start = time.perf_counter()
                results, _ = run_block(lambda text: tracer.request(call, text), block)
                traced_s[i] += time.perf_counter() - start
            finally:
                tracer.uninstall()
            outcomes.record(block, results, False)
        requests += len(block)

    passes = [tracing.aggregate(tracer.spans) for tracer in tracers]
    first, second = passes
    if first.counts() != second.counts():
        diff = sorted(set(first.counts().items()) ^ set(second.counts().items()))
        raise BenchError(f"traced passes disagree on counts: {diff[:6]}")
    for trace, seconds in zip(passes, traced_s):
        if trace.covered_ms < MIN_SELF_COVERAGE * seconds * 1000.0:
            raise BenchError(
                f"layer self time covers {trace.covered_ms / seconds / 10.0:.1f}% of traced wall time, "
                f"below {MIN_SELF_COVERAGE:.0%}: a call path is not traced"
            )

    metrics = per_layer_metrics(passes, requests)
    untraced_ops = requests / untraced_s
    traced_ops = len(tracers) * requests / sum(traced_s)
    metrics["trace.self_coverage_pct"] = (sum(t.covered_ms for t in passes) / sum(traced_s) / 10.0, "%")
    metrics["trace.untraced_ops_per_s"] = (untraced_ops, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_ops, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_ops / traced_ops - 1.0), "%")
    notes = {"requests_per_pass": requests, "blocks": TRACE_BLOCKS[workload]}
    return outcomes, metrics, notes


def per_layer_metrics(passes, requests):
    """Per-request layer metrics: counts from the first pass, times averaged over all."""
    first = passes[0]

    def count(name, key):
        return first.stats.get(name, {}).get(key, 0) / requests

    def mean_ms(pick):
        return sum(pick(trace) for trace in passes) / len(passes) / requests

    def span_ms(name, key):
        return mean_ms(lambda trace: trace.stats.get(name, {}).get(key, 0.0))

    def stage_ms(key):
        return mean_ms(lambda trace: trace.stages.get(key, 0.0))

    m = {}
    for op in ("construct", "conditional", "marginal", "reorder", "product", "fuse_factors"):
        name = f"measure.{op}"
        m[f"{name}.calls"] = (count(name, "calls"), "count/req")
        m[f"{name}.self_ms"] = (span_ms(name, "self_ms"), "ms/req")
    m["measure.construct.atoms"] = (count("measure.construct", "atoms"), "count/req")
    m["models.named_marginals.calls"] = (count("models.named_marginals", "calls"), "count/req")
    for name in ("fiber.fiber_product", "fiber.is_fiber_product"):
        m[f"{name}.calls"] = (count(name, "calls"), "count/req")
        m[f"{name}.self_ms"] = (span_ms(name, "self_ms"), "ms/req")
    m["fiber.fiber_product.atoms_out"] = (count("fiber.fiber_product", "atoms_out"), "count/req")
    for checker in CHECKERS:
        name = f"properties.{checker}"
        m[f"{name}.calls"] = (count(name, "calls"), "count/req")
        m[f"{name}.ms"] = (span_ms(name, "ms"), "ms/req")

    det = "determinize.determinize_local"
    m[f"{det}.calls"] = (count(det, "calls"), "count/req")
    for stage in ("precheck", "interval_partition", "fiber", "fuse", "selfcheck"):
        m[f"determinize.{stage}.ms"] = (stage_ms(f"determinize.{stage}.ms"), "ms/req")
    m["determinize.cells_a"] = (count("determinize.refined_cells", "cells_a"), "count/req")
    m["determinize.cells_b"] = (count("determinize.refined_cells", "cells_b"), "count/req")
    m["determinize.lam_out"] = (count(det, "lam_out"), "count/req")
    m["determinize.atoms_out"] = (count(det, "atoms_out"), "count/req")

    lp = "simplex.solve_feasibility"
    m[f"{lp}.calls"] = (count(lp, "calls"), "count/req")
    m[f"{lp}.ms"] = (span_ms(lp, "ms"), "ms/req")
    for key in ("rows", "cols", "tableau_cells"):
        m[f"simplex.{key}"] = (count(lp, key), "count/req")

    hvm = "realizability.local_hvm_exists"
    for size in ("2x2", "3x3", "4x4"):
        calls = first.stages.get(f"{hvm}.calls.{size}", 0)
        per_call = stage_ms(f"{hvm}.ms.{size}") * requests / calls if calls else 0.0
        m[f"{hvm}.ms.{size}"] = (per_call, "ms/call")
    m["realizability.strategies"] = (count("realizability.enumerate_strategies", "strategies"), "count/req")
    m["realizability.feasible"] = (count(hvm, "feasible"), "count/req")
    m["realizability.infeasible"] = (count(hvm, "infeasible"), "count/req")
    m["realizability.recheck.ms"] = (stage_ms("realizability.recheck.ms"), "ms/req")

    m["cli.parse_model_text.ms"] = (span_ms("cli.parse_model_text", "ms"), "ms/req")
    m["cli.serialize_model.ms"] = (span_ms("cli.serialize_model", "ms"), "ms/req")
    m["cli.bytes_in"] = (count("cli.parse_model_text", "bytes_in"), "count/req")
    m["cli.bytes_out"] = (count("cli.serialize_model", "bytes_out"), "count/req")

    for layer in tracing.LAYERS:
        m[f"layer.{layer}.self_ms"] = (
            mean_ms(lambda trace: sum(e["self_ms"] for n, e in trace.stats.items() if n.startswith(layer + "."))),
            "ms/req",
        )
    return m


# -- reporting -----------------------------------------------------------------


def git_sha():
    """HEAD of the checkout, read from .git without leaving it; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata():
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def check_golden(workload, seed, outcomes):
    """Compare the digest of the first blocks with golden.json, for its seed only."""
    if seed != GOLDEN["seed"]:
        return None
    actual = outcomes.golden.hexdigest()
    if actual != GOLDEN["sha256"][workload]:
        outcomes.failed += 1
        outcomes.problems.append(f"golden digest {actual} != {GOLDEN['sha256'][workload]}")
    return actual


def report(workload, seed, trace, outcomes, metrics, notes, meta_start):
    golden = check_golden(workload, seed, outcomes)
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        **meta_start,
        "loadavg_end": os.getloadavg(),
        "golden_sha256": golden,
        **notes,
    }
    print("# meta " + json.dumps(meta))
    for problem in outcomes.problems:
        print(f"# FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    print(f"{workload} fail_ratio = {outcomes.failed / outcomes.attempted:.6g} (failed / attempted)")
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def run_all(args):
    """Every workload in its own process; metric names gain a workload prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"# {workload}: exit code {child.returncode}")
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
        status = status or (0 if result["correct"] else 1)
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe_setup:
            setup_once(args.workload, args.seed)
            print(time.perf_counter() - _STARTED)
            return 0
        if args.workload == "all":
            return run_all(args)
        meta_start = run_metadata()
        if args.trace:
            outcomes, metrics, notes = run_traced(args.workload, args.seed)
        else:
            outcomes, metrics, notes = run_untraced(args.workload, args.seed, args.seconds)
    except (BenchError, tracing.BindingMissed) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = report(args.workload, args.seed, args.trace, outcomes, metrics, notes, meta_start)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
