"""Outside-in benchmark of cirelax's certified CI-implication calls.

Usage, from the repository root:

    python3 bench/run.py --workload dag-mixed --seed 1 --seconds 30 --trace 0

One process and one thread drive the public library API as a closed loop
with a single client: the next query is sent when the previous verdict is
back.  Queries come in blocks of fixed composition (see ``workloads.py``);
whole blocks run until the next one would overrun ``--seconds``, and at
least enough blocks run to fill the workload's ``min_samples``.  Every
verdict is checked after the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over each block and prints the per-layer metrics.
The last line of standard output is one JSON object; lines before it, which
start with ``#``, give the tail percentile, sample count and verdict mix.
See ``bench/README.md`` for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import VALIDATION_TRIALS, WORKLOADS, Instance, Workload, draw_block

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PATHS = ("separated", "single-atom", "parity", "parity-network", "cover")
LAYER_CALLS = (
    "polymatroids.is_polymatroid",
    "distributions.entropic_table.exact",
    "distributions.entropic_table.float",
    "dag.d_separated",
    "lp.simplex_solve",
)
LAYER_SELF = LAYER_CALLS + (
    "distributions.random_distribution",
    "atoms.implies_positive",
    "implication.parity_refutation",
    "lp.elemental_inequalities",
    "core.parse",
)
# Entry points whose self time is the remainder of their layer.
REMAINDERS = {
    "implication": ("implication.check_recursive", "implication.check_marginal",
                    "implication.validate_bound"),
    "lp": ("lp.optimal_lambda",),
}

SETUP_CHILD = """
import json, sys
import cirelax
block = json.load(sys.stdin)
count = 0
for item in block["instances"]:
    if block["kind"] == "dag":
        universe = cirelax.parse_dag(item["lines"]).universe
    else:
        universe = cirelax.Universe(tuple(item["names"]))
        cirelax.parse_ci_lines(item["lines"], universe)
    cirelax.parse_ci_lines([item["query"]], universe)
    count += 1
print(count)
"""


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in output order."""
    units = {}
    for name in LAYER_CALLS:
        units[name + ".calls"] = "count"
    for name in LAYER_SELF:
        units[name + ".self_s"] = "s"
    for layer in REMAINDERS:
        units[layer + ".self_s"] = "s"
    units["lp.simplex_solve.pivots"] = "count"
    units["implication.certify_over_decide"] = "ratio"
    units["implication.refutation_entries"] = "count"
    for path in PATHS:
        units[f"implication.path.{path}.count"] = "count"
        units[f"implication.path.{path}.p50_ms"] = "ms"
    units["tracing.overhead_ratio"] = "ratio"
    return units


class Outcome:
    """One executed query: what came back, how long it took, and whether
    the checks accepted it (``wrong`` is set after the timed region)."""

    __slots__ = ("inst", "seconds", "cert", "report", "lam", "path", "error", "wrong")

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        self.seconds = 0.0
        self.cert = self.report = self.lam = self.error = self.wrong = None
        self.path = ""

    @property
    def ok(self) -> bool:
        return self.error is None and self.wrong is None


def verdict_path(cirelax, out: Outcome) -> str:
    """How the verdict was reached: a recursive or marginal certificate's
    path, or whether the LP was finite."""
    if out.cert is None:
        return "unbounded" if out.lam is cirelax.UNBOUNDED else "finite"
    if out.cert.implied:
        return "separated" if out.cert.kind == "recursive" else "cover"
    return out.cert.refutation_kind


def parse_block(cirelax, kind: str, block: list[Instance]) -> list[tuple]:
    parsed = []
    for inst in block:
        if kind == "dag":
            dag = cirelax.parse_dag(inst.lines)
            (tau,), _ = cirelax.parse_ci_lines([inst.query], dag.universe)
            parsed.append((dag, tau))
        else:
            universe = cirelax.Universe(inst.names)
            sigma, _ = cirelax.parse_ci_lines(inst.lines, universe)
            (tau,), _ = cirelax.parse_ci_lines([inst.query], universe)
            parsed.append((sigma, tau))
    return parsed


def run_query(cirelax, kind: str, inst: Instance, args: tuple, out: Outcome) -> None:
    if kind == "dag":
        out.cert = cirelax.check_recursive(*args)
    elif kind == "marginal":
        sigma, tau = args
        out.cert = cirelax.check_marginal(sigma, tau, inst.n)
        if out.cert.implied:
            out.report = cirelax.validate_bound(
                sigma, tau, out.cert.lam, VALIDATION_TRIALS, inst.trial_seed, inst.n
            )
    else:
        sigma, tau = args
        out.lam = cirelax.optimal_lambda(sigma, tau, inst.n)


def run_pass(cirelax, workload: Workload, block, parsed, query_base, tracer=None):
    """Send the block's queries one after another; returns their outcomes."""
    outcomes = []
    for i, (inst, args) in enumerate(zip(block, parsed)):
        out = Outcome(inst)
        if tracer is not None:
            tracer.query = query_base + i
        start = time.perf_counter()
        try:
            run_query(cirelax, workload.kind, inst, args, out)
        except (cirelax.CIError, cirelax.InternalCheckError) as exc:
            out.error = type(exc).__name__
        except Exception as exc:  # a crash is a failed query, not a dead benchmark
            out.error = type(exc).__name__
            traceback.print_exc(file=sys.stderr)
        out.seconds = time.perf_counter() - start
        if out.error is None:
            out.path = verdict_path(cirelax, out)
        outcomes.append(out)
    return outcomes


def measure_setup(kind: str, block: list[Instance]) -> float:
    """Median wall time of a fresh interpreter importing cirelax and parsing
    the block's input text."""
    payload = json.dumps({
        "kind": kind,
        "instances": [{"names": i.names, "lines": i.lines, "query": i.query} for i in block],
    })
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD], input=payload, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(time.perf_counter() - start)
        if done.stdout.strip() != str(len(block)):
            raise RuntimeError(f"set-up child parsed {done.stdout!r}, expected {len(block)}")
    return statistics.median(times)


def percentile(sorted_values: list[float], p: float) -> float | None:
    """Linear interpolation between closest ranks; ``None`` when it touches
    a failed query, which counts as infinitely slow."""
    pos = p / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    a, b = sorted_values[lo], sorted_values[hi]
    if math.isinf(a) or math.isinf(b):
        return None
    return a + (b - a) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples above
    it; the median when there are too few samples for any."""
    return next(
        (p for p in TAIL_LADDER if samples * (100 - p) / 100 >= TAIL_MIN_BEYOND), TAIL_LADDER[-1]
    )


def check_all(workload: Workload, outcomes: list[Outcome]) -> None:
    import checks

    lp = checks.LPOracle() if workload.kind != "dag" else None
    for out in outcomes:
        if out.error is not None:
            continue
        if workload.kind == "dag":
            out.wrong = checks.check_dag(out.inst, out.cert)
        elif workload.kind == "marginal":
            out.wrong = checks.check_marginal(out.inst, out.cert, out.report, lp)
        else:
            out.wrong = checks.check_lp(out.inst, out.lam, out.path == "unbounded", lp)


def describe(name: str, measured: list[Outcome], checked: list[Outcome], blocks: int) -> list[str]:
    """``#`` lines: the verdict mix and failed ratio of the measured queries,
    and every verdict the checks rejected."""
    mix: dict[str, int] = {}
    for out in measured:
        key = out.path or f"error:{out.error}"
        mix[key] = mix.get(key, 0) + 1
    failed = sum(not o.ok for o in measured)
    lines = [
        f"# {name}: {len(measured)} queries in {blocks} blocks, "
        f"failed_ratio={failed / len(measured):.4f}",
        "# verdict mix: " + ", ".join(f"{k}={v / len(measured):.3f}" for k, v in sorted(mix.items())),
    ]
    lines += [f"# wrong: {o.inst.query} n={o.inst.n}: {o.wrong}" for o in checked if o.wrong]
    return lines


def run(name: str, seed: int, seconds: float, trace: bool, workload: Workload | None = None):
    """Run one workload; returns ``(info_lines, result)``."""
    import cirelax

    workload = workload or WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    min_blocks = max(1, math.ceil(workload.min_samples / workload.block_size))
    block = draw_block(rng, workload)
    setup_s = None if trace else measure_setup(workload.kind, block)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced: list[list[Outcome]] = []  # per block
    traced: list[Outcome] = []
    peak_rss_mb = None
    loop_start = time.perf_counter()
    while True:
        # A traced run passes over each block twice, alternating which pass goes first.
        for traced_pass in ((len(untraced) % 2 == 1, len(untraced) % 2 == 0) if trace else (False,)):
            if traced_pass:
                with tracer.active():
                    tracer.query = -1  # parsing belongs to no single query
                    parsed = parse_block(cirelax, workload.kind, block)
                    traced += run_pass(cirelax, workload, block, parsed, len(traced), tracer)
            else:
                parsed = parse_block(cirelax, workload.kind, block)
                untraced.append(run_pass(cirelax, workload, block, parsed, 0))
        blocks = len(untraced)
        if blocks == min_blocks:
            # Read here so that retained outcomes weigh the same on every version.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - loop_start
        needed = blocks < (1 if trace else min_blocks)
        if not needed and elapsed * (blocks + 1) / blocks > seconds:
            break
        block = draw_block(rng, workload)

    flat = [o for b in untraced for o in b]
    outcomes = flat + traced
    check_all(workload, outcomes)
    info = describe(name, flat, outcomes, blocks)
    result = {
        "correct": all(o.wrong is None for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
    }
    if trace:
        result["metrics"] = layer_metrics(tracer, flat, traced, blocks)
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{name}-{seed}.json"
        tracer.dump(trace_file)
        info.append(f"# spans written to {trace_file.relative_to(ROOT)}")
        return info, result

    p_tail = tail_percentile(min_blocks * workload.block_size)
    latencies = sorted(o.seconds * 1000 if o.ok else math.inf for o in flat)
    values = {
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": percentile(latencies, p_tail),
        "throughput_qps": statistics.median(
            sum(o.ok for o in b) / sum(o.seconds for o in b) for b in untraced
        ),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info.append(f"# latency_tail_ms is p{p_tail:g} over N={len(latencies)}; throughput_qps is "
                f"the median over {blocks} blocks of correct verdicts per second of query time")
    result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    return info, result


def layer_metrics(tracer, untraced: list[Outcome], traced: list[Outcome], blocks: int) -> dict:
    calls, total, own = tracer.totals()
    values: dict[str, float] = {}
    for name in LAYER_CALLS:
        values[name + ".calls"] = calls[name] / blocks
    for name in LAYER_SELF:
        values[name + ".self_s"] = own[name] / 1e9 / blocks
    for layer, roots in REMAINDERS.items():
        values[layer + ".self_s"] = sum(own[r] for r in roots) / 1e9 / blocks
    values["lp.simplex_solve.pivots"] = tracer.counts["lp.simplex_solve.pivots"] / blocks
    decide = total["dag.d_separated"]
    certify = total["implication.check_recursive"] - decide
    values["implication.certify_over_decide"] = certify / decide if decide else 0.0
    values["implication.refutation_entries"] = sum(
        len(o.cert.refutation_table.values)
        + (len(o.cert.refutation_distribution.probs) if o.cert.refutation_distribution else 0)
        for o in traced
        if o.cert is not None and not o.cert.implied
    ) / blocks
    for path in PATHS:
        times = sorted(o.seconds * 1000 for o in untraced if o.ok and o.path == path)
        values[f"implication.path.{path}.count"] = len(times) / blocks
        values[f"implication.path.{path}.p50_ms"] = percentile(times, 50) if times else 0.0
    t_untraced = sum(o.seconds for o in untraced)
    t_traced = sum(o.seconds for o in traced)
    values["tracing.overhead_ratio"] = 1 - t_untraced / t_traced
    units = layer_metric_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cirelax" / "__init__.py").is_file():
        print(f"error: no cirelax sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
