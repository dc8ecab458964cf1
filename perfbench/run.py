"""pbw benchmark: three closed-loop workloads with independent correctness gates.

    python3 perfbench/run.py --workload confluence|straighten|coxeter|all
                             [--seed N] [--seconds S] [--trace 0|1]

One process, one thread, one item at a time.  A run repeats whole passes
over the workload's seeded items until `--seconds` of item time has been
measured (at least one pass), gates the first pass with checks that share
no code with pbw, and requires every later pass to reproduce its output
digest.  Times are reported at the reference speed of speed.py, so that a
shared host's changing speed cancels out.  `--trace 1` adds one traced
pass and reports per-layer metrics instead of the end-to-end ones.  The
last line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  A failed gate exits 1 without printing it.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_DIR = ROOT / ".perfbench-trace"
SETUP_SAMPLES = 7
LAYERS = ("presentation", "tensor", "normalizer", "holonomy", "coxeter", "geometry", "cli")

sys.path.insert(0, str(BENCH_DIR))
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from oracle import GateError  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

END_TO_END = {"setup_s": "s", "verdict_s": "s", "item_p50_ms": "ms",
              "item_p99_ms": "ms", "peak_rss_mb": "MB"}

# (metric, unit, traced layer, statistic of that layer)
LAYER_STATS = [
    ("presentation.parse.self_s", "s", "presentation.parse_presentation", "setup_self_s"),
    ("presentation.bracket.calls", "count", "presentation.bracket", "calls"),
    ("presentation.jacobi_defect.self_s", "s", "presentation.jacobi_defect", "self_s"),
    ("tensor.construct.calls", "count", "tensor.construct", "calls"),
    ("tensor.construct.self_s", "s", "tensor.construct", "self_s"),
    ("tensor.add.calls", "count", "tensor.add", "calls"),
    ("tensor.add.self_s", "s", "tensor.add", "self_s"),
    ("tensor.scale.calls", "count", "tensor.scale", "calls"),
    ("tensor.scale.self_s", "s", "tensor.scale", "self_s"),
    ("tensor.bracket_in_context.calls", "count", "tensor.bracket_in_context", "calls"),
    ("tensor.bracket_in_context.self_s", "s", "tensor.bracket_in_context", "self_s"),
    ("normalizer.normalize.calls", "count", "normalizer.normalize", "calls"),
    ("normalizer.normalize.self_s", "s", "normalizer.normalize", "self_s"),
    ("normalizer.rewrite_steps", "count", "normalizer.swap_reduce_at", "calls"),
    ("normalizer.swap_reduce_at.self_s", "s", "normalizer.swap_reduce_at", "self_s"),
    ("normalizer.descents.calls", "count", "normalizer.descents", "calls"),
    ("normalizer.descents.self_s", "s", "normalizer.descents", "self_s"),
    ("normalizer.oracle.calls", "count", "normalizer.normalize_all_ways", "calls"),
    ("normalizer.oracle.self_s", "s", "normalizer.normalize_all_ways", "self_s"),
    ("holonomy.transport_loop.calls", "count", "holonomy.transport_loop", "calls"),
    ("holonomy.transport_loop.self_s", "s", "holonomy.transport_loop", "self_s"),
    ("holonomy.transport_step.calls", "count", "holonomy.transport_step", "calls"),
    ("holonomy.transport_step.self_s", "s", "holonomy.transport_step", "self_s"),
    ("holonomy.hexagon_defect.calls", "count", "holonomy.hexagon_defect", "calls"),
    ("holonomy.hexagon_defect.self_s", "s", "holonomy.hexagon_defect", "self_s"),
    ("coxeter.contract_loop.calls", "count", "coxeter.contract_loop", "calls"),
    ("coxeter.contract_loop.self_s", "s", "coxeter.contract_loop", "self_s"),
    ("coxeter.replay.self_s", "s", "coxeter.replay", "self_s"),
    ("coxeter.census_by_cosets.self_s", "s", "coxeter.codim2_census_by_cosets", "self_s"),
    ("geometry.render_svg.self_s", "s", "geometry.render_svg", "self_s"),
    ("cli.parse_expression.self_s", "s", "cli.parse_expression", "self_s"),
    ("cli.format_element.self_s", "s", "cli.format_element", "self_s"),
]

# Metrics of the traced run that are not one layer statistic.
PER_LAYER_EXTRA = {
    "tensor.add.terms_mean": "terms", "tensor.terms_peak": "terms",
    "normalizer.oracle.states": "count", "normalizer.oracle.states_per_word": "states/word",
    "holonomy.remainder_terms_peak": "terms", "coxeter.certificate_moves": "count",
    "coxeter.moves_per_letter": "moves/letter", "coxeter.budget_failures": "count",
    "fail_frac": "ratio", "trace.overhead_frac": "ratio", "trace.coverage_frac": "ratio",
}


def measure_setup() -> tuple[float, float]:
    """Median seconds to import pbw and parse the six tables, each sample in
    a fresh interpreter, so imports are not already cached: scaled to the
    reference speed, and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), str(ROOT)],
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        elapsed, kernel = map(float, proc.stdout.split())
        scaled.append(elapsed * speed.REF_KERNEL_S / kernel)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def import_pbw():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    pbw = importlib.import_module("pbw")
    if Path(pbw.__file__).resolve().parent != (ROOT / "src" / "pbw").resolve():
        raise RuntimeError(f"imported pbw from {pbw.__file__}, not from {ROOT / 'src'}")
    for layer in LAYERS:
        importlib.import_module(f"pbw.{layer}")
    return pbw


class Pass:
    """One closed-loop pass over all items: outputs, latencies, failures.

    The speed kernel is timed before the first item, after any item that
    ends 50 ms or more after the last kernel run, and after the last item.
    Each item's latency is scaled by the mean of the two kernel times around
    it (see speed.py); `raw_latency` keeps the clock's reading.
    """

    SAMPLE_EVERY_S = 0.05

    def __init__(self, workload, items, tracer=None):
        self.state = workload.new_state()
        self.outputs = [None] * len(items)
        self.failures: dict[int, Exception] = {}
        raw = [0.0] * len(items)
        segment = [0] * len(items)
        run, state, clock = workload.run, self.state, time.perf_counter
        kernel = [speed.sample()]
        last = clock()
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item = idx
            t0 = clock()
            try:
                self.outputs[idx] = run(state, item)
            except Exception as exc:  # an engine error is this item's verdict
                self.failures[idx] = exc
            t1 = clock()
            raw[idx] = t1 - t0
            segment[idx] = len(kernel) - 1
            if t1 - last >= self.SAMPLE_EVERY_S:
                kernel.append(speed.sample())
                last = clock()
        if tracer is not None:
            tracer.item = None
        kernel.append(speed.sample())
        scale = [2 * speed.REF_KERNEL_S / (a + b) for a, b in zip(kernel, kernel[1:])]
        self.raw_latency = raw
        self.latency = [t * scale[s] for t, s in zip(raw, segment)]
        self.raw_verdict_s = sum(raw)
        self.verdict_s = sum(self.latency)


def percentile(sorted_values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Run:
    """One workload at one seed: set-up, untraced passes, optional traced pass."""

    def __init__(self, name: str, seed: int, size: float = 1.0):
        self.setup_s, self.raw_setup_s = measure_setup()
        self.pbw = import_pbw()
        self.seed = seed
        self.workload = WORKLOADS[name](Context(self.pbw, ROOT), size)
        self.items = self.workload.build(random.Random(f"{name}:{seed}"))
        self.passes: list[Pass] = []
        self.digest: str | None = None

    def add(self, p: Pass) -> dict:
        """Gate the first pass, hold later ones to its digest, then keep only
        the pass's timings and failures.  Returns the pass's own counts."""
        wl, failed = self.workload, set(p.failures)
        if self.digest is None:
            wl.check(self.items, p.outputs, failed)
            self.digest = wl.digest(self.items, p.outputs, failed)
        elif wl.digest(self.items, p.outputs, failed) != self.digest:
            raise GateError(
                f"{wl.name}: pass {len(self.passes) + 1} output differs from pass 1")
        counts = wl.counts(self.items, p.outputs, p.state, p.failures)
        p.outputs = p.state = None
        self.passes.append(p)
        return counts

    def measure(self, seconds: float) -> dict[str, float]:
        # Memory is read after the first pass, before its gates: how many
        # passes fit in `seconds` depends on the host, and freed memory from
        # one pass is not always returned before the next.
        first = Pass(self.workload, self.items)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.add(first)
        while sum(p.raw_verdict_s for p in self.passes) < seconds:
            self.add(Pass(self.workload, self.items))
        self.raw = {"setup_s": self.raw_setup_s,
                    **self._timings("raw_verdict_s", "raw_latency")}
        return {"setup_s": self.setup_s, **self._timings("verdict_s", "latency"),
                "peak_rss_mb": peak_rss_mb}

    def _timings(self, verdict: str, latency: str) -> dict[str, float]:
        ordered = sorted(t for p in self.passes for t in getattr(p, latency))
        p50, _ = percentile(ordered, 0.50)
        p99, self.beyond_p99 = percentile(ordered, 0.99)
        return {"verdict_s": statistics.median(getattr(p, verdict) for p in self.passes),
                "item_p50_ms": p50 * 1e3, "item_p99_ms": p99 * 1e3}

    def trace(self) -> dict[str, float]:
        """One more pass with every public pbw function wrapped."""
        untraced = statistics.median(p.verdict_s for p in self.passes)
        tracer = tracing.Tracer()
        tracer.install(self.pbw)
        try:
            tracer.item = tracing.SETUP_ITEM
            for text in self.workload.ctx.texts.values():
                self.pbw.presentation.parse_presentation(text)
            tracer.item = None
            p = Pass(self.workload, self.items, tracer)
        finally:
            tracer.uninstall()
        metrics = dict.fromkeys(PER_LAYER_EXTRA, 0)
        metrics.update(self.add(p))
        name = self.workload.name
        tracer.write(TRACE_DIR / name, {"workload": name, "seed": self.seed,
                                        "raw_verdict_s": p.raw_verdict_s})
        layers = tracer.layers()
        for metric, _, layer, stat in LAYER_STATS:
            metrics[metric] = layers.get(layer, {}).get(stat, 0)
        adds = metrics["tensor.add.calls"]
        metrics.update({
            "tensor.add.terms_mean": tracer.add_terms / adds if adds else 0,
            "tensor.terms_peak": tracer.terms_peak,
            "holonomy.remainder_terms_peak": tracer.remainder_peak,
            "trace.overhead_frac": p.verdict_s / untraced - 1,
            "trace.coverage_frac": sum(s["self_s"] for s in layers.values()) / p.raw_verdict_s,
        })
        return metrics

    def failures(self) -> dict[int, tuple[Exception, int]]:
        """Failed item -> (its last exception, passes it failed in)."""
        out: dict[int, tuple[Exception, int]] = {}
        for p in self.passes:
            for idx, exc in p.failures.items():
                out[idx] = (exc, out.get(idx, (exc, 0))[1] + 1)
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: float = 1.0) -> dict:
    """Run one workload, print the readable report, return the result line."""
    run = Run(name, seed, size)
    e2e = run.measure(seconds)
    untraced = len(run.passes)
    layers = run.trace() if trace else None
    attempted = len(run.items) * len(run.passes)
    failed = sum(len(p.failures) for p in run.passes)

    print(f"workload {name} seed {seed}: {len(run.items)} items x {untraced} untraced "
          f"pass(es){' + 1 traced pass' if trace else ''}")
    notes = {"setup_s": f"median of {SETUP_SAMPLES} fresh interpreters",
             "peak_rss_mb": "after the first pass",
             "verdict_s": f"median of {untraced} pass(es)",
             "item_p99_ms": f"{len(run.items) * untraced} item samples, "
                            f"{run.beyond_p99} beyond p99"}
    for metric, unit in END_TO_END.items():
        about = [f"raw {run.raw[metric]:.6g} {unit}"] if metric in run.raw else []
        about += [notes[metric]] if metric in notes else []
        print(f"  {metric:<16} {e2e[metric]:.6g} {unit}  ({', '.join(about)})")
    print(f"  {'fail_frac':<16} {failed / attempted:.6g} ratio  "
          f"{failed} failed of {attempted} attempted")
    for idx, (exc, count) in sorted(run.failures().items()):
        print(f"  FAILED item {idx} ({run.workload.witness(run.items[idx])}) in {count} of "
              f"{len(run.passes)} passes: {type(exc).__name__}: {exc}")
    print(f"  digest sha256 {run.digest}")

    if trace:
        layers["fail_frac"] = failed / attempted
        units = {m: u for m, u, _, _ in LAYER_STATS} | PER_LAYER_EXTRA
        for metric, value in layers.items():
            print(f"  {metric:<36} {value:.6g} {units[metric]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v
                    for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
