"""Run one ladderlab benchmark workload and print its metrics.

    python3 bench/run.py --workload exp-rsa --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones of BENCHMARK.json, measured with tracing off, each op timed against
the same op on the frozen copy in bench/ladderlab_seed/; with `--trace 1`
they are the per-layer ones, taken from spans recorded around every call
into the package (see GUIDE.md).  The spans and their summary are written
to bench/out/.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

from spans import NullTracer, Tracer, timing_summary
from workloads import WORKLOADS, load_lib, run_to_end

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7  # fresh processes per run for setup_s and cli.import.ms
UNTRACED_SHARE = 0.25  # of --seconds, run untraced in a traced run to price the tracing


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as fh:
        return json.load(fh)


def load_program():
    """Import ladderlab from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ladderlab", "__init__.py")):
        fail(f"no ladderlab sources under {os.path.relpath(SRC)}/")
    sys.path.insert(0, SRC)
    import ladderlab

    if not os.path.abspath(ladderlab.__file__).startswith(SRC + os.sep):
        fail(f"ladderlab was imported from {ladderlab.__file__}, not from this checkout")


def fresh_process(code):
    """Run `code` in a new interpreter with this checkout's sources; return (wall s, stdout)."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code], capture_output=True, text=True, timeout=120
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"fresh-process set-up failed:\n{proc.stderr}")
    return wall, proc.stdout


def setup_seconds(workload):
    """Interpreter start, import and the workload's one-time set-up, in fresh processes."""
    return median(fresh_process(workload.setup_code)[0] for _ in range(SETUP_REPEATS))


def cli_import_ms():
    code = ("import time; t = time.perf_counter(); import ladderlab.cli; "
            "print(time.perf_counter() - t)")
    return median(float(fresh_process(code)[1]) for _ in range(SETUP_REPEATS)) * 1e3


class OpLog:
    """Per-op wall times, seed-copy time and failures of one workload in one run."""

    def __init__(self):
        self.times = []
        self.seed_time = 0.0  # time of the same ops on the frozen seed copy
        self.attempted = 0
        self.failed = 0

    def run(self, workload, tracer, i, timed=True, seed_copy=None):
        """One op on pool input i; with `seed_copy`, interleaved with the same op on it."""
        idx = i % len(workload.inputs)
        tracer.begin_op(workload.name, idx)
        self.attempted += 1
        try:
            if seed_copy is None:
                t0 = time.perf_counter()
                result = run_to_end(workload.run_op(idx, tracer))
                elapsed = time.perf_counter() - t0
            else:
                steps = (workload.run_op(idx, tracer), seed_copy.run_op(idx, tracer))
                (elapsed, seed_elapsed), (result, _) = interleave(steps, program_first=i % 2)
            ok = workload.check(idx, result)
        except Exception:  # a broken op is a failed op, and the run goes on
            traceback.print_exc()
            elapsed, ok = None, False
        if not ok:
            self.failed += 1
        if timed and elapsed is not None:
            self.times.append(elapsed)
            if seed_copy is not None:
                self.seed_time += seed_elapsed
        return elapsed

    def loop(self, workload, tracer, seconds, first=1, seed_copy=None):
        """Ops on consecutive pool inputs from `first` until their summed time reaches
        `seconds` (with `seed_copy`, the time on both copies counts)."""
        start = len(self.times)
        i = first
        while len(self.times) == start or self._spent(start, seed_copy) < seconds:
            elapsed = self.run(workload, tracer, i, seed_copy=seed_copy)
            if elapsed is None and len(self.times) == start:
                break  # the first op cannot even run
            i += 1
        return self.times[start:]

    def _spent(self, start, seed_copy):
        return sum(self.times[start:]) + (self.seed_time if seed_copy else 0.0)


def interleave(steps, program_first):
    """Advance two op generators one step each in turn, flipping which goes first every
    round; return both copies' summed step times and both results."""
    times, results, live = [0.0, 0.0], [None, None], [True, True]
    order = [0, 1] if program_first else [1, 0]
    while any(live):
        for k in order:
            if not live[k]:
                continue
            t0 = time.perf_counter()
            try:
                next(steps[k])
            except StopIteration as stop:
                results[k], live[k] = stop.value, False
            times[k] += time.perf_counter() - t0
        order.reverse()
    return times, results


def end_to_end(workload, seed_copy, seconds):
    tracer = NullTracer()
    setup_s = setup_seconds(workload)
    log = OpLog()
    workload.setup(tracer)
    seed_copy.setup(tracer)
    log.run(workload, tracer, 0, timed=False)  # warm-ups, not timed
    run_to_end(seed_copy.run_op(0, tracer))
    log.loop(workload, tracer, seconds, seed_copy=seed_copy)
    if not log.times:
        fail("no operation completed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = log.times
    vs_seed = sum(times) / log.seed_time
    print(f"{workload.name}: {len(times)} timed ops, median {median(times):.4f} s/op "
          f"({1 / median(times):.4f} ops/s), {vs_seed:.4f} of the seed copy's time, "
          f"failed {log.failed}/{log.attempted}")
    metrics = {
        "op_time_vs_seed": vs_seed,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return metrics, log, True


def traced(workload, covers, seconds, seed):
    """Per-layer metrics; `covers` are the other workloads, run one op each so every layer shows."""
    off, tracer = NullTracer(), Tracer()
    for _ in range(SETUP_REPEATS):  # several samples for ecc.find_small_curve.ms
        for w in (workload, *covers):
            w.setup(tracer)
    log = OpLog()
    log.run(workload, off, 0, timed=False)
    # each input untraced and traced back to back, alternating the order, prices the tracing
    untraced_times, traced_times = [], []
    i = 1
    while sum(untraced_times) < seconds * UNTRACED_SHARE:
        modes = (off, tracer) if i % 2 else (tracer, off)
        elapsed = {mode: log.run(workload, mode, i) for mode in modes}
        if None in elapsed.values():
            break  # a failed op is counted; the overhead rests on the pairs before it
        untraced_times.append(elapsed[off])
        traced_times.append(elapsed[tracer])
        i += 1
    overhead = sum(traced_times) / sum(untraced_times) - 1 if untraced_times else 0.0
    traced_times += log.loop(workload, tracer, seconds - sum(untraced_times) - sum(traced_times),
                             first=i)
    for w in covers:
        log.run(w, tracer, 1)

    metrics = {"cli.import.ms": cli_import_ms(), "bench.trace_overhead_pct": overhead * 100}
    deterministic = True
    for w in (workload, *covers):
        counts = w.counts()
        if counts != w.counts():
            print(f"{w.name}: exact counts differ between two passes on one seed", file=sys.stderr)
            deterministic = False
        metrics.update(counts)
        metrics.update(w.layer_metrics(tracer))

    layers = tracer.layer_self_times(set(tracer.op_inputs[workload.name]))
    total = sum(layers.values())
    summary = {
        "workload": workload.name,
        "seed": seed,
        "traced_ops": len(traced_times),
        "trace_overhead_pct": overhead * 100,
        "op_seconds": {"untraced": timing_summary(untraced_times),
                       "traced": timing_summary(traced_times)},
        "layer_self_seconds": layers,
        "spans_us": tracer.summary(),
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload.name}-seed{seed}")
    tracer.write(stem + ".spans.tsv")
    with open(stem + ".trace.json", "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"{workload.name}: {len(traced_times)} traced ops, tracing overhead {overhead:+.1%}")
    print(f"layer self time over the {len(traced_times)} traced {workload.name} ops:")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:10s} {t:9.3f} s  {t / total:6.1%}")
    print("per-call timings (us): n, median, tail percentile (samples beyond it):")
    for name, s in summary["spans_us"].items():
        tail = s["tail"]
        tail_text = f"p{tail['percentile']} {tail['value']:.1f} ({tail['beyond']})" if tail else "-"
        print(f"  {name:34s} {s['n']:8d} {s['median']:12.1f}  {tail_text}")
    print(f"spans written to {os.path.relpath(stem)}.spans.tsv")
    return metrics, log, deterministic


def main(argv=None):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    lib = load_lib("ladderlab")
    cls = WORKLOADS[args.workload]
    workload = cls(lib, args.seed)
    if args.trace:
        covers = [
            other(lib, args.seed, pool_size=2) for other in WORKLOADS.values() if other is not cls
        ]
        metrics, log, deterministic = traced(workload, covers, args.seconds, args.seed)
        declared = spec["per_layer"]
    else:
        seed_copy = cls(load_lib("ladderlab_seed"), args.seed)
        metrics, log, deterministic = end_to_end(workload, seed_copy, args.seconds)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        fail(f"metrics do not match BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
             f"undeclared {sorted(set(metrics) - set(units))}")
    print(f"failed_ratio {log.failed / log.attempted:.4f}")
    print(json.dumps({
        "correct": log.failed == 0 and deterministic,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
