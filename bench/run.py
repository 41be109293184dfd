"""Benchmark driver for stepprop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Load model: closed loop, one client, one process, one
BLAS thread: each operation starts when the previous one has returned.

--trace 0 measures the end-to-end metrics.  Rounds of the workload (one
seeded draw of its operations each) run back to back until S seconds have
passed.  wall_s is one round's time: the sum over the round's operations of
each operation's median time across rounds.  setup_s is the median over
SETUP_REPEATS fresh child processes of the time from the start of the
script to the end of the untimed warm-up command (scaled like every time,
below, by probes this process runs just before and after each child).

Shared machines drift in speed by up to 2x within seconds.  A fixed
reference computation (the probe, see Clock) therefore runs between
operations, and each time is scaled by (the probe's reference time) / (the
probe time next to it): times read as seconds on a machine where the probe
takes its reference time.

peak_rss_mb is the peak resident memory of this process through set-up and
the first round: a fixed amount of work, so that the figure does not depend
on how many rounds fit in S seconds (later rounds add the outputs kept for
the gate, and allocator growth).  On packet_evolution it includes the
probe's two 8 MB streaming buffers.

--trace 1 measures the per-layer metrics on a fixed amount of work, so that
counts repeat exactly for a seed: rounds 0 .. TRACE_ROUNDS-1 each run once
untraced and once with spans at every stepprop module boundary.

Both modes run the workload's correctness gate after the timed section and
print one JSON object as the last line of standard output.
"""
from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("interference_grid", "omega_spectrum", "saddle_wkb",
                  "packet_evolution")
SETUP_REPEATS = 5
SETUP_PROBES = 5
TRACE_ROUNDS = 2


class BenchError(RuntimeError):
    """The benchmark cannot run or a trace invariant does not hold."""


def _prepare_imports():
    """Import stepprop from this checkout's src/ and nowhere else."""
    if not (SRC / "stepprop" / "__init__.py").is_file():
        raise BenchError(f"no stepprop package under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import stepprop
    if Path(stepprop.__file__).resolve().parent != SRC / "stepprop":
        raise BenchError(f"stepprop imported from {stepprop.__file__}, "
                         f"not from {SRC}")


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _predictions():
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        return json.load(fh)["layers"]


class Clock:
    """Machine speed, from a fixed reference computation (the probe).

    The probe mimics the workload's kind of work: a series recurrence on a
    few hundred complex elements (the small-array numpy loop that dominates
    stepprop's samples) and, for workloads whose operations stream large
    arrays, two passes over 8 MB, which share the last-level cache and
    memory bandwidth with other tenants as the grid path and the CN solver
    do.  `ref` is the probe's typical time between operations on a 2-core
    x86-64 VM, so that scaled times read about as wall seconds there."""

    def __init__(self, streaming):
        import numpy as np
        self._np = np
        self._a = np.linspace(0.1, 1.0, 300) + 0.3j
        self._c = self._a + 1.7
        self._big = np.ones(1 << 19, dtype=complex) if streaming else None
        self._out = np.empty_like(self._big) if streaming else None
        self.ref = 1.5e-3 + (3.5e-3 if streaming else 0.0)
        self.probes = []

    def probe(self):
        """Run and time one probe."""
        np, a, c = self._np, self._a, self._c
        t0 = perf_counter()
        z, acc = np.ones(a.size, dtype=complex), 0.0
        for n in range(150):
            z = z * (a + n) / (c + n)
            acc += float(np.abs(z).max())
        if self._big is not None:
            for _ in range(2):
                np.multiply(self._big, 1.0000001, out=self._out)
        self.probes.append(perf_counter() - t0)
        return self.probes[-1]


def _setup(name, seed, tiny):
    """Imports, round-0 inputs and the untimed warm-up command."""
    import workloads as wl
    workload = wl.WORKLOADS[name]
    first = wl.round_ops(workload, seed, 0, tiny)
    warm = wl.run_op(wl.Op("cli", workload.warmup))
    return workload, first, warm.rc == 0


def _child_setup_s(name, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _setup_s(name, seed, repeats):
    """Median set-up time of fresh processes, each scaled by the median of
    SETUP_PROBES probes run here just before it and just after it.  Probes
    run in the fresh process itself, right after its set-up, scattered more
    than the set-up time did."""
    clock = Clock(streaming=False)
    times = []
    for _ in range(repeats):
        before = statistics.median(clock.probe() for _ in range(SETUP_PROBES))
        raw = _child_setup_s(name, seed)
        after = statistics.median(clock.probe() for _ in range(SETUP_PROBES))
        times.append(raw * clock.ref / (0.5 * (before + after)))
    return statistics.median(times)


def _run_round(ops, clock):
    """Results, raw times and scaled times of one round's operations.

    An operation's scaled time is its time x clock.ref / (mean of the
    probes run just before and just after it)."""
    import workloads as wl
    results, raw = [], []
    before = [clock.probe()]
    for op in ops:
        t0 = perf_counter()
        results.append(wl.run_op(op))
        raw.append(perf_counter() - t0)
        before.append(clock.probe())
    scaled = [t * clock.ref / (0.5 * (p0 + p1))
              for t, p0, p1 in zip(raw, before, before[1:])]
    return results, raw, scaled


def _src_lines():
    out = {}
    for path in sorted((SRC / "stepprop").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            out[f"src.lines.{path.stem}"] = sum(1 for _ in fh)
    out["src.lines"] = sum(out.values())
    return out


def _metric_block(entries, values):
    block = {}
    for entry in entries:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"metric {name} was not measured")
        block[name] = {"value": values[name], "unit": entry["unit"]}
    return block


def _layer_values(name, tracer, plain, traced, traced_raw, rounds_plain,
                  gate, failed, attempted, per_layer):
    """Per-layer metric values of a traced run, after its invariants hold.

    plain and traced are scaled round times; span times are raw seconds."""
    from layers import LAYER_NAMES
    summary, roots = tracer.summary()
    overhead = sum(traced) / sum(plain) - 1.0
    gap = 1.0 - roots / sum(traced_raw)
    for entry in _predictions():
        if name not in entry["on"]:
            continue
        for span in entry["spans"]:
            if summary[f"{span}.calls"] == 0:
                raise BenchError(f"boundary {span} recorded no calls on "
                                 f"{name}: its patch is stale")
    # the spans must account for the traced wall time; the part they miss
    # is benchmark glue, bounded by the tracing overhead (and by timing
    # noise of a few per cent when the overhead is smaller than that)
    if gap > max(overhead, 0.03):
        raise BenchError(f"layer self times cover {1 - gap:.3f} of the "
                         f"traced wall time; overhead is {overhead:.3f}")
    g = sum(op.g_samples for ops, _ in rounds_plain for op in ops)
    bvps = sum(op.bvps for ops, _ in rounds_plain for op in ops)
    calls = summary["propagator.propagate.calls"]
    values = dict(summary)
    values.update(gate.values)
    values.update(_src_lines())
    values.update({
        "quadrature.evals_per_G":
            summary.get("quadrature.integrate.evals", 0) / calls if calls
            else 0.0,
        "trace.overhead_frac": overhead,
        "trace.self_gap_frac": gap,
        "G_per_s": g / sum(plain),
        "saddles_per_s": bvps / sum(plain),
        "fail_frac": failed / attempted,
    })
    prefixes = tuple(f"{layer}." for layer in LAYER_NAMES) + (
        "check.", "src.lines.")
    for entry in per_layer:
        # layers and checks that this workload never reaches read zero
        if entry["name"] not in values and entry["name"].startswith(prefixes):
            values[entry["name"]] = 0
    return values


def run(name, seed, seconds, trace, tiny=False, setup_repeats=SETUP_REPEATS):
    """Run one workload and return the result object the driver reads."""
    _prepare_imports()
    workload, first, warm_ok = _setup(name, seed, tiny)
    import resource

    import workloads as wl
    spec = _spec()
    attempted, failed = 1, int(not warm_ok)
    clock = Clock(workload.streaming)
    if not trace:
        setup_s = _setup_s(name, seed, setup_repeats)
        rounds, times = [], []
        start = perf_counter()
        while not rounds or perf_counter() - start < seconds:
            ops = first if not rounds else wl.round_ops(
                workload, seed, len(rounds), tiny)
            results, _, scaled = _run_round(ops, clock)
            rounds.append((ops, results))
            times.append(scaled)
            if len(rounds) == 1:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from layers import Tracer
        tracer = Tracer()
        rounds, rounds_plain, plain, traced, traced_raw = [], [], [], [], []
        for index in range(TRACE_ROUNDS):
            ops = first if index == 0 else wl.round_ops(workload, seed, index,
                                                        tiny)
            results, _, scaled = _run_round(ops, clock)
            rounds_plain.append((ops, results))
            plain.append(sum(scaled))
            with tracer:
                results_t, raw, scaled = _run_round(ops, clock)
            traced.append(sum(scaled))
            traced_raw.append(sum(raw))
            rounds += [(ops, results), (ops, results_t)]
    for ops, results in rounds:
        attempted += len(ops)
        failed += sum(res.rc != 0 for res in results)
    gate = wl.Gate()
    workload.gate(rounds, gate)
    attempted += gate.attempted
    failed += gate.failed
    if not trace:
        # every round runs the same operation slots on fresh inputs
        wall = sum(statistics.median(slot) for slot in zip(*times))
        items = sum(getattr(op, workload.items) for op in rounds[0][0])
        metrics = _metric_block(spec["end_to_end"], {
            "setup_s": setup_s,
            "wall_s": wall,
            "items_per_s": items / wall,
            "peak_rss_mb": peak_kb / 1024.0,
        })
    else:
        metrics = _metric_block(spec["per_layer"], _layer_values(
            name, tracer, plain, traced, traced_raw, rounds_plain, gate,
            failed, attempted, spec["per_layer"]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="measure set-up in this fresh process and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    try:
        if args.setup_only:
            _prepare_imports()
            _, _, ok = _setup(args.workload, args.seed, tiny=False)
            setup_s = perf_counter() - T0
            if not ok:
                raise BenchError("warm-up command failed")
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
