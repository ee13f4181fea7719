"""One benchmark process: import cantordyn from the checkout, set up one
workload, run its ops in a closed loop (one client, one thread), check every
output, and print a JSON summary as the last line of standard output.

Started by run.py; not meant to be run by hand.
"""

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cantordyn  # noqa: E402
import numpy  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Seconds one block took at the commit that defined the benchmark (2 vCPU
# Xeon, Python 3.11, numpy 2.4).  The traced run uses them only to fix its
# op count, so that its counts repeat exactly from run to run.
NOMINAL_BLOCK_S = {"build": 2.2, "orbits": 0.036, "render_io": 1.3,
                   "verify": 8.0}
# With fewer ops the tail percentile (ten samples above it) would fall
# below the median.
MIN_OPS = 21

# Reference speed.  The host's speed drifts by about +-15% over minutes, the
# same for every process on it, so raw times of runs made a few minutes
# apart do not compare.  Every REF_EVERY_NS of busy time the run times a
# fixed kernel that does not touch cantordyn, and reports each op's time at
# the speed where that kernel takes REF_NS: raw time * REF_NS / (mean of
# the reference samples just before and just after the op).  Over six
# seeds this took the spread (IQR / median) of `build` ops_per_s from 0.26
# to 0.086.  Raw wall-clock figures stay in the record.
REF_NS = 1_000_000
REF_EVERY_NS = 250_000_000


def _ref_kernel():
    x, y = 0.5, 0.0
    for _ in range(6000):
        s = x + 0.3
        b = s - x
        y += (x - (s - b)) + (0.3 - b)
        x = s * 0.75
    return x + y


def reference_ns():
    """Median of five timings of the reference kernel."""
    times = []
    for _ in range(5):
        t0 = perf_counter_ns()
        _ref_kernel()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times)


def _execute(wl, kind, inp, op_id):
    """Run one op; returns (duration_ns, output, exception)."""
    t0 = perf_counter_ns()
    try:
        with wl.tr.op(kind, op_id):
            out = wl.run(kind, inp)
        exc = None
    except Exception as e:  # an op that raises is a failed op, not an abort
        out, exc = None, e
    return perf_counter_ns() - t0, out, exc


class Ledger:
    """Latencies, failures, digests and the fingerprint of one run."""

    def __init__(self, inject_failure):
        self.lat_ns = []
        self.scaled_ns = []  # lat_ns at reference speed
        self.refs = []
        self.kinds = {}  # kind -> latencies
        self.failed = 0
        self.problems = []
        self.first_block = hashlib.sha256()
        self.seen = {}
        self.inject_failure = inject_failure

    def record(self, wl, kind, inp, dt, out, exc, in_first_block):
        self.lat_ns.append(dt)
        self.kinds.setdefault(kind, []).append(dt)
        if exc is not None:
            digest, bad = repr(exc).encode(), [f"{kind} raised {exc!r}"]
        else:
            digest, bad = wl.check(kind, inp, out)
        key = (kind, inp)
        if self.seen.setdefault(key, digest) != digest:
            bad = bad + [f"{kind} {inp!r}: output differs from an earlier run"]
        if self.inject_failure:
            self.inject_failure = False
            bad = bad + ["injected failure"]
        if in_first_block:
            self.first_block.update(digest)
        if bad:
            self.failed += 1
            self.problems.extend(bad[: max(0, 5 - len(self.problems))])

    def sample_speed(self):
        """Take a reference sample and scale the ops since the last one."""
        ref = reference_ns()
        if self.refs:
            scale = 2 * REF_NS / (self.refs[-1] + ref)
            self.scaled_ns.extend(
                dt * scale for dt in self.lat_ns[len(self.scaled_ns):])
        self.refs.append(ref)


def run_timed(wl, rng, seconds, ledger):
    """Whole blocks until the ops have been busy for `seconds` and at least
    MIN_OPS ops have run.  Returns the raw busy time."""
    busy = since_ref = 0
    first = True
    ledger.sample_speed()
    while first or busy < seconds * 1e9 or len(ledger.lat_ns) < MIN_OPS:
        for kind, inp in wl.next_block(rng):
            dt, out, exc = _execute(wl, kind, inp, len(ledger.lat_ns))
            busy += dt
            since_ref += dt
            ledger.record(wl, kind, inp, dt, out, exc, first)
            if since_ref >= REF_EVERY_NS:
                ledger.sample_speed()
                since_ref = 0
        first = False
    if since_ref:
        ledger.sample_speed()
    return busy


def run_traced(wl, rng, blocks, ledger):
    """Each block twice, untraced and traced, alternating which goes first.

    Returns (untraced busy ns, traced busy ns) over the same ops."""
    tracer, null = wl.tr, tracing.NullTracer()
    busy = {False: 0, True: 0}
    for b in range(blocks):
        block = wl.next_block(rng)
        order = (False, True) if b % 2 == 0 else (True, False)
        for p, traced in enumerate(order):
            wl.tr = tracer if traced else null
            for kind, inp in block:
                dt, out, exc = _execute(wl, kind, inp, len(ledger.lat_ns))
                busy[traced] += dt
                ledger.record(wl, kind, inp, dt, out, exc, b == 0 and p == 0)
    wl.tr = tracer
    return busy[False], busy[True]


def latency_summary(lat_ns):
    """Median, and the highest percentile with at least ten samples above
    it (the eleventh largest sample), capped at p95, in ms.

    The cap only binds on `orbits`, whose runs hold 10,000 ops or more.
    Beyond p95 its percentiles measure the host more than the program:
    over ten seeds p99 spread by 19% of its median and p99.9 by 46%, while
    p95 stayed within 2% over six.
    """
    s = sorted(lat_ns)
    k = max(min(len(s) - 11, math.ceil(0.95 * len(s)) - 1), 0)
    return {"p50_ms": statistics.median(s) / 1e6,
            "tail_ms": s[k] / 1e6,
            "tail_percentile": 100.0 * (k + 1) / len(s),
            "tail_samples_above": len(s) - 1 - k}


def main(argv=None):
    t0 = perf_counter_ns()
    ref_start = reference_ns()
    ref_spent = perf_counter_ns() - t0
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-failure", action="store_true")
    args = ap.parse_args(argv)

    if Path(cantordyn.__file__).resolve().parent != ROOT / "src" / "cantordyn":
        print(f"imported cantordyn from {cantordyn.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    os.makedirs(args.outdir, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl = WORKLOADS[args.workload](cantordyn, tracer,
                                  random.Random(f"{args.seed}:setup"),
                                  args.tiny, args.outdir)
    # Set-up is scaled by the reference samples before and after it; the
    # time taken by the first of them does not count as set-up.
    ready_ns = time.monotonic_ns() - ref_spent
    result = {"ready_ns": ready_ns,
              "setup_scale": 2 * REF_NS / (ref_start + reference_ns())}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rng = random.Random(f"{args.seed}:ops")
    ledger = Ledger(args.inject_failure)
    if args.trace:
        wl.prepare_trace()
        nominal = NOMINAL_BLOCK_S[args.workload]
        blocks = 1 if args.tiny else max(1, round(args.seconds / (2 * nominal)))
        plain_ns, traced_ns = run_traced(wl, rng, blocks, ledger)
        result["layers"] = tracing.layer_metrics(tracer.spans,
                                                 traced_ns / plain_ns - 1.0)
        result["spans"] = len(tracer.spans)
        tracer.write(os.path.join(args.outdir, "spans.jsonl"))
        busy = plain_ns + traced_ns
    else:
        busy = run_timed(wl, rng, args.seconds, ledger)

    n = len(ledger.lat_ns)
    # Untraced runs report time at reference speed; traced runs, which feed
    # only the per-layer metrics, report raw time.
    timed = ledger.scaled_ns or ledger.lat_ns
    result.update(latency_summary(timed))
    raw = latency_summary(ledger.lat_ns)
    result.update({
        "raw_p50_ms": raw["p50_ms"],
        "raw_tail_ms": raw["tail_ms"],
        "raw_ops_per_s": n / (busy / 1e9),
        "ref_ms": [r / 1e6 for r in ledger.refs],
        "attempted": n,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "ops": {k: len(v) for k, v in ledger.kinds.items()},
        "p50_ms_by_op": {k: statistics.median(v) / 1e6
                         for k, v in ledger.kinds.items()},
        "busy_s": busy / 1e9,
        "ops_per_s": n / (sum(timed) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprint": ledger.first_block.hexdigest(),
        "defects": wl.defects,
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
