"""cantordyn benchmark.

    python3 perfbench/run.py --workload {build,orbits,render_io,verify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The benchmark imports cantordyn from the
checkout's src/ and exits 2 without a result when it is missing.

--trace 0 measures the end-to-end metrics: setup_s is the median over
SETUP_SAMPLES fresh processes, each timed from its start (interpreter,
`import cantordyn` and the workload's set-up) to the point where the first
op would run; the middle one goes on to run the ops for S busy seconds.
Times are scaled to reference speed (worker.REF_NS); raw wall-clock figures
are in the record line.
--trace 1 runs a fixed number of op blocks twice, untraced and traced,
and prints the per-layer metrics derived from the spans.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "orbits", "render_io", "verify")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    """SHA-256 over src/ (paths and bytes), naming the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _spawn(args, outdir, setup_only, deadline):
    """Run one worker to its end; returns (start_ns, its JSON summary)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--outdir", str(outdir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_failure:
        cmd.append("--inject-failure")
    start_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    return start_ns, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="cantordyn benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; the numbers mean nothing")
    ap.add_argument("--inject-failure", action="store_true",
                    help="fail the first op's check (smoke test)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "cantordyn" / "__init__.py").is_file():
        print(f"no cantordyn source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Set-up-only processes go half before and half after the one that runs
    # the ops, so that the samples span the run.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        samples, raw_samples = [], []
        for k in range(extra + 1):
            main_run = k == extra // 2
            start, out = _spawn(args, outdir, not main_run, deadline)
            raw_samples.append((out["ready_ns"] - start) / 1e9)
            samples.append(raw_samples[-1] * out["setup_scale"])
            if main_run:
                res = out
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        spans_file = outdir / "spans.jsonl"
        if spans_file.exists():
            spans_file.replace(outdir.parent / f"spans-{args.workload}-{args.seed}.jsonl")
        shutil.rmtree(outdir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": res["numpy"],
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "attempted": res["attempted"], "failed": res["failed"],
        "ops": res["ops"], "p50_ms_by_op": res["p50_ms_by_op"],
        "busy_s": res["busy_s"],
        "latency_tail_percentile": res["tail_percentile"],
        "latency_tail_samples_above": res["tail_samples_above"],
        "latency_samples": res["attempted"],
        "fingerprint_sha256": res["fingerprint"],
        "known_defects": res["defects"], "problems": res["problems"],
    }
    fail_ratio = res["failed"] / res["attempted"]
    if args.trace:
        metrics = res["layers"]
        record["spans"] = res["spans"]
    else:
        record.update({
            "setup_samples_s": samples, "raw_setup_samples_s": raw_samples,
            "raw_ops_per_s": res["raw_ops_per_s"],
            "raw_latency_p50_ms": res["raw_p50_ms"],
            "raw_latency_tail_ms": res["raw_tail_ms"],
            "reference_kernel_ms": res["ref_ms"]})
        values = {"setup_s": statistics.median(samples),
                  "ops_per_s": res["ops_per_s"],
                  "latency_p50_ms": res["p50_ms"],
                  "latency_tail_ms": res["tail_ms"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}

    print(f"record {json.dumps(record, sort_keys=True)}")
    for name, m in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{res['tail_percentile']:.2f}: "
                    f"{res['tail_samples_above']} of {res['attempted']} "
                    f"samples above)")
        elif name == "setup_s":
            note = f"  (median of {len(samples)} fresh processes)"
        value = m["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:<66} {shown} {m['unit']}{note}")
    print(f"{'fail_ratio':<66} {fail_ratio:>16.6g} ratio  "
          f"({res['failed']} of {res['attempted']} ops)")
    print(f"{'fingerprint':<66} sha256:{res['fingerprint']}")
    defects = res["defects"]
    if defects:
        print(f"known defect: phi built from reloaded systems lets endpoints "
              f"escape in {defects['reload_dichotomy_broken']} of "
              f"{defects['reload_dichotomy_ops']} load ops "
              f"(load_system drops the double-double tails)")
    for p in res["problems"]:
        print(f"problem: {p}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
