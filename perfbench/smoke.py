"""Smoke test of the benchmark at tiny sizes, with no timing bounds.

    python3 perfbench/smoke.py

For every workload it checks that the untraced run prints every end-to-end
metric of BENCHMARK.json with its unit and fails no op, and that the traced
run yields every per-layer metric with its unit.  It also checks that an
injected failing check is counted, and that the benchmark refuses to run
where the cantordyn source is missing.  Exits 0 when all of that holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from spans import LAYER_METRICS  # noqa: E402
from run import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         "--tiny", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_metrics(lines, wanted, errors, where):
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics {got} != {wanted}")
    for name, unit in wanted.items():
        if not any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines[:-1] if len(line.split()) > 2):
            errors.append(f"{where}: {name} not printed with unit {unit}")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    if layers != dict(LAYER_METRICS):
        errors.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for w in WORKLOADS:
        for trace, wanted in (("0", e2e), ("1", layers)):
            where = f"{w} --trace {trace}"
            rc, lines = bench("--workload", w, "--trace", trace)
            if rc != 0:
                errors.append(f"{where}: exit {rc}")
                continue
            result = check_metrics(lines, wanted, errors, where)
            if result["failed"] or not result["correct"]:
                errors.append(f"{where}: {result['failed']} ops failed")
            if not any(line.startswith("fail_ratio ") for line in lines):
                errors.append(f"{where}: fail_ratio not printed")

    rc, lines = bench("--workload", "build", "--trace", "0", "--inject-failure")
    result = json.loads(lines[-1]) if rc == 0 else {}
    if result.get("failed") != 1 or result.get("correct") is not False:
        errors.append(f"injected failure not counted: exit {rc}, {result}")
    ratio = [line for line in lines if line.startswith("fail_ratio ")]
    if not ratio or float(ratio[0].split()[1]) <= 0.0:
        errors.append(f"injected failure not in fail_ratio: {ratio}")

    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, lines = bench("--workload", "build", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or any(line.startswith("{") for line in lines):
        errors.append(f"without src/ the benchmark exited {rc} with {lines}")

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
