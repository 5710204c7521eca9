"""Quick self-check of the benchmark: every workload at a tiny size.

    python3 perfbench/selfcheck.py

Runs each workload of BENCHMARK.json for one second with --trace 0 and with
--trace 1, and asserts that the last stdout line is the result object, that
it names exactly the end-to-end (or per-layer) metrics of BENCHMARK.json with
their units, that ops were attempted and their outputs checked, and that
versions and nproc were recorded. Finally it copies BENCHMARK.json and
perfbench/ into an otherwise empty directory and asserts that the benchmark
refuses to run there. Exits 1 on the first workload that fails a check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_work" / "selfcheck"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    out = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    lines = out.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or (not trace and value <= 0):
            problems.append(f"{where}: {name} = {value!r}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    if info["checked"] < 1 or info["checked"] + result["failed"] != result["attempted"]:
        problems.append(f"{where}: {info['checked']} ops checked of {result['attempted']}")
    if not all(info.get(k) for k in ("python", "numpy", "nproc")):
        problems.append(f"{where}: versions or nproc not recorded")
    return problems


def check_bare(workload: str) -> list[str]:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(ROOT / "perfbench", SCRATCH / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = run(SCRATCH, workload, 0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            if problems:
                print("\n".join(problems))
                return 1
            print(f"ok  {workload} --trace {trace}")
    problems = check_bare(names[0])
    if problems:
        print("\n".join(problems))
        return 1
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
