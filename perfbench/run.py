#!/usr/bin/env python3
"""kpshap benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a kpshap checkout; the program is imported from the
checkout's src/. Workloads (see workloads.py): coco17-wire, wholebody133,
gkr-crops. Each runs in this process, one op after another, until the ops
have taken S seconds of wall time; every op's output is checked outside the
timed region.

Times are "reference" seconds: the CPU time of this process plus its oracle
child, rescaled by the host speed measured during and right after each op
(proc.py), so that other tenants of a shared host do not move them. The
process and its children share one CPU. The wall-clock
p50 is printed alongside. --trace 0 prints the end-to-end metrics:
  setup_s        median over 11 fresh processes of the reference seconds from
                 process start until the first op could be issued;
  op_ref_p50_ms  median reference time of one completed op, a failed op
                 counting as infinite;
  ops_per_ref_s  ops completed per reference second spent in all ops;
  peak_rss_mb    peak resident memory of this process plus its oracle child.
--trace 1 prints per-layer metrics: the first S/2 seconds run untraced, the
  last S/2 traced (spans.py); the op_ref_p50_ms gap between them is the
  tracing overhead. Spans are also written to
  .perfbench_work/spans-<workload>.csv.

An attribution op whose drop matrix has an all-zero row is refused by the
program (degenerate-row); once the check has verified the refusal, the op
counts as attempted, neither completed nor failed, and its time is spent.

Lines before the last are information (versions, nproc, input statistics,
wall times, host speed, refusal and error codes). The last line is one JSON object with
exactly the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import proc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
NEEDED = (
    SRC / "kpshap" / "__init__.py",
    ROOT / "fixtures" / "synthetic17.json",
    ROOT / "fixtures" / "expected_groups.json",
)
SETUP_PROBES = 11


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("coco17-wire", "wholebody133", "gkr-crops"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def clean_env() -> None:
    """A user's shell must not redirect the oracle, and children must import
    this checkout's kpshap even when it is not installed."""
    os.environ.pop("KPSHAP_ORACLE_CMD", None)
    os.environ.pop("KPSHAP_ORACLE_TIMEOUT", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def setup_seconds(name: str, work: Path, seed: int) -> tuple[float, float]:
    """Medians over fresh interpreters of (reference, wall) seconds from
    process start until the workload is set up; each probe then tears down.

    A probe lives for a fraction of a second, too short to sample the host
    speed well by itself, so its own calibration slices are pooled with two
    that this process runs just before it and two just after."""
    ref, wall = [], []
    for _ in range(SETUP_PROBES):
        before = [proc.calibrate(), proc.calibrate()]
        t0 = perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(work), str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        line = probe.stdout.readline().split()
        wall.append(perf_counter() - t0)
        probe.stdin.close()
        rc = probe.wait(timeout=60)
        probe.stdout.close()
        if rc != 0 or len(line) < 3 or line[0] != b"ready":
            raise RuntimeError(f"setup probe for {name} failed (exit {rc}, said {line!r})")
        samples = [*before, *map(float, line[2:]), proc.calibrate(), proc.calibrate()]
        ref.append(float(line[1]) * proc.CALIBRATION_REF_S / statistics.fmean(samples))
    return statistics.median(ref), statistics.median(wall)


class Phase:
    """Ops of one timed loop: per-op reference and wall seconds of completed
    (and, as inf, failed) ops, verified refusals, reference seconds spent in
    all ops, host speed, errors."""

    def __init__(self):
        self.ref: list[float] = []
        self.wall: list[float] = []
        self.spent_ref = 0.0
        self.speed: list[float] = []
        self.failed = 0
        self.refused = 0
        self.checked = 0
        self.correct = True
        self.errors: dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.ref) + self.refused

    def ref_p50_ms(self) -> float:
        return statistics.median(self.ref) * 1e3 if self.ref else math.inf

    def ops_per_ref_s(self) -> float:
        return (len(self.ref) - self.failed) / self.spent_ref


def run_phase(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop: issue op i+1 only after op i returned and was checked,
    until the ops have taken `seconds` of wall time."""
    from kpshap.errors import KpshapError, OracleError
    from spans import ROOT_SPAN

    phase = Phase()
    children = proc.child_pids()
    sampler = proc.MidOpSampler()
    timed = 0.0
    i = 0
    while timed < seconds:
        result, error = None, None
        if tracer is not None:
            tracer.op_id = i
        c0 = proc.cpu_seconds(children)
        t0 = perf_counter()
        try:
            with sampler:
                if tracer is None:
                    result = wl.op(i)
                else:
                    with tracer.span(ROOT_SPAN):
                        result = wl.op(i)
        except KpshapError as e:
            error = e
        except Exception as e:  # a crash is a wrong answer, not a measurement
            error = e
            traceback.print_exc()
        sampled = sum(sampler.samples)
        wall = perf_counter() - t0 - sampled
        cpu = proc.cpu_seconds(children) - c0 - sampled
        timed += wall
        if tracer is not None:
            tracer.active = False
        speed = proc.host_speed(sampler.samples)
        phase.speed.append(speed)
        ref = cpu * proc.CALIBRATION_REF_S / speed
        phase.spent_ref += ref
        if error is None:
            try:
                wl.check(i, result)
                phase.checked += 1
            except Exception as e:
                error = e
                print(f"op {i}: check failed: {e}", file=sys.stderr)
                phase.correct = False
        if tracer is not None:
            tracer.active = True
        i += 1
        if error is None and getattr(result, "refused", None) is not None:
            phase.refused += 1
            continue
        if error is None:
            phase.ref.append(ref)
            phase.wall.append(wall)
            continue
        phase.ref.append(math.inf)
        phase.wall.append(math.inf)
        phase.failed += 1
        code = getattr(error, "code", type(error).__name__)
        phase.errors[code] = phase.errors.get(code, 0) + 1
        if isinstance(error, OracleError) or not isinstance(error, KpshapError):
            phase.correct = False  # the oracle child is gone or the program crashed
            break
    if tracer is not None:
        tracer.op_id = -1
    return phase


def open_run(cls, work, seed, prepared, seconds, tracer=None):
    """Set up, run, tear down and check one workload instance."""
    from workloads import CheckFailed

    wl = cls(work, seed, prepared, tracer)
    try:
        phase = run_phase(wl, seconds, tracer)
    finally:
        side = wl.close()
    try:
        wl.check_close(side)
    except CheckFailed as e:
        print(f"check failed after the run: {e}", file=sys.stderr)
        phase.correct = False
    return phase, side


def metric(value, unit):
    """A finite value, or null when every op failed and no latency exists."""
    return {"value": float(value) if math.isfinite(value) else None, "unit": unit}


def main(argv=None) -> int:
    ns = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.is_file()]
    if missing:
        print(f"error: not a kpshap checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if ns.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    clean_env()
    # One CPU for this process and its children, so that the host speed
    # measured here is the speed the oracle child ran at too.
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import numpy as np

    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[ns.workload]
    work = WORK_ROOT / f"{ns.workload}-{ns.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = cls.prepare(work, ns.seed)
        info = {
            "workload": ns.workload,
            "seed": ns.seed,
            "seconds": ns.seconds,
            "trace": ns.trace,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": nproc,
        }
        info.update({k: v for k, v in prepared.items() if k != "crops"})
        if ns.trace == 0:
            setup_ref, setup_wall = setup_seconds(ns.workload, work, ns.seed)
            phase, side = open_run(cls, work, ns.seed, prepared, ns.seconds)
            phases = [phase]
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + side.get("maxrss_kb", 0)
            metrics = {
                "setup_s": metric(setup_ref, "s"),
                "op_ref_p50_ms": metric(phase.ref_p50_ms(), "ms"),
                "ops_per_ref_s": metric(phase.ops_per_ref_s(), "1/s"),
                "peak_rss_mb": metric(rss_kb / 1024, "MB"),
            }
            info["setup_wall_s"] = setup_wall
            info["op_wall_p50_ms"] = statistics.median(phase.wall) * 1e3
        else:
            plain, _ = open_run(cls, work, ns.seed, prepared, ns.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            traced, wire = open_run(cls, work, ns.seed, prepared, ns.seconds / 2, tracer)
            phases = [plain, traced]
            overhead = (traced.ref_p50_ms() / plain.ref_p50_ms() - 1) * 100
            scale = proc.CALIBRATION_REF_S / statistics.median(traced.speed)
            metrics = spans.layer_metrics(tracer, traced.attempted, traced.refused, wire or None, overhead, scale)
            tracer.write_csv(WORK_ROOT / f"spans-{ns.workload}.csv")
        info["host_calibration_ms"] = statistics.median(s for p in phases for s in p.speed) * 1e3
        info["ops"] = sum(p.attempted for p in phases)
        info["checked"] = sum(p.checked for p in phases)
        info["refused"] = sum(p.refused for p in phases)
        info["errors"] = {}
        for p in phases:
            for code, count in p.errors.items():
                info["errors"][code] = info["errors"].get(code, 0) + count
        print(json.dumps(info, sort_keys=True))
        result = {
            "correct": all(p.correct for p in phases),
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "metrics": metrics,
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
