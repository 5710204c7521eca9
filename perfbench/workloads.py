"""The three benchmark workloads.

Each workload has three parts:

- `prepare(work, seed)` writes the generated inputs (not timed);
- the constructor is the user-facing set-up: importing, loading inputs and,
  on coco17-wire, spawning the oracle child and completing its handshake;
- `op(i)` is one timed operation, and `check(i, result)` verifies its output
  outside the timed region, raising `CheckFailed` on a wrong answer;
- `close()` tears down and `check_close(side)` verifies what the run as a
  whole left behind.

On the attribution workloads every oracle call goes through a
`kpshap.oracle.CountingOracle`, so the calls an op makes are counted where
the predictor is called, not derived from the program's own budget.

On the noisy synthetic models some op seeds give a drop matrix with an
all-zero row, and `perturbation_influence` refuses it with
`DataError(code="degenerate-row")`, as the CLI would. Such an op is a
refusal, not a failure: its result carries the error, the check verifies
that the named rows really sum to zero (and, on the wire, that the
in-process replay refuses the same way), and the runner counts it as
attempted but not completed. No seed is skipped or re-chosen.

kpshap functions are always reached through their module attributes, so the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen
from kpshap import analysis, cli, grouping, oracle, perturb, shapley, skeleton
from kpshap.errors import DataError
from spans import TracedOracle, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures"
CROPS = 32
TRIALS = 2  # delta_perf_matrix m
DEGENERATE = "degenerate-row"


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Attribution:
    delta: perturb.DeltaMatrix
    delta_calls: int
    clustered: grouping.Grouping | None = None
    report: shapley.AttributionReport | None = None
    budget: shapley.QueryBudget | None = None
    text: str = ""
    shapley_calls: int = 0
    svg: str | None = None
    refused: DataError | None = None


def attribution_op(model, counter: oracle.CountingOracle, kc, groups, g: int, seed: int) -> Attribution:
    """interdep sweep (m=2) -> influence -> interdependency -> cluster, then
    coarse-to-fine Shapley on the given grouping, serialized as the CLI does.
    `counter` is the CountingOracle that `model`'s calls pass through.
    A degenerate-row refusal ends the op after the sweep."""
    c0 = counter.calls
    delta = perturb.delta_perf_matrix(model, m=TRIALS, seed=seed)
    c1 = counter.calls
    try:
        influence = perturb.perturbation_influence(delta)
    except DataError as e:
        if e.code != DEGENERATE:
            raise
        return Attribution(delta, c1 - c0, refused=e)
    clustered = grouping.cluster(grouping.interdependency(influence, kc), g=g)
    report, budget = shapley.run_group_attribution(model, groups, trial=seed)
    c2 = counter.calls
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    return Attribution(delta, c1 - c0, clustered, report, budget, text, c2 - c1)


def check_refusal(got: Attribution) -> None:
    """A refusal names exactly the keypoints whose drop rows sum to zero."""
    dead = [got.delta.names[k] for k in np.flatnonzero(got.delta.drops.sum(axis=1) == 0.0)]
    _expect(bool(dead), f"refused ({got.refused}) but no drop row sums to zero")
    _expect(str(got.refused).endswith("for: " + ", ".join(dead)), f"refusal {got.refused!s} does not name the zero rows {dead}")


def check_calls(got: Attribution, groups, n: int) -> None:
    """The sweep scores the full set and each keypoint hidden, once per
    trial; Shapley makes exactly the calls query_count prices."""
    _expect(got.delta_calls == TRIALS * (n + 1), f"delta_perf_matrix made {got.delta_calls} oracle calls, expected {TRIALS * (n + 1)}")
    if got.refused is not None:
        check_refusal(got)
        return
    want = shapley.query_count(groups).oracle_calls
    _expect(got.shapley_calls == want, f"run_group_attribution made {got.shapley_calls} oracle calls, query_count says {want}")
    _expect(got.budget.oracle_calls == want, f"{got.budget} does not match query_count ({want} calls)")


def _op_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Coco17Wire:
    """Built-in 17-keypoint schema; the predictor is one long-lived child
    speaking the line-JSON wire, counted from the child's side."""

    name = "coco17-wire"
    config_path = FIXTURES / "synthetic17.json"

    @staticmethod
    def prepare(work: Path, seed: int) -> dict:
        return {}

    def __init__(self, work: Path, seed: int, prepared: dict, tracer: Tracer | None = None):
        self.seed = seed
        self.schema, skel = skeleton.default_schema()
        self.kc = skeleton.keypoint_connectivity(self.schema, skel)
        self.groups = grouping.Grouping.from_json(FIXTURES / "expected_groups.json", self.schema)
        config = oracle.SyntheticModelConfig.from_json(self.config_path)
        self.local = oracle.SyntheticOracle(config, self.schema)
        self.stats_path = work / f"wire-stats-{os.getpid()}-{id(self)}.json"
        command = [
            sys.executable, str(BENCH / "serve_oracle.py"),
            "--config", str(self.config_path), "--stats", str(self.stats_path),
        ]
        with tracer.span("oracle.spawn") if tracer else contextlib.nullcontext():
            self.remote = oracle.ExternalOracle(command, self.schema)
        self.counter = oracle.CountingOracle(self.remote)
        self.model = TracedOracle(self.counter, tracer) if tracer else self.counter
        self.replay = oracle.CountingOracle(self.local)

    def op(self, i: int) -> Attribution:
        return attribution_op(self.model, self.counter, self.kc, self.groups, 5, _op_seed(self.seed, i))

    def check(self, i: int, got: Attribution) -> None:
        check_calls(got, self.groups, self.schema.n)
        want = attribution_op(self.replay, self.replay, self.kc, self.groups, 5, _op_seed(self.seed, i))
        _expect(np.array_equal(got.delta.baseline, want.delta.baseline), "wire baseline differs from in-process")
        _expect(np.array_equal(got.delta.drops, want.delta.drops), "wire drops differ from in-process")
        _expect(str(got.refused) == str(want.refused), f"wire refusal {got.refused} differs from in-process {want.refused}")
        _expect(got.clustered == want.clustered, "wire clustering differs from in-process")
        _expect(got.text == want.text, "wire report bytes differ from in-process")

    def close(self) -> dict:
        """Stop the child; returns its wire counts."""
        self.model.close()
        self.remote.close()
        return json.loads(self.stats_path.read_text())

    def check_close(self, side: dict) -> None:
        """Every call counted on this side crossed the wire as one request
        line and was scored once by the child's model."""
        calls = self.counter.calls
        _expect(side["requests"] == calls, f"child read {side['requests']} requests for {calls} oracle calls")
        _expect(side["rows"] == calls, f"child scored {side['rows']} coalitions for {calls} oracle calls")


class Wholebody133:
    """133 keypoints in-process: whole-body clustering (g=12), Shapley over a
    12-group anatomical grouping (32768 calls) and the 133x133 heatmap."""

    name = "wholebody133"
    G = 12

    @staticmethod
    def prepare(work: Path, seed: int) -> dict:
        body, skel = skeleton.default_schema()
        edges = sorted(tuple(sorted(e)) for e in skel.edges)
        schema_doc = gen.wholebody_schema(body.names, [[body.names[a], body.names[b]] for a, b in edges])
        groups_doc = gen.anatomical_groups(schema_doc["names"])
        (work / "schema133.json").write_text(json.dumps(schema_doc))
        (work / "groups133.json").write_text(json.dumps(groups_doc))
        (work / "model133.json").write_text(json.dumps(gen.wholebody_model(schema_doc, groups_doc, seed)))
        return {}

    def __init__(self, work: Path, seed: int, prepared: dict, tracer: Tracer | None = None):
        self.seed = seed
        self.schema, skel = skeleton.load_schema(work / "schema133.json")
        self.kc = skeleton.keypoint_connectivity(self.schema, skel)
        self.groups = grouping.Grouping.from_json(work / "groups133.json", self.schema)
        config = oracle.SyntheticModelConfig.from_json(work / "model133.json")
        self.counter = oracle.CountingOracle(oracle.SyntheticOracle(config, self.schema))
        self.model = TracedOracle(self.counter, tracer) if tracer else self.counter

    def op(self, i: int) -> Attribution:
        result = attribution_op(self.model, self.counter, self.kc, self.groups, self.G, _op_seed(self.seed, i))
        if result.refused is None:
            result.svg = analysis.render_heatmap(result.report.sigma, self.schema.names)
        return result

    def check(self, i: int, got: Attribution) -> None:
        n = self.schema.n
        check_calls(got, self.groups, n)
        if got.refused is not None:
            return
        sigma = np.asarray(got.report.sigma)
        _expect(sigma.shape == (n, n) and bool(np.all(sigma >= 0)), "sigma is not a non-negative n x n matrix")
        _expect(bool(np.all(np.abs(sigma.sum(axis=1) - 1.0) <= 1e-9)), "sigma rows do not sum to 1")
        flat = sorted(k for grp in got.clustered.groups for k in grp)
        _expect(got.clustered.g == self.G and flat == list(range(n)), "clustering is not a partition into 12 groups")
        _expect(got.svg.count("<rect ") == n * n, "heatmap does not have n x n cells")

    def close(self) -> dict:
        self.model.close()
        return {}

    def check_close(self, side: dict) -> None:
        pass


class GkrCrops:
    """`kpshap gkr plan` then `gkr apply` through the CLI entry point, one
    person crop per op, cycling over the crop set; no oracle at all."""

    name = "gkr-crops"

    @staticmethod
    def prepare(work: Path, seed: int) -> dict:
        crops, histogram = gen.write_crops(work, seed, CROPS)
        return {"crops": crops, "png_filters": histogram}

    def __init__(self, work: Path, seed: int, prepared: dict, tracer: Tracer | None = None):
        self.seed = seed
        self.work = work
        self.crops = prepared.get("crops", [])
        run_dir = Path(tempfile.mkdtemp(prefix="gkr-", dir=work))
        self.out = run_dir / "out"
        self.plans = run_dir / "plans"
        self.plans.mkdir()
        self.groups = str(FIXTURES / "expected_groups.json")
        self.first: dict[int, tuple[bytes, bytes]] = {}
        self.sink = open(os.devnull, "w")

    def op(self, i: int) -> tuple[int, int, int]:
        k = i % len(self.crops)
        annotations = self.crops[k][2]
        plans = str(self.plans / f"{k:03d}.jsonl")
        with contextlib.redirect_stdout(self.sink):
            rc_plan = cli.main([
                "gkr", "plan", "--annotations", str(annotations), "--groups", self.groups,
                "--seed", str(_op_seed(self.seed, k)), "--out", plans,
            ])
            rc_apply = cli.main([
                "gkr", "apply", "--plans", plans, "--images", str(self.work / "images"),
                "--out", str(self.out), "--manifest", str(self.plans / f"{k:03d}.apply.json"),
            ])
        return k, rc_plan, rc_apply

    def check(self, i: int, got: tuple[int, int, int]) -> None:
        k, rc_plan, rc_apply = got
        _expect(rc_plan == 0 and rc_apply == 0, f"exit codes plan={rc_plan} apply={rc_apply}")
        name, original, _ = self.crops[k]
        plans = (self.plans / f"{k:03d}.jsonl").read_bytes()
        output = (self.out / name).read_bytes()
        if k in self.first:
            _expect(self.first[k] == (plans, output), f"{name}: output bytes differ between passes")
            return
        image = gen.decode_image(self.out / name)
        _expect(image.shape == original.shape, f"{name}: output shape {image.shape}")
        outside = np.ones(original.shape[:2], dtype=bool)
        for line in plans.splitlines():
            for r in json.loads(line)["rects"]:
                x0, y0, x1, y1 = r["rect"]
                _expect(0 <= x0 < x1 <= original.shape[1] and 0 <= y0 < y1 <= original.shape[0], f"{name}: rect {r['rect']} out of bounds")
                outside[y0:y1, x0:x1] = False
        _expect(np.array_equal(image[outside], original[outside]), f"{name}: pixels outside the rectangles changed")
        self.first[k] = (plans, output)

    def close(self) -> dict:
        self.sink.close()
        return {}

    def check_close(self, side: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (Coco17Wire, Wholebody133, GkrCrops)}
