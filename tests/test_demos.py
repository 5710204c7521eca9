"""The README's demo scripts run end to end against the public API.

``scripts/make_fixtures.py`` is left out: it rewrites ``fixtures/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "name, args, written, says",
    [
        (
            "reproduce_grouping.py",
            ["--out-dir", "{out}"],
            ["grouping.json", "interdependency.svg"],
            "group1:",
        ),
        (
            "attribution_demo.py",
            ["--out", "{out}/attribution.json"],
            ["attribution.json"],
            "oracle calls 96 (86 distinct coalitions)",
        ),
        (
            "gkr_demo.py",
            ["--trials", "20", "--out-dir", "{out}"],
            ["plans.jsonl", "before.ppm", "after.ppm"],
            "group1: erased",
        ),
    ],
)
def test_demo_script_runs(tmp_path, name, args, written, says):
    done = run_script(name, *(a.format(out=tmp_path) for a in args))
    assert done.returncode == 0, done.stderr
    assert says in done.stdout
    for file in written:
        assert (tmp_path / file).stat().st_size > 0
