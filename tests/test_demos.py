"""The README's demo scripts and its library example run end to end
against the public API.

``scripts/make_fixtures.py`` is left out: it rewrites ``fixtures/``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpshap import QueryBudget

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


def test_readme_library_block_runs(monkeypatch, capsys):
    # the python block under "## Library", run from the repo root as written
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("\n## Library\n") :]
    code = section[section.index("```python\n") + len("```python\n") :]
    code = code[: code.index("```")]
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(code, "README.md ## Library", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    want = QueryBudget(distinct_coalitions=86, oracle_calls=96)
    assert namespace["budget"] == want
    assert printed[0] == repr(want)
    assert np.allclose(namespace["report"].sigma.sum(axis=1), 1.0)
    assert namespace["values"].shape == (2, 17)
    assert ast.literal_eval(printed[-1]) == pytest.approx((2 / 3, 1 / 6, 1 / 6))
