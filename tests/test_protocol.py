"""Wire-protocol tests: real child processes over stdin/stdout."""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kpshap import (
    Coalition,
    ExternalOracle,
    OracleError,
    SyntheticOracle,
    serve,
)
from tests.test_oracle import make_config, tiny_schema

_ROOT = str(Path(__file__).resolve().parent.parent)

SERVE_3KP = (
    '{} -c "'
    "import sys; sys.path.insert(0, {!r}); "
    "from kpshap import SyntheticOracle, serve; "
    "from tests.test_oracle import make_config, tiny_schema; "
    'serve(SyntheticOracle(make_config(), tiny_schema()), sys.stdin, sys.stdout)"'
).format(sys.executable, _ROOT)


def test_serve_loop_in_memory():
    schema = tiny_schema()
    oracle = SyntheticOracle(make_config(), schema)
    requests = "\n".join(
        [
            json.dumps({"op": "eval", "instances": ["all"], "visible": [0, 1, 2], "trial": 0}),
            "",  # blank lines are skipped
            json.dumps({"op": "eval", "instances": ["all"], "visible": [], "trial": 0}),
            json.dumps({"op": "nope"}),  # unsupported -> error reply, loop survives
            json.dumps({"op": "eval", "instances": ["all"], "visible": [1], "trial": 0}),
        ]
    )
    out = io.StringIO()
    serve(oracle, io.StringIO(requests + "\n"), out)
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert lines[0] == {"op": "hello", "n": 3, "names": ["k0", "k1", "k2"]}
    assert np.allclose(lines[1]["values"], [0.5, 0.6, 0.7])
    assert np.allclose(lines[2]["values"], [0.0, 0.0, 0.0])
    assert "error" in lines[3]
    assert "values" in lines[4]


def test_external_oracle_round_trip():
    schema = tiny_schema()
    with ExternalOracle(SERVE_3KP, schema) as remote:
        local = SyntheticOracle(make_config(), schema)
        for bits in range(8):
            c = Coalition(bits, 3)
            assert np.allclose(
                remote.eval("all", c), local.eval("all", c), atol=1e-12
            )


def test_external_oracle_schema_mismatch():
    schema5 = tiny_schema(5)
    with pytest.raises(OracleError) as exc:
        ExternalOracle(SERVE_3KP, schema5)
    assert exc.value.code == "schema-mismatch"


def test_external_oracle_error_reply_surfaces():
    schema = tiny_schema()
    with ExternalOracle(SERVE_3KP, schema) as remote:
        with pytest.raises(OracleError):
            # width guard trips inside the child and comes back as an error reply
            remote._eval("all", Coalition.full(4), 0)
        # the child is still alive and answering
        assert np.allclose(remote.eval("all", Coalition.full(3)), [0.5, 0.6, 0.7])


def test_external_oracle_timeout():
    cmd = (
        f'{sys.executable} -c "'
        "import json, sys, time; "
        "sys.stdout.write(json.dumps({'op': 'hello', 'n': 3, 'names': ['k0', 'k1', 'k2']}) + chr(10)); "
        "sys.stdout.flush(); "
        'time.sleep(30)"'
    )
    schema = tiny_schema()
    oracle = ExternalOracle(cmd, schema, timeout=0.3)
    try:
        with pytest.raises(OracleError) as exc:
            oracle.eval("all", Coalition.full(3))
        assert "timed out" in str(exc.value)
    finally:
        oracle.close()


SLOW_FIRST_REPLY = """\
import json, sys, time
sys.stdout.write(json.dumps({"op": "hello", "n": 3, "names": ["k0", "k1", "k2"]}) + "\\n")
sys.stdout.flush()
for count, line in enumerate(sys.stdin):
    if count == 0:
        time.sleep(1.5)
    visible = json.loads(line)["visible"]
    values = [1.0 if k in visible else 0.0 for k in range(3)]
    sys.stdout.write(json.dumps({"values": values}) + "\\n")
    sys.stdout.flush()
"""


def test_external_oracle_refuses_calls_after_timeout(tmp_path):
    # the late reply to the timed-out request must never answer a later one
    script = tmp_path / "slow_first_reply.py"
    script.write_text(SLOW_FIRST_REPLY)
    oracle = ExternalOracle([sys.executable, str(script)], tiny_schema(), timeout=0.5)
    try:
        with pytest.raises(OracleError) as exc:
            oracle.eval("all", Coalition.full(3))
        assert "timed out" in str(exc.value)
        for _ in range(2):
            with pytest.raises(OracleError) as exc:
                oracle.eval("all", Coalition.empty(3))
            assert exc.value.code == "oracle-io"
        assert oracle._proc.poll() is not None  # the child was killed
    finally:
        oracle.close()


def test_external_oracle_dead_child():
    cmd = f'{sys.executable} -c "pass"'
    schema = tiny_schema()
    with pytest.raises(OracleError):
        ExternalOracle(cmd, schema, timeout=5.0)


def test_env_var_overrides_command(monkeypatch):
    schema = tiny_schema()
    monkeypatch.setenv("KPSHAP_ORACLE_CMD", SERVE_3KP)
    with ExternalOracle("definitely-not-a-real-command", schema) as remote:
        assert np.allclose(remote.eval("all", Coalition.full(3)), [0.5, 0.6, 0.7])


def test_env_var_overrides_timeout(monkeypatch):
    schema = tiny_schema()
    monkeypatch.setenv("KPSHAP_ORACLE_TIMEOUT", "0.25")
    cmd = (
        f'{sys.executable} -c "'
        "import json, sys, time; "
        "sys.stdout.write(json.dumps({'op': 'hello', 'n': 3, 'names': ['k0', 'k1', 'k2']}) + chr(10)); "
        "sys.stdout.flush(); "
        'time.sleep(30)"'
    )
    oracle = ExternalOracle(cmd, schema, timeout=60.0)
    try:
        assert oracle.timeout == 0.25
        with pytest.raises(OracleError):
            oracle.eval("all", Coalition.full(3))
    finally:
        oracle.close()


def test_env_var_bad_timeout(monkeypatch):
    schema = tiny_schema()
    monkeypatch.setenv("KPSHAP_ORACLE_TIMEOUT", "soon")
    with pytest.raises(OracleError):
        ExternalOracle(SERVE_3KP, schema)


def test_cli_serve_synthetic_handshake(fixtures_dir):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "kpshap",
            "oracle",
            "serve-synthetic",
            "--config",
            str(fixtures_dir / "synthetic17.json"),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        hello = json.loads(proc.stdout.readline())
        assert hello["op"] == "hello" and hello["n"] == 17
        assert hello["names"][0] == "nose"
        proc.stdin.write(
            json.dumps({"op": "eval", "instances": ["all"], "visible": list(range(17)), "trial": 0})
            + "\n"
        )
        proc.stdin.flush()
        reply = json.loads(proc.stdout.readline())
        assert len(reply["values"]) == 17
    finally:
        proc.stdin.close()
        proc.wait(timeout=5)
