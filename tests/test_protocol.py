"""Wire-protocol tests: real child processes over stdin/stdout."""

import io
import json
import math
import os
import resource
import select
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpshap import (
    Coalition,
    CoalitionValueOracle,
    DataError,
    ExternalOracle,
    OracleError,
    SyntheticModelConfig,
    SyntheticOracle,
    serve,
)
from kpshap.errors import _json_line
from kpshap.oracle import (
    _answer,
    _compact_request,
    _hex_row,
    _parse_request,
    _request_lines,
)
from tests.test_oracle import make_config, tiny_schema

_ROOT = str(Path(__file__).resolve().parent.parent)



def serve_command(n=3, noise=0.0):
    """A child serving SyntheticOracle(make_config(n, noise)) on stdio."""
    return (
        '{} -c "'
        "import sys; sys.path.insert(0, {!r}); "
        "from kpshap import SyntheticOracle, serve; "
        "from tests.test_oracle import make_config, tiny_schema; "
        'serve(SyntheticOracle(make_config({n}, {noise}), tiny_schema({n})), sys.stdin, sys.stdout)"'
    ).format(sys.executable, _ROOT, n=n, noise=noise)


SERVE_3KP = serve_command()


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
    assert lines[0] == {"op": "hello", "n": 3, "names": ["k0", "k1", "k2"], "replies": ["f64"]}
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
            remote._eval_many("all", [0b1111], 0)
        # the child is still alive and answering
        assert np.allclose(remote.eval("all", Coalition(0b111, 3)), [0.5, 0.6, 0.7])


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
            oracle.eval("all", Coalition(0b111, 3))
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
            oracle.eval("all", Coalition(0b111, 3))
        assert "timed out" in str(exc.value)
        for _ in range(2):
            with pytest.raises(OracleError) as exc:
                oracle.eval("all", Coalition(0, 3))
            assert exc.value.code == "oracle-io"
        assert oracle._proc.poll() is not None  # the child was killed
    finally:
        oracle.close()


def test_external_oracle_dead_child():
    cmd = f'{sys.executable} -c "pass"'
    schema = tiny_schema()
    with pytest.raises(OracleError):
        ExternalOracle(cmd, schema, timeout=5.0)


def test_cli_serve_synthetic_handshake(fixtures_dir):
    with subprocess.Popen(
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
    ) as proc:
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
    # leaving the block closed both pipes, and stdin's EOF ended the child
    assert proc.returncode == 0


# --- pipelined batches ----------------------------------------------------

# A scripted 3-keypoint child: hello, then per request line either a reply
# (1.0 for each visible keypoint), or whatever ACT does at that line.
SCRIPTED = """\
import json, sys, time
sys.stdout.write(json.dumps({{"op": "hello", "n": 3, "names": ["k0", "k1", "k2"]}}) + "\\n")
sys.stdout.flush()
for count, line in enumerate(sys.stdin):
    visible = json.loads(line)["visible"]
{act}
    values = [1.0 if k in visible else 0.0 for k in range(3)]
    sys.stdout.write(json.dumps({{"values": values}}) + "\\n")
    sys.stdout.flush()
"""


def scripted_oracle(tmp_path, act, timeout=10.0):
    script = tmp_path / "child.py"
    script.write_text(SCRIPTED.format(act=act))
    return ExternalOracle([sys.executable, str(script)], tiny_schema(), timeout=timeout)


def indicator_rows(masks):
    return np.array([[float(m >> k & 1) for k in range(3)] for m in masks])


BIG_BATCH = """\
import sys
sys.path.insert(0, {root!r})
import numpy as np
from kpshap import ExternalOracle, SyntheticOracle
from tests.test_oracle import make_config, tiny_schema
from tests.test_protocol import SERVE_3KP
masks = [int(m) for m in np.random.default_rng(3).integers(0, 8, size=20000)]
with ExternalOracle(SERVE_3KP, tiny_schema()) as remote:
    got = remote.eval_many("all", masks, 4)
want = SyntheticOracle(make_config(), tiny_schema()).eval_many("all", masks, 4)
assert got.tobytes() == want.tobytes()
print("ok", got.shape)
"""


def test_batch_larger_than_both_pipe_buffers_completes():
    # 20000 requests (about 1.2 MB) and their replies overflow both 64 KiB
    # pipes: a client that blocked on its writes would never finish, so the
    # batch runs in a subprocess with a hard deadline
    done = subprocess.run(
        [sys.executable, "-c", BIG_BATCH.format(root=_ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok", "(20000,", "3)"]


def test_error_reply_mid_batch_keeps_the_stream_in_step(tmp_path):
    act = """\
    if visible == [1]:
        sys.stdout.write(json.dumps({"error": "cannot score [1]"}) + "\\n")
        sys.stdout.flush()
        continue"""
    with scripted_oracle(tmp_path, act) as remote:
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [7, 3, 2, 5, 0], 0)
        assert exc.value.code != "oracle-io"
        assert "cannot score [1]" in str(exc.value)
        # every reply of the failed batch was read: the next batch gets its own
        masks = [5, 4, 1, 6, 3]
        assert np.array_equal(remote.eval_many("all", masks, 0), indicator_rows(masks))


def test_child_exiting_mid_batch_is_oracle_io_and_quotes_stderr(tmp_path):
    act = """\
    if count == 2:
        sys.stderr.write("model weights missing\\n")
        sys.exit(3)"""
    remote = scripted_oracle(tmp_path, act)
    try:
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", list(range(8)), 0)
        assert exc.value.code == "oracle-io"
        assert "model weights missing" in str(exc.value)
        assert "exited with 3" in str(exc.value)
        later_calls = (
            lambda: remote.eval_many("all", [7], 0),
            lambda: remote.eval("all", Coalition(7, 3)),
        )
        for call in later_calls:
            with pytest.raises(OracleError) as later:
                call()
            assert later.value.code == "oracle-io" and "unusable" in str(later.value)
    finally:
        remote.close()


def test_child_crash_is_quoted_when_its_pipes_sit_above_fd_1023(tmp_path):
    # select.select refuses descriptors above 1023, so a client that polls
    # the dead child's stderr with it raises ValueError, not OracleError
    soft, _ = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != resource.RLIM_INFINITY and soft < 1100:
        pytest.skip(f"needs about 1100 descriptors, the soft limit is {soft}")
    dups = []
    try:
        # os.dup returns the lowest free descriptor, so once it returns 1030
        # every lower one is taken, and the child's pipes open above them
        while not dups or dups[-1] < 1030:
            dups.append(os.dup(2))
        remote = scripted_oracle(tmp_path, '    sys.stderr.write("no model\\n")\n    sys.exit(4)')
        try:
            assert min(p.fileno() for p in (remote._proc.stdout, remote._proc.stderr)) > 1023
            with pytest.raises(OracleError) as exc:
                remote.eval_many("all", [7], 0)
            assert exc.value.code == "oracle-io"
            assert "exited with 4" in str(exc.value) and "no model" in str(exc.value)
        finally:
            remote.close()
    finally:
        for fd in dups:
            os.close(fd)


def test_child_closing_its_output_is_waited_for(tmp_path):
    # stdout ends before the child has said why or exited: the error still
    # carries its exit code and its last words
    act = """\
    if count == 1:
        __import__("os").close(1)
        time.sleep(0.3)
        sys.stderr.write("lost the GPU\\n")
        sys.exit(7)"""
    remote = scripted_oracle(tmp_path, act)
    try:
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [1, 2, 3], 0)
        assert exc.value.code == "oracle-io" and "closed its output" in str(exc.value)
        assert "exited with 7" in str(exc.value) and "lost the GPU" in str(exc.value)
    finally:
        remote.close()


def test_child_stalling_mid_batch_times_out(tmp_path):
    act = """\
    if count == 2:
        time.sleep(30)"""
    remote = scripted_oracle(tmp_path, act, timeout=0.5)
    try:
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", list(range(8)), 0)
        assert exc.value.code == "oracle-io"
        assert "timed out" in str(exc.value)
        assert remote._proc.poll() is not None  # the child was killed
        with pytest.raises(OracleError):
            remote.eval_many("all", [7], 0)
    finally:
        remote.close()


def test_child_flooding_stderr_mid_batch_does_not_hang(tmp_path):
    # 200 KiB of stderr per request: a client that did not drain stderr
    # would leave the child blocked on it and time out
    act = """\
    sys.stderr.write("log line of noise\\n" * 11000)
    sys.stderr.flush()
    if count == 12:
        sys.stderr.write("last words\\n")
        sys.exit(5)"""
    remote = scripted_oracle(tmp_path, act, timeout=5.0)
    try:
        masks = [m % 8 for m in range(12)]
        assert np.array_equal(remote.eval_many("all", masks, 0), indicator_rows(masks))
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [7], 0)
        # only a bounded tail of the stderr is quoted
        assert "last words" in str(exc.value) and "exited with 5" in str(exc.value)
        assert len(str(exc.value)) < 8192
    finally:
        remote.close()


def test_malformed_values_mid_batch_are_data_errors(tmp_path):
    act = """\
    if visible == [1]:
        sys.stdout.write(json.dumps({"values": "abc"}) + "\\n")
        sys.stdout.flush()
        continue"""
    with scripted_oracle(tmp_path, act) as remote:
        with pytest.raises(DataError):
            remote.eval_many("all", [7, 2, 3], 0)
        with pytest.raises(DataError):
            remote.eval("all", Coalition(2, 3))
        assert np.array_equal(remote.eval_many("all", [3, 4], 0), indicator_rows([3, 4]))


def test_non_json_reply_mid_batch_ends_the_child(tmp_path):
    act = """\
    if count == 1:
        sys.stdout.write("Traceback (most recent call last):\\n")
        sys.stdout.flush()
        continue"""
    remote = scripted_oracle(tmp_path, act)
    try:
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [1, 2, 3], 0)
        assert exc.value.code == "oracle-io" and "non-JSON" in str(exc.value)
        with pytest.raises(OracleError):
            remote.eval_many("all", [1], 0)
    finally:
        remote.close()


def test_close_drains_a_child_that_logs_on_its_way_out(tmp_path):
    # on stdin EOF the child writes more stderr than a pipe holds before it
    # exits; close must read it rather than leave the child blocked and kill it
    script = tmp_path / "chatty_exit.py"
    script.write_text(
        SCRIPTED.format(act="    pass")
        + 'sys.stderr.write("shutting down\\n" * 20000)\nsys.exit(0)\n'
    )
    remote = ExternalOracle([sys.executable, str(script)], tiny_schema(), timeout=10.0)
    proc = remote._proc
    assert np.array_equal(remote.eval_many("all", [6, 1], 0), indicator_rows([6, 1]))
    remote.close()
    assert proc.returncode == 0


# --- batched serving ------------------------------------------------------


def eval_line(visible, trial=0, instances=("all",)):
    return json.dumps({"op": "eval", "instances": list(instances), "visible": visible, "trial": trial})


def served(oracle, lines):
    """serve's reply lines, the handshake apart, to the given request lines."""
    out = io.StringIO()
    serve(oracle, io.StringIO("".join(line + "\n" for line in lines)), out)
    hello, *replies = out.getvalue().splitlines()
    assert json.loads(hello)["op"] == "hello"
    return replies


class RecordingOracle(CoalitionValueOracle):
    """Scores through ``inner``, records every batch, and refuses a batch
    that holds the mask ``refuse``."""

    def __init__(self, inner, refuse=None):
        super().__init__(inner.schema)
        self.inner = inner
        self.refuse = refuse
        self.batches = []

    def _eval_many(self, instances, masks, trial):
        self.batches.append((instances, trial, list(masks)))
        if self.refuse in masks:
            raise DataError(f"cannot score 0x{self.refuse:x}")
        return self.inner._eval_many(instances, masks, trial)


# runs of two trials and two instance sets, a blank line, an unsupported op
# and an out-of-range keypoint in the middle of the last run
MIXED = [
    eval_line([0, 1, 2]),
    eval_line([1]),
    "",
    eval_line([2], instances=["0", "1"]),
    eval_line([0, 2], instances=["0", "1"]),
    json.dumps({"op": "nope"}),
    eval_line([], trial=1),
    eval_line([0], trial=1),
    eval_line([1, 2], trial=1),
    eval_line([0, 5], trial=1),
    eval_line([2], trial=1),
    eval_line([0, 1], trial=1),
]


def reference_replies(oracle, lines):
    """The replies of a server that scores one request line at a time with eval."""
    replies = []
    for raw in lines:
        if not raw.strip():
            continue
        try:
            msg = json.loads(raw)
            if msg.get("op") != "eval":
                raise DataError(f"unsupported request: {raw.strip()[:200]}")
            inst = msg["instances"]
            instances = "all" if inst == ["all"] else tuple(inst)
            n = oracle.schema.n
            bits = 0
            for i in msg["visible"]:
                if not 0 <= i < n:
                    raise DataError(f"keypoint index {i} out of range for n={n}")
                bits |= 1 << i
            coalition = Coalition(bits, n)
            reply = {"values": [float(v) for v in oracle.eval(instances, coalition, msg["trial"])]}
        except DataError as e:
            reply = {"error": str(e)}
        replies.append(json.dumps(reply, sort_keys=True, separators=(",", ":")))
    return replies


def test_serve_answers_a_mixed_stream_as_one_line_at_a_time():
    oracle = SyntheticOracle(make_config(noise=0.1), tiny_schema())
    alone = [reply for line in MIXED for reply in served(oracle, [line])]
    assert alone == reference_replies(oracle, MIXED)
    assert served(oracle, MIXED) == alone
    assert len(alone) == len(MIXED) - 1
    assert [i for i, r in enumerate(alone) if "error" in json.loads(r)] == [4, 8]
    # scored as one stream, each run of requests is one batch
    recorder = RecordingOracle(oracle)
    text = _answer(recorder, MIXED)
    assert text.splitlines() == alone
    assert recorder.batches == [
        ("all", 0, [7, 2]),
        (("0", "1"), 0, [4, 5]),
        ("all", 1, [0, 1, 6]),
        ("all", 1, [4, 3]),
    ]


def test_serve_answers_a_failing_batch_one_request_at_a_time():
    local = SyntheticOracle(make_config(noise=0.1), tiny_schema())
    masks = [7, 1, 6, 2, 3]
    lines = [eval_line([k for k in range(3) if m >> k & 1], trial=2) for m in masks]
    replies = [json.loads(r) for r in served(RecordingOracle(local, refuse=6), lines)]
    assert replies[2] == {"error": "cannot score 0x6"}
    values = [r["values"] for i, r in enumerate(replies) if i != 2]
    want = local.eval_many("all", [7, 1, 2, 3], 2)
    assert np.array_equal(np.array(values), want)
    # the refused batch is scored again one request at a time
    recorder = RecordingOracle(local, refuse=6)
    _answer(recorder, lines)
    assert [b[2] for b in recorder.batches] == [masks] + [[m] for m in masks]


def test_serve_raises_a_read_error_after_answering_what_it_read():
    oracle = SyntheticOracle(make_config(), tiny_schema())

    def breaking_pipe():
        yield eval_line([0, 1, 2]) + "\n"
        yield eval_line([1]) + "\n"
        raise OSError("pipe broke")

    out = io.StringIO()
    with pytest.raises(OSError, match="pipe broke"):
        serve(oracle, breaking_pipe(), out)
    hello, *replies = out.getvalue().splitlines()
    assert [json.loads(r)["values"] for r in replies] == [
        oracle.eval_many("all", [m], 0)[0].tolist() for m in (7, 2)
    ]


def test_noisy_batch_over_the_wire_equals_in_process():
    schema = tiny_schema(5)
    masks = list(range(32))[::-1]
    with ExternalOracle(serve_command(5, 0.1), schema) as remote:
        got = [remote.eval_many(inst, masks, 3) for inst in ("all", ["0", "1"])]
    local = SyntheticOracle(make_config(5, 0.1), schema)
    for inst, rows in zip(("all", ["0", "1"]), got):
        assert np.array_equal(rows, local.eval_many(inst, masks, 3))


def test_serve_refuses_requests_it_would_have_to_coerce():
    # each bad request gets its own error reply; its neighbours, which share
    # its run of instances and trial, are still scored in one batch
    bad = [
        '{"op":"eval","instances":["all"],"visible":[0],"trial":1.5}',
        '{"op":"eval","instances":["all"],"visible":[0],"trial":"3"}',
        '{"op":"eval","instances":["all"],"visible":[0],"trial":true}',
        '{"op":"eval","instances":["all"],"visible":[0],"trial":1e3}',
        '{"op":"eval","instances":["all"],"visible":[0,true],"trial":0}',
        '{"op":"eval","instances":["all"],"visible":[0,1.0],"trial":0}',
        '{"op":"eval","instances":["all"],"visible":"01","trial":0}',
        '{"op":"eval","instances":"ab","visible":[0],"trial":0}',
        '{"op":"eval","instances":[0,1],"visible":[0],"trial":0}',
    ]
    good = [eval_line([1, 2]), '{"op":"eval","instances":["all"],"visible":[2]}']
    lines = [good[0]] + [line for b in bad for line in (b, good[1])]
    oracle = SyntheticOracle(make_config(noise=0.1), tiny_schema())
    replies = [json.loads(r) for r in served(oracle, lines)]
    assert len(replies) == len(lines)
    errors = [r["error"] for r in replies[1::2]]
    assert all("is not" in e for e in errors), errors
    values = [r["values"] for r in replies[::2]]
    # a missing trial is trial 0
    assert values == oracle.eval_many("all", [6] + [4] * len(bad), 0).tolist()
    out_of_range = served(oracle, [eval_line([0, 3])])
    assert json.loads(out_of_range[0]) == {"error": "keypoint index 3 out of range for n=3"}


# --- the wire codec -------------------------------------------------------


# (n, masks): up to 20 keypoints, and the 64, 65 and 133 where a mask spans
# a whole number of bytes, one bit more, and the whole-body layout
sized_masks = st.one_of(st.integers(1, 20), st.sampled_from([64, 65, 133])).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
)
# the empty coalition, and masks whose middle bytes are all zero
SPARSE_MASKS = [(17, [0, 1 | 1 << 16]), (133, [0, 1 | 1 << 132, 1 << 64])]
request_ids = st.one_of(st.just(["all"]), st.lists(st.text(max_size=8), min_size=1, max_size=3))
trials = st.integers(-(1 << 63), (1 << 63) - 1)


@settings(max_examples=200, deadline=None)
@given(sized_masks, request_ids, trials)
@example((17, [0, 5]), ['q"uote', "back\\slash", "nicht-ASCII: ÿ€😀"], (1 << 63) - 1)
@example(SPARSE_MASKS[0], ["all"], 0)
@example(SPARSE_MASKS[1], ["all"], 0)
def test_request_lines_are_the_json_lines(sized, ids, trial):
    n, masks = sized
    masks = masks + [(1 << n) - 1]
    want = "".join(
        _json_line(
            {
                "op": "eval",
                "instances": ids,
                "visible": [i for i in range(n) if m >> i & 1],
                "trial": trial,
            }
        )
        + "\n"
        for m in masks
    )
    assert _request_lines(ids, trial, masks) == want


# a JSON object but for one byte that is not UTF-8
NOT_UTF8 = r"""sys.stdout.buffer.write(b'{"values":[0.0,1.0,0.0],"note":"\xff"}\n')"""


@pytest.mark.parametrize(
    "reply, error",
    [
        ('sys.stdout.write("[1]\\n")', "non-object message"),
        (NOT_UTF8, "non-JSON line"),
        # nested deeper than the decoder recurses
        ('sys.stdout.write("[" * 100000 + "]" * 100000 + "\\n")', "non-JSON line"),
    ],
    ids=["array", "not-utf8", "too-deep"],
)
def test_bad_reply_lines_end_the_child(tmp_path, reply, error):
    act = f"""\
    if count == 1:
        {reply}
        sys.stdout.flush()
        continue"""
    remote = scripted_oracle(tmp_path, act)
    try:
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [1, 2, 3], 0)
        assert exc.value.code == "oracle-io" and error in str(exc.value)
        with pytest.raises(OracleError, match="unusable"):
            remote.eval_many("all", [1], 0)
    finally:
        remote.close()


# --- f64 replies ----------------------------------------------------------


def test_serve_without_the_opt_in_replies_in_plain_values_bytes():
    oracle = SyntheticOracle(make_config(noise=0.1), tiny_schema())
    out = io.StringIO()
    serve(oracle, io.StringIO(eval_line([0, 1, 2]) + "\n"), out)
    assert out.getvalue().splitlines()[0] == (
        '{"n":3,"names":["k0","k1","k2"],"op":"hello","replies":["f64"]}'
    )
    exact = SyntheticOracle(make_config(), tiny_schema())
    assert served(exact, [eval_line([0, 1, 2]), eval_line([])]) == [
        '{"values":[0.5,0.6,0.7]}',
        '{"values":[0.0,0.0,0.0]}',
    ]
    # every request of the mixed stream, asked for "values" or not at all,
    # gets the reply of a server that writes each row with the json module
    explicit = [line.replace('"op": "eval"', '"op": "eval", "reply": "values"') for line in MIXED]
    assert explicit != MIXED
    want = reference_replies(oracle, MIXED)
    assert served(oracle, MIXED) == want
    assert served(oracle, explicit) == want


class FixedRows(CoalitionValueOracle):
    """Answers mask m with row m % len(rows) of ``rows``."""

    def __init__(self, rows):
        super().__init__(tiny_schema(len(rows[0])))
        self.rows = np.array(rows, dtype=np.float64)

    def _eval_many(self, instances, masks, trial):
        return self.rows[[m % len(self.rows) for m in masks]]


EDGE_VALUES = [-0.0, 5e-324, 0.0, 1.0]
unit_floats = st.one_of(st.sampled_from(EDGE_VALUES + [0.1, 1 / 3]), st.floats(0.0, 1.0))


@settings(max_examples=100, deadline=None)
@given(
    # at least 3 keypoints, so that each of the up to 8 rows has its own mask
    st.integers(3, 9).flatmap(
        lambda n: st.lists(st.lists(unit_floats, min_size=n, max_size=n), min_size=1, max_size=8)
    )
)
@example([EDGE_VALUES, EDGE_VALUES[::-1], [-0.0] * 3 + [5e-324]])
def test_f64_replies_carry_the_bits_of_the_values_replies(rows):
    oracle = FixedRows(rows)
    n = oracle.schema.n
    masks = list(range(len(rows)))
    plain = [eval_line([k for k in range(n) if m >> k & 1]) for m in masks]
    f64 = [json.dumps({**json.loads(line), "reply": "f64"}) for line in plain]
    values = np.array([json.loads(r)["values"] for r in served(oracle, plain)])
    lines = served(oracle, f64)
    assert all(json.loads(r).keys() == {"f64"} for r in lines)
    by_line = np.array([np.frombuffer(bytes.fromhex(json.loads(r)["f64"]), "<f8") for r in lines])
    # as ExternalOracle reads a batch of them: one row of the joined digits
    digits = "".join(json.loads(r)["f64"] for r in lines)
    by_batch = _hex_row(digits, n * len(lines)).reshape(-1, n)
    want = np.array(rows, dtype=np.float64).view(np.uint64)
    for got in (values, by_line, by_batch):
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want)


@pytest.mark.parametrize("reply", ['"f32"', '"F64"', '["f64"]', "null", "64"])
def test_serve_answers_an_unknown_reply_form_with_an_error(reply):
    oracle = SyntheticOracle(make_config(), tiny_schema())
    bad = '{"instances":["all"],"op":"eval","reply":%s,"trial":0,"visible":[0]}' % reply
    replies = [json.loads(r) for r in served(oracle, [eval_line([1]), bad, eval_line([2])])]
    assert list(replies[1]) == ["error"] and "reply" in replies[1]["error"]
    assert [r["values"] for r in replies[::2]] == oracle.eval_many("all", [2, 4], 0).tolist()


def test_serve_answers_each_request_in_the_form_it_asks_for():
    oracle = SyntheticOracle(make_config(noise=0.1), tiny_schema())
    forms = ["f64", None, "values", "f64", "f64", None]
    lines = []
    for m, form in enumerate(forms):
        msg = json.loads(eval_line([k for k in range(3) if m >> k & 1], trial=1))
        lines.append(json.dumps(msg if form is None else {**msg, "reply": form}))
    alone = [reply for line in lines for reply in served(oracle, [line])]
    assert served(oracle, lines) == alone
    assert [list(json.loads(r)) for r in alone] == [["f64" if f == "f64" else "values"] for f in forms]
    # a request without "reply" and one with "reply": "values" share a batch
    recorder = RecordingOracle(oracle)
    _answer(recorder, lines)
    assert [b[2] for b in recorder.batches] == [[0], [1, 2], [3, 4], [5]]


# A scripted 3-keypoint child that logs each request line to LOG and answers
# 1.0 for each visible keypoint, as compact f64 if the request asks for it
# and as values otherwise, unless ACT acts first. EXTRA joins its hello.
LOGGING_CHILD = """\
import json, struct, sys
hello = {{"op": "hello", "n": 3, "names": ["k0", "k1", "k2"], **{extra!r}}}
sys.stdout.write(json.dumps(hello) + "\\n")
sys.stdout.flush()
log = open({log!r}, "a")
for count, line in enumerate(sys.stdin):
    log.write(line)
    log.flush()
    visible = json.loads(line)["visible"]
{act}
    values = [1.0 if k in visible else 0.0 for k in range(3)]
    if json.loads(line).get("reply") == "f64":
        sys.stdout.write('{{"f64":"' + struct.pack("<3d", *values).hex() + '"}}\\n')
    else:
        sys.stdout.write(json.dumps({{"values": values}}) + "\\n")
    sys.stdout.flush()
"""


def logging_oracle(where, extra, act="    pass"):
    """An ExternalOracle on a LOGGING_CHILD in directory ``where``, and its log."""
    where.mkdir()
    script, log = where / "child.py", where / "requests.log"
    script.write_text(LOGGING_CHILD.format(extra=extra, log=str(log), act=act))
    return ExternalOracle([sys.executable, str(script)], tiny_schema(), timeout=10.0), log


@pytest.mark.parametrize(
    "extra",
    [{}, {"replies": []}, {"replies": ["f32"]}, {"replies": "f64"}, {"replies": None}],
    ids=["no-replies", "empty", "other-form", "string", "null"],
)
def test_client_sends_plain_request_bytes_to_a_child_without_f64(tmp_path, extra):
    masks = [7, 0, 5]
    remote, log = logging_oracle(tmp_path / "child", extra)
    with remote:
        assert np.array_equal(remote.eval_many(["0", "1"], masks, 2), indicator_rows(masks))
    assert log.read_text() == (
        '{"instances":["0","1"],"op":"eval","trial":2,"visible":[0,1,2]}\n'
        '{"instances":["0","1"],"op":"eval","trial":2,"visible":[]}\n'
        '{"instances":["0","1"],"op":"eval","trial":2,"visible":[0,2]}\n'
    )


@pytest.mark.parametrize(
    "names",
    [None, 5, {"k0": 0, "k1": 1, "k2": 2}],
    ids=["null", "number", "dict"],
)
def test_malformed_hello_names_stop_the_child(tmp_path, names):
    # names must be a list: tuple() of a dict of the right names equals them
    script, pid_file = tmp_path / "child.py", tmp_path / "pid"
    hello = {"op": "hello", "n": 3, "names": names}
    script.write_text(
        "import json, os, sys\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        f"print(json.dumps({hello!r}), flush=True)\n"
        "sys.stdin.read()\n"
    )
    with pytest.raises(OracleError) as exc:
        ExternalOracle([sys.executable, str(script)], tiny_schema(), timeout=10.0)
    assert exc.value.code == "schema-mismatch"
    assert f"child has n=3 names={names}, expected" in str(exc.value)
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_client_opts_in_when_the_hello_offers_f64(tmp_path):
    masks = [7, 0, 5, 2]
    remote, log = logging_oracle(tmp_path / "child", {"replies": ["f32", "f64"]})
    with remote:
        assert np.array_equal(remote.eval_many("all", masks, 1), indicator_rows(masks))
    assert log.read_text() == "".join(
        _json_line(
            {
                "instances": ["all"],
                "op": "eval",
                "reply": "f64",
                "trial": 1,
                "visible": [k for k in range(3) if m >> k & 1],
            }
        )
        + "\n"
        for m in masks
    )


def test_client_reads_f64_and_values_replies_in_one_batch(tmp_path):
    # a child may answer some requests of a batch in the default form, or
    # write its f64 replies with spaces: each line is then read on its own
    act = """\
    if visible == [1]:
        sys.stdout.write(json.dumps({"values": [0.0, 1.0, 0.0]}) + "\\n")
        sys.stdout.flush()
        continue
    if visible == [0, 2]:
        sys.stdout.write(json.dumps({"f64": struct.pack("<3d", 1.0, 0.0, 1.0).hex()}) + "\\n")
        sys.stdout.flush()
        continue"""
    masks = [7, 2, 5, 4]
    remote, _ = logging_oracle(tmp_path / "child", {"replies": ["f64"]}, act)
    with remote:
        assert np.array_equal(remote.eval_many("all", masks, 0), indicator_rows(masks))


NAN_ROW = struct.pack("<3d", math.nan, 0.0, 0.0).hex()


@pytest.mark.parametrize(
    "reply",
    [
        '{"f64":"0000"}',
        '{"f64":"' + "00" * 25 + '"}',
        '{"f64":"' + "zz" * 24 + '"}',
        '{"f64":"' + "  " + "00" * 23 + '"}',
        # as long as a minimal f64 line, but with a space and one digit too
        # few
        '{"f64": "' + "0" * 47 + '"}',
        # as many bytes as a minimal f64 line, with its prefix and suffix, but
        # a JSON escape or a two-byte character among the digits
        '{"f64":"\\u0030' + "0" * 42 + '"}',
        '{"f64":"\u00e9' + "0" * 46 + '"}',
        # bytes.fromhex skips spaces: these 48 digits would read as 2 values
        '{"f64":"' + " " * 16 + "00" * 16 + '"}',
        '{"f64":"' + NAN_ROW + '"}',
        '{"f64":"' + "ff" * 24 + '"}',
        '{"f64":5}',
        '{"f64":["' + "00" * 24 + '"]}',
        # digits that str.isalnum passes and bytes.fromhex refuses: full-width
        # and Arabic-Indic zeros, as many characters as a row has digits
        '{"f64":"' + "\uff10" * 48 + '"}',
        '{"f64":"' + "\u0660" * 48 + '"}',
        # the values replies that end the same way
        '{"values":"abc"}',
        '{"values":[NaN,0.0,0.0]}',
        # JSON numbers only: no numeric string or bool read as a number, and
        # no integer that a float cannot hold
        '{"values":["0.5",true,0.25]}',
        '{"values":[0.5,true,0.25]}',
        '{"values":[1' + "0" * 400 + ',0.0,0.0]}',
        '{"values":[0.5,0.25]}',
    ],
    ids=[
        "short", "long", "not-hex", "whitespace", "minimal-length-spaced",
        "minimal-length-escape", "minimal-length-non-ascii", "two-values",
        "nan", "all-ones",
        "number", "list", "full-width-digits", "arabic-indic-digits",
        "values-not-a-list", "values-nan", "values-string", "values-bool",
        "values-huge-int", "values-short",
    ],
)
def test_malformed_f64_replies_are_data_errors_like_malformed_values(tmp_path, reply):
    act = f"""\
    if visible == [1]:
        sys.stdout.write({reply!r} + "\\n")
        sys.stdout.flush()
        continue"""
    remote, _ = logging_oracle(tmp_path / "child", {"replies": ["f64"]}, act)
    digits = json.loads(reply).get("f64")
    with remote:
        for masks in ([7, 2, 3], [2]):
            with pytest.raises(DataError) as exc:
                remote.eval_many("all", masks, 0)
            assert type(exc.value) is DataError and exc.value.code == "data"
            if "malformed" in str(exc.value):
                assert f"malformed values in reply {masks.index(2)}: " in str(exc.value)
            if isinstance(digits, str) and len(digits) == 48 and not digits.isascii():
                # refused as that row, in a batch as alone
                assert f"f64 row {digits!r:.20}" in str(exc.value)
        # the stream stayed in step: the next batch gets its own replies
        assert np.array_equal(remote.eval_many("all", [3, 4], 0), indicator_rows([3, 4]))


def test_f64_rows_of_the_wrong_length_are_not_read_as_one_batch(tmp_path):
    # a short row and a long one add up to a batch's worth of digits: each
    # row must still be refused, not the digits shifted from one to the next
    act = """\
    if visible in ([1], [0, 2]):
        digits = "00" * (23 if visible == [1] else 25)
        sys.stdout.write('{"f64":"' + digits + '"}\\n')
        sys.stdout.flush()
        continue"""
    remote, _ = logging_oracle(tmp_path / "child", {"replies": ["f64"]}, act)
    with remote:
        with pytest.raises(DataError, match="malformed values"):
            remote.eval_many("all", [2, 5], 0)
        assert np.array_equal(remote.eval_many("all", [3, 4], 0), indicator_rows([3, 4]))


def test_a_row_split_across_lines_is_not_read_as_one_batch(tmp_path):
    # mask 1's row is split over two lines and mask 4's line carries two rows,
    # so the batch still has one line per request: the first half-row ends
    # the child, as it does when the lines are read one at a time
    act = """\
    row = struct.pack("<3d", *[1.0 if k in visible else 0.0 for k in range(3)]).hex()
    if visible == [0]:
        sys.stdout.write('{"f64":"' + row[:24] + '\\n' + row[24:] + '"}\\n')
    if visible == [2]:
        other = struct.pack("<3d", 0.0, 1.0, 0.0).hex()
        sys.stdout.write('{"f64":"' + other + '"},{"f64":"' + row + '"}\\n')
    if visible in ([0], [1], [2]):
        sys.stdout.flush()
        continue"""
    remote, _ = logging_oracle(tmp_path / "child", {"replies": ["f64"]}, act)
    with remote:
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [1, 2, 4], 0)
        assert exc.value.code == "oracle-io" and "non-JSON line" in str(exc.value)


@pytest.mark.parametrize(
    "reply, error",
    [
        ('{"F64":"' + "00" * 24 + '"}', "missing 'values'"),
        ('{"f64":"' + "00" * 24 + '"]', "non-JSON line"),
    ],
    ids=["other-key", "other-suffix"],
)
def test_a_minimal_length_line_of_another_form_is_not_read_as_a_row(tmp_path, reply, error):
    # as many bytes as a minimal f64 line, 48 hex digits in the middle, but
    # not that reply: refused as when the lines are read one at a time
    act = f"""\
    if visible == [1]:
        sys.stdout.write({reply!r} + "\\n")
        sys.stdout.flush()
        continue"""
    remote, _ = logging_oracle(tmp_path / "child", {"replies": ["f64"]}, act)
    with remote:
        with pytest.raises(OracleError, match=error) as exc:
            remote.eval_many("all", [7, 2, 3], 0)
        assert exc.value.code == "oracle-io"


def test_a_reply_line_beyond_its_batch_ends_the_child(tmp_path):
    # a stray line written with mask 2's reply would otherwise be read as the
    # reply to the next request
    act = """\
    if visible == [1]:
        sys.stdout.write('{"values":[0.0,1.0,0.0]}\\n{"values":[0.5,0.5,0.5]}\\n')
        sys.stdout.flush()
        continue"""
    remote, _ = logging_oracle(tmp_path / "child", {}, act)
    with remote:
        assert np.array_equal(remote.eval_many("all", [7], 0), indicator_rows([7]))
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [2], 0)
        assert exc.value.code == "oracle-io"
        assert "after its 1 reply lines" in str(exc.value) and "0.5,0.5,0.5" in str(exc.value)
        with pytest.raises(OracleError, match="unusable"):
            remote.eval_many("all", [3], 0)


def test_a_reply_line_written_between_batches_ends_the_child(tmp_path):
    # the stray line comes after mask 2's reply has been read: it is found
    # before the next batch's first request is written
    go = tmp_path / "go"
    act = f"""\
    if visible == [1]:
        sys.stdout.write('{{"values":[0.0,1.0,0.0]}}\\n')
        sys.stdout.flush()
        while not __import__("os").path.exists({str(go)!r}):
            __import__("time").sleep(0.01)
        sys.stdout.write('{{"values":[0.5,0.5,0.5]}}\\n')
        sys.stdout.flush()
        continue"""
    remote, _ = logging_oracle(tmp_path / "child", {}, act)
    with remote:
        assert np.array_equal(remote.eval_many("all", [2], 0), indicator_rows([2]))
        go.touch()
        assert select.select([remote._proc.stdout], [], [], 10.0)[0]
        with pytest.raises(OracleError) as exc:
            remote.eval_many("all", [3], 0)
        assert exc.value.code == "oracle-io"
        assert "before a request" in str(exc.value) and "0.5,0.5,0.5" in str(exc.value)


@settings(max_examples=50, deadline=None)
@given(sized_masks, request_ids, trials)
@example(SPARSE_MASKS[0], ["all"], 0)
@example(SPARSE_MASKS[1], ["all"], 0)
def test_f64_request_lines_are_the_json_lines(sized, ids, trial):
    n, masks = sized
    want = "".join(
        _json_line(
            {
                "op": "eval",
                "instances": ids,
                "reply": "f64",
                "visible": [i for i in range(n) if m >> i & 1],
                "trial": trial,
            }
        )
        + "\n"
        for m in masks
    )
    assert _request_lines(ids, trial, masks, f64=True) == want


# --- requests read by their head ------------------------------------------


@pytest.mark.parametrize(
    "line, error",
    [
        ('{"op":"eval","trial":0,"visible":[0]}', "eval request has no 'instances' key"),
        ('{"instances":["all"],"op":"eval","trial":0}', "eval request has no 'visible' key"),
    ],
    ids=["instances", "visible"],
)
def test_serve_names_the_key_a_request_lacks(line, error):
    oracle = SyntheticOracle(make_config(), tiny_schema())
    replies = served(oracle, [eval_line([1]), line, eval_line([2])])
    assert replies[1] == _json_line({"error": error})
    assert [json.loads(r)["values"] for r in replies[::2]] == oracle.eval_many("all", [2, 4], 0).tolist()


def flat_oracle(n):
    """A noisy synthetic oracle of any width: every keypoint scores 0.5."""
    config = SyntheticModelConfig((0.5,) * n, ((0.0,) * n,) * n, 0.1)
    return SyntheticOracle(config, tiny_schema(n))


# Heads the head path must leave to the JSON path, or read exactly as it
# does: a "visible" that is the tail of an escaped-quote key or string, one
# after a comma inside a string, one in a nested object, one after a second
# document, one with nothing before it, a duplicate "visible" key, a
# leading space, another key order, a float trial, an unknown reply form,
# and no instances at all.
ODD_HEADS = [
    '{"instances":["all"],"op":"eval","trial":0,"visible":[],"x\\"visible":[',
    '{"instances":["all"],"op":"eval","trial":0,"x":"a\\",\\"visible":[',
    '{"instances":["all"],"op":"eval","trial":0,"x":"a,"visible":[',
    '{"instances":["all"],"meta":{"visible":[',
    '{"instances":["all"],"op":"eval","trial":0,"meta":{"visible":[',
    '{"instances":["all"],"op":"eval","trial":0,"visible":[]}{"visible":[',
    '"visible":[',
    '{"instances":["all"],"op":"eval","trial":0,"visible":[1],"visible":[',
    ' {"instances":["all"],"op":"eval","trial":0,"visible":[',
    '{"visible":[],"op":"eval","instances":["0","1"],"trial":2,"visible":[',
    '{"instances":["all"],"op":"eval","trial":1.0,"visible":[',
    '{"instances":["all"],"op":"eval","reply":"f32","trial":0,"visible":[',
    '{"op":"eval","trial":0,"visible":[',
]
ODD_MIDDLES = ["01", "-1", " 1", "1,1", "", "1,,2", "1,", "2 ", "1.0", "true", "9" * 40]
ENDINGS = ["]}\n", "]} \n", "]}\r\n", "]}}\n", "]}", "}\n"]


@st.composite
def request_batches(draw):
    """(n, lines, compact): a batch of request lines over n keypoints, and
    whether each is in the form _request_lines writes."""
    n = draw(st.sampled_from([3, 17, 20]))
    index = st.integers(0, n - 1)
    writer_heads = st.builds(
        lambda ids, trial, f64: (_request_lines(ids, trial, [0], f64)[:-3], True),
        request_ids,
        st.one_of(st.integers(-3, 3), trials),
        st.booleans(),
    )
    odd_heads = st.sampled_from(ODD_HEADS).map(lambda head: (head, False))
    heads = draw(st.lists(st.one_of(writer_heads, writer_heads, odd_heads), min_size=1, max_size=3))
    canonical = st.lists(index, max_size=n).map(lambda ks: (",".join(map(str, ks)), True))
    odd = st.one_of(
        st.sampled_from(ODD_MIDDLES + [str(n), f"0,{n + 5}"]),
        st.lists(st.one_of(index.map(str), st.sampled_from(ODD_MIDDLES)), min_size=2).map(",".join),
    ).map(lambda middle: (middle, False))
    lines, compact = [], []
    for _ in range(draw(st.integers(1, 8))):
        head, writer = draw(st.sampled_from(heads))
        middle, listed = draw(st.one_of(canonical, canonical, odd))
        # mostly the compact ending, so that runs of compact lines form
        ending = draw(st.sampled_from(["]}\n"] * 12 + ENDINGS))
        lines.append(head + middle + ending)
        compact.append(writer and listed and ending == "]}\n")
    return n, lines, compact


def json_path_answer(oracle, lines):
    """_answer with every line read by the JSON path alone."""
    with mock.patch("kpshap.oracle._compact_request", lambda raw, n: None):
        return _answer(oracle, lines)


@settings(max_examples=300, deadline=None)
@given(request_batches())
@example((20, [ODD_HEADS[0] + "5]}\n"], [False]))
@example((3, [ODD_HEADS[4] + "1]}\n"], [False]))
def test_requests_read_by_their_head_are_read_as_the_json_path_reads_them(batch):
    n, lines, compact = batch
    for line, writer in zip(lines, compact):
        got = _compact_request(line, n)
        assert got is not None or not writer, line
        if got is not None:
            assert got == _parse_request(line, n), line
    oracle = flat_oracle(n)
    by_head, by_json = RecordingOracle(oracle), RecordingOracle(oracle)
    assert _answer(by_head, lines) == json_path_answer(by_json, lines)
    assert by_head.batches == by_json.batches


def test_serve_answers_a_binary_infile_as_it_answers_text():
    oracle = SyntheticOracle(make_config(noise=0.1), tiny_schema())
    text = "".join(
        [
            _request_lines(["all"], 1, [7, 0, 5], f64=True),
            _request_lines(["0", "1"], 2, [3, 6]),
            eval_line([0, 3]) + "\n",
            '{"instances":["all"],"op":"eval","trial":1.5,"visible":[1]}\n',
            "\n",
            '{"op":"nope"}\n',
            _request_lines(["all"], 1, [2]),
        ]
    )
    want, got = io.StringIO(), io.StringIO()
    serve(oracle, io.StringIO(text), want)
    serve(oracle, io.BytesIO(text.encode()), got)
    assert got.getvalue() == want.getvalue()
    assert len(want.getvalue().splitlines()) == 1 + 9
    assert '{"error":"unsupported request: {\\"op\\":\\"nope\\"}"}' in want.getvalue()
