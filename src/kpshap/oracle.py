"""Coalition-value oracles.

An oracle answers one question: given a set of visible keypoints (a
coalition), what per-keypoint performance does the predictor under study
achieve? The primitive is ``eval_many(instances, masks, trial)``: it scores
a batch of coalitions, given as integer bitmasks (bit i = keypoint i
visible), and returns one row of n values per mask. The pipeline submits
every coalition through it, a Shapley run's small stages packed into one
batch. It checks what goes in (masks in [0, 2^n), instance ids, an integer
trial) and what comes out (finite values in [0, 1]) and returns a read-only
array. A backend implements only ``_eval_many``. ``eval`` scores one
``Coalition`` as a one-mask batch. The base ``_eval_many``, one public
``eval`` per mask, exists only for a wrapper that overrides ``eval`` alone.
Three backends share the interface:

- synthetic: a closed-form test double with optional counter-based noise,
  scored a block of rows at a time;
- tabular: exact lookup in a CSV of precomputed values;
- external: a child process speaking line-delimited JSON over stdin/stdout,
  one request per coalition, a whole batch pipelined.

Wire protocol (external backend). The child prints a handshake first:

    {"op": "hello", "n": 17, "names": ["nose", ...], "replies": ["f64"]}

then answers one request per line:

    {"op": "eval", "instances": ["all"], "visible": [0, 1, 5], "trial": 0}
    -> {"values": [0.71, ...]}         (n floats in [0, 1])
    -> {"error": "message"}            (failure)

``instances`` is ["all"] or a list of instance id strings; "all" is reserved.
``trial`` (0 when missing) and the ``visible`` entries are JSON integers;
``serve`` answers any other request with an error, never a coerced score.
ExternalOracle writes each line as compact JSON with sorted keys, and every
line of a batch shares its head, the text up to '"visible":['. ``serve``
reads such a line by that head, parsed as JSON once and kept, and its
indices from a table, with no JSON decode; it reads a line of any other
spelling as JSON, and either way gives the same reply.
A client may send every request of a batch before it reads any reply, and
ExternalOracle does. A server must therefore keep reading requests while it
answers, and answer them in order, one reply line per request. It may read
ahead and answer the requests it has buffered together, as ``serve`` does:
one eval_many per run of buffered requests with the same instances,
trial and reply form, and one flush per pass.
The client captures the child's stderr and quotes its tail, with the exit
code, when the child fails.

The hello's optional ``replies`` lists the reply forms the child offers
besides ``values``, which stays the default. ``serve`` offers "f64": a
request with ``"reply": "f64"`` gets {"f64": "<16 n hex digits>"}, the
row's n little-endian IEEE-754 binary64 values, 8 bytes each, in hex, so
``np.frombuffer(bytes.fromhex(s), "<f8")`` reads it back bit for bit. It
spares both ends the shortest round-trip decimal printing and parsing of
every float. ExternalOracle asks for it only when the hello lists it, and
reads a batch of such lines, each in that minimal form, with one
bytes.fromhex of the joined digits and no JSON decode; any other batch it
reads a line at a time. ``serve`` answers a request for any other reply
form than "values" or "f64" with an error.

A reply line beyond its batch ends the child: ExternalOracle refuses bytes
after a batch's last reply line and bytes already readable before a batch's
first request is written, which would be read as the next request's reply.

The client's timeout bounds each wait for progress on the pipes (request
bytes written or reply bytes read), not a whole batch; it must be finite
and > 0.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import os
import queue
import selectors
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    MissingCoalitionError,
    OracleError,
    _csv_rows,
    _float_cells,
    _json_document,
    _json_float,
    _json_line,
    _write_table,
)
from .rng import generator, rekey
from .skeleton import KeypointSchema

ALL_INSTANCES = "all"

# SyntheticOracle scores a batch this many rows at a time, so a whole-stage
# batch (thousands of rows) does not hold all its temporaries at once.
_BLOCK_ROWS = 256

# ExternalOracle reads its child's pipes this many bytes at a time (a pipe
# holds 64 KiB by default) and keeps this much of the child's stderr.
_PIPE_READ = 65536
_STDERR_TAIL = 4096

# ExternalOracle decodes each reply line, once it is text, with this one
# decoder; json.loads would first sniff the bytes for their encoding.
_decode_reply = json.JSONDecoder().decode

# The reply forms serve writes: "values", the default, then those a request
# opts into with its "reply" key, which serve's hello lists.
_REPLIES = ("values", "f64")


@dataclass(frozen=True)
class Coalition:
    """One coalition for ``eval``: bitmask ``bits`` (bit i = keypoint i) over ``n`` keypoints."""

    bits: int
    n: int


def _read_coalition_table(path, columns, what: str) -> dict[int, list[float]]:
    """Rows of a coalition table: CSV header coalition_hex then ``columns``,
    one row per coalition; returns {mask: values}, each coalition once."""
    rows = _csv_rows(path, what)
    header = next(rows, None)
    if header != ["coalition_hex", *columns]:
        expected = ",".join(["coalition_hex", *columns])
        raise DataError(f"{path}: {what} header {header}, expected {expected}")
    table: dict[int, list[float]] = {}
    for lineno, row in enumerate(rows, start=2):
        values = _float_cells(path, lineno, row, len(columns) + 1)
        try:
            mask = int(row[0], 16)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad coalition hex {row[0]!r}") from None
        if mask < 0:
            raise DataError(f"{path}:{lineno}: negative coalition {row[0]!r}")
        if mask in table:
            raise DataError(f"{path}:{lineno}: duplicate coalition 0x{mask:x}")
        table[mask] = values
    return table


def _write_coalition_table(path, columns, table, what: str) -> None:
    """The CSV form _read_coalition_table reads: rows sorted by mask, written as 0x%x."""
    rows = ((f"0x{mask:x}", table[mask]) for mask in sorted(table))
    _write_table(path, ["coalition_hex", *columns], rows, what)


def _check_perf(values, shape: tuple[int, ...]) -> np.ndarray:
    """Validate and freeze performance values of the given shape: one
    vector, or one row per coalition of a batch."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise DataError(f"performance vector has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError("performance vector contains non-finite values")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DataError(f"performance values outside [0, 1]: min={arr.min()}, max={arr.max()}")
    arr.flags.writeable = False
    return arr


def _check_masks(masks, n: int) -> list[int]:
    """Coalition bitmasks as Python ints, each in [0, 2^n)."""
    masks = [operator.index(m) for m in masks]
    if masks and (min(masks) < 0 or max(masks) >> n):
        bad = next(m for m in masks if not 0 <= m < 1 << n)
        raise DataError(f"coalition bits 0x{bad:x} out of range for n={n}")
    return masks


def _check_trial(trial) -> int:
    """The trial index as an int: a bool, float or string is refused, not rounded."""
    if not isinstance(trial, bool):
        try:
            return operator.index(trial)
        except TypeError:
            pass
    raise DataError(f"trial {trial!r:.80} is not an integer")


def _normalize_instances(instances):
    if isinstance(instances, str):
        if instances != ALL_INSTANCES:
            raise DataError(f"instance set must be a sequence or {ALL_INSTANCES!r}")
        return ALL_INSTANCES
    ids = tuple(str(i) for i in instances)
    if not ids:
        raise DataError("instance set is empty")
    if ALL_INSTANCES in ids:
        raise DataError(f"{ALL_INSTANCES!r} is reserved and cannot name an instance")
    if len(set(ids)) != len(ids):
        dup = next(i for k, i in enumerate(ids) if i in ids[:k])
        raise DataError(f"instance id {dup!r} is listed twice", code="duplicate-instance")
    return ids


class CoalitionValueOracle:
    """Base: validates coalitions and instances on the way in and values on
    the way out."""

    def __init__(self, schema: KeypointSchema):
        self.schema = schema

    def eval(self, instances, coalition: Coalition, trial: int = 0) -> np.ndarray:
        """Per-keypoint values of one coalition: the one row of a one-mask batch."""
        if coalition.n != self.schema.n:
            raise DataError(
                f"coalition width {coalition.n} does not match schema n={self.schema.n}"
            )
        return self.eval_many(instances, [coalition.bits], trial)[0]

    def eval_many(self, instances, masks, trial: int = 0) -> np.ndarray:
        """Values of a batch of coalitions given as bitmasks: a read-only
        (len(masks), n) array whose row r belongs to masks[r]."""
        masks = _check_masks(masks, self.schema.n)
        values = self._eval_many(_normalize_instances(instances), masks, _check_trial(trial))
        return _check_perf(values, (len(masks), self.schema.n))

    def _eval_many(self, instances, masks: list[int], trial: int) -> np.ndarray:
        """The backend. This default is one public eval per mask, there only
        so that a wrapper overriding eval alone sees every coalition."""
        if type(self).eval is CoalitionValueOracle.eval:
            raise NotImplementedError(
                f"{type(self).__name__} overrides neither _eval_many nor eval"
            )
        n = self.schema.n
        values = np.empty((len(masks), n), dtype=np.float64)
        for row, mask in zip(values, masks):
            row[:] = self.eval(instances, Coalition(mask, n), trial)
        return values

    def describe(self) -> str:
        """Stable identity string for run manifests."""
        return type(self).__name__

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass(frozen=True)
class SyntheticModelConfig:
    """Closed-form predictor double.

    A visible keypoint scores its ceiling ``base[i]``. A hidden keypoint
    recovers part of its ceiling through the visible set: base[i] times the
    summed recovery weights of the visible keypoints. Noise, when enabled,
    is zero-mean Gaussian drawn per (instance, coalition, trial).
    """

    base: tuple[float, ...]
    recovery: tuple[tuple[float, ...], ...]
    noise_sd: float = 0.0

    def __post_init__(self):
        n = len(self.base)
        if n == 0:
            raise DataError("synthetic config has no keypoints")
        if len(self.recovery) != n or any(len(row) != n for row in self.recovery):
            raise DataError(f"recovery matrix is not {n}x{n}")
        b = np.asarray(self.base, dtype=np.float64)
        w = np.asarray(self.recovery, dtype=np.float64)
        if not (np.isfinite(b).all() and np.isfinite(w).all() and math.isfinite(self.noise_sd)):
            raise DataError("synthetic config values must be finite")
        if np.any(b <= 0.0) or np.any(b > 1.0):
            raise DataError("base values must lie in (0, 1]")
        if np.any(w < 0.0):
            raise DataError("recovery weights must be non-negative")
        if np.any(np.diag(w) != 0.0):
            raise DataError("recovery diagonal must be zero")
        if np.any(w.sum(axis=1) > 1.0 + 1e-12):
            raise DataError("recovery row sums must not exceed 1")
        if self.noise_sd < 0.0:
            raise DataError("noise_sd must be non-negative")

    @classmethod
    def from_json(cls, source) -> "SyntheticModelConfig":
        doc = _json_document(source, "synthetic config")
        try:
            base = tuple(_json_float(v, "base value") for v in doc["base"])
            recovery = tuple(
                tuple(_json_float(v, "recovery weight") for v in row) for row in doc["recovery"]
            )
            noise_sd = _json_float(doc.get("noise_sd", 0.0), "noise_sd")
        except (KeyError, TypeError, DataError) as e:
            raise DataError(f"bad synthetic config: {e}") from e
        return cls(base, recovery, noise_sd)

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base),
            "recovery": [list(r) for r in self.recovery],
            "noise_sd": self.noise_sd,
        }

    def digest(self) -> str:
        return hashlib.sha256(_json_line(self.to_json_dict()).encode()).hexdigest()


class SyntheticOracle(CoalitionValueOracle):
    """In-process oracle over a SyntheticModelConfig; instance universe {"0"}."""

    def __init__(self, config: SyntheticModelConfig, schema: KeypointSchema):
        if len(config.base) != schema.n:
            raise DataError(
                f"synthetic config is {len(config.base)}-wide, schema n={schema.n}"
            )
        super().__init__(schema)
        self.config = config
        self._base = np.asarray(config.base, dtype=np.float64)
        self._recovery = np.asarray(config.recovery, dtype=np.float64)
        self._digest = config.digest()
        # One Philox for every noisy row this oracle scores, re-keyed per
        # row, so that a one-row call does not pay for building a new one.
        # Built on first use: the first Philox of a process loads numpy's
        # random module, which costs more than the rest of the set-up.
        self._noise = None

    def _eval_many(self, instances, masks: list[int], trial: int) -> np.ndarray:
        """The model, _BLOCK_ROWS rows at a time. Each row is scored exactly
        as alone: the recovery product is one gemv per row (a gemm over the
        block sums in another order), the rest is elementwise, and each
        (instance, coalition, trial) draws its own keyed noise stream from
        the re-keyed self._noise, so one oracle is not for concurrent use."""
        n = self.schema.n
        ids = ("0",) if instances == ALL_INSTANCES else instances
        sd = self.config.noise_sd
        width = (n + 7) // 8
        out = np.empty((len(masks), n), dtype=np.float64)
        if sd and self._noise is None:
            self._noise = generator("synthetic-noise")
        for start in range(0, len(masks), _BLOCK_ROWS):
            block = masks[start : start + _BLOCK_ROWS]
            packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in block), np.uint8)
            vis = np.unpackbits(
                packed.reshape(len(block), width), axis=1, count=n, bitorder="little"
            ).astype(np.float64)
            recovered = np.array([self._recovery @ v for v in vis])
            core = self._base * vis + self._base * recovered * (1.0 - vis)
            rows = out[start : start + len(block)]
            if sd == 0.0:
                np.clip(core, 0.0, 1.0, out=rows)
                continue
            acc = None
            for iid in ids:
                eps = []
                for mask in block:
                    rekey(self._noise, "synthetic-noise", self._digest, iid, mask, trial)
                    eps.append(self._noise.normal(0.0, sd, size=n))
                part = np.clip(core + eps, 0.0, 1.0)
                acc = part if acc is None else acc + part
            np.divide(acc, len(ids), out=rows)
        return out

    def describe(self) -> str:
        return f"synthetic:{self._digest}"


class TabularOracle(CoalitionValueOracle):
    """Exact lookup of precomputed per-coalition values.

    The table aggregates over the dataset already, so the instance set and
    trial index do not change the answer.
    """

    def __init__(self, schema: KeypointSchema, table: dict[int, np.ndarray], source: str = ""):
        super().__init__(schema)
        full = (1 << schema.n) - 1
        for mask in table:
            if not 0 <= mask <= full:
                where = source or "oracle table"
                raise DataError(f"{where}: coalition {hex(mask)} out of range for n={schema.n}")
        if full not in table:
            raise DataError("oracle table is missing the full coalition", code="missing-full-coalition")
        self.table = {m: _check_perf(v, (schema.n,)) for m, v in table.items()}

    def _eval_many(self, instances, masks: list[int], trial: int) -> np.ndarray:
        try:
            rows = [self.table[mask] for mask in masks]
        except KeyError as e:
            raise MissingCoalitionError(f"no value for coalition 0x{e.args[0]:x}") from None
        return np.array(rows, dtype=np.float64).reshape(len(masks), self.schema.n)

    def describe(self) -> str:
        digest = hashlib.sha256()
        for mask in sorted(self.table):
            digest.update(b"%x:" % mask)
            digest.update(self.table[mask].tobytes())
        return f"tabular:rows={len(self.table)},sha256={digest.hexdigest()[:16]}"


def _oracle_columns(n: int) -> list[str]:
    return [f"v_{i}" for i in range(n)]


def load_tabular_oracle(path, schema: KeypointSchema) -> TabularOracle:
    """CSV with columns coalition_hex, v_0 .. v_{n-1}."""
    table = _read_coalition_table(path, _oracle_columns(schema.n), "oracle table")
    return TabularOracle(schema, table, source=str(path))


def write_oracle_table(path, schema: KeypointSchema, table: dict[int, np.ndarray]) -> None:
    _write_coalition_table(path, _oracle_columns(schema.n), table, "oracle table")


class CountingOracle(CoalitionValueOracle):
    """Wrapper that records every eval: total calls and distinct coalitions."""

    def __init__(self, inner: CoalitionValueOracle):
        super().__init__(inner.schema)
        self.inner = inner
        self.reset()

    def _eval_many(self, instances, masks: list[int], trial: int) -> np.ndarray:
        self.calls += len(masks)
        self.coalitions.update(masks)
        return self.inner._eval_many(instances, masks, trial)

    def reset(self) -> None:
        self.calls = 0
        self.coalitions: set[int] = set()

    def describe(self) -> str:
        return f"counting({self.inner.describe()})"


class ExternalOracle(CoalitionValueOracle):
    """Client for a child process speaking the line-JSON protocol above.

    A batch is one full-duplex exchange: every request is written to the
    child's stdin while its replies, and its stderr, are read, so a batch of
    any size finishes without either side blocking on a full pipe.
    """

    def __init__(self, command, schema: KeypointSchema, timeout: float = 30.0):
        super().__init__(schema)
        if not (math.isfinite(timeout) and timeout > 0):
            raise OracleError(
                f"oracle timeout must be a finite number of seconds > 0, got {timeout}",
                code="oracle-io",
            )
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not argv:
            raise OracleError("empty oracle command", code="oracle-io")
        self.command = argv
        self.timeout = timeout
        self._stderr = b""
        self._broken: OracleError | None = None
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE
            )
        except OSError as e:
            raise OracleError(f"cannot start oracle {argv[0]!r}: {e}", code="oracle-io") from e
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._proc.stdout, selectors.EVENT_READ)
        self._sel.register(self._proc.stderr, selectors.EVENT_READ)
        try:
            (line,) = self._exchange(b"", 1)
            hello = self._message(line)
            if hello.get("op") != "hello":
                raise self._fail(f"expected hello handshake, got {hello!r}")
            # no value but a list of strings can equal the schema's names
            names = hello.get("names")
            names = tuple(names) if isinstance(names, list) else names
            if hello.get("n") != schema.n or names != schema.names:
                raise OracleError(
                    f"oracle schema mismatch: child has n={hello.get('n')} names={names}, "
                    f"expected n={schema.n} names={schema.names}",
                    code="schema-mismatch",
                )
            offered = hello.get("replies")
            self._f64 = isinstance(offered, list) and "f64" in offered
        except OracleError:
            self.close()
            raise

    def _fail(self, what: str, grace: float = 0.0) -> OracleError:
        """Stop the child, refuse every later call and return the error to
        raise: ``what``, how the child ended and the tail of its stderr.

        After a timeout or I/O error the child's late or partial reply would
        be read as the answer to the next request, so the stream is dropped.
        A child that closed its end of a pipe gets ``grace`` seconds to exit
        on its own, so that its exit code can be quoted.
        """
        proc = self._proc
        try:
            proc.wait(timeout=grace)
            ended = f"exited with {proc.returncode}"
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            ended = "killed"
        # the child is gone, so whatever it wrote to stderr is in the pipe
        if any(key.fileobj is proc.stderr for key, _ in self._sel.select(0)):
            self._keep_stderr(os.read(proc.stderr.fileno(), _PIPE_READ))
        tail = self._stderr.decode("utf-8", "replace").strip()
        self._broken = OracleError(
            f"{what}; oracle {ended}, stderr: {tail!r}" if tail else f"{what}; oracle {ended}",
            code="oracle-io",
        )
        return self._broken

    def _keep_stderr(self, chunk: bytes) -> None:
        self._stderr = (self._stderr + chunk)[-_STDERR_TAIL:]

    def _exchange(self, requests: bytes, replies: int) -> list[bytes]:
        """Write ``requests`` to the child and read ``replies`` reply lines,
        without their newlines, in one loop that also drains the child's
        stderr.

        The timeout bounds each wait for progress (request bytes written or
        reply bytes read), not the whole exchange. A timeout or a closed or
        failed pipe ends the child. So does a reply the client did not ask
        for, which would otherwise be read as the next request's: bytes
        after the last reply line, or bytes readable before the first
        request is written. A stray line that arrives mid-batch, after that
        check, is counted as a reply; only request ids, echoed in the
        replies, would close that race.
        """
        if self._broken is not None:
            raise OracleError(
                f"oracle unusable after an earlier failure: {self._broken}", code="oracle-io"
            )
        proc = self._proc
        stdin, stdout, stderr = proc.stdin, proc.stdout, proc.stderr
        pending = memoryview(requests)
        chunks = []
        lines = 0
        try:
            if pending and any(key.fileobj is stdout for key, _ in self._sel.select(0)):
                stray = os.read(stdout.fileno(), _PIPE_READ)
                if not stray:
                    raise self._fail("oracle closed its output (buffered: b'')", self.timeout)
                raise self._fail(f"oracle sent {stray[:200]!r} before a request")
            if pending:
                self._sel.register(stdin, selectors.EVENT_WRITE)
            deadline = time.monotonic() + self.timeout
            while lines < replies or pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    buffered = b"".join(chunks)[:200]
                    raise self._fail(
                        f"oracle timed out after {self.timeout}s (buffered: {buffered!r})"
                    )
                for key, _ in self._sel.select(remaining):
                    if key.fileobj is stdin:
                        try:
                            sent = os.write(stdin.fileno(), pending)
                        except BlockingIOError:
                            continue
                        pending = pending[sent:]
                        if not pending:
                            self._sel.unregister(stdin)
                    elif key.fileobj is stdout:
                        chunk = os.read(stdout.fileno(), _PIPE_READ)
                        if not chunk:
                            buffered = b"".join(chunks)[:200]
                            raise self._fail(
                                f"oracle closed its output (buffered: {buffered!r})", self.timeout
                            )
                        chunks.append(chunk)
                        lines += chunk.count(b"\n")
                    else:
                        chunk = os.read(stderr.fileno(), _PIPE_READ)
                        if not chunk:
                            self._sel.unregister(stderr)
                        self._keep_stderr(chunk)
                        continue
                    deadline = time.monotonic() + self.timeout
        except OSError as e:
            raise self._fail(f"oracle pipe failed: {e}", self.timeout) from e
        *found, stray = b"".join(chunks).split(b"\n", replies)
        if stray:
            raise self._fail(f"oracle sent {stray[:200]!r} after its {replies} reply lines")
        return found

    def _message(self, line: bytes) -> dict:
        """One reply line as a JSON object; any other line ends the child."""
        try:
            msg = _decode_reply(line.decode())
        except (ValueError, RecursionError):
            raise self._fail(f"oracle sent non-JSON line: {line[:200]!r}") from None
        if not isinstance(msg, dict):
            raise self._fail(f"oracle sent non-object message: {line[:200]!r}")
        return msg

    def _eval_many(self, instances, masks: list[int], trial: int) -> np.ndarray:
        """One eval request line per mask, all written while the replies are
        read; an error reply raises once every reply is in, so the stream
        stays in step and the oracle stays usable. A batch of minimal f64
        lines is read with one fromhex (_f64_batch); any other batch one
        JSON line at a time."""
        n = self.schema.n
        if not masks:
            return np.empty((0, n), dtype=np.float64)
        ids = [ALL_INSTANCES] if instances == ALL_INSTANCES else list(instances)
        requests = _request_lines(ids, trial, masks, self._f64).encode()
        lines = self._exchange(requests, len(masks))
        if self._f64:
            rows = _f64_batch(lines, n)
            if rows is not None:
                return rows
        replies = [self._message(line) for line in lines]
        for msg in replies:
            if "error" in msg:
                raise OracleError(f"oracle reported: {msg['error']}")
            if "values" not in msg and not (self._f64 and "f64" in msg):
                raise OracleError(f"oracle response missing 'values': {msg!r}", code="oracle-io")
        rows = []
        for r, msg in enumerate(replies):
            try:
                row = _values_row(msg["values"], n) if "values" in msg else _hex_row(msg["f64"], n)
            except ValueError as e:
                raise DataError(f"oracle sent malformed values in reply {r}: {e}") from None
            rows.append(row)
        return np.array(rows, dtype=np.float64)

    def describe(self) -> str:
        return "external:" + " ".join(self.command)

    def close(self) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        self._proc = None
        try:
            self._sel.close()
        except Exception:
            pass
        if proc.poll() is None:
            try:
                # closes stdin, the child's cue to exit, and drains its
                # stdout and stderr so that it cannot block on them
                proc.communicate(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()


@functools.cache
def _byte_indices(p: int) -> tuple[str, ...]:
    """For each byte value b, the comma-joined keypoint indices 8 p + i of
    b's set bits: the "visible" text of a mask's byte p. One table per byte
    position, so at most ceil(n / 8) of them."""
    return tuple(",".join([str(8 * p + i) for i in range(8) if b >> i & 1]) for b in range(256))


def _request_lines(ids: list[str], trial: int, masks: list[int], f64: bool = False) -> str:
    """The eval request lines of a batch, each byte for byte the _json_line
    of {"op": "eval", "instances": ids, "visible": [...], "trial": trial},
    plus "reply": "f64" if ``f64``, and a newline: one sorted-key prefix per
    batch, then each mask's keypoint indices, looked up a byte at a time;
    a byte with no bit set adds nothing."""
    reply = '"reply":"f64",' if f64 else ""
    head = f'{{"instances":{_json_line(ids)},"op":"eval",{reply}"trial":{_json_line(trial)}'
    head += ',"visible":['
    width = (max(masks, default=0).bit_length() + 7) // 8
    tables = [_byte_indices(p) for p in range(width)]
    return "".join(
        head + ",".join([t[b] for t, b in zip(tables, m.to_bytes(width, "little")) if b]) + "]}\n"
        for m in masks
    )


def _values_line(row: list[float]) -> str:
    """_json_line({"values": row}) of a row of finite floats, which the json
    module writes with float.__repr__."""
    return '{"values":[' + ",".join(map(float.__repr__, row)) + "]}"


def _f64_lines(rows: np.ndarray) -> list[str]:
    """The {"f64": hex} reply lines of a batch's rows, sliced from the hex of
    the whole batch's little-endian binary64 bytes."""
    width = 16 * rows.shape[1]
    digits = rows.astype("<f8").tobytes().hex()
    return ['{"f64":"' + digits[i : i + width] + '"}' for i in range(0, len(digits), width)]


def _f64_batch(lines: list[bytes], n: int) -> np.ndarray | None:
    """The rows of a batch of reply lines that are all the minimal
    {"f64":"<16 n hex digits>"}, read with one fromhex of the joined digits;
    None for any other batch. A line of that length, prefix and suffix whose
    middle is 16 n hex digits is exactly that reply, and one whose middle is
    not fails the ASCII or hex check."""
    size = 16 * n + 10
    if not all(
        len(line) == size and line.startswith(b'{"f64":"') and line.endswith(b'"}')
        for line in lines
    ):
        return None
    try:
        digits = b"".join([line[8:-2] for line in lines]).decode("ascii")
        return _hex_row(digits, n * len(lines)).reshape(-1, n)
    except ValueError:
        return None


def _values_row(row, n: int) -> list[float]:
    """The n values of a values reply; ValueError unless they are n JSON
    numbers, not bools or strings, that a float holds."""
    if isinstance(row, list) and len(row) == n and all(type(v) in (float, int) for v in row):
        try:
            return [float(v) for v in row]
        except OverflowError:
            pass
    raise ValueError(f"values row {row!r:.80} is not {n} numbers")


def _hex_row(digits, n: int) -> np.ndarray:
    """The n values of an f64 reply's hex digits; ValueError unless they
    are exactly 16 n hex digits. bytes.fromhex refuses any other character,
    non-ASCII digits included, but skips ASCII whitespace, so a string of
    16 n characters that holds any decodes to fewer than 8 n bytes."""
    if isinstance(digits, str) and len(digits) == 16 * n:
        try:
            raw = bytes.fromhex(digits)
        except ValueError:
            raw = b""
        if len(raw) == 8 * n:
            return np.frombuffer(raw, "<f8")
    raise ValueError(f"f64 row {digits!r:.80} is not {16 * n} hex digits")


def _parse_request(raw, n: int) -> tuple:
    """(instances, trial, reply form, mask) of one eval request line.
    Instance ids must be strings, and the trial and keypoint indices ints,
    so that no request is scored as one it does not spell out."""
    msg = json.loads(raw)
    if not isinstance(msg, dict) or msg.get("op") != "eval":
        raise DataError(f"unsupported request: {raw.strip()[:200]}")
    try:
        inst, visible = msg["instances"], msg["visible"]
    except KeyError as e:
        raise DataError(f"eval request has no {e.args[0]!r} key") from None
    trial = msg.get("trial", 0)
    reply = msg.get("reply", "values")
    if reply not in _REPLIES:
        raise DataError(f"reply {reply!r:.80} is not one of {list(_REPLIES)}")
    if not isinstance(inst, list) or any(type(i) is not str for i in inst):
        raise DataError(f"instances {inst!r:.80} is not a list of id strings")
    if not isinstance(visible, list):
        raise DataError(f"visible {visible!r:.80} is not a list of keypoint indices")
    mask, bad = 0, None
    for i in visible:
        if type(i) is not int:
            raise DataError(f"keypoint index {i!r:.80} is not an integer")
        if 0 <= i < n:
            mask |= 1 << i
        elif bad is None:
            bad = i
    trial = _check_trial(trial)
    if bad is not None:
        raise DataError(f"keypoint index {bad} out of range for n={n}")
    instances = ALL_INSTANCES if inst == [ALL_INSTANCES] else tuple(inst)
    return instances, trial, reply, mask


_VISIBLE = '"visible":['


@functools.cache
def _index_bits(n: int) -> dict[str, int]:
    """The bit of each keypoint index below n, keyed by its decimal text."""
    return {str(i): 1 << i for i in range(n)}


@functools.lru_cache(maxsize=1)
def _request_head(head: str, n: int) -> tuple | None:
    """(instances, trial, reply form) of every request line that starts
    with ``head`` and ends its "visible" list there, or None if the JSON
    path refuses ``head + "]}"``. One slot: a pipelined batch shares one
    head, so it is parsed once per batch, across serve passes too."""
    try:
        return _parse_request(head + "]}", n)[:3]
    except Exception:  # refused: the JSON path answers its lines
        return None


def _compact_request(raw, n: int) -> tuple | None:
    """_parse_request(raw, n) of a line in the compact form _request_lines
    writes, read without decoding JSON; None for any other line.

    Such a line is a head ending in the last '"visible":[', then canonical
    indices below n joined by commas, then ']}\\n'. When '"visible"' opens
    after ',' or '{' and head + ']}' is a whole request the JSON path
    accepts, that '[' opens the value of the top-level, and last,
    "visible" key, so the JSON path would read the line as the head's
    request with those indices visible."""
    if not (isinstance(raw, str) and raw.endswith("]}\n")):
        return None
    at = raw.rfind(_VISIBLE)
    if at < 1 or raw[at - 1] not in ",{":
        return None
    cut = at + len(_VISIBLE)
    key = _request_head(raw[:cut], n)
    if key is None:
        return None
    middle = raw[cut:-3]
    bits = map(_index_bits(n).__getitem__, middle.split(",")) if middle else ()
    try:
        return (*key, functools.reduce(operator.or_, bits, 0))
    except KeyError:
        return None


def _score(oracle: CoalitionValueOracle, instances, trial: int, reply: str, masks) -> list[str]:
    """Reply lines, in the form ``reply``, to a run of requests that share
    instances and trial: one eval_many for the whole run. If it fails, each
    request is scored alone, so that every one gets the reply it would have
    had on its own."""
    try:
        rows = oracle.eval_many(instances, masks, trial)
    except Exception as e:  # a serving oracle must answer, not die
        if len(masks) == 1:
            return [_json_line({"error": str(e)})]
        return [line for mask in masks for line in _score(oracle, instances, trial, reply, [mask])]
    if reply == "f64":
        return _f64_lines(rows)
    # eval_many has refused non-finite values
    return [_values_line(row) for row in rows.tolist()]


def _answer(oracle: CoalitionValueOracle, lines) -> str:
    """The reply lines to a sequence of request lines, in request order:
    none for a blank line, an error for a malformed one, and one eval_many
    for each run of consecutive requests with the same instances, trial and
    reply form. A line in the compact form is read by its head
    (_compact_request), any other by the JSON path, with the same result."""
    n = oracle.schema.n
    requests = []
    for raw in lines:
        if not raw.strip():
            continue
        try:
            requests.append(_compact_request(raw, n) or _parse_request(raw, n))
        except Exception as e:  # a malformed request gets an error reply
            requests.append(e)
    replies = []
    for key, run in itertools.groupby(requests, lambda r: r[:3] if isinstance(r, tuple) else None):
        if key is None:
            replies += [_json_line({"error": str(e)}) for e in run]
        else:
            replies += _score(oracle, *key, [mask for *_, mask in run])
    return "".join(reply + "\n" for reply in replies)


# serve's reader thread ends its queue of request lines with this marker,
# or with the exception that stopped it
_END = object()


def serve(oracle: CoalitionValueOracle, infile, outfile) -> None:
    """Answer the line-JSON protocol on (infile, outfile) until EOF.

    A reader thread queues request lines as they arrive. Each pass of the
    loop takes every line queued so far, answers them in order through
    _answer (a pipelining client's batch is scored in one eval_many), and
    writes and flushes the replies once. A lock-step client gets batches of
    one. Only the calling thread touches the oracle and outfile. An
    exception from reading infile is raised once the lines read before it
    have been answered.

    Used by the CLI to expose the synthetic backend as a child process;
    also handy for testing clients of the protocol.
    """
    n = oracle.schema.n
    names = list(oracle.schema.names)
    hello = {"op": "hello", "n": n, "names": names, "replies": list(_REPLIES[1:])}
    outfile.write(_json_line(hello) + "\n")
    outfile.flush()
    lines = queue.SimpleQueue()

    def read() -> None:
        try:
            for raw in infile:
                lines.put(raw)
        except BaseException as e:  # handed to the serving thread, which raises it
            lines.put(e)
        else:
            lines.put(_END)

    threading.Thread(target=read, name="kpshap-serve-reader", daemon=True).start()
    while True:
        batch = [lines.get()]
        try:
            while True:
                batch.append(lines.get_nowait())
        except queue.Empty:
            pass
        end = batch.pop() if batch[-1] is _END or isinstance(batch[-1], BaseException) else None
        replies = _answer(oracle, batch)
        if replies:
            outfile.write(replies)
            outfile.flush()
        if end is _END:
            return
        if end is not None:
            raise end
