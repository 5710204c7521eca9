"""Serve the synthetic oracle over the line-JSON wire and count the wire.

    python3 perfbench/serve_oracle.py --config CONFIG.json --stats STATS.json

Calls `kpshap.oracle.serve` unchanged, between stdio and two thin counting
wrappers. When stdin closes it writes the counts to STATS.json: request
lines, bytes in each direction (the hello line apart), coalition rows
scored, time busy between reading a request and sending its reply, and
this process's peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

from kpshap.oracle import CountingOracle, SyntheticModelConfig, SyntheticOracle, serve
from kpshap.skeleton import default_schema


class CountingIn:
    def __init__(self, stream):
        self.stream = stream
        self.lines = 0
        self.bytes = 0
        self.pending = None

    def __iter__(self):
        for raw in self.stream:
            self.lines += 1
            self.bytes += len(raw)
            self.pending = perf_counter()
            yield raw.decode()


class CountingOut:
    def __init__(self, stream, reader: CountingIn):
        self.stream = stream
        self.reader = reader
        self.bytes = 0
        self.hello_bytes = 0
        self.busy = 0.0

    def write(self, text: str) -> None:
        # Busy ends as the reply is handed over: sending it is wire time, and
        # an unbuffered stdout sends it inside this call.
        if self.reader.pending is not None:
            self.busy += perf_counter() - self.reader.pending
            self.reader.pending = None
        data = text.encode()
        if self.reader.lines:
            self.bytes += len(data)
        else:
            self.hello_bytes += len(data)
        self.stream.write(data)

    def flush(self) -> None:
        self.stream.flush()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--stats", required=True)
    ns = ap.parse_args()
    schema, _ = default_schema()
    model = CountingOracle(SyntheticOracle(SyntheticModelConfig.from_json(ns.config), schema))
    reader = CountingIn(sys.stdin.buffer)
    writer = CountingOut(sys.stdout.buffer, reader)
    serve(model, reader, writer)
    stats = {
        "requests": reader.lines,
        "bytes_in": reader.bytes,
        "bytes_out": writer.bytes,
        "hello_bytes": writer.hello_bytes,
        "rows": model.calls,
        "busy_s": writer.busy,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(ns.stats, "w") as f:
        json.dump(stats, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
