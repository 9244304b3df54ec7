"""Start ``dds-repro serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/daemon_launcher.py [--spans-out FILE] <serve arguments>

Everything except ``--spans-out`` is passed to ``dds-repro serve``, which
prints the ``{"serving": "host:port", ...}`` ready line the benchmark parses.
With ``--spans-out`` the daemon's layer functions are wrapped by
:class:`tracing.Tracer`, and each ``solve`` request whose graph key ends in
``|1`` (``<graph>|<operation id>|1``) is traced as that operation; the spans
are written to FILE as JSON when the daemon has drained.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import cli  # noqa: E402
from repro.net import daemon as daemon_module  # noqa: E402
from repro.net import protocol  # noqa: E402

from tracing import Tracer  # noqa: E402


def install_tracing(tracer: Tracer) -> None:
    """Wrap the layers, and arm the tracer per traced ``solve`` request."""
    tracer.install()
    # The request frame is decoded before the daemon knows which operation
    # it belongs to, so every decode is timed and kept per thread; an armed
    # request then files the decode of its own frame as its first span.
    last_decode = threading.local()
    decode = protocol.decode_message

    def timed_decode(body: bytes):
        start = time.perf_counter()
        try:
            return decode(body)
        finally:
            last_decode.span = (start, time.perf_counter())

    protocol.decode_message = timed_decode
    serve_request = daemon_module.ShardDaemon._serve_request

    def armed_serve_request(self, sock, op, request_id, message):
        key = str((message.get("payload") or {}).get("graph_key", ""))
        parts = key.split("|")
        if op != "solve" or len(parts) != 3 or parts[2] != "1":
            return serve_request(self, sock, op, request_id, message)
        start, end = last_decode.span
        tracer.begin(int(parts[1]), start=start)
        tracer.record("wire.decode", start, end)
        try:
            return serve_request(self, sock, op, request_id, message)
        finally:
            tracer.end()

    daemon_module.ShardDaemon._serve_request = armed_serve_request


def main(argv: list[str]) -> int:
    spans_out = None
    if "--spans-out" in argv:
        at = argv.index("--spans-out")
        spans_out = Path(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    tracer = Tracer()
    if spans_out is not None:
        install_tracing(tracer)
    code = cli.main(["serve", *argv])
    if spans_out is not None:
        spans_out.write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
