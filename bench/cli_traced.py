"""Run one qchannel CLI invocation with spans around its layer calls.

    cli_traced.py SPANS_PATH -- <qchannel arguments>

The report on stdout is the one `python -m qchannel.cli` prints: only the
module attributes the CLI looks names up in are wrapped.  The spans go to
SPANS_PATH as JSON when the invocation ends.
"""

from __future__ import annotations

import importlib
import json
import sys

import tracing


class _TracedJson:
    """Stands in for the `json` module as bound by qchannel.cli, with a span
    around `json.load`."""

    def __init__(self, tracer: tracing.Tracer):
        self._tracer = tracer

    def load(self, *args, **kwargs):
        return self._tracer.call("cli.json_load", json.load, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def main() -> int:
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_PATH -- <qchannel arguments>")
    tracer = tracing.Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "qchannel.cli")
    from qchannel import algebra, algorithms, channels, qec, serialize

    tracing.install_library(tracer, channels, qec, algebra, algorithms, serialize)
    cli.json = _TracedJson(tracer)

    def traced_print(*args, **kwargs):
        # Flush inside the span so the write of the report is timed here,
        # not at interpreter exit.
        print(*args, **kwargs)
        (kwargs.get("file") or sys.stdout).flush()

    cli.print = lambda *args, **kwargs: tracer.call("cli.print", traced_print, *args, **kwargs)
    try:
        code = tracer.call("cli.main", cli.main, argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
