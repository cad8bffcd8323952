"""Start ``repro serve`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_JSON [serve args...]``

Installs the tracer, tags each request's spans with the client's
``X-Request-Id`` header, runs the ``repro serve`` entry point until
SIGTERM, then writes the spans to ``SPANS_JSON``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv) -> int:
    out_path, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)

    from repro import cli
    from repro.serve import http

    do_post = http._Handler.do_POST

    def tagged_post(handler) -> None:
        tracer.set_request(handler.headers.get("X-Request-Id"))
        try:
            do_post(handler)
        finally:
            tracer.set_request(None)

    http._Handler.do_POST = tagged_post
    try:
        return cli.main(["serve", *serve_args])
    finally:
        tracer.recording = False
        tracing.dump_spans(tracer.spans, out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
