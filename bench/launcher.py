"""Run ``repro`` with the benchmark's timing wrappers installed.

    python -m bench.launcher SPANS_PATH serve --model ... --trace OBS_PATH

The traced http-short run starts its server child through this launcher,
so the server's layers get the same wrappers as an in-process run.  The
spans are written to SPANS_PATH when the server exits (on SIGTERM it
drains and returns 75).
"""

from __future__ import annotations

import sys

from bench import env


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python -m bench.launcher SPANS_PATH REPRO_ARGS...", file=sys.stderr)
        return 2
    env.prepare()
    from repro.cli import main as repro_main

    from bench.trace import Installation, Tracer, write_jsonl

    # Ids from the child must not collide with the parent's in a merged trace.
    tracer = Tracer(prefix="srv-")
    installation = Installation(tracer).install()
    try:
        return repro_main(argv[1:])
    finally:
        installation.remove()
        write_jsonl(argv[0], tracer.spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
