"""Run the intermod CLI in this process, optionally traced, and time its ``main``.

Usage: python3 traced_cli.py {trace,plain} TRACE_DIR intermod-argv...

Both modes write TRACE_DIR/main.json with the CLI's exit code and the wall
time of ``intermod.cli.main`` (import excluded), so traced and untraced
runs are timed the same way.  In ``trace`` mode every process also leaves
a ``proc-<pid>.json`` span aggregate (see layertrace).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import intermod.cli

from layertrace import Tracer, install


def main(argv: list[str]) -> int:
    mode, trace_dir, cli_argv = argv[0], Path(argv[1]), argv[2:]
    tracer = None
    if mode == "trace":
        tracer = Tracer(trace_dir)
        install(tracer)
    elif mode != "plain":
        raise SystemExit(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    rc = intermod.cli.main(cli_argv)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.dump()
    (trace_dir / "main.json").write_text(
        json.dumps({"rc": rc, "t0": t0, "wall_s": wall}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
