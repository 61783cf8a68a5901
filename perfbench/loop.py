"""Call ``intermod.cli.main`` over and over in one process, for a fixed time.

Usage: python3 loop.py RESULT_JSON SECONDS TIMEOUT_S intermod-argv...

One untimed call first warms the caches.  Then, until SECONDS have passed,
it alternates one calibration (see ``calibrate``) and one timed CLI call
with standard output captured, so each call has a calibration just before
and just after it.  The calibration is fixed code that never changes with
the program, so its time tracks only how fast the host runs right now;
run.py scales the CLI times by it.

Each call gets TIMEOUT_S seconds (an interval timer raises in the main
thread); a timeout, an exception or a nonzero exit status is recorded as
a failed call and ends the loop.  RESULT_JSON gets, per call: wall and CPU
time (this process plus reaped pool workers), exit status and the SHA-256
of the CSV; and the text of each distinct CSV, for run.py to check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import sys
import time

import numpy as np

import intermod.cli

CALIB_LOOP = 50000  # pure-Python part: scalar math and dict stores, as in sumrate
CALIB_SIZE = 1 << 16  # numpy part: normal draws and an FFT, as in ber


def calibrate() -> float:
    """Time a fixed kernel of interpreter and numpy work, in seconds."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(CALIB_LOOP):
        acc += math.sqrt(i + 0.5)
        table[i % 97] = acc
    x = np.random.default_rng(0).standard_normal(CALIB_SIZE)
    np.abs(np.fft.fft(x))
    return time.perf_counter() - t0


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout


def cpu_now() -> float:
    """User + system CPU of this process and of the children it has reaped."""
    kids = os.times()
    return time.process_time() + kids.children_user + kids.children_system


def call(argv: list[str], timeout: float) -> dict:
    out = io.StringIO()
    rc, error = None, ""
    cpu0 = cpu_now()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = intermod.cli.main(argv)
    except CallTimeout:
        error = f"timed out after {timeout:g} s"
    except SystemExit as exc:  # argparse exits on a usage error
        rc = exc.code
    except Exception as exc:  # a crash is a failed call; the loop records it and stops
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if not error and rc != 0:
        error = f"exit code {rc}"
    text = out.getvalue()
    return {"wall_s": wall, "cpu_s": cpu_now() - cpu0, "error": error, "text": text,
            "csv_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def main(argv: list[str]) -> int:
    result_path, seconds, timeout, cli_argv = argv[0], float(argv[1]), float(argv[2]), argv[3:]
    signal.signal(signal.SIGALRM, _on_alarm)
    calls, calib, outputs = [], [], {}

    def record(c: dict) -> bool:
        outputs.setdefault(c["csv_sha256"], c.pop("text"))
        calls.append(c)
        return not c["error"]

    ok = record(call(cli_argv, timeout))  # warm-up, untimed
    calib.append(calibrate())
    start = time.perf_counter()
    while ok and (len(calls) < 2 or time.perf_counter() - start < seconds):
        ok = record(call(cli_argv, timeout))
        calib.append(calibrate())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"calls": calls, "calib_s": calib,
                   "outputs": outputs}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
