"""End-to-end and per-layer benchmark of the intermod CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload (see workloads.py) is one intermod argv.  ``--trace 0`` first
runs it once as a user would (``python3 -m intermod.cli ...`` with ``src``
on the path; at ``--jobs 1`` if the workload is parallel).  Then loop.py
calls ``intermod.cli.main`` with the argv again and again for ``--seconds``
in one process, after one untimed warm-up call, with a fixed calibration
kernel timed between calls.  Set-up, a fresh interpreter importing the
CLI, is timed apart, SETUPS times.  Every distinct output is checked
against an independent oracle (checks.py), and every call must give the
CSV bytes of the reference invocation (for a parallel workload, its rows).
A nonzero exit, an exception, a timeout or a failed check counts as a
failed call.

The host is shared, and its speed changes by up to 2x within seconds with
the load of other tenants.  So the gated call times are taken at the
reference host speed: each call's time is scaled by CALIB_REF_S over the
median of the calibrations around it (see speed_factors).  The raw times,
medians over the calls, are printed and recorded too.

``--trace 1`` alternates untraced and traced in-process runs of the CLI
(traced_cli.py, layertrace.py) and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object;
the same numbers plus the environment and the CSV SHA-256 go to
``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import CHECKS, data_lines
from layertrace import LAYERS, merge, per_layer_metrics
from metrics import END_TO_END, PER_LAYER, REPORTED
from workloads import NAMES, Workload, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CALIB_REF_S = 0.0157  # median time of loop.calibrate() on a 2-vCPU Xeon VM
CALIB_WINDOW = 2  # calibrations on each side of a call that set its speed factor
TIMEOUT_S = 60.0  # per invocation; a hang fails fast instead of stalling the run
SETUPS = 10  # fresh-interpreter imports per run, half before and half after the loop
RSS_POLL_S = 0.01
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


@dataclass
class Invocation:
    """One child process: how it ended, what it cost, what it wrote."""

    rc: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    output: str
    stderr_tail: str
    problems: list[str] = field(default_factory=list)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.output.encode("utf-8")).hexdigest()

    @property
    def ok(self) -> bool:
        return not self.problems


def tree_rss_mb(pid: int) -> float:
    """Resident memory summed over ``pid`` and its live descendants."""
    pages, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm", encoding="ascii") as fh:
                pages += int(fh.read().split()[1])
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError, IndexError):
            continue  # exited between listing and reading
    return pages * PAGE_MB


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def _stop_group(pgid: int) -> None:
    """Kill whatever is left in the process group and wait for it to go."""
    deadline = time.monotonic() + 5.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def invoke(cmd: list[str], out_path: Path, timeout: float = TIMEOUT_S) -> Invocation:
    """Run ``cmd`` in its own process group, stdout to ``out_path``.

    Wall time is taken around the whole child; CPU time comes from wait4
    (it includes waited-for descendants).  Peak memory is the largest
    summed RSS of the child and its live descendants, sampled every
    RSS_POLL_S: wait4's ru_maxrss would also count this process's own
    pages, which a vfork child holds until it execs.
    """
    err_path = out_path.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=cli_env(),
                                start_new_session=True)
        done = threading.Event()
        peak, timed_out = [0.0], [False]

        def watch():
            while not done.wait(RSS_POLL_S):
                peak[0] = max(peak[0], tree_rss_mb(proc.pid))
                if time.perf_counter() - t0 > timeout and not timed_out[0]:
                    timed_out[0] = True
                    os.killpg(proc.pid, signal.SIGKILL)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted or terminated: take the child down too
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            done.set()
            watcher.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    inv = Invocation(
        rc=proc.returncode, timed_out=timed_out[0], wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=peak[0],
        output=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr_tail=err_path.read_text(encoding="utf-8", errors="replace")[-400:],
    )
    if inv.timed_out:
        inv.problems.append(f"timed out after {timeout:g} s")
    elif inv.rc != 0:
        inv.problems.append(f"exit code {inv.rc}: {inv.stderr_tail.strip()}")
    return inv


class Checker:
    """Checks each distinct output once, against the workload's oracle."""

    def __init__(self, wl: Workload):
        self.check = CHECKS[wl.kind]
        self.expect = wl.expect
        self.seen: dict[str, list[str]] = {}

    def problems(self, sha256: str, text: str) -> list[str]:
        if sha256 not in self.seen:
            self.seen[sha256] = self.check(text, **self.expect)
        return list(self.seen[sha256])

    def __call__(self, inv: Invocation) -> None:
        if not inv.problems:
            inv.problems.extend(self.problems(inv.sha256, inv.output))


def require_same_bytes(runs: list[Invocation], what: str) -> None:
    """Mark as failed every successful run whose CSV differs from the first one."""
    good = [r for r in runs if r.ok]
    for r in good[1:]:
        if r.sha256 != good[0].sha256:
            r.problems.append(f"{what}: CSV bytes differ from the first repetition")


def speed_factors(calib: list[float], n_calls: int) -> list[float]:
    """Reference host speed over the host's speed around each timed call.

    ``calib[j]`` was timed just before timed call ``j`` and ``calib[j + 1]``
    just after it.  The host's speed around call ``j`` is taken from the
    median of the CALIB_WINDOW calibrations on each side of it, so one
    disturbed calibration does not count.
    """
    return [CALIB_REF_S / statistics.median(calib[max(0, j + 1 - CALIB_WINDOW):
                                                   j + 1 + CALIB_WINDOW])
            for j in range(min(n_calls, len(calib) - 1))]


def run_end_to_end(wl: Workload, seconds: float, work: Path) -> dict:
    setup_cmd = [sys.executable, "-c", "import intermod.cli"]
    check = Checker(wl)
    # The reference is one real CLI process, as a user runs it; for a
    # parallel workload it runs with --jobs 1, and the timed calls at
    # --jobs N must give the same rows.
    cli_argv = [*wl.argv, "--jobs", "1"] if wl.jobs > 1 else list(wl.argv)
    reference = invoke([sys.executable, "-m", "intermod.cli", *cli_argv], work / "reference.csv")
    check(reference)
    setups = [invoke(setup_cmd, work / "setup.out") for _ in range(SETUPS // 2)]
    result_path = work / "loop.json"
    loop = invoke([sys.executable, str(HERE / "loop.py"), str(result_path), f"{seconds:g}",
                   f"{TIMEOUT_S:g}", *wl.argv], work / "loop.out",
                  timeout=seconds + 3 * TIMEOUT_S)
    setups += [invoke(setup_cmd, work / "setup.out") for _ in range(SETUPS - SETUPS // 2)]
    calls, calib, outputs = [], [], {}
    if loop.ok:
        try:
            data = json.loads(result_path.read_text(encoding="utf-8"))
            calls, calib, outputs = data["calls"], data["calib_s"], data["outputs"]
        except (OSError, ValueError, KeyError) as exc:
            loop.problems.append(f"unreadable loop result: {exc}")
    for c in calls:
        c["problems"] = ([c["error"]] if c["error"]
                         else check.problems(c["csv_sha256"], outputs[c["csv_sha256"]]))
    good = [c for c in calls if not c["problems"]]
    if wl.jobs == 1 and reference.ok:
        expected, source = reference.sha256, "the reference invocation"
    else:
        expected, source = good[0]["csv_sha256"] if good else None, "the first call"
    for c in good:
        if c["csv_sha256"] != expected:
            c["problems"].append(f"determinism: CSV bytes differ from {source}")
    if wl.jobs > 1 and reference.ok and good and (
            data_lines(reference.output) != data_lines(outputs[expected])):
        reference.problems.append(f"--jobs 1 and --jobs {wl.jobs} give different rows")
    timed = calls[1:]  # the first call is the warm-up
    n_failed = (not reference.ok) + (not loop.ok) + sum(bool(c["problems"]) for c in calls)
    n_attempted = 1 + max(len(calls), 1)
    samples = [(c, speed) for c, speed in zip(timed, speed_factors(calib, len(timed)))
               if not c["problems"]]
    setup_s = statistics.median(s.wall_s for s in setups)
    metrics, reported = {"setup_s": setup_s}, {"failed_frac": n_failed / n_attempted}
    if samples:
        metrics.update({
            "wall_ref_s": statistics.median(c["wall_s"] * speed for c, speed in samples),
            "cpu_ref_s": statistics.median(c["cpu_s"] * speed for c, speed in samples),
            "peak_rss_mb": loop.peak_rss_mb,
        })
        wall = statistics.median(c["wall_s"] for c, _ in samples)
        reported.update({
            "wall_s": wall,
            "cpu_s": statistics.median(c["cpu_s"] for c, _ in samples),
            "sweep_points_per_s": wl.points / wall,
            "host_speed": statistics.median(speed for _, speed in samples),
            "timed_calls": len(samples),
        })
        if wl.msamples:
            reported["mc_msamples_per_s"] = wl.msamples / wall
    failed_setup = [s for s in setups if s.problems]
    return {
        "workload": wl.name, "argv": ["intermod", *wl.argv],
        "correct": n_failed == 0 and not failed_setup and bool(samples),
        "attempted": n_attempted, "failed": n_failed,
        "metrics": metrics, "reported": reported,
        "csv_sha256": sorted({c["csv_sha256"] for c in good}),
        "setup_problems": [p for s in failed_setup for p in s.problems][:5],
        "setup_samples_s": [s.wall_s for s in setups],
        "reps": [_rep_record(reference), _rep_record(loop)] + [
            {k: c[k] for k in ("wall_s", "cpu_s", "csv_sha256", "problems")} for c in calls],
        "calib_samples_s": calib,
    }


def run_traced(wl: Workload, seconds: float, work: Path) -> dict:
    check = Checker(wl)
    runs: list[Invocation] = []
    walls: dict[str, list[float]] = {"plain": [], "trace": []}
    layer_samples: list[dict] = []

    def launch(mode: str) -> Invocation:
        trace_dir = work / f"trace-{len(runs)}"
        trace_dir.mkdir()
        inv = invoke([sys.executable, str(HERE / "traced_cli.py"), mode, str(trace_dir),
                      *wl.argv], work / "cli.csv")
        check(inv)
        runs.append(inv)
        if inv.ok:
            try:
                main = json.loads((trace_dir / "main.json").read_text(encoding="utf-8"))
                if mode == "trace":
                    dumps = [json.loads(p.read_text(encoding="utf-8"))
                             for p in sorted(trace_dir.glob("proc-*.json"))]
                    layer_samples.append(per_layer_metrics(
                        merge(dumps), main["wall_s"], main["t0"], wl.jobs))
                walls[mode].append(main["wall_s"])
            except (OSError, ValueError, KeyError) as exc:
                inv.problems.append(f"unreadable trace: {exc}")
        shutil.rmtree(trace_dir)
        return inv

    warmup = launch("plain")  # untimed: fills the caches
    walls["plain"].clear()
    start = time.perf_counter()
    pair = ("plain", "trace")
    while not warmup.timed_out:
        if any(launch(mode).timed_out for mode in pair) or not layer_samples:
            break
        if time.perf_counter() - start >= seconds:
            break
        pair = pair[::-1]  # alternate which side runs first
    require_same_bytes(runs, "tracing")
    metrics = {name: statistics.median(s[name] for s in layer_samples)
               for name in (layer_samples[0] if layer_samples else ())}
    if walls["plain"] and walls["trace"]:
        metrics["trace.overhead_frac"] = (statistics.median(walls["trace"])
                                          / statistics.median(walls["plain"]) - 1.0)
    reported = {"failed_frac": sum(not r.ok for r in runs) / len(runs)}
    return _result(wl, runs, metrics, reported, [], {
        "main_wall_s": walls,
        "accounting_residual_s": [
            sum(s[f"{layer}.self_s"] for layer in (*LAYERS, "cli")) - s["trace.wall_s"]
            for s in layer_samples],
        "reps": [_rep_record(r) for r in runs],
    })


def _rep_record(inv: Invocation) -> dict:
    return {"rc": inv.rc, "timed_out": inv.timed_out, "wall_s": inv.wall_s, "cpu_s": inv.cpu_s,
            "peak_rss_mb": inv.peak_rss_mb, "csv_sha256": inv.sha256,
            "problems": inv.problems[:20]}


def _result(wl, attempted, metrics, reported, failed_setup, detail) -> dict:
    hashes = sorted({r.sha256 for r in attempted if r.ok})
    return {
        "workload": wl.name, "argv": ["intermod", *wl.argv],
        "correct": all(r.ok for r in attempted) and not failed_setup,
        "attempted": len(attempted), "failed": sum(not r.ok for r in attempted),
        "metrics": metrics, "reported": reported, "csv_sha256": hashes,
        "setup_problems": [p for s in failed_setup for p in s.problems][:5],
        **detail,
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "nproc_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "bit_generator": type(numpy.random.default_rng().bit_generator).__name__,
        **_git_state(),
    }


def _git_state() -> dict:
    # Stop git at the repository root: a checkout without .git has no commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              capture_output=True, text=True)
        if head.returncode != 0:
            return {"git_commit": None, "git_dirty": None}
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": head.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *REPORTED, *PER_LAYER)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = make_workload(name, seed)
    work = OUT / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = (run_traced if trace else run_end_to_end)(wl, seconds, work)
    result.update(seed=seed, seconds=seconds, trace=int(trace), environment=environment())
    (OUT / f"{name}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    shutil.rmtree(work)
    for metric, value in {**result["metrics"], **result["reported"]}.items():
        print(f"{name:16s} {metric:44s} {value:14.6g} {UNITS[metric]}")
    print(f"{name:16s} {'csv_sha256':44s} {' '.join(result['csv_sha256'])}")
    for problem in [p for r in result["reps"] for p in r["problems"]][:10]:
        print(f"{name:16s} FAILED: {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "intermod" / "cli.py").is_file():
        print(f"error: no intermod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    metrics_of = (lambda r, m: m) if len(results) == 1 else (lambda r, m: f"{r['workload']}.{m}")
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {metrics_of(r, m): {"value": v, "unit": UNITS[m]}
                    for r in results for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
