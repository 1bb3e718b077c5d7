"""One command for the repo's benchmark: four workloads, end-to-end and
per-layer numbers, and a correctness check on every output.

    python3 benchmarks/e2e/run.py                       # everything
    python3 benchmarks/e2e/run.py --workload mine_deep  # one workload
    python3 benchmarks/e2e/run.py --workload mine_deep --trace 0   # end-to-end only
    python3 benchmarks/e2e/run.py --workload mine_deep --trace 1   # per-layer only
    python3 benchmarks/e2e/run.py --smoke               # tiny sizes, plumbing only

Each workload runs in its own fresh child process (so ``peak_rss_mb`` is
that workload's and one workload's heap never warms another's).  Inside
the child: set-up → one untimed warm-up unit → R timed units on fresh
copies → correctness checks; ``--trace 1`` instead times one unit with the
program's tracer on and runs the per-layer probes.  README.md defines
every workload and metric.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import mmap  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORK_DIR = HERE / ".work"

WORKLOAD_NAMES = ("mine_deep", "mine_broad", "enforce_churn", "serve_mixed")

#: The child's allocator and hash settings.  With glibc's defaults every
#: large numpy temporary is mmap'd and unmapped again, and one mine_deep
#: unit has the kernel zero ~24 GB of pages: 4–19 s of system time for 3 s
#: of user time on the reference VM, varying 3× between identical runs.
#: Keeping freed blocks on the process heap makes the timed units measure
#: the program; the warm-up unit still pays the first touch and reports it
#: as ``session.first_run_s``.
CHILD_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_TOP_PAD_": str(64 << 20),
    "PYTHONHASHSEED": "0",
}

#: A run whose host calibration moved by more than this is flagged noisy.
NOISY_SHIFT = 0.20
CALIB_LOOP = 1_000_000
CALIB_TOUCH_BYTES = 256 << 20

Metrics = Dict[str, Tuple[float, str]]


# ---------------------------------------------------------------------------
# the child: one workload in this process
# ---------------------------------------------------------------------------
class Timed:
    """Wall, CPU and fault deltas of one timed region."""

    def __enter__(self) -> "Timed":
        # survivors of earlier units must not make this unit's collections
        # slower: collect, then park what is left outside the collector
        gc.collect()
        gc.freeze()
        self._usage = resource.getrusage(resource.RUSAGE_SELF)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.wall_s = time.perf_counter() - self._start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.user_s = usage.ru_utime - self._usage.ru_utime
        self.sys_s = usage.ru_stime - self._usage.ru_stime
        self.minor_faults = usage.ru_minflt - self._usage.ru_minflt


def peak_rss_mb() -> float:
    """This process's resident high-water mark.  ``VmHWM`` rather than
    ``ru_maxrss``: the latter survives ``exec`` and would report the parent's
    calibration pages."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def reset_peak_rss() -> None:
    """Give the heap set-up grew back to the kernel and restart ``VmHWM``, so
    ``peak_rss_mb`` is the timed units' memory and not set-up's Σ mining."""
    ctypes.CDLL(None).malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")


def run_child(args: argparse.Namespace) -> Dict[str, Any]:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import stack_bytes
    from repro import Tracer
    from repro.core import MatchTable
    from spans import SpanRecorder
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    workload = WORKLOADS[args.workload]
    end_to_end = args.trace in (None, 0)
    per_layer = args.trace in (None, 1)
    # the traced pass needs one untraced unit to compare its traced one with
    single = args.smoke or not end_to_end
    repeats = 1 if single else args.repeats or workload.repeats(args.seconds)
    warmups = 0 if args.smoke else 1
    WORK_DIR.mkdir(exist_ok=True)
    spans = SpanRecorder(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
    tracers: List[Any] = []

    def traced(function: Any, *call_args: Any) -> Any:
        """Call with the program's tracer on and ``stack_supports`` spanned."""
        tracers.append(Tracer())
        with spans.wrap(MatchTable, "stack_supports", "core.stack_supports",
                        stack_bytes):
            return function(*call_args, spans, tracers[-1])

    # -- set-up: several times where it is cheap, the median is reported ----
    setup_samples = []
    if end_to_end:
        for _ in range(1 if args.smoke else workload.setup_repeats):
            with Timed() as timed:
                state = workload.setup(args.seed, args.smoke, spans)
            setup_samples.append(timed.wall_s)
    if per_layer:  # layer numbers of whatever set-up runs (Σ mining, index)
        state = traced(workload.setup, args.seed, args.smoke)

    setup_rss_mb = peak_rss_mb()
    reset_peak_rss()

    # -- one untimed warm-up unit, then the timed ones ----------------------
    units, timings, digests = [], [], []
    for repeat in range(warmups + repeats):
        unit_input = workload.prepare(state, warmup=repeat < warmups)
        with Timed() as timed, spans.span("repeat", repeat=repeat - warmups):
            unit = workload.unit(state, unit_input, spans)
        if repeat == 0:
            first_run_s = timed.wall_s
        if repeat >= warmups:
            units.append(unit)
            timings.append(timed)
        if repeat >= warmups or workload.full_warmup:
            digests.append(unit.digest)
    rss_mb = peak_rss_mb()
    failures = workload.check(state, units)

    walls = [timed.wall_s for timed in timings]
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "repeats": repeats,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
        "samples": {
            "import_s": import_s,
            "setup_s": setup_samples,
            "first_run_s": first_run_s,
            "wall_s": walls,
            "cpu_user_s": [timed.user_s for timed in timings],
            "sys_s": [timed.sys_s for timed in timings],
            "minor_faults": [timed.minor_faults for timed in timings],
        },
    }
    if end_to_end:
        result["end_to_end"] = {
            "setup_s": (import_s + statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_user_s": (
                statistics.median(timed.user_s for timed in timings), "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        result["extras"] = {
            "setup_peak_rss_mb": (setup_rss_mb, "MiB"),
            **workload.extras(units),
        }

    if per_layer:
        metrics, traced_unit = traced_pass(
            workload, state, spans, traced, tracers, timings)
        metrics["session.first_run_s"] = (first_run_s, "s")
        digests.append(traced_unit.digest)
        result["per_layer"] = metrics
        result["layer_extras"] = {
            name: (value, "count") for name, value in traced_unit.counts.items()
            if name not in metrics
        }
        if args.workload == "mine_broad" and end_to_end and not args.smoke:
            result["layer_extras"].update(
                multiprocess_pass(state, statistics.median(walls)))

    if len(set(digests)) != 1:
        failures.append(f"output digest differs between units: {sorted(set(digests))}")
    result.update(digest=digests[-1], failures=failures)
    spans.write_chrome_trace(WORK_DIR / f"trace_{args.workload}.json")
    return result


def traced_pass(workload: Any, state: Dict[str, Any], spans: Any, traced: Any,
                tracers: List[Any], timings: List[Timed]) -> Tuple[Metrics, Any]:
    """One unit with the program's tracer on, then the isolation probes."""
    import layers
    from workloads import pipeline_counts

    unit_input = workload.prepare(state)
    with Timed() as traced_timing, spans.span("repeat", traced=True) as root:
        unit = traced(workload.unit, state, unit_input)
    # mine_* mine in the unit; the others mined their Σ in the (traced) set-up
    pipeline = unit.outputs.get("pipeline") or state["pipeline"]
    state.setdefault("sigma", pipeline.cover)
    state.update(mined=pipeline.sigma, cover=pipeline.cover)
    with spans.span("probes"):
        metrics = layers.probe_layers(state, WORK_DIR, spans)
    for phase in ("open", "discover", "cover", "enforce", "close"):
        metrics[f"session.{phase}_s"] = (
            spans.named(f"session.{phase}")[-1].duration, "s")
    for name, value in pipeline_counts(pipeline).items():
        metrics[name] = (value, "count")
    stacks = spans.named("core.stack_supports")
    stack_s = sum(span.duration for span in stacks)
    stack_mb = sum(span.args["bytes"] for span in stacks) / 2**20
    metrics["core.stack_supports_s"] = (stack_s, "s")
    metrics["core.stack_mask_mb"] = (stack_mb, "MiB")
    metrics["core.stack_mb_per_s"] = (stack_mb / stack_s, "MiB/s")
    metrics.update(layers.program_trace_metrics(tracers))
    untraced_s = statistics.median(timed.wall_s for timed in timings)
    metrics["obs.traced_over_untraced"] = (traced_timing.wall_s / untraced_s, "ratio")
    metrics["host.sys_s"] = (
        statistics.median(timed.sys_s for timed in timings), "s")
    metrics["host.minor_faults"] = (
        statistics.median(timed.minor_faults for timed in timings), "count")
    metrics["bench.self_time_coverage"] = (spans.coverage(root), "ratio")
    return metrics, unit


def multiprocess_pass(state: Dict[str, Any], serial_wall_s: float) -> Metrics:
    """Record-only: the same pipeline on real worker processes (ROADMAP 3)."""
    from repro import Session
    from repro.parallel import shared_memory_available

    if not shared_memory_available():
        return {}
    graph = state["graph"].copy()
    started = time.perf_counter()
    with Session(graph, state["config"], backend="multiprocess",
                 num_workers=2) as session:
        session.backend  # starts the worker pool
        start_s = time.perf_counter() - started
        session.discover()
        session.cover()
        session.enforce()
    wall_s = time.perf_counter() - started
    return {
        "parallel.mp_start_s": (start_s, "s"),
        "parallel.mp_wall_s": (wall_s, "s"),
        "parallel.mp_over_serial": (wall_s / serial_wall_s, "ratio"),
    }


# ---------------------------------------------------------------------------
# the parent: spawn children, print, write the envelope
# ---------------------------------------------------------------------------
def host_stamp() -> Dict[str, Any]:
    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *command], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "thp": thp.read_text().strip() if thp.exists() else None,
        "platform": platform.platform(),
        "child_env": CHILD_ENV,
    }


def calibrate() -> Dict[str, float]:
    """Two fixed pieces of work that tell a noisy host from a slow commit:
    a pure-Python loop, and allocate-and-touch of fresh anonymous pages.
    Run in the parent, so the pages never count towards ``peak_rss_mb``."""
    started = time.perf_counter()
    total = 0
    for value in range(CALIB_LOOP):
        total += value * value % 7
    cpu_ms = (time.perf_counter() - started) * 1e3
    started = time.perf_counter()
    with mmap.mmap(-1, CALIB_TOUCH_BYTES) as region:
        region[::mmap.PAGESIZE] = b"\x01" * (CALIB_TOUCH_BYTES // mmap.PAGESIZE)
    touch_ms = (time.perf_counter() - started) * 1e3
    return {"host.calib_cpu_ms": cpu_ms, "host.calib_touch_ms": touch_ms}


def spawn(workload: str, args: argparse.Namespace) -> Dict[str, Any]:
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    if args.repeats:
        command += ["--repeats", str(args.repeats)]
    if args.smoke:
        command.append("--smoke")
    calib = [calibrate()]
    done = subprocess.run(command, env={**os.environ, **CHILD_ENV},
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {done.returncode}")
    calib.append(calibrate())
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["calib"] = calib
    result["noisy"] = any(
        abs(calib[1][name] / calib[0][name] - 1.0) > NOISY_SHIFT
        for name in calib[0])
    if "per_layer" in result:
        for name in calib[0]:
            result["per_layer"][name] = (
                statistics.mean(sample[name] for sample in calib), "ms")
    return result


def print_metrics(workload: str, title: str, metrics: Dict[str, Any]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{workload:14s} {title:9s} {name:32s} {value:14.6g} {unit}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds every generator (default 1)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long one run measures; sets the repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer only "
                             "(default: both)")
    parser.add_argument("--repeats", type=int,
                        help="timed units per workload (overrides --seconds)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one unit, no warm-up: checks the "
                             "plumbing; the numbers mean nothing")
    parser.add_argument("--out", type=Path,
                        help="write the full result envelope here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT / 'src' / 'repro'} not found — the benchmark "
              "measures the program in this checkout", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    started = time.perf_counter()
    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = [spawn(workload, args) for workload in workloads]
    for result in results:
        name = result["workload"]
        print_metrics(name, "end2end", result.get("end_to_end", {}))
        print_metrics(name, "extra", result.get("extras", {}))
        print_metrics(name, "layer", result.get("per_layer", {}))
        print_metrics(name, "extra", result.get("layer_extras", {}))
        print(f"{name:14s} digest {result['digest']}  attempted "
              f"{result['attempted']}  failed {result['failed']}"
              f"{'  NOISY HOST' if result['noisy'] else ''}")
        for failure in result["failures"]:
            print(f"{name:14s} FAIL {failure}")
    envelope = {
        "schema": 1,
        "host": host_stamp(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "total_wall_s": time.perf_counter() - started,
        "workloads": {result["workload"]: result for result in results},
    }
    out = args.out or WORK_DIR / f"result_seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(envelope, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {out} ({envelope['total_wall_s']:.1f} s)")

    correct = not any(result["failures"] for result in results)
    section = "per_layer" if args.trace == 1 else "end_to_end"
    metrics = {
        (name if args.workload else f"{result['workload']}:{name}"):
            {"value": value, "unit": unit}
        for result in results
        for name, (value, unit) in result[section].items()
    }
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(result["attempted"] for result in results)),
        "failed": sum(result["failed"] for result in results) if correct
        else max(1, sum(result["attempted"] for result in results)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
