#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run builds the simulator
libraries and the perfbench binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build). Every run then starts one
perfbench process for the workload, in its own fresh scratch directory
under .perfbench/runs/ and with every MMGPU_* variable cleared or
pinned, so a "cold" workload can never read an earlier run's cache.

Workloads (see the file of the same name for each):
  sweep_cold    Figure 6 sweep, 84 points, one ParallelRunner, cold
  serve_mixed   in-process SimService: open-loop warm reads + cold
                writes, then a burst of cold points
  cache_warm    restart-and-serve from a persistent run cache + WAL
A fourth workload, point_serial (single 16-GPM points on one thread,
every fabric and placement), was dropped: its one-second points moved
by 10-20% from run to run with the host's speed, and its slowest-point
tail by 25%, past the bound. The fabrics and placements it covered
still run as serve_mixed's cold points, and the direct GpuSim path it
timed as every traced run's replay.

The seed fixes serve_mixed's arrival schedule and cold-point choice and
cache_warm's lookup order; sweep_cold uses the paper's fixed inputs and
ignores it. The timed phase runs for about --seconds of wall clock:
sweep_cold always one whole sweep, serve_mixed an open-loop phase of
exactly --seconds.

End-to-end metrics, the same names on every workload:
  setup_s           median over a fixed number of set-ups of
                    calibration (StudyContext) plus the workload's own
                    set-up: a warm-up point on the direct path
                    (sweep_cold), starting the service and warming its
                    memo (serve_mixed), simulating the 42-point sweep
                    into the run cache (cache_warm). sweep_cold repeats
                    its 0.1 s set-up before and after the sweep, so
                    that the median samples the host at both ends of
                    the run, not only at its start
  points_per_s      design points answered per second of timed wall;
                    on serve_mixed, of a burst of 24 never-seen cold
                    points sent at once (what the shards can deliver,
                    not the load the open-loop phase offered)
  sim_minstr_per_s  simulated warp instructions of those points per
                    host second (served from cache they still count:
                    it is simulated work delivered)
  warm_p50_ms/p99   answering from state that already holds the result:
                    sweep_cold  run() of each point on a fresh runner
                                over the cache file the sweep wrote
                    serve_mixed memo-hit run requests, due -> encoded
                    cache_warm  serving all 42 points once the cache
                                file is open
  cold_p50_ms       an answer that needs new work:
                    sweep_cold  the whole sweep's drain
                    serve_mixed a run request that simulates
                    cache_warm  reopening the cache and serving all 42
                                points (restart to served)
                    Work that lasts about a millisecond (cache_warm's
                    rounds, sweep_cold's warm passes) is host-adjusted:
                    each round or pass is followed by a fixed reference
                    of the same kind of work (hexfloat strings in an
                    ordered map, no simulator code), and its times are
                    scaled by reference time to a nominal host on which
                    the reference takes 0.5 ms. On a shared host the
                    speed of such work swings by 30-50% with what the
                    neighbours run, in phases of seconds that can cover
                    a whole run; the ratio moves by a few percent. The
                    records keep the raw times too.
  peak_rss_mb       the workload process's peak resident set
Some of these are one figure seen twice, and a change that moves one
moves the other by the same share; count it once:
  sweep_cold    cold_p50_ms = 84000 / points_per_s (one drain)
  sweep_cold, cache_warm: sim_minstr_per_s is a fixed multiple of
                points_per_s (the same points every run); on
                serve_mixed nearly so (the seed picks the burst's
                points from a balanced mix)
  cache_warm    cold_p50_ms = 42000 / points_per_s (the median
                host-adjusted round)
Failed or refused operations are the result line's "failed" count,
out of "attempted"; the traced run adds their ratio as fail_frac.

Every end-to-end metric is printed by name with its unit; --trace 1
runs the workload untraced, then traced with spans around every layer
call, then replays its points through the direct path, and prints the
per-layer metrics instead. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. A run is correct only if
every answer matched its reference bit for bit and the workload's
digest equals the one stored in digests.json; otherwise the JSON line
says so and the exit code is 1.

Each run leaves a record (host fingerprint, seed, pinned environment,
every metric and note; spans for traced runs) in .perfbench/records/,
named <UTC time>-<workload>-s<seed>-t<trace>.json so no run overwrites
another. Records are run output and git ignores them; add the one that
backs a claimed number with `git add -f`.

    python3 perfbench/run.py --write-digests   # re-derive digests.json
"""

import argparse
import ctypes
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

WORKLOADS = ("sweep_cold", "serve_mixed", "cache_warm")

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "sim_minstr_per_s": "Minstr/s",
    "warm_p50_ms": "ms",
    "warm_p99_ms": "ms",
    "cold_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "gpujoule.calibrate_s": "s",
    "gpujoule.params_us": "us",
    "gpujoule.estimate_us": "us",
    "sim.build_ms": "ms",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "engine.events_warp": "count",
    "engine.events_mem": "count",
    "sim.warp_instrs": "count",
    "sim.exec_cycles": "cycles",
    "mem.l1_sector_hit_ratio": "ratio",
    "mem.l2_sector_hit_ratio": "ratio",
    "mem.remote_frac": "ratio",
    "mem.dram_queue_cycles": "cycles",
    "noc.link_bytes": "bytes",
    "noc.link_queue_cycles": "cycles",
    "harness.par_eff": "ratio",
    "harness.fingerprint_us": "us",
    "harness.cache_open_ms": "ms",
    "harness.cache_lookup_us": "us",
    "harness.cache_insert_us": "us",
    "harness.cache_flush_ms": "ms",
    "harness.cache_hits": "count",
    "harness.cache_misses": "count",
    "serve.encode_us": "us",
    "serve.queue_depth_max": "count",
    "serve.busy_shards_mean": "count",
    "serve.sims_started": "count",
    "serve.dedup_attached": "count",
    "serve.rejected": "count",
    "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
}

# A run that has not finished by then is killed and fails.
CHILD_TIMEOUT_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path / "perfbench"


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no simulator sources at", ROOT / "src")
        return None
    jobs = str(len(os.sched_getaffinity(0)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return out / "perfbench"


def pinned_env(scratch):
    """The child's environment: no inherited MMGPU_* knob survives."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MMGPU_")}
    cleared = sorted(k for k in os.environ if k.startswith("MMGPU_"))
    # The process-wide run cache stays off; every workload attaches
    # its own bench-private caches under the scratch directory.
    env["MMGPU_NO_CACHE"] = "1"
    env["MMGPU_CACHE_DIR"] = str(scratch / "process-cache")
    effective = {
        "MMGPU_NO_CACHE": "1",
        "MMGPU_CACHE_DIR": "<scratch>/process-cache",
        "MMGPU_PROFILE": "unset (profiler off)",
        "MMGPU_JOBS": "unset (workers = nproc)",
        "MMGPU_CACHE_WAL": "unset (journal on)",
        "MMGPU_CACHE_FLUSH_SEC": "unset (serve_mixed sets 1 s itself)",
        "MMGPU_FAULT_*": "unset (no injected faults)",
    }
    return env, effective, cleared


def no_aslr():
    """Child pre-exec hook: run with a fixed address-space layout, so
    microsecond-scale timings do not move with where the heap and the
    libraries happened to land (personality ADDR_NO_RANDOMIZE)."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality(0x0040000)


def run_child(binary, args, scratch, env):
    """Run the perfbench binary; return (exit status, peak RSS in MB)."""
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0", "--dir", str(scratch)]
    child = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                             preexec_fn=no_aslr)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid == child.pid:
            break
        if time.monotonic() > deadline:
            log("perfbench: run exceeded", CHILD_TIMEOUT_S, "s; killed")
            child.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = -1
            return -1, usage.ru_maxrss / 1024.0
        time.sleep(0.05)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024.0


def tree_digest():
    """SHA-256 over the simulator and benchmark sources."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def load_digests():
    try:
        return json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        return {}


def write_digests(binary):
    """Run every workload once and store its digest."""
    digests = {}
    for workload in WORKLOADS:
        scratch = fresh_scratch(workload)
        args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                  trace=False)
        env, _, _ = pinned_env(scratch)
        code, _ = run_child(binary, args, scratch, env)
        result = json.loads((scratch / "result.json").read_text())
        shutil.rmtree(scratch, ignore_errors=True)
        if code != 0 or result["mismatches"]:
            log("perfbench:", workload, "failed; digests not written")
            return 1
        digests[workload] = {"digest": result["digest"],
                             "points": result["digest_points"]}
        log(workload, digests[workload])
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def fresh_scratch(workload):
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = (Path.cwd() / ".perfbench" / "runs" /
            f"{workload}-{stamp}-{os.getpid()}-{time.monotonic_ns()}")
    path.mkdir(parents=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None or not binary.is_file():
        log("perfbench: build failed")
        return 2
    if args.write_digests:
        return write_digests(binary)

    scratch = fresh_scratch(args.workload)
    env, effective, cleared = pinned_env(scratch)
    started = time.time()
    code, peak_rss_mb = run_child(binary, args, scratch, env)
    result_path = scratch / "result.json"
    if code != 0 or not result_path.is_file():
        log("perfbench: workload process failed with exit code", code)
        shutil.rmtree(scratch, ignore_errors=True)
        return 1
    result = json.loads(result_path.read_text())

    problems = list(result["mismatches"])
    stored = load_digests().get(args.workload)
    if stored is None:
        problems.append("no stored digest for " + args.workload)
    elif (stored["digest"] != result["digest"] or
          stored["points"] != result["digest_points"]):
        problems.append(
            f"digest {result['digest']} over {result['digest_points']} "
            f"points != stored {stored['digest']} over {stored['points']}")

    values = dict(result["e2e"])
    values["peak_rss_mb"] = peak_rss_mb
    wanted = END_TO_END
    if args.trace:
        values = dict(result["layers"])
        wanted = PER_LAYER
    metrics = {}
    for name, unit in wanted.items():
        value = values.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": value, "unit": unit}

    # The record: everything measured, with the host it ran on.
    records = Path.cwd() / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = (datetime.datetime.now(datetime.timezone.utc)
            .strftime("%Y%m%dT%H%M%S.%fZ") +
            f"-{args.workload}-s{args.seed}-t{args.trace}")
    record = {
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "compiler": result["compiler"],
            "build_type": result["build_type"],
            "commit": commit(),
            "tree_sha256": tree_digest(),
            "python": platform.python_version(),
            "kernel": platform.release(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started_unix": started,
        "environment": {"effective": effective,
                        "cleared_from_caller": cleared},
        "digest": result["digest"],
        "digest_points": result["digest_points"],
        "problems": problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "end_to_end": {**result["e2e"], "peak_rss_mb": peak_rss_mb},
        "per_layer": result["layers"],
        "notes": result["notes"],
    }
    (records / (stem + ".json")).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    spans = scratch / "spans.json"
    if spans.is_file():
        shutil.move(str(spans), str(records / (stem + "-spans.json")))
    shutil.rmtree(scratch, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"digest={result['digest']}")
    for name, metric in metrics.items():
        print(f"  {name:26s} {metric['value']:>18.6f} {metric['unit']}")
    if args.trace:
        for name, value in sorted(result["notes"].items()):
            print(f"  ({name}) {value:.6f}")
    for problem in problems:
        print("  MISMATCH:", problem)
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
