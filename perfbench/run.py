"""The spdcqkd benchmark: one command per workload, end to end or traced.

    python3 perfbench/run.py --workload session_bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads and the reason for each are in BENCHMARK.json; perfbench/README.md
maps every per-layer metric to the end-to-end metric it should move.

--trace 0 runs the closed loop untraced for --seconds and reports the
end-to-end metrics.  Their times are scaled to a nominal host speed, measured
by reference tasks of the benchmark's own (see "host speed" and "set-up time"
below); the record line keeps the wall-clock values beside them.  --trace 1
alternates untraced and traced stretches of about a second each, and reports
per-layer metrics per traced operation plus the tracing overhead (untraced
minus traced, as a share).  --smoke shrinks
every operation, for the benchmark's own test.  The program is imported from
src/ next to this directory and never edited.

Standard output ends with a line "record {...}" (environment, every metric
with its unit, checks, labels) and then one JSON line with exactly the keys
correct, attempted, failed and metrics.  Exit code 2, with no result, when
the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "spdcqkd"

END_TO_END_UNITS = {"rounds_per_s": "1/s", "sessions_per_s": "1/s", "session_p50_s": "s",
                    "session_p90_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Phases of an operation reported by rate beside the end-to-end metrics.
PHASE_RATES = {"write": "write_rounds_per_s", "replay": "replay_rounds_per_s"}

PER_LAYER = [
    ("kernels.sample_rounds", ("self_s", "calls", "rounds")),
    ("protocol.uniform_block", ("self_s", "bytes")),
    ("protocol.tally_update", ("self_s",)),
    ("protocol.build_tables", ("self_s", "calls", "scenarios", "groups", "rows")),
    ("optics.joint_threshold_branches", ("self_s", "calls")),
    ("optics.qnd_count", ("self_s", "calls")),
    ("optics.rotate_polarization", ("self_s", "calls")),
    ("attack.split_channel", ("self_s", "calls")),
    ("attack.attack_four_photon", ("self_s", "calls")),
    ("source.spdc_state", ("self_s", "calls")),
    ("protocol.transcript_lines", ("self_s", "bytes")),
    ("kernels.fnv1a64.writer", ("self_s", "bytes")),
    ("kernels.fnv1a64.replay", ("self_s", "bytes")),
    ("protocol.run_session", ("self_s",)),
    ("protocol.parse_transcript", ("self_s",)),
    ("protocol.replay", ("self_s", "bytes_read")),
]
KEY_UNITS = {"self_s": "s", "calls": "count", "rounds": "count", "bytes": "B",
             "bytes_read": "B", "scenarios": "count", "groups": "count", "rows": "count"}
RUN_UNITS = {"workload.repeat_share": "ratio", "trace.op_wall_s": "s",
             "trace.overhead_share": "ratio"}

# Layers whose self time should cover the traced wall time of a workload.
HOT_LAYERS = {
    "session_bulk": ["kernels.sample_rounds", "protocol.uniform_block", "protocol.tally_update"],
    "transcript_roundtrip": ["kernels.fnv1a64.writer", "protocol.transcript_lines",
                             "kernels.fnv1a64.replay", "protocol.parse_transcript"],
    "config_sweep": ["protocol.build_tables", "optics.joint_threshold_branches",
                     "optics.qnd_count", "optics.rotate_polarization", "attack.split_channel",
                     "attack.attack_four_photon", "source.spdc_state"],
}

LABELS = {
    "bytes": "computed, not measured: uniform_block 64 B per round (8 float64 draws); "
             "transcript_lines the formatted text; fnv1a64 the hashed buffer; "
             "replay.bytes_read the file size",
    "transcript_io": "page-cache I/O: transcripts are written and read back through the "
                     "OS page cache, which is not dropped between runs",
    "per_layer": "per operation: totals over the traced operations divided by their count; "
                 "self times are wall clock",
    "scaled_times": "end-to-end times are wall times scaled to a host on which the "
                    "reference task takes ref_nominal_s (setup_s: on which a fresh "
                    "interpreter imports numpy in startup_ref_nominal_s); wall_metrics "
                    "has them unscaled",
}

WORKLOADS = ("session_bulk", "transcript_roundtrip", "config_sweep")
SETUP_REPEATS = 11


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny operations, for the benchmark's own test")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    from spdcqkd import _kernels

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "have_numba": bool(getattr(_kernels, "HAVE_NUMBA", False)),
        "SPDCQKD_NO_NUMBA": os.environ.get("SPDCQKD_NO_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark gets a few cores of a shared host whose speed drifts by tens
# of percent over seconds to minutes with the load of other tenants; a
# 30-second run's median wall time moves with it.  A fixed pure-Python task,
# timed about every REF_INTERVAL_S between operations, tracks that drift:
# each operation's wall time is scaled by REF_NOMINAL_S over the mean of the
# reference timings on either side of it.  The result is the operation's time
# on a host where the reference task takes REF_NOMINAL_S (close to the 2-vCPU
# Xeon the benchmark was tuned on).  The reference task is the benchmark's own
# code, so a change to the program moves scaled times as it moves wall times.

REF_NOMINAL_S = 0.004
REF_INTERVAL_S = 0.2
_REF_BYTES = bytes(range(256)) * 150


def reference_s() -> float:
    """Wall time of the reference task: FNV-1a over 38400 bytes in pure Python."""
    t0 = perf_counter()
    h = 0xCBF29CE484222325
    for b in _REF_BYTES:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return perf_counter() - t0


class HostSpeed:
    """Reference timings through a run; segment k lies between timings k and k+1."""

    def __init__(self):
        self.times: list[float] = []
        self._last = -math.inf

    def mark(self) -> int:
        """Time the reference task if the last timing is older than
        REF_INTERVAL_S; return the segment the next operation falls in."""
        if perf_counter() - self._last >= REF_INTERVAL_S:
            self.times.append(reference_s())
            self._last = perf_counter()
        return len(self.times) - 1

    def close(self) -> None:
        """The timing that ends the last segment."""
        self.times.append(reference_s())
        self._last = perf_counter()

    def scale(self, segment: int) -> float:
        return REF_NOMINAL_S / (0.5 * (self.times[segment] + self.times[segment + 1]))

    def host_speed(self) -> float:
        """Median over the run of REF_NOMINAL_S / reference timing."""
        return statistics.median(REF_NOMINAL_S / t for t in self.times)


# ---------------------------------------------------------------------------
# set-up time: the cold start a command-line user pays on every call
#
# A cold start is mostly the interpreter starting and numpy loading, which
# drift with the host's file and memory load more than the reference task
# does.  So each cold start is scaled by a reference cold start timed just
# before it: a fresh interpreter that imports numpy and nothing of the
# program.  The result is the cold start's time on a host where that takes
# STARTUP_REF_NOMINAL_S.

STARTUP_REF_NOMINAL_S = 0.15
STARTUP_REF_CODE = "import numpy"


def setup_seconds(workdir: Path, seed: int,
                  repeats: int) -> tuple[float, float, list[str]]:
    """Median time of a fresh process importing spdcqkd.cli and running a
    1-round `simulate`, scaled to nominal host speed and as wall time.  One
    start before the timed ones writes the bytecode cache, which a user pays
    once, not per call."""
    config = workdir / "setup.json"
    config.write_text(json.dumps({"rounds": 1, "seed": seed,
                                  "source": {"kind": "spdc", "tanh_xi": 0.3},
                                  "eve": {"kind": "split", "max_attempts": 3}}))
    code = "import sys\nfrom spdcqkd.cli import main\nmain(['simulate', '--config', sys.argv[1]])"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times, walls, problems = [], [], []
    for i in range(repeats + 1):
        t0 = perf_counter()
        ref = subprocess.run([sys.executable, "-c", STARTUP_REF_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
        t1 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, str(config)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        dt = perf_counter() - t1
        if ref.returncode != 0:
            problems.append(f"reference cold start failed: exit {ref.returncode}: "
                            f"{ref.stderr.strip()[-300:]}")
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["results"]["rounds"] == 1
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            problems.append(f"cold-start simulate failed: exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
        if i:
            walls.append(dt)
            times.append(dt * STARTUP_REF_NOMINAL_S / (t1 - t0))
    return statistics.median(times), statistics.median(walls), problems


# ---------------------------------------------------------------------------
# the closed loop


class Stats:
    def __init__(self):
        self.wall: list[float] = []
        self.segments: list[int] = []  # HostSpeed segment of each measured op
        self.latencies: list[float] = []  # wall times scaled by `finish`
        self.rounds: list[int] = []
        self.phases: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def finish(self, speed: HostSpeed) -> None:
        """Scale every measured time to nominal host speed."""
        scales = [speed.scale(k) for k in self.segments]
        self.latencies = [w * c for w, c in zip(self.wall, scales)]
        self.phases = {phase: [t * c for t, c in zip(times, scales)]
                       for phase, times in self.phases.items()}


def run_op(op, stats: Stats, speed: HostSpeed, tracer=None, extra_check=None) -> None:
    """Time one operation (traced if a tracer is given), then check it untraced."""
    stats.attempted += 1
    segment = speed.mark()
    if tracer is not None:
        tracer.active = True
    t0 = perf_counter()
    try:
        result = op.run()
        dt = perf_counter() - t0
    except Exception as exc:  # the loop goes on; the operation counts as failed
        result, problems = None, [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.active = False
    if result is not None:
        try:
            problems = op.check(result) + (extra_check(result) if extra_check else [])
        except Exception as exc:  # a check that cannot run fails the operation
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if not problems:
            stats.wall.append(dt)
            stats.segments.append(segment)
            stats.rounds.append(op.config.rounds)
            for phase, seconds in op.phases.items():
                stats.phases.setdefault(phase, []).append(seconds)
    if problems:
        stats.failed += 1
        stats.problems.extend(problems)


def run_for(ops, seconds: float, stats: Stats, speed: HostSpeed, tracer=None,
            keys=None) -> None:
    end = perf_counter() + seconds
    while True:
        op = next(ops)
        if keys is not None:
            keys.append(op.config)
        run_op(op, stats, speed, tracer)
        if perf_counter() >= end:
            return


def end_to_end(stats: Stats, lat: list[float]) -> dict[str, float]:
    """The end-to-end metrics over the operation times `lat` of `stats`."""
    if not lat:
        return {}
    return {
        "rounds_per_s": sum(stats.rounds) / sum(lat),
        "sessions_per_s": len(lat) / sum(lat),
        "session_p50_s": statistics.median(lat),
        "session_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def phase_rates(stats: Stats) -> dict[str, float]:
    """Rounds per second of each phase of an operation, by its PHASE_RATES name."""
    return {PHASE_RATES[phase]: sum(stats.rounds) / sum(times)
            for phase, times in stats.phases.items()}


def per_layer(totals: dict, ops: int, traced: Stats, untraced: Stats,
              repeat_share: float) -> dict[str, float]:
    out = {}
    for layer, keys in PER_LAYER:
        for key in keys:
            out[f"{layer}.{key}"] = totals.get(layer, {}).get(key, 0.0) / ops
    mean_traced = statistics.fmean(traced.latencies) if traced.latencies else float("nan")
    mean_untraced = statistics.fmean(untraced.latencies) if untraced.latencies else float("nan")
    out["workload.repeat_share"] = repeat_share
    out["trace.op_wall_s"] = statistics.fmean(traced.wall) if traced.wall else float("nan")
    out["trace.overhead_share"] = 1.0 - mean_untraced / mean_traced
    return out


def per_layer_unit(name: str) -> str:
    return RUN_UNITS.get(name) or KEY_UNITS[name.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":  # each workload in its own process, for its own peak RSS
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        return max(subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
                   for w in WORKLOADS)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spdcqkd

    if Path(spdcqkd.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: imported spdcqkd from {spdcqkd.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    size_name = "smoke" if args.smoke else "full"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(args, size_name, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _run(args, size_name: str, workdir: Path, tracing, workloads) -> int:
    t0 = perf_counter()
    workloads.closed_form_reference()
    security_s = perf_counter() - t0
    parity, problems = workloads.kernel_parity()
    checks = {"kernel_parity": parity,
              "security_span": {"layer": "security", "self_s": security_s}}

    metrics: dict[str, float] = {}
    wall_metrics: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"], wall_metrics["setup_s"], setup_problems = setup_seconds(
            workdir, args.seed, 1 if args.smoke else SETUP_REPEATS)
        problems += setup_problems

    ops = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[size_name], workdir)
    warm = Stats()
    pin = None
    if args.seed == workloads.DEFAULT_SEED:
        checks["pinned_counts"] = "checked on the first operation"
        pin = lambda rep: workloads.pinned_problems(args.workload, size_name, rep)  # noqa: E731
    else:
        checks["pinned_counts"] = f"not checked: pins are for seed {workloads.DEFAULT_SEED}"
    speed = HostSpeed()
    run_op(next(ops), warm, speed, extra_check=pin)

    configs: list = []
    untraced = Stats()
    traced = Stats()
    absent: list[str] = []
    if args.trace:
        # untraced and traced stretches alternate, so drift in the machine's
        # speed does not show up as tracing overhead
        tracer = tracing.Tracer()
        restore, absent = tracing.install(tracer)
        pairs = max(1, round(args.seconds / 2))
        try:
            for _ in range(pairs):
                run_for(ops, args.seconds / (2 * pairs), untraced, speed, keys=configs)
                run_for(ops, args.seconds / (2 * pairs), traced, speed, tracer, keys=configs)
        finally:
            restore()
        speed.close()
        untraced.finish(speed)
        traced.finish(speed)
        physics = [workloads.physics_key(c) for c in configs]
        repeat_share = 1.0 - len(set(physics)) / len(physics)
        totals = tracer.layers()
        metrics.update(per_layer(totals, traced.attempted, traced, untraced, repeat_share))
        units = {name: per_layer_unit(name) for name in metrics}
        hot = sum(totals.get(layer, {}).get("self_s", 0.0) for layer in HOT_LAYERS[args.workload])
        checks["hot_layers"] = HOT_LAYERS[args.workload]
        checks["hot_share"] = hot / sum(traced.wall) if traced.wall else None
        checks["absent_layers"] = absent
        all_stats = (warm, untraced, traced)
    else:
        run_for(ops, args.seconds, untraced, speed)
        speed.close()
        untraced.finish(speed)
        metrics.update(end_to_end(untraced, untraced.latencies))
        wall_metrics.update(end_to_end(untraced, untraced.wall))
        units = {name: END_TO_END_UNITS[name] for name in metrics}
        checks["phase_rates"] = phase_rates(untraced)
        all_stats = (warm, untraced)

    attempted = sum(s.attempted for s in all_stats)
    failed = sum(s.failed for s in all_stats)
    problems += [p for s in all_stats for p in s.problems]
    measured = traced if args.trace else untraced
    correct = not problems and failed == 0 and bool(measured.latencies)

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, size {size_name}, "
          f"trace {args.trace}; closed loop: 1 client, 1 process, no threads")
    for name, value in metrics.items():
        wall = f"  (wall clock {wall_metrics[name]:.6g})" if name in wall_metrics else ""
        print(f"{name:42s} {value:.6g} {units[name]}{wall}")
    for name, value in checks.get("phase_rates", {}).items():
        print(f"{name:42s} {value:.6g} 1/s  (one phase of an operation; not in the result line)")
    print(f"{'fail_ratio':42s} {failed / attempted:.6g}  ({failed} failed of {attempted} ops)")
    print(f"# {len(measured.latencies)} operations measured; "
          f"session_p90_s has {len(measured.latencies) // 10} beyond it")
    host_speed = speed.host_speed()
    print(f"# times scaled to nominal host speed; this run's host ran at {host_speed:.3f} "
          f"of it (median of {len(speed.times)} reference timings)")
    if args.trace:
        print(f"# hot layers {HOT_LAYERS[args.workload]} cover {checks['hot_share']:.1%} "
              f"of the traced wall time; absent layers: {absent or 'none'}")
    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size_name, "environment": environment(args.seed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_metrics": {k: {"value": v, "unit": units[k]} for k, v in wall_metrics.items()},
        "host_speed": host_speed, "reference_timings": len(speed.times),
        "ref_nominal_s": REF_NOMINAL_S, "startup_ref_nominal_s": STARTUP_REF_NOMINAL_S,
        "ops": attempted, "ops_failed": failed, "fail_ratio": failed / attempted,
        "samples": len(measured.latencies), "checks": checks, "labels": LABELS,
        "problems": problems[:10],
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
