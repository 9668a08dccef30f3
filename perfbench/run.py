"""bpfhelm benchmark: one workload, end-to-end or traced, in this process.

    python3 perfbench/run.py --workload {cli-reference,sweep,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory. One single-threaded closed-loop client runs one op at a
time until ``--seconds`` of wall time have passed; every op's output is
checked outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median of
several fresh processes, each timed from spawn to ready (bpfhelm imported,
inputs drawn, warm-up done). ``--trace 1`` alternates untraced and traced
passes over a fixed prefix of the op list and reports per-layer counts
(exactly repeatable for a seed), per-layer timings (medians over traced
passes) and the tracing overhead. The last line of stdout is one JSON
object; a fuller report, with provenance and the spans of the first traced
pass, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# L3 of the machine the bounds in BENCHMARK.json were set on (lscpu); the
# benchmark reads nothing outside its checkout, so it does not probe it.
REFERENCE_L3 = "300 MiB"
# Op times only get a 90th percentile when >= 10 samples lie beyond it.
P90_MIN_OPS = 100

END_TO_END_UNITS = {"op_p50_ms": "ms", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
TIMING_UNITS = {"ns_per_unknown": "ns"}
COUNT_UNITS = {"bytes_computed": "B", "output_bytes": "B", "hit_ratio": "ratio"}


class BenchmarkError(Exception):
    """The benchmark cannot run here (e.g. no package source)."""


def import_package():
    """Import bpfhelm from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import bpfhelm
    except ImportError as exc:
        raise BenchmarkError(f"cannot import bpfhelm from {SRC}: {exc}") from None
    if SRC.resolve() not in Path(bpfhelm.__file__).resolve().parents:
        raise BenchmarkError(f"bpfhelm was imported from {bpfhelm.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class Tally:
    times: list[float] = field(default_factory=list)
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    def fail(self, op_index: int, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"op {op_index}: {reason}")


def run_loop(workload, ops, seconds=None, count=None, tracer=None) -> Tally:
    """Run ops one at a time until ``seconds`` of wall time have passed or
    ``count`` ops are done. Only ``workload.run`` is timed; an op that raises
    or fails its check counts as failed."""
    tally = Tally()
    start = perf_counter()
    for index, op in enumerate(cycle(ops)):
        if tracer is not None:
            tracer.op = index
        t0 = perf_counter()
        try:
            output = workload.run(op)
        except Exception as exc:  # an op's own failure; the loop keeps going
            tally.times.append(perf_counter() - t0)
            tally.fail(index, f"raised {type(exc).__name__}: {exc}")
        else:
            tally.times.append(perf_counter() - t0)
            try:
                if tracer is None:
                    workload.check(op, output)
                else:
                    with tracer.paused():
                        workload.check(op, output)
                        tracer.count("cli.output_bytes", workload.output_bytes(output))
            except Exception as exc:  # CheckFailed, or a check that could not run
                tally.fail(index, f"check: {type(exc).__name__}: {exc}")
        if count is not None and tally.attempted >= count:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return tally


def prepare(workload, seed: int) -> list:
    """Set-up of a run: draw the inputs and warm up."""
    ops = workload.make_ops(seed)
    workload.warm_up()
    return ops


# ---------------------------------------------------------------------------
# runs


def setup_probe(workload_name: str, seed: int, spawned_at: float) -> None:
    import_package()
    import workloads

    prepare(workloads.WORKLOADS[workload_name], seed)
    print(json.dumps({"setup_s": time.monotonic() - spawned_at}))


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each from spawn to ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
             "--seed", str(seed), "--setup-probe", repr(spawned_at)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(workload, seed: int, seconds: float) -> dict:
    setup_samples = measure_setup(workload.name, seed)
    ops = prepare(workload, seed)
    tally = run_loop(workload, ops, seconds=seconds)
    times = tally.times
    metrics = {
        "op_p50_ms": 1e3 * statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    extra = {
        "samples": {"op_p50_ms": len(times), "ops_per_s": len(times), "setup_s": len(setup_samples)},
        "setup_s_samples": setup_samples,
        "op_mean_ms": 1e3 * statistics.fmean(times),
        "failed_frac": tally.failed / tally.attempted,
    }
    if len(times) >= P90_MIN_OPS:
        extra["op_p90_ms"] = 1e3 * statistics.quantiles(times, n=10)[8]
    return {"tally": tally, "metrics": metrics,
            "units": END_TO_END_UNITS, "extra": extra}


def traced(workload, seed: int, seconds: float) -> dict:
    from tracing import Tracer

    ops = prepare(workload, seed)[:workload.trace_pass]
    total = Tally()
    untraced_s, traced_s, counts_seen, timings_seen, spans = [], [], [], [], []
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        for tracer in (None, Tracer()):
            if tracer is None:
                tally = run_loop(workload, ops, count=len(ops))
                untraced_s.append(sum(tally.times))
            else:
                with tracer.installed():
                    tally = run_loop(workload, ops, count=len(ops), tracer=tracer)
                traced_s.append(sum(tally.times))
                counts, timings = tracer.summary()
                counts_seen.append(counts)
                timings_seen.append(timings)
                if len(traced_s) == 1:  # every traced pass runs the same ops
                    spans = [span.as_dict() for span in tracer.spans]
            total.times.extend(tally.times)
            total.failed += tally.failed
            total.failures.extend(tally.failures[:10 - len(total.failures)])

    counts = counts_seen[0]
    timings = {name: statistics.median(t[name] for t in timings_seen) for name in timings_seen[0]}
    timings["trace.untraced_pass_s"] = statistics.median(untraced_s)
    timings["trace.traced_pass_s"] = statistics.median(traced_s)
    # Each traced pass runs right after an untraced one; differencing the
    # pairs cancels the host's slow speed drift.
    timings["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced_s, traced_s))
    units = {name: COUNT_UNITS.get(name.rsplit(".", 1)[-1], "count") for name in counts}
    units.update({name: TIMING_UNITS.get(name.rsplit(".", 1)[-1], "s") for name in timings})
    return {
        "tally": total, "metrics": {**counts, **timings}, "units": units,
        "extra": {
            "counts": counts, "timings": timings,
            "counts_repeat": all(c == counts for c in counts_seen),
            "ops_per_pass": len(ops), "traced_passes": len(traced_s),
            "untraced_passes": len(untraced_s),
        },
        "spans": spans,
    }


# ---------------------------------------------------------------------------
# provenance and output


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bpfhelm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, result) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": f"not probed; {REFERENCE_L3} on the machine the bounds were set on",
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": result["tally"].attempted,
    }


def report(args, result) -> dict:
    tally = result["tally"]
    units = result["units"]
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in result["metrics"].items()}
    prov = provenance(args, result)
    full = {"provenance": prov, "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures, "metrics": metrics, **result["extra"]}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if "spans" in result:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"src_sha256={prov['src_sha256'][:12]} python={prov['python']} "
          f"numpy={prov['numpy']} scipy={prov['scipy']} nproc={prov['nproc']}")
    print(f"# attempted={tally.attempted} failed={tally.failed}")
    for line in tally.failures:
        print(f"# FAILED {line}")
    if args.trace:
        for section in ("counts", "timings"):
            print(f"# {section}:")
            for name, value in result["extra"][section].items():
                print(f"#   {name} = {value!r} {units[name]}")
    else:
        for name, value in result["metrics"].items():
            samples = result["extra"]["samples"].get(name, "")
            print(f"#   {name} = {value!r} {units[name]} (n={samples})")
        for name in ("op_p90_ms", "op_mean_ms", "failed_frac"):
            if name in result["extra"]:
                print(f"#   {name} = {result['extra'][name]!r}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)  # monotonic spawn time of a probe
    args = parser.parse_args(argv)
    try:
        if args.setup_probe is not None:
            setup_probe(args.workload, args.seed, args.setup_probe)
            return 0
        import_package()
        import workloads

        workload = workloads.WORKLOADS.get(args.workload)
        if workload is None:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"expected one of {sorted(workloads.WORKLOADS)}")
        run = traced if args.trace else end_to_end
        result = run(workload, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
