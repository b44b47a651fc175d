#!/usr/bin/env python3
"""vcsearch benchmark: builds the measuring program, runs one workload,
checks it, and prints the metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is built from the repository's
sources with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench).  --trace 0 prints the end-to-end metrics named in
BENCHMARK.json; --trace 1 prints the per-layer metrics and also writes a
Chrome trace_event span file and a per-layer self-time table next to the
build.  See perfbench/NOTES.md for what each workload measures and why.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import benchlib  # noqa: E402

WORKLOADS = ("flagship_regime", "update_stream")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once and (re)builds the measuring program; returns it."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise benchlib.BenchError(f"no vcsearch sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(bdir), "--target", "vcbench", "-j", jobs],
                   check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    exe = bdir / "vcbench"
    if not exe.is_file():
        raise benchlib.BenchError(f"build produced no {exe}")
    return exe


def read_cpu_ticks():
    """cpu_ticks() now, or None where /proc/stat is unreadable."""
    try:
        return benchlib.cpu_ticks(Path("/proc/stat").read_text())
    except (OSError, benchlib.BenchError):
        return None


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    tag = f"{args.workload}-seed{args.seed}"
    work = bdir / "work" / f"{tag}-{os.getpid()}"
    raw_path = bdir / "work" / f"{tag}-{os.getpid()}.json"
    try:
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(work), "--out", str(raw_path)]
        ticks0 = read_cpu_ticks()
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        ticks1 = read_cpu_ticks()
        if proc.returncode != 0:
            raise benchlib.BenchError(f"vcbench exited with {proc.returncode}")
        raw = json.loads(raw_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        raw_path.unlink(missing_ok=True)

    for err in raw["errors"]:
        log(f"check failed: {err}")
    log(f"nproc {raw['nproc']}, pool {raw['pool_workers']} workers, "
        f"1 client, build {raw['build_type']}, "
        f"{raw['timed']['requests']} timed requests")
    if ticks0 and ticks1:
        # Time the hypervisor ran other guests moves every timing metric.
        log(f"host steal {100.0 * benchlib.steal_share(ticks0, ticks1):.1f}% during the run")
    slow = benchlib.timed_slowdown(raw)
    log(f"speed probe: host ran {slow:.3f}x the reference modexp time in the timed phase")

    if args.trace:
        metrics = benchlib.per_layer(raw)
        query = benchlib.median(raw["traced"]["rt_ms"])
        bad = benchlib.layer_order_violations(metrics["proof.prove_p50_ms"][0],
                                              metrics["protocol.handle_p50_ms"][0], query)
        for msg in bad:
            log(f"layer order violated: {msg}")
        if not bad:
            log(f"layer order holds: proof.prove_p50_ms <= protocol.handle_p50_ms <= "
                f"traced query_p50_ms ({query:.3f} ms)")
        out = bdir / "traces"
        out.mkdir(parents=True, exist_ok=True)
        spans = raw["spans"]
        table, layers = benchlib.self_time_table(spans, raw["traced"]["requests"])
        text = benchlib.render_table(table, layers, raw["traced"]["requests"])
        (out / f"{tag}.trace.json").write_text(json.dumps(benchlib.chrome_trace(spans)))
        (out / f"{tag}.layers.txt").write_text(text)
        sys.stderr.write(text)
        log(f"spans: {out / (tag + '.trace.json')}")
    else:
        metrics = benchlib.end_to_end(raw)

    declared = declared_metrics(args.trace)
    if set(declared) != set(metrics):
        raise benchlib.BenchError(
            f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    for name, (_value, unit) in metrics.items():
        if declared[name] != unit:
            raise benchlib.BenchError(f"{name}: unit {unit} but BENCHMARK.json says "
                                      f"{declared[name]}")
    print(json.dumps(benchlib.result_line(raw, metrics)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (benchlib.BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
