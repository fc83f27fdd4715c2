#!/usr/bin/env python3
"""FASTOD end-to-end benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds the `fastod` binary and the
`perfbench` harness (perfbench/Cargo.toml) into $CARGO_TARGET_DIR
(default .bench_build), generates the workload's inputs from the seed,
measures, checks every cover it produces, prints a human-readable report
and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run (see perfbench/README.md). The exit code is 0
only when every check passed.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
PINS = json.loads((HERE / "pins.json").read_text())
DEFAULT_SEED = PINS["seed"]

ONE_SHOT = ("ingest_tall", "flight_lattice", "ncvoter_validate")
WORKLOADS = ONE_SHOT + ("serve_mix",)
# A serve_mix writer loop (100 rounds) with its set-ups and host-speed
# readings takes 10-15 s on a 2-vCPU host. A timed run replays the rounds
# in --seconds / SERVE_LOOP_S loops, each on a fresh session, and reports
# the median loop; the traced run does one.
SERVE_LOOP_S = 10
MIN_REPS, MAX_REPS = 3, 60
# `fastod` ends its stderr with "<n> ODs (...) in <Duration:?>".
DISCOVERY_TIME = re.compile(r"ODs \(.*\) in ([0-9.]+)(ns|µs|us|ms|s)\s*$")
DURATION_UNITS = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}
# Input sets kept per workload in the work directory.
KEEP_INPUTS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A build or set-up problem: the run cannot produce a result."""


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "fastod"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))
    release = target_dir() / "release"
    return release / "fastod", release / "perfbench"


def spawn(cmd, stdout_path, stderr_path=os.devnull):
    """Runs `cmd` to completion with stdout and stderr to files; returns
    (exit status, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def harness(perfbench, *args):
    proc = subprocess.run([str(perfbench), *map(str, args)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise Failure(f"perfbench {args[0]} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def inputs(perfbench, work, workload, seed):
    """Generates (once per seed) and returns the workload's input
    directory; old seeds beyond KEEP_INPUTS are pruned."""
    base = work / "inputs"
    d = base / f"{workload}-{seed}"
    if not (d / "done").exists():
        tmp = base / f".tmp-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        harness_gen = subprocess.run([str(perfbench), "gen", workload, str(seed), str(tmp)])
        if harness_gen.returncode != 0:
            raise Failure("input generation failed")
        (tmp / "done").write_text("")
        shutil.rmtree(d, ignore_errors=True)
        tmp.rename(d)
    (d / "done").touch()
    sets = sorted(base.glob(f"{workload}-*"), key=lambda p: (p / "done").stat().st_mtime if (p / "done").exists() else 0)
    for old in sets[:-KEEP_INPUTS]:
        shutil.rmtree(old, ignore_errors=True)
    return d


def source_digest():
    """A digest of the program's sources, standing in for the commit when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "src", "vendor"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except OSError:
        return "none"


class Run:
    """Outcome bookkeeping: counted operations, failures and messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok, message=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def error(self, message):
        self.failed += 1
        self.errors.append(message)


def check_pins(run, workload, seed, d):
    """Inputs of the default seed must match their pinned size and digest."""
    files = {}
    for p in sorted(d.glob("*.csv")):
        files[p.name] = {"bytes": p.stat().st_size, "sha256": sha256(p)}
    if seed == DEFAULT_SEED and files != PINS["inputs"][workload]:
        run.error(f"{workload} inputs differ from their pins: {json.dumps(files)}")
    return files


def scale(times, host):
    """Times at reference host speed: each divided by the mean of the host
    factors read just before and just after it."""
    return [t * 2 / (a + b) for t, a, b in zip(times, host, host[1:])]


def discovery_s(stderr_path):
    """The discovery time `fastod` printed on its last stderr line."""
    lines = Path(stderr_path).read_text(encoding="utf-8").strip().splitlines()
    m = DISCOVERY_TIME.search(lines[-1]) if lines else None
    if not m:
        raise Failure(f"fastod printed no discovery time in {stderr_path}")
    return float(m.group(1)) * DURATION_UNITS[m.group(2)]


def trace_file(work, workload, seed):
    path = work / "traces" / f"{workload}-{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def one_shot(run, fastod, perfbench, work, workload, d, seconds, seed, trace):
    csv = d / "input.csv"
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    cover, log_path = out / f"{workload}.cover", out / f"{workload}.stderr"
    walls, setups, rsss, first_digest = [], [], [], None
    # Host-speed readings bracket every invocation (see src/calib.rs).
    host = [harness(perfbench, "calib")["host_factor"]]
    start = time.perf_counter()
    # Bounded by attempts, not successes: a failing invocation ends the run.
    for _ in range(1 if trace else MAX_REPS):
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds:
            break
        code, wall, rss = spawn([str(fastod), str(csv), "--threads", "1"], cover, log_path)
        host.append(harness(perfbench, "calib")["host_factor"])
        if code != 0:
            run.op(False, f"fastod exited {code}")
            break
        digest = sha256(cover)
        first_digest = first_digest or digest
        if digest != first_digest:
            run.op(False, "cover differs from the first invocation's")
            break
        run.op(True)
        # Set-up is the part of the invocation outside discovery: process
        # start, CSV load and encode, writing the cover, exit.
        walls.append(wall)
        setups.append(wall - discovery_s(log_path))
        rsss.append(rss)
    if not walls:
        raise Failure("; ".join(run.errors))
    checked = harness(perfbench, "check", csv, cover)
    run.attempted += checked["ods"]
    if checked["violated"]:
        run.error(f"{checked['violated']} reported ODs do not hold on the input")
    pin = PINS["covers"][workload]
    if seed == DEFAULT_SEED and (checked["ods"], first_digest) != (pin["ods"], pin["sha256"]):
        run.error(f"cover differs from its pin: {checked['ods']} ODs, sha256 {first_digest}")
    result = {
        "wall_s": statistics.median(scale(walls, host)),
        "setup_s": statistics.median(scale(setups, host)),
        "raw_wall_s": statistics.median(walls),
        "host_factor": statistics.median(host),
        "peak_rss_mb": statistics.median(rsss),
        "reps": len(walls),
        "ods": checked["ods"],
    }
    if trace:
        traced_cover = out / f"{workload}.traced.cover"
        trace_path = trace_file(work, workload, seed)
        layers = harness(perfbench, "trace", csv, traced_cover, trace_path, f"{workload}-{seed}-{os.getpid()}")
        if sha256(traced_cover) != first_digest:
            run.error("traced run's cover differs from the binary's")
        layers["trace.overhead_s"] = layers["traced_wall_s"] - result["raw_wall_s"]
        layers["trace_path"] = shown(trace_path)
        result["layers"] = layers
    return result


def serve_mix(run, perfbench, work, d, seconds, seed, trace):
    def once(trace_path, loops):
        stdout = work / "out" / "serve_mix.json"
        stdout.parent.mkdir(parents=True, exist_ok=True)
        cmd = [str(perfbench), "serve", d / "base.csv", d / "pool.csv", seed, loops,
               trace_path or "-", f"serve_mix-{seed}-{os.getpid()}"]
        code, _, _ = spawn(list(map(str, cmd)), stdout)
        if code != 0:
            raise Failure(f"perfbench serve exited {code}")
        rep = json.loads(stdout.read_text().strip().splitlines()[-1])
        run.attempted += rep["attempted"]
        run.failed += rep["failed"]
        run.errors += rep["errors"]
        if seed == DEFAULT_SEED and rep["cover_ods"] != PINS["covers"]["serve_mix"]["ods"]:
            run.error(f"final cover has {rep['cover_ods']} ODs, pinned {PINS['covers']['serve_mix']['ods']}")
        return rep

    result = once(None, max(1, int(seconds // SERVE_LOOP_S)))
    if trace:
        trace_path = trace_file(work, "serve_mix", seed)
        layers = once(trace_path, 1)
        layers["trace.overhead_s"] = layers["raw_wall_s"] - result["raw_wall_s"]
        layers["trace_path"] = shown(trace_path)
        result["layers"] = layers
    return result


# Per-layer metrics only a serving session produces. They read 0 on the
# one-shot workloads, as the relation and one-shot discovery metrics read 0
# on serve_mix: those layers do no work there.
SERVE_ONLY = ("incremental.", "serve.", "theory.query_us")
SERVE_LATENCIES = ["append_p50_ms", "append_p90_ms", "delete_p50_ms", "delete_p90_ms",
                   "update_p50_ms", "update_p90_ms", "read_p50_us", "read_p99_us"]


def per_layer(workload, layers):
    """Every per-layer metric of BENCHMARK.json for this workload."""
    found = dict(layers)
    found.update({f"serve.{k}": layers[k] for k in SERVE_LATENCIES if k in layers})
    out = {}
    for m in BENCH["per_layer"]:
        name = m["name"]
        if name not in found and name.startswith(SERVE_ONLY) == (workload == "serve_mix"):
            raise Failure(f"the traced run did not report {name}")
        out[name] = {"value": found.get(name, 0), "unit": m["unit"]}
    return out


def shown(path):
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else str(path)


def print_report(workload, seed, context, result, run, trace):
    print(f"workload {workload}  seed {seed}  nproc {context['nproc']}  "
          f"load {context['load_start']} -> {context['load_end']}  "
          f"commit {context['commit']}  sources {context['sources']}")
    error_rate = run.failed / max(run.attempted, 1)
    rows = [("wall_s", result["wall_s"], "s at reference host speed"),
            ("setup_s", result["setup_s"], "s at reference host speed"),
            ("raw_wall_s", result["raw_wall_s"], "s as measured"),
            ("host_factor", result["host_factor"], "x reference host time"),
            ("peak_rss_mb", result["peak_rss_mb"], "MB"), ("error_rate", error_rate, "ratio")]
    if workload == "serve_mix":
        for name in SERVE_LATENCIES:
            op = name.split("_")[0]
            rows.append((name, result.get(name, float("nan")), name.rsplit("_", 1)[1] + f" (n={result[op + '_n']})"))
    else:
        rows.append(("invocations", result["reps"], "count"))
        rows.append(("cover_ods", result["ods"], "count"))
    for name, value, unit in rows:
        print(f"  {name:<16} {value:>14.6g}  {unit}")
    if trace:
        layers = result["layers"]
        print(f"  layer self times (traced wall {layers['traced_wall_s']:.4f} s, untraced wall {result['raw_wall_s']:.4f} s as measured)")
        for key in sorted(k for k in layers if k.startswith("self.")):
            print(f"    {key[5:]:<20} {layers[key]:>10.4f} s")
        print(f"    trace.coverage       {layers['trace.coverage']:>10.4f}")
        print(f"    trace.overhead_s     {layers['trace.overhead_s']:>10.4f} s")
        print(f"    spans written to {layers['trace_path']}")
    for e in run.errors:
        print(f"  ERROR: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if BENCH is None:
        raise Failure("BENCHMARK.json not found; run from the repository root")

    load_start = os.getloadavg()[0]
    fastod, perfbench = build()
    work = target_dir() / "perfbench"
    d = inputs(perfbench, work, args.workload, args.seed)
    run = Run()
    files = check_pins(run, args.workload, args.seed, d)
    if args.workload == "serve_mix":
        result = serve_mix(run, perfbench, work, d, args.seconds, args.seed, args.trace)
    else:
        result = one_shot(run, fastod, perfbench, work, args.workload, d, args.seconds, args.seed, args.trace)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "load_start": load_start, "load_end": os.getloadavg()[0],
        "commit": commit(), "sources": source_digest(), "inputs": files,
        "raw_wall_s": result["raw_wall_s"], "host_factor": result["host_factor"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    print_report(args.workload, args.seed, context, result, run, args.trace)
    if args.trace:
        metrics = per_layer(args.workload, result["layers"])
    else:
        metrics = {m["name"]: {"value": result[m["name"]], "unit": m["unit"]} for m in BENCH["end_to_end"]}
    line = {"correct": run.failed == 0, "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}
    with open(work / "runs.jsonl", "a") as f:
        f.write(json.dumps({"context": context, "result": line}) + "\n")
    print(json.dumps(line), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as e:
        log(f"perfbench: {e}")
        sys.exit(2)
