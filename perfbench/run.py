#!/usr/bin/env python3
"""Repository benchmark for pcie-sim.

Builds the harness in perfbench/ against ../src, then measures one
workload for a fixed number of host seconds and prints, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 perfbench/run.py --workload dd_storage --seed 1 \
        --seconds 5 --trace 0

Every operation is one harness process that sets up and runs the
workload once, so a fatal() or a crash costs one failed operation,
and the peak RSS is that of a process which ran only this workload.
With --trace 0 the metrics are the end-to-end ones (medians over the
operations); with --trace 1 they are the per-layer ones: the layer
micro drivers, the counts of the run, and a profiled run whose event
time is rolled up by source layer. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    """Workload names and metric units from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([w["name"] for w in spec["workloads"]],
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


WORKLOADS, END_TO_END, PER_LAYER = load_spec()

LAYERS = ("sim", "mem", "pci", "pcie", "dev", "os")

# Table II of the paper: MMIO read time (ns) at RC latency 50..150.
PAPER_MMIO_NS = {50: 318, 75: 358, 100: 398, 125: 438, 150: 517}

# Wall-clock cap on one operation (a normal one takes about a
# second); a hung run is killed and counted as failed.
OP_TIMEOUT_S = 60

# Simulated outputs every operation must reproduce (correctness gate).
with open(os.path.join(HERE, "pinned.json")) as _f:
    PINNED = json.load(_f)

JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configure (once) and build the harness; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources not found under", ROOT)
        return None
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", JOBS,
                  "--target", "pcie_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return None
    return os.path.join(bdir, "pcie_perfbench")


def run_json(cmd):
    """Run one harness process; its last stdout line, or None."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(cmd))
        return None
    if proc.returncode != 0:
        log("perfbench: exit", proc.returncode, ":", " ".join(cmd))
        log(proc.stderr.strip()[-2000:])
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no result from", " ".join(cmd))
        return None


def matches(outputs, pinned):
    """Whether @p outputs agree with one pinned case exactly (floats
    to 1e-12 relative)."""
    for key, want in pinned.items():
        got = outputs.get(key)
        if got is None:
            return False
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            return False
    return True


def check(workload, outputs, pins):
    cases = pins.get(workload, [])
    ok = any(matches(outputs, case) for case in cases)
    if not ok:
        log("perfbench: %s outputs %s match no pinned case"
            % (workload, json.dumps(outputs, sort_keys=True)))
    return ok


class Runner:
    """Runs operations of one workload and keeps their results."""

    def __init__(self, binary, args, pins):
        self.binary = binary
        self.args = args
        self.pins = pins
        self.attempted = 0
        self.failed = 0

    def rep(self, profile=False):
        cmd = [self.binary, "rep", "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--root", ROOT]
        if profile:
            cmd.append("--profile")
        if self.args.tiny:
            cmd.append("--tiny")
        self.attempted += 1
        res = run_json(cmd)
        if res is None or not check(self.args.workload,
                                    res["outputs"], self.pins):
            self.failed += 1
            return None
        return res

    def micro(self, budget):
        self.attempted += 1
        res = run_json([self.binary, "micro", "--budget", str(budget)])
        if res is None:
            self.failed += 1
        return res


def median(values):
    return statistics.median(values) if values else 0.0


def median_rep(reps):
    """The operation whose run_s is the (lower) median."""
    ordered = sorted(reps, key=lambda r: r["spans"]["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end(runner, seconds):
    reps = []
    start = time.monotonic()
    while True:
        res = runner.rep()
        if res is not None:
            reps.append(res)
        if time.monotonic() - start >= seconds:
            break
    return {
        "run_s": median([r["spans"]["run_s"] for r in reps]),
        "setup_s": median([r["spans"]["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["vmhwm_kb"] / 1024.0 for r in reps]),
    }


def per_layer(runner, seconds):
    start = time.monotonic()
    micro = runner.micro(min(0.5, seconds / 16.0)) or {}
    plain, traced = [], []
    while True:
        for profile, into in ((False, plain), (True, traced)):
            res = runner.rep(profile)
            if res is not None:
                into.append(res)
        if time.monotonic() - start >= seconds:
            break

    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update({k: v for k, v in micro.items() if k in m})
    if not plain or not traced:
        return m
    run_s = median([r["spans"]["run_s"] for r in plain])
    layers = plain[0]["layers"]
    outputs = plain[0]["outputs"]
    for key in ("sim.events", "sim.parallel.domains",
                "sim.parallel.windows", "sim.parallel.mailbox_ops",
                "sim.parallel.load_imbalance", "pcie.link.tx_tlps",
                "pcie.link.replayed_tlps", "pcie.link.naks",
                "pcie.fabric.max_wire_utilization",
                "pcie.fabric.credit_stall_ticks", "dev.dma.lat_p50_ns",
                "dev.dma.lat_p99_ns", "pci.functions"):
        m[key] = layers.get(key, 0.0)
    m["sim.events_per_s"] = median(
        [r["layers"]["sim.events"] / r["spans"]["run_s"] for r in plain])
    if m["sim.parallel.windows"] > 0:
        m["sim.parallel.us_per_window"] = (
            run_s / m["sim.parallel.windows"] * 1e6)
        m["sim.parallel.active_domain_ratio"] = (
            layers["sim.parallel.active_windows"]
            / layers["sim.parallel.domain_windows"])
    if m["pcie.link.tx_tlps"] > 0:
        m["pcie.link.replay_ratio"] = (
            m["pcie.link.replayed_tlps"] / m["pcie.link.tx_tlps"])
    errs = []
    for rc, paper in PAPER_MMIO_NS.items():
        got = outputs.get("mmio_read_ns.rc%d" % rc)
        if got is not None:
            m["os.mmio.read_ns.rc%d" % rc] = got
            errs.append(abs(got - paper) / paper * 100.0)
    if errs:
        m["os.mmio.paper_err_pct"] = sum(errs) / len(errs)
    for key in ("pci.enumerate_s", "topo.parse_s", "topo.build_s"):
        m[key] = median([r["spans"][key] for r in plain])
    endpoints = layers.get("endpoints", 0.0)
    if endpoints > 0:
        m["topo.build_us_per_endpoint"] = (
            m["topo.build_s"] / endpoints * 1e6)

    # Attribution of one traced run. The harness rolls event time up
    # by layer and estimates the profiler's own per-event work; what
    # is left of run_s outside both is the event loop and the engine,
    # which belong to sim. trace.unattributed_ms is the profiler's
    # share, so the parts add up to trace.run_ms.
    rep = median_rep(traced)
    run_ms = rep["spans"]["run_s"] * 1e3
    prof = rep["profile"]
    events_ms = sum(prof[layer] for layer in LAYERS)
    for layer in LAYERS:
        m["trace.%s.self_ms" % layer] = prof[layer]
    m["trace.sim.self_ms"] += run_ms - events_ms - prof["profiler"]
    m["trace.unattributed_ms"] = prof["profiler"]
    m["trace.run_ms"] = run_ms
    m["trace.overhead_pct"] = (
        (median([r["spans"]["run_s"] for r in traced]) / run_s - 1.0)
        * 100.0)
    m["sim.parallel.sync_fraction"] = rep["layers"].get(
        "sim.parallel.sync_fraction", 0.0)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="scaled-down simulated work (self-test)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    runner = Runner(binary, args, PINNED["tiny" if args.tiny else "full"])
    if args.trace:
        values = per_layer(runner, args.seconds)
        units = PER_LAYER
    else:
        values = end_to_end(runner, args.seconds)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
