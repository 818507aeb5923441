"""nctheta benchmark: one workload, one seed, one measured run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh worker process
(perfbench/worker.py) that imports nctheta from ./src, loads the
workload's config and makes one pipeline call, the way a CLI user pays
for it.  Samples run one at a time until --seconds is spent (at least
MIN_SAMPLES); each is gated for correctness (gate.py) and its reports
must be byte-identical to the other samples of the run.

--trace 0 reports the end-to-end metrics (medians over the samples).
--trace 1 alternates untraced and traced samples and reports the
per-layer metrics of tracer.PER_LAYER; the last traced sample's spans go
to perfbench/.out/trace-<workload>-seed<N>.json.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  `attempted` counts the worker processes
started after the warm-up (pipeline and set-up samples); `failed` counts
those that crashed or whose reports failed the gate.  Lines before it
give each metric with its quartiles and sample count, the report
digests and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import gate
from tracer import PER_LAYER, self_time_table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, ".out")

MIN_SAMPLES = 3
# Set-up-only workers started after each pipeline sample; with the set-up
# time every pipeline worker also reports, a run gets twice as many set-up
# samples as pipeline samples.
SETUP_PER_SAMPLE = 1
# A whole run must end within 180 s; a worker gets what is left of this.
RUN_LIMIT_S = 170.0

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("report_bytes", "B")]


class SampleError(Exception):
    pass


def machine(numpy_version):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def load_workloads():
    with open(os.path.join(HERE, "workloads", "workloads.json")) as fh:
        return json.load(fh)


class Run:
    """Samples of one workload and seed, gated as they arrive."""

    def __init__(self, workload, seed, deadline):
        self.spec = load_workloads()[workload]
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failures = []
        self.digests = None
        self.samples = []
        self.setups = []
        self.traced = []

    def _worker(self, *extra):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise SampleError("run time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, "--workload", self.workload,
                 "--seed", str(self.seed), *extra],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise SampleError("worker timed out")
        if proc.returncode != 0:
            raise SampleError(f"worker exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_sample(self):
        self.attempted += 1
        try:
            self.setups.append(self._worker("--setup-only")["setup_s"])
        except SampleError as exc:
            self.failures.append(f"set-up sample {self.attempted}: {exc}")

    def sample(self, traced):
        """One gated pipeline sample; returns its worker record, or None
        when the worker itself failed."""
        self.attempted += 1
        out = os.path.join(OUT, f"{self.workload}-seed{self.seed}-{self.attempted}")
        shutil.rmtree(out, ignore_errors=True)
        extra = ["--out", out]
        if traced:
            extra += ["--trace-artifact", os.path.join(
                OUT, f"trace-{self.workload}-seed{self.seed}.json")]
        try:
            record = self._worker(*extra)
            reasons = self._gate(out, record)
        except SampleError as exc:
            self.failures.append(f"sample {self.attempted}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        # A sample that fails the gate is still measured; it counts as failed.
        if reasons:
            self.failures.append(f"sample {self.attempted}: " + "; ".join(reasons))
        self.setups.append(record["setup_s"])
        (self.traced if traced else self.samples).append(record)
        return record

    def _gate(self, out, record):
        spec = self.spec
        if spec["kind"] == "cli":
            reasons = gate.check_cli(out, record["exit_code"], spec["command"],
                                     spec["convention"], record["tolerances"],
                                     record["truncation_R"], record["d"])
        else:
            reasons = gate.check_algebra(out, record["exit_code"],
                                         record["tolerances"],
                                         spec["fe_translations"])
        digests = gate.report_digests(out)
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            reasons.append("reports differ from the first sample of this run")
        record["report_bytes"] = sum(size for size, _ in digests.values())
        return reasons


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(run, seconds, trace):
    """Sample until `seconds` are spent, at least MIN_SAMPLES times (pairs
    of untraced and traced samples when tracing).  The last sample starts
    before the time is up and is measured to its end."""
    start = time.monotonic()
    count = 0
    while True:
        count += 1
        if trace:
            run.sample(traced=False)
            run.sample(traced=True)
        else:
            run.sample(traced=False)
            for _ in range(SETUP_PER_SAMPLE):
                run.setup_sample()
        if not (run.samples or run.traced):
            return
        enough = count >= (1 if trace else MIN_SAMPLES)
        if enough and time.monotonic() - start >= seconds:
            return


def end_to_end(run):
    columns = {"wall_s": [r["wall_s"] for r in run.samples],
               "setup_s": run.setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in run.samples],
               "report_bytes": [r["report_bytes"] for r in run.samples]}
    return [(name, unit, columns[name]) for name, unit in END_TO_END]


def per_layer(run):
    rows = []
    untraced_wall = statistics.median(r["wall_s"] for r in run.samples)
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            values = [r["wall_s"] - untraced_wall for r in run.traced]
        else:
            values = [r["layers"][name] for r in run.traced]
        rows.append((name, unit, values))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=load_workloads())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nctheta", "__init__.py")):
        sys.stderr.write(f"no nctheta sources under {ROOT}/src\n")
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    run = Run(args.workload, args.seed, deadline)
    os.makedirs(OUT, exist_ok=True)
    # Warm-up: writes the byte-code caches, which a CLI user pays once.
    run.setup_sample()
    if run.failures:
        sys.stderr.write(f"warm-up failed: {run.failures[0]}\n")
        return 2
    run.setups.clear()
    run.attempted = 0
    measure(run, args.seconds, args.trace)
    for failure in run.failures:
        sys.stderr.write(f"FAILED {failure}\n")
    if not run.samples or (args.trace and not run.traced):
        sys.stderr.write("no sample was measured; no metrics to report\n")
        return 2

    info = machine((run.samples or run.traced)[0]["numpy"])
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']!r} "
          f"python={info['python']} numpy={info['numpy']}")
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} why: {run.spec['why']}")
    rows = per_layer(run) if args.trace else end_to_end(run)
    print(f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}  unit")
    metrics = {}
    for name, unit, values in rows:
        q1, median, q3 = quartiles(values)
        print(f"{name:<36} {median:14.6g} {q1:14.6g} {q3:14.6g} {len(values):3d}  {unit}")
        metrics[name] = {"value": median, "unit": unit}
    for name, (size, digest) in sorted((run.digests or {}).items()):
        print(f"report: {name} bytes={size} sha256={digest}")
    if args.trace:
        layers = {name: m["value"] for name, m in metrics.items()}
        print("self time by layer (median of traced samples):")
        for line in self_time_table(layers):
            print("  " + line)
        print("trace artifact: " + os.path.relpath(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"), ROOT))
    failed = len(run.failures)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
