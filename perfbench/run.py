"""quatspin benchmark: one seeded, closed-loop workload run, checked and measured.

    python3 perfbench/run.py --workload {compute,cli} \\
        --seed N --seconds S --trace {0,1}

Run from any directory; the checkout is the parent of this file's
directory and quatspin is imported from its ``src``.  The command

1. writes the workload's seeded inputs under ``perfbench/_work/<workload>``;
2. times a fixed pure-Python calibration loop (a machine-speed diagnostic
   printed beside the metrics, never used to rescale them);
3. with ``--trace 0``: starts the workload process ``SETUP_SAMPLES`` times
   just to set up, then once more to run whole op rounds, one op at a
   time, as many as fit in ``--seconds``, verifying every op's output;
   with ``--trace 1``: runs the op round once untraced and once with spans
   around calls into quatspin's modules (see ``spans.py``);
4. prints a human-readable report, writes ``record.json`` beside the
   inputs, and prints one JSON line last:
   ``{"correct", "attempted", "failed", "metrics"}``.

``correct`` is false when any op fails other than the named ROADMAP
item-4 probes of the ``cli`` workload, whose failures are expected until
that item lands; ``failed`` counts every failed op, probes included.
Exit status is 0 on a completed run, non-zero (without a result line)
when the checkout has no quatspin sources or a workload process breaks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 14
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def calibrate(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Worker:
    """One workload process; ``setup_s`` is spawn-to-ready wall time."""

    def __init__(self, workload: str, work: str, extra: list[str], deadline: float):
        self.deadline = deadline
        self.result = os.path.join(work, "result.json")
        argv = [sys.executable, WORKER, "--workload", workload, "--work", work, "--result", self.result, *extra]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError(f"{workload} worker did not get ready (exit {self.proc.poll()})")
        except BaseException:
            self.stop()
            raise

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def wait(self):
        try:
            self.proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("workload process ran past the deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"workload process exited {self.proc.returncode}")

    def finish(self) -> dict:
        self.wait()
        if not os.path.exists(self.result):
            raise BenchError("workload process wrote no result")
        with open(self.result, encoding="utf-8") as fh:
            return json.load(fh)


def git_sha() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return "unknown"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def end_to_end(res: dict, setup: list[float], workload: str) -> tuple[dict, dict]:
    """The end-to-end metrics and the facts printed with them, over every op run."""
    lat = sorted(res["latencies"])
    n = len(lat)
    tail_idx = max(0, n - 1 - TAIL_BEYOND)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (lat[tail_idx], "s"),
        "rows_per_s": (res["rows"] / sum(lat), "1/s"),
        "ok_ratio": (res["ok"] / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    facts = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "op_p50_s": f"n={n} ops, {res['rounds']} rounds",
        "op_tail_s": f"p{100.0 * (tail_idx + 1) / n:.1f}, {n - 1 - tail_idx} ops beyond, n={n}",
        "rows_per_s": f"{res['rows']} verified rows in {sum(lat):.3f} s of op time",
        "ok_ratio": f"{res['ok']}/{res['attempted']} verified",
        "peak_rss_mb": "largest cli child process" if workload == "cli" else "workload process",
    }
    return metrics, facts


def setup_samples(workload: str, work: str, n: int, deadline: float) -> list[float]:
    """Set-up times of ``n`` workload processes started only to set up."""
    samples = []
    for _ in range(n):
        sample = Worker(workload, work, ["--setup-only"], deadline)
        sample.wait()
        samples.append(sample.setup_s)
    return samples


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(HERE, "_work", workload)
    shutil.rmtree(work, ignore_errors=True)
    manifest = gen.generate(workload, seed, work)
    calib_before = calibrate()
    setup = []
    if trace:
        worker = Worker(workload, work, ["--trace"], deadline)
        res = worker.finish()
        metrics = {k: (v, unit_of(k)) for k, v in res["per_layer"].items()}
        metrics["machine.calibration_s"] = (calib_before, "s")
        facts = {}
    else:
        # half the set-up samples before the timed run and half after, so they meet more machine phases
        setup = setup_samples(workload, work, SETUP_SAMPLES // 2, deadline)
        worker = Worker(workload, work, ["--seconds", repr(seconds)], deadline)
        setup.append(worker.setup_s)
        res = worker.finish()
        setup += setup_samples(workload, work, SETUP_SAMPLES - SETUP_SAMPLES // 2, deadline)
        metrics, facts = end_to_end(res, setup, workload)
    calib_after = calibrate()
    unexpected = [f for f in res["failures"] if not f["probe"]]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "ops_per_round": len(manifest["ops"]),
        "rounds": res["rounds"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "facts": facts,
        "setup_samples_s": setup,
        "failures": res["failures"],
        "calibration_s": {"before": calib_before, "after": calib_after},
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": res["numpy"]},
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "output_sha256": res["digest"],
    }
    with open(os.path.join(work, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"{res['attempted']} ops ({res['rounds']} rounds of {len(manifest['ops'])})")
    for name, (value, unit) in metrics.items():
        note = facts.get(name, "")
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note}")
    for f in res["failures"]:
        kind = "known defect (ROADMAP item 4)" if f["probe"] else "FAILED"
        print(f"  {kind}: {f['op']} x{f['count']}: {f['reason']}")
    print(f"  calibration loop {calib_before:.4f} s before, {calib_after:.4f} s after (diagnostic only)")
    print(f"  nproc {os.cpu_count()}  python {record['machine']['python']}  numpy {res['numpy']}  "
          f"git {record['git_sha'][:12]}  src lines {record['src_lines']}")
    print(f"  output sha256 {res['digest']}")
    return {
        "correct": not unexpected,
        "attempted": res["attempted"],
        "failed": res["attempted"] - res["ok"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quatspin", "__init__.py")):
        print(f"error: no quatspin sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
