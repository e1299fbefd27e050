"""Steadiness check: repeat ``run.py`` over seeds and report each metric's spread.

    python3 perfbench/steady.py [--workloads compute,cli]
                                [--baseline perfbench/_work/steady-a.json] [--save perfbench/_work/steady-b.json]

Each workload runs ten times, with seeds 1 to 10, for ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric this prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound, flags a spread above a
third of the bound, and prints the calibration loop's quartiles as a
machine-speed diagnostic.  With ``--baseline`` it also compares each
median with that of an earlier set of runs and flags a median worse by
more than the bound.  The exit status is 1 when anything is flagged.
``--save`` writes the values, the summary, the machine, git SHA, ``src/``
line count and each seed's output digest as one JSON document.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(metric: dict, base: float, new: float) -> float:
    """How much worse new is than base, as a share of base (negative: better)."""
    if not base:
        return 0.0
    return (new - base) / base if metric["better"] == "lower" else (base - new) / base


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--baseline", help="JSON written by an earlier --save")
    ap.add_argument("--save", help="write the runs and their summary here")
    args = ap.parse_args(argv)

    metrics = bench["end_to_end"]
    doc = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        calib = []
        digests = {}
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            with open(os.path.join(HERE, "_work", workload, "record.json"), encoding="utf-8") as fh:
                record = json.load(fh)
            calib += [record["calibration_s"]["before"], record["calibration_s"]["after"]]
            digests[str(seed)] = record["output_sha256"]
            doc.update(machine=record["machine"], git_sha=record["git_sha"], src_lines=record["src_lines"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary = {}
        for m in metrics:
            med, q1, q3, rel = spread(values[m["name"]])
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "unit": m["unit"]}
        doc["workloads"][workload] = {"summary": summary, "values": values, "calibration_s": calib,
                                      "output_sha256": digests}

    baseline = None
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    ok = True
    print(f"\n{'workload':9s} {'metric':12s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s}"
          + ("  vs baseline" if baseline else ""))
    for workload, data in doc["workloads"].items():
        for m in metrics:
            entry = data["summary"][m["name"]]
            med, q1, q3, rel = entry["median"], entry["q1"], entry["q3"], entry["spread"]
            flag = ""
            if rel > m["bound"] / 3:
                flag, ok = " SPREAD", False
            line = f"{workload:9s} {m['name']:12s} {med:11.5g} {q1:11.5g} {q3:11.5g} {rel:7.2%} {m['bound']:6.2f}"
            if baseline and workload in baseline["workloads"]:
                base_med = baseline["workloads"][workload]["summary"][m["name"]]["median"]
                delta = worse_by(m, base_med, med)
                line += f"  {delta:+7.2%} worse"
                if delta > m["bound"]:
                    flag, ok = flag + " DRIFT", False
            print(line + flag)
        med, q1, q3, rel = spread(data["calibration_s"])
        print(f"{workload:9s} {'calibration':12s} {med:11.5g} {q1:11.5g} {q3:11.5g} {rel:7.2%}   (diagnostic)")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
