"""Wall time and peak memory of one ``quatspin run`` per kind, at a fraction of the schema's size bounds.

Each document runs in a fresh ``python -m quatspin.cli run`` process on the given ``src`` tree.  For each
one the tool prints the wall time, the child's peak resident set (``ru_maxrss``, from ``os.wait4``) and the
size and sha256 of the table it wrote, so that two source trees can be compared table for table.  It uses
the standard library only and is not part of the test suite.

Usage: python tools/scale.py [--fraction 0.1] [--src DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each kind's document at the fraction f of its size bound: n_blocks <= 499999, 10^6 helical steps
# (spin.MAX_STEPS; dt = 1/8 keeps t_max / dt exact), n_points <= 10^6, n_levels <= 12, n_cases <= 250000
DOCUMENTS = {
    "pms": lambda f: f"kind = pms\nxi1 = 0.3\nxi2 = 0.01\ntheta = 0.15\nn_blocks = {round(f * 499_999)}\n",
    "helical": lambda f: "kind = helical\ngamma = 0.04\nomega = 0.02\ndelta = 0.0\ndt = 0.125\n"
                         f"t_max = {max(1, round(f * 1_000_000)) * 0.125!r}\n",
    "resonance-curve": lambda f: "kind = resonance-curve\ngamma = 0.04\ndelta_min = -0.4\ndelta_max = 0.4\n"
                                 f"t_pass = 78.53981633974483\nn_points = {max(2, round(f * 1_000_000))}\n",
    "em-check": lambda f: f"kind = em-check\ncase = plane-wave\nn_levels = {max(1, round(f * 12))}\n",
    "lorentz-check": lambda f: f"kind = lorentz-check\nseed = 1\nn_cases = {max(1, round(f * 250_000))}\n",
}


def run_one(src: str, text: str, fmt: str, work: str) -> dict:
    """Run one document in a fresh process; its wall time, peak RSS and table digest."""
    scn = os.path.join(work, "doc.scn")
    out = os.path.join(work, "out")
    table = os.path.join(out, f"table.{fmt}")
    with open(scn, "w", encoding="utf-8") as fh:
        fh.write(text + f"format = {fmt}\noutput = table.{fmt}\n")
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "quatspin.cli", "run", scn, "--out", out],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"exit {proc.returncode}: {err.read().decode(errors='replace').strip()}")
    digest = hashlib.sha256()
    with open(table, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    size = os.path.getsize(table)
    os.remove(table)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "bytes": size, "sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fraction", type=float, default=0.1, help="fraction of each size bound (default 0.1)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src tree to run (default: this one)")
    args = ap.parse_args(argv)
    if not 0.0 < args.fraction <= 1.0:
        ap.error("--fraction must be in (0, 1]")
    print(f"{'kind':<16}{'format':<8}{'wall_s':>9}{'peak_rss_mb':>13}{'bytes':>12}  sha256")
    with tempfile.TemporaryDirectory() as work:
        for kind, document in DOCUMENTS.items():
            for fmt in ("csv", "json"):
                r = run_one(os.path.abspath(args.src), document(args.fraction), fmt, work)
                print(f"{kind:<16}{fmt:<8}{r['wall_s']:>9.2f}{r['peak_rss_mb']:>13.1f}{r['bytes']:>12}  {r['sha256']}",
                      flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
