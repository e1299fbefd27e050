"""Wall time and peak memory of one ``quatspin run`` per kind, at a fraction of the schema's size bounds.

Each document runs in a fresh ``python -m quatspin.cli run`` process on the given ``src`` tree.  First the
tool prints the peak RSS of a bare ``python -c "import numpy"``, the floor under every run, and the lines of
Python in the ``src`` tree, as ``wc -l`` counts them; then, for each document, it prints the wall time, the
child's peak resident set (``ru_maxrss``, from ``os.wait4``) and the size and sha256 of the table it wrote,
so that two source trees can be compared table for table, with their code size beside.  Each
document then runs twice more over its own table, and ``rewrite_s`` is the wall time of the second of those
runs: the cost of landing a table on a name that holds one which the file system has already written out.  The
tool stops if a rewritten table differs.  It uses the standard library only and is not part of the test suite.

Usage: python tools/scale.py [--fraction 0.1] [--src DIR]
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# each kind's document at the fraction f of its size bound: n_blocks <= 499999, 10^6 helical steps
# (MAX_STEPS; dt = 1/8 keeps t_max / dt exact), n_points <= 10^6, n_levels <= 12, n_cases <= 250000
DOCUMENTS = {
    "pms": lambda f: f"kind = pms\nxi1 = 0.3\nxi2 = 0.01\ntheta = 0.15\nn_blocks = {round(f * 499_999)}\n",
    "helical": lambda f: "kind = helical\ngamma = 0.04\nomega = 0.02\ndelta = 0.0\ndt = 0.125\n"
                         f"t_max = {max(1, round(f * 1_000_000)) * 0.125!r}\n",
    "resonance-curve": lambda f: "kind = resonance-curve\ngamma = 0.04\ndelta_min = -0.4\ndelta_max = 0.4\n"
                                 f"t_pass = 78.53981633974483\nn_points = {max(2, round(f * 1_000_000))}\n",
    "em-check": lambda f: f"kind = em-check\ncase = plane-wave\nn_levels = {max(1, round(f * 12))}\n",
    "lorentz-check": lambda f: f"kind = lorentz-check\nseed = 1\nn_cases = {max(1, round(f * 250_000))}\n",
}


def run_child(args: list, src: str) -> tuple[float, float]:
    """Run ``python args`` on the src tree to its end; its wall time and peak RSS in MB.  A failure ends the tool."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # the rusage of this child alone
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"exit {proc.returncode}: {err.read().decode(errors='replace').strip()}")
    return wall, usage.ru_maxrss / 1024.0


def source_lines(src: str) -> int:
    """Lines of Python in the src tree, counted as wc -l counts them: newline characters."""
    lines = 0
    for path in glob.glob(os.path.join(src, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            lines += fh.read().count(b"\n")
    return lines


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_one(src: str, text: str, fmt: str, work: str) -> dict:
    """Run one document in a fresh process, then twice more over its table; wall times, peak RSS, table digest."""
    scn = os.path.join(work, "doc.scn")
    out = os.path.join(work, "out")
    table = os.path.join(out, f"table.{fmt}")
    with open(scn, "w", encoding="utf-8") as fh:
        fh.write(text + f"format = {fmt}\noutput = table.{fmt}\n")
    argv = ["-m", "quatspin.cli", "run", scn, "--out", out]
    wall, peak_rss_mb = run_child(argv, src)
    digest, size = sha256(table), os.path.getsize(table)
    # the same table landed on its name twice more: on ext4, an os.replace over a table makes auto_da_alloc
    # write the new one out, so only the second landing replaces a table whose disk blocks must be freed
    for _ in range(2):
        rewrite = run_child(argv, src)[0]
        if sha256(table) != digest:
            raise SystemExit(f"the rewritten table differs from the first: {text!r}")
    os.remove(table)
    return {"wall_s": wall, "rewrite_s": rewrite, "peak_rss_mb": peak_rss_mb, "bytes": size, "sha256": digest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fraction", type=float, default=0.1, help="fraction of each size bound (default 0.1)")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the src tree to run (default: this one)")
    args = ap.parse_args(argv)
    if not 0.0 < args.fraction <= 1.0:
        ap.error("--fraction must be in (0, 1]")
    src = os.path.abspath(args.src)
    print(f"floor: peak_rss_mb {run_child(['-c', 'import numpy'], src)[1]:.1f} for python -c 'import numpy'")
    print(f"src: {source_lines(src)} lines of Python in {src}")
    print(f"{'kind':<16}{'format':<8}{'wall_s':>9}{'rewrite_s':>10}{'peak_rss_mb':>13}{'bytes':>12}  sha256")
    with tempfile.TemporaryDirectory() as work:
        for kind, document in DOCUMENTS.items():
            for fmt in ("csv", "json"):
                r = run_one(src, document(args.fraction), fmt, work)
                print(f"{kind:<16}{fmt:<8}{r['wall_s']:>9.2f}{r['rewrite_s']:>10.2f}{r['peak_rss_mb']:>13.1f}"
                      f"{r['bytes']:>12}  {r['sha256']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
