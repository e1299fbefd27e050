"""Start-up cost of ``quatspin``, then wall time and peak memory of one ``quatspin run`` per kind, at a fraction of
the schema's size bounds.

Each command runs in a fresh process on the given ``src`` tree, and reads its own peak resident set (``VmHWM``) as
it exits.  The tool's header names numpy's version and which of its AVX-512 groups the children dispatch to, as
``NPY_DISABLE_CPU_FEATURES`` may turn them off, so that each timing and sha256 names the SIMD level that produced it.
Then the tool prints two floors, ``python -c "import os; os._exit(0)"`` and
``python -c "import numpy; os._exit(0)"``, then the import of numpy and of ``quatspin.scenarios``, ``spin``,
``emfield`` and ``lorentz``, ``quatspin list-kinds``, ``quatspin validate`` of the pms document and ``quatspin run`` of
a 3-block pms document: for each, the median wall time and the median peak of STARTUP_RUNS processes, the commands in
turn.  It prints the lines of Python in the ``src`` tree, as ``wc -l`` counts them.  Then, for each document, it
prints the wall time, the peak and the size and sha256 of the table it wrote, so that two source trees can be
compared table for table, with their code size beside.  Each document then runs twice more over its own table, and
``rewrite_s`` is the wall time of the second of those runs: the cost of landing a table on a name that holds one
which the file system has already written out.  The tool stops if a rewritten table differs.  It uses the standard
library only and is not part of the test suite.

Usage: python tools/scale.py [--fraction 0.1] [--src DIR]
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STARTUP_RUNS = 11  # processes per start-up line; their medians are printed

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


# a child reports its own peak resident set (VmHWM) as it calls os._exit: wait4's ru_maxrss would read at least this
# tool's own peak, which fork and exec pass on to the child, and a start-up or a small run stays below it
PEAK_AT_EXIT = """\
import os
def _exit(code, _hard_exit=os._exit):
    with open("/proc/self/status") as fh:
        os.write(2, "".join(line for line in fh if line.startswith("VmHWM:")).encode())
    _hard_exit(code)
os._exit = _exit
"""
QUATSPIN_CLI = "import runpy; runpy.run_module('quatspin.cli', run_name='__main__', alter_sys=True)"
LIBRARY = "import numpy, quatspin.scenarios, quatspin.spin, quatspin.emfield, quatspin.lorentz; os._exit(0)"
# prints numpy's version and, for each AVX-512 group, whether numpy dispatches to it: a group that
# NPY_DISABLE_CPU_FEATURES disables reads False in __cpu_features__, as one the CPU lacks does
SIMD_LEVEL = """\
import numpy
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
print(f"numpy {numpy.__version__}", *(f"{group} {'on' if __cpu_features__.get(group) else 'off'}"
                                      for group in ("AVX512_SKX", "AVX512_ICL", "AVX512_SPR")), sep=", ", flush=True)
"""


def run_child(code: str, argv: list, src: str) -> tuple[float, float]:
    """Run ``python -c code argv`` on the src tree to its end, ending in os._exit as a quatspin process does: its
    wall time in s and its own peak resident set in MB.  A failure ends the tool."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PEAK_AT_EXIT + code, *argv], env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or not proc.stderr.startswith("VmHWM:"):  # a run writes nothing else to stderr
        raise SystemExit(f"{code} {' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()}")
    return wall, int(proc.stderr.split()[1]) / 1024.0  # VmHWM is in kB


def startup(src: str, work: str, pms_text: str) -> list[tuple[str, float, float]]:
    """(label, median wall time in ms, median peak RSS in MB) of each start-up command."""
    scn, small = os.path.join(work, "startup.scn"), os.path.join(work, "small.scn")
    for path, text in ((scn, pms_text), (small, DOCUMENTS["pms"](3 / 499_999))):  # small: n_blocks = 3
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    commands = {  # no interpreter teardown is timed
        "python -c 'import os; os._exit(0)'": ["os._exit(0)"],
        "python -c 'import numpy; os._exit(0)'": ["import numpy; os._exit(0)"],
        "import numpy, then the library": [LIBRARY],
        "quatspin list-kinds": [QUATSPIN_CLI, "list-kinds"],
        "quatspin validate (pms)": [QUATSPIN_CLI, "validate", scn],
        "quatspin run (pms, 3 blocks)": [QUATSPIN_CLI, "run", small, "--out", os.path.join(work, "small")],
    }
    walls, peaks = {label: [] for label in commands}, {label: [] for label in commands}
    for _ in range(STARTUP_RUNS):  # the commands in turn, so that a drift in the host's speed reaches each alike
        for label, (code, *argv) in commands.items():
            wall, peak = run_child(code, argv, src)
            walls[label].append(wall)
            peaks[label].append(peak)
    lines = [(label, 1e3 * statistics.median(walls[label]), statistics.median(peaks[label])) for label in commands]
    os.remove(scn)
    return lines


def run_one(src: str, text: str, fmt: str, work: str) -> dict:
    """Run one document in a fresh process, then twice more over its table; wall times, peak RSS, table digest."""
    scn = os.path.join(work, "doc.scn")
    out = os.path.join(work, "out")
    table = os.path.join(out, f"table.{fmt}")
    with open(scn, "w", encoding="utf-8") as fh:
        fh.write(text + f"format = {fmt}\noutput = table.{fmt}\n")
    argv = ["run", scn, "--out", out]
    wall, peak_rss_mb = run_child(QUATSPIN_CLI, argv, src)
    digest, size = sha256(table), os.path.getsize(table)
    # the same table landed on its name twice more: on ext4, an os.replace over a table makes auto_da_alloc
    # write the new one out, so only the second landing replaces a table whose disk blocks must be freed
    for _ in range(2):
        rewrite = run_child(QUATSPIN_CLI, argv, src)[0]
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
    level = subprocess.run([sys.executable, "-c", SIMD_LEVEL], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True).stdout.strip()
    print(f"children run {level}")
    with tempfile.TemporaryDirectory() as work:
        print(f"{f'start-up, median of {STARTUP_RUNS} processes':<40}{'wall_ms':>9}{'peak_rss_mb':>13}")
        for label, wall_ms, peak_rss_mb in startup(src, work, DOCUMENTS["pms"](args.fraction)):
            print(f"{label:<40}{wall_ms:>9.1f}{peak_rss_mb:>13.2f}", flush=True)
        print(f"src: {source_lines(src)} lines of Python in {src}")
        print(f"{'kind':<16}{'format':<8}{'wall_s':>9}{'rewrite_s':>10}{'peak_rss_mb':>13}{'bytes':>12}  sha256")
        for kind, document in DOCUMENTS.items():
            for fmt in ("csv", "json"):
                r = run_one(src, document(args.fraction), fmt, work)
                print(f"{kind:<16}{fmt:<8}{r['wall_s']:>9.2f}{r['rewrite_s']:>10.2f}{r['peak_rss_mb']:>13.2f}"
                      f"{r['bytes']:>12}  {r['sha256']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
