"""Byte identity of ``quatspin run`` tables between two sides, over a fixed seeded corpus.

A side is a ``src`` tree, with optional ``VAR=VALUE`` settings of its environment: for example
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``, under which numpy runs its AVX2 kernels on an AVX-512
host.  Each side runs the whole corpus once, in a fresh process, through ``quatspin.cli.main``; each document is run
in both formats.  The corpus holds a document of every kind, each shipped scenario, and lorentz-check at several seeds
with ``max_generators = 5`` and ``rapidity_max`` up to 50.  The tool prints each side's numpy version and SIMD level,
then one sha256 per document and format, side b's only where it differs from side a's, and names the first table
that differs.  It exits 1 if any does.  It uses the standard library (numpy only in the children) and is not part of
the test suite.

Usage: python tools/bitdiff.py SRC [VAR=VALUE ...] -- SRC [VAR=VALUE ...]
  e.g. python tools/bitdiff.py ../parent/src -- src NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from scale import ROOT, SIMD_LEVEL

FORMATS = ("csv", "json")


def _lorentz(seed: int, rapidity_max: float) -> str:
    # 1100 cases cross a block of lorentz-check's draws
    return f"kind = lorentz-check\nn_cases = 1100\nmax_generators = 5\nrapidity_max = {rapidity_max!r}\nseed = {seed}\n"


def corpus() -> dict:
    """Document name -> scenario text, in a fixed order: every kind, the shipped scenarios, then lorentz-check."""
    docs = {
        "pms": "kind = pms\nxi1 = 0.3\nxi2 = 0.01\ntheta = 0.15\nn_blocks = 1100\n",
        "helical": "kind = helical\ngamma = 0.04\nomega = 0.02\ndelta = 0.005\nt_max = 120.0\ndt = 0.1\nsign = -1\n",
        "resonance-curve": "kind = resonance-curve\ngamma = 0.04\ndelta_min = -0.4\ndelta_max = 0.4\n"
                           "n_points = 2000\nt_pass = 78.53981633974483\n",
        "em-check": "kind = em-check\ncase = point-charge\nh0 = 0.05\nn_levels = 4\n",
        "lorentz-check": _lorentz(0, 2.0),
    }
    shipped = os.path.join(ROOT, "scenarios")
    for name in sorted(os.listdir(shipped)):
        if name.endswith(".scn"):
            with open(os.path.join(shipped, name), encoding="utf-8") as fh:
                docs[name] = fh.read()
    for seed, rapidity_max in ((1, 7.5), (2, 25.0), (3, 50.0), (2024, 50.0)):
        docs[f"lorentz-seed-{seed}-rapidity-{rapidity_max:g}"] = _lorentz(seed, rapidity_max)
    return docs


# a side's process: its SIMD level on the first line, then one JSON line [name, format, sha256 or exit code] per table
CHILD = SIMD_LEVEL + """\
import contextlib, hashlib, io, json, os, sys, tempfile
from quatspin.cli import main
docs, formats = json.load(sys.stdin)
with tempfile.TemporaryDirectory() as work:
    for i, (name, text) in enumerate(docs.items()):
        scn = os.path.join(work, f"{i}.scn")
        with open(scn, "w", encoding="utf-8") as fh:
            fh.write(text)
        for fmt in formats:
            out = os.path.join(work, f"{i}-{fmt}")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", scn, "--format", fmt, "--out", out])
            if code == 0:
                [table] = os.listdir(out)
                with open(os.path.join(out, table), "rb") as fh:
                    code = hashlib.sha256(fh.read()).hexdigest()
            print(json.dumps([name, fmt, code]), flush=True)
"""


def run_side(side: list, docs: dict) -> tuple[str, dict]:
    """(SIMD level, {(document, format): sha256 or exit code}) of one side, run in a fresh process."""
    src, *settings = side
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for setting in settings:
        var, eq, value = setting.partition("=")
        if not eq:
            raise SystemExit(f"expected VAR=VALUE, got {setting!r}")
        env[var] = value
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps([docs, FORMATS]), env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"side {' '.join(side)}: exit {proc.returncode}: {proc.stderr.strip()}")
    level, *lines = proc.stdout.splitlines()
    return level, {(name, fmt): code for name, fmt, code in map(json.loads, lines)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv.count("--") != 1 or argv[0] == "--" or argv[-1] == "--":
        raise SystemExit(__doc__.rpartition("Usage: ")[2])
    a, b = argv[: argv.index("--")], argv[argv.index("--") + 1:]
    docs = corpus()
    results = []
    for label, side in (("a", a), ("b", b)):
        level, tables = run_side(side, docs)
        print(f"{label}: {' '.join(side)}: {level}", flush=True)
        results.append(tables)
    first, differ = None, 0
    print(f"{'document':<36}{'format':<8}sha256 (side b's only where it differs)")
    for key, code in results[0].items():
        other = results[1][key]
        print(f"{key[0]:<36}{key[1]:<8}{code}")
        if other != code:
            print(f"{'':<36}{'b':<8}{other}")
            first, differ = first or key, differ + 1
    if first:
        print(f"{differ} of {len(results[0])} tables differ; the first is {first[0]} {first[1]}")
        return 1
    print(f"all {len(results[0])} tables are identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
