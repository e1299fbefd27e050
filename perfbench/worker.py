"""Workload process of the quatspin benchmark.

One process runs one workload as a single closed-loop client: it issues
the next op only after the previous one has finished and been verified.
It imports quatspin from the checkout's ``src`` (the ``cli`` workload
instead starts one ``python -m quatspin.cli`` per op), runs the fixed
warm-up ops, prints ``ready`` on stdout, and then either exits
(``--setup-only``), runs as many whole rounds of ops as fit in
``--seconds``, or (``--trace``) runs the round once untraced and once
traced.
The result goes to the JSON file named by ``--result``; ``run.py`` turns
it into metrics.

Usage: python3 perfbench/worker.py --workload W --work DIR --result FILE
       (--seconds S | --setup-only | --trace)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from importlib.metadata import version

import verify
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OP_TIMEOUT_S = 60


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_quatspin():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import quatspin

    if os.path.dirname(os.path.dirname(os.path.abspath(quatspin.__file__))) != SRC:
        raise SystemExit(f"quatspin imported from {quatspin.__file__}, not from {SRC}")
    return quatspin


# ---------------------------------------------------------------------------
# workloads: execute(op) is the timed call, verify(op, result) -> (rows, bytes)


class Scenarios:
    """load_scenario + run_scenario in this process."""

    def __init__(self, work: str):
        import_quatspin()
        from quatspin import scenarios, spin

        self.scenarios, self.spin = scenarios, spin
        self.work = work
        self.out = os.path.join(work, "out")

    def execute(self, op):
        scn = self.scenarios.load_scenario(os.path.join(self.work, op["scn"]))
        return self.scenarios.run_scenario(scn, out_dir=self.out)

    def verify(self, op, result):
        with open(os.path.join(self.out, op["table"]), "rb") as fh:
            data = fh.read()
        p = op["params"]
        if op["kind"] == "helical":
            params = self.spin.HelicalParams(p["gamma"], p["delta"], p["omega"])

            def polarization(t):
                return self.spin.polarization_evolution(params, p["sign"], [0.0, 0.0, 1.0], t)

            return verify.helical_table(p, data, polarization), data
        if op["kind"] == "lorentz-check":
            return verify.lorentz_table(p, data), data
        return verify.resonance_table(p, data, "json"), data


class Library:
    """Direct library calls with caller-written scalar field callables."""

    def __init__(self, work: str):
        import_quatspin()
        import numpy as np
        from quatspin import quaternion, spin

        self.np, self.quaternion, self.spin = np, quaternion, spin

    def execute(self, op):
        p = op["params"]
        spin = self.spin
        if op["kind"] == "pms-propagate":
            cfg = spin.PmsConfig(n_blocks=p["n_blocks"], xi1=p["xi1"], xi2=p["xi2"], theta=p["theta"])
            traj = spin.pms_propagate(cfg, p["p0"])
            return traj, traj.polarization(p["p0"])
        if op["kind"] == "integrate-helical":
            bt, bz, w = -p["gamma"], p["omega"] - p["delta"], p["omega"]

            def field(t):
                return (bt * math.cos(w * t), bt * math.sin(w * t), bz)

        else:
            b = tuple(p["b"])

            def field(t):
                return b

        return spin.integrate_spin(field, self.quaternion.IDENTITY, (0.0, p["t_max"]), p["dt"]), None

    def verify(self, op, result):
        np, spin = self.np, self.spin
        traj, pol = result
        p = op["params"]
        states = traj.states
        drift = float(np.max(np.abs(np.einsum("ij,ij->i", states, states) - 1.0)))
        verify.check(drift <= verify.AC2_NORM, f"norm drift {drift:.3g}")
        if op["kind"] == "pms-propagate":
            verify.check(len(traj) == p["n_blocks"] + 1, f"{len(traj)} entries, expected {p['n_blocks'] + 1}")
            err = float(np.max(np.abs(pol - traj.polar[:, 0])))
            verify.check(err <= 1e-12, f"polarization() off the propagated arrows by {err:.3g}")
            cfg = spin.PmsConfig(n_blocks=p["n_blocks"], xi1=p["xi1"], xi2=p["xi2"], theta=p["theta"])
            u1, u2 = spin.pms_block_generators(cfg, 0)
            block = self.quaternion.quat_mul(u2, u1).as_array()
            # (u2 u1)^n in closed form: n times the block's rotation angle
            half = math.atan2(float(np.linalg.norm(block[1:])), block[0])
            axis = block[1:] / np.linalg.norm(block[1:])
            n = p["n_blocks"]
            exact = np.concatenate(([math.cos(n * half)], axis * math.sin(n * half)))
            data = states.tobytes() + traj.polar.tobytes() + pol.tobytes()
        else:
            n_steps = max(1, math.ceil(p["t_max"] / p["dt"] - 1e-12))
            verify.check(len(traj) == n_steps + 1, f"{len(traj)} entries, expected {n_steps + 1}")
            if op["kind"] == "integrate-helical":
                params = spin.HelicalParams(p["gamma"], p["delta"], p["omega"])
                exact = spin.analytic_helical(params, p["t_max"]).as_array()
            else:
                # constant field: s(t) = exp(-(t/2) eta.B) = (cos(|B| t/2), -B/|B| sin(|B| t/2))
                b = np.asarray(p["b"])
                mag = float(np.linalg.norm(b))
                angle = 0.5 * mag * p["t_max"]
                exact = np.concatenate(([math.cos(angle)], -b / mag * math.sin(angle)))
            data = states.tobytes()
        err = float(np.max(np.abs(states[-1] - exact)))
        verify.check(err <= verify.AC2_STATE, f"final state off the closed form by {err:.3g}")
        return len(traj), data


class Compute:
    """The compute workload: scenario ops and direct library calls in one process."""

    def __init__(self, work: str):
        self.scenarios = Scenarios(work)
        self.library = Library(work)

    def _client(self, op):
        return self.scenarios if "scn" in op else self.library

    def execute(self, op):
        return self._client(op).execute(op)

    def verify(self, op, result):
        return self._client(op).verify(op, result)


class Cli:
    """One ``python -m quatspin.cli`` subprocess per op."""

    def __init__(self, work: str):
        self.work = work
        self.out = os.path.join(work, "cli", "out")
        os.makedirs(self.out, exist_ok=True)
        self.env = _cli_env()
        self.exit_codes = []

    def argv(self, op) -> list[str]:
        argv = list(op["argv"])
        if len(argv) > 1:
            argv[1] = os.path.join(self.work, argv[1])
        if argv[0] == "run":
            argv += ["--out", self.out]
        return argv

    def execute(self, op):
        proc = subprocess.run([sys.executable, "-m", "quatspin.cli", *self.argv(op)], cwd=self.work, env=self.env,
                              capture_output=True, encoding="utf-8", errors="replace", timeout=OP_TIMEOUT_S)
        self.exit_codes.append(proc.returncode)
        return proc.returncode, proc.stdout, proc.stderr

    def verify(self, op, result):
        return verify.cli_result(op, *result, self.out)


class CliInProcess(Cli):
    """``cli.main(argv)`` in this process: the traced form of the cli workload."""

    def __init__(self, work: str):
        super().__init__(work)
        import_quatspin()
        from quatspin import cli

        self.cli = cli

    def execute(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(self.argv(op))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()


CLIENTS = {"compute": Compute, "cli": Cli}


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    """Latency, rows and verdict of every op run; digests must repeat across rounds."""

    def __init__(self, digests: dict):
        self.latencies = []
        self.op_ids = []
        self.rows = 0
        self.ok = 0
        self.failures = {}
        self.digests = digests

    def run(self, wl, op, tracer=None):
        if tracer is not None:
            tracer.current_op = op["id"]
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = wl.execute(op)
        except Exception as err:  # a crash of the program under test is a failed op
            result, crash = None, f"raised {type(err).__name__}: {err}"
        else:
            crash = None
        finally:
            self.latencies.append(time.perf_counter() - start)
            self.op_ids.append(op["id"])
            if tracer is not None:
                tracer.enabled = False
        try:
            verify.check(crash is None, crash or "")
            rows, data = wl.verify(op, result)
            digest = hashlib.sha256(data).hexdigest()
            verify.check(self.digests.setdefault(op["id"], digest) == digest, "output differs from the first round")
        except (verify.Failed, OSError, ValueError, TypeError, IndexError, KeyError) as err:
            label = f"probe:{op['probe']}" if op["kind"] == "probe" else f"{op['kind']}#{op['id']}"
            entry = self.failures.setdefault(label, {"op": label, "probe": op["kind"] == "probe",
                                                     "reason": str(err) or type(err).__name__, "count": 0})
            entry["count"] += 1
        else:
            self.rows += rows
            self.ok += 1


def digest_of(digests: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(digests):
        h.update(digests[key].encode())
    return h.hexdigest()


def warm_up(wl, manifest):
    tally = Tally({})
    for i, op in enumerate(manifest["warmup"]):
        tally.run(wl, dict(op, id=-1 - i))
    if tally.failures:
        raise SystemExit(f"warm-up op failed: {list(tally.failures.values())}")


def timed_loop(wl, ops, seconds: float) -> tuple[Tally, int]:
    """Whole rounds, so every op runs equally often: one, then more while the next should end within ``seconds``."""
    tally = Tally({})
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        for op in ops:
            tally.run(wl, op)
        last = time.perf_counter() - begin
        rounds += 1
    return tally, rounds


def _median_wall(argv: list[str], env: dict, n: int = 5) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=OP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def traced_rounds(workload: str, wl, manifest, work: str) -> dict:
    """One untraced and one traced pass over the round, plus the cli startup split."""
    ops = manifest["ops"]
    digests = {}
    per_layer = {}
    passes = []
    if workload == "cli":
        sub = Tally(digests)
        for op in ops:
            sub.run(wl, op)
        passes.append(sub)
        codes = wl.exit_codes[len(manifest["warmup"]):]
        for code in (0, 2, 3):
            per_layer[f"cli.exit_{code}"] = codes.count(code)
        per_layer["cli.exit_other"] = sum(1 for c in codes if c not in (0, 2, 3))
        interp = _median_wall([sys.executable, "-c", "pass"], wl.env)
        per_layer["cli.interpreter_s"] = interp
        per_layer["cli.import_s"] = _median_wall([sys.executable, "-c", "import quatspin.cli"], wl.env) - interp
        wl = CliInProcess(work)
    else:
        for key in ("exit_0", "exit_2", "exit_3", "exit_other", "interpreter_s", "import_s"):
            per_layer[f"cli.{key}"] = 0
    untraced = Tally(digests)
    for op in ops:
        untraced.run(wl, op)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Tally(digests)
        for op in ops:
            traced.run(wl, op, tracer)
    finally:
        tracer.uninstall()
    passes += [untraced, traced]
    per_layer.update(tracer.metrics())
    per_layer["trace.overhead_s"] = sum(traced.latencies) - sum(untraced.latencies)
    tracer.save(os.path.join(work, "spans.npz"))
    return {"passes": passes, "per_layer": per_layer}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(CLIENTS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(args.work, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    wl = CLIENTS[args.workload](args.work)
    warm_up(wl, manifest)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        res = traced_rounds(args.workload, wl, manifest, args.work)
        passes, extra = res["passes"], {"per_layer": res["per_layer"], "rounds": 1}
    else:
        tally, rounds = timed_loop(wl, manifest["ops"], args.seconds)
        passes, extra = [tally], {"rounds": rounds}

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
    failures = {}
    for tally in passes:
        for label, entry in tally.failures.items():
            merged = failures.setdefault(label, dict(entry, count=0))
            merged["count"] += entry["count"]
    result = {
        "latencies": [x for t in passes for x in t.latencies],
        "op_ids": [x for t in passes for x in t.op_ids],
        "rows": sum(t.rows for t in passes),
        "attempted": sum(len(t.latencies) for t in passes),
        "ok": sum(t.ok for t in passes),
        "failures": sorted(failures.values(), key=lambda e: e["op"]),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "digest": digest_of(passes[0].digests),
        "numpy": version("numpy"),
        **extra,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
