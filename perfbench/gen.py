"""Seeded input generator for the quatspin benchmark.

``generate(workload, seed, dest)`` writes every scenario file a workload
needs under ``dest/inputs`` and returns a manifest: the ordered op list,
each op's parameters (what the verifier checks against), and the fixed
warm-up ops.  The same (workload, seed) gives byte-identical files and
manifest.  It uses only the standard library, so it runs before quatspin
is imported.

Op sizes are stratified across each range (one draw near the middle of
each stratum, then shuffled), so the size distribution and with it the
median and tail op latency barely depend on the seed.  A timed run
repeats the op list (one round) as often as ``--seconds`` allows.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("compute", "cli")

# the ROADMAP item-4 inputs, each once in every cli round; each must exit 2 or 3
# without a traceback and write nothing outside --out
PROBES = ("helical-degenerate", "helical-step-too-large", "lorentz-rapidity-800", "non-utf8-file",
          "output-escapes-out-dir")
# table rows of the pms, resonance-curve and em-check runs of one cli round, whatever the seed
CLI_ROWS = 520


def _f(x: float) -> str:
    return repr(float(x))


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    vals = [lo + (hi - lo) * (i + 0.4 + 0.2 * rng.random()) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def _scn(dest: str, name: str, lines: list[str], raw: bytes | None = None) -> str:
    rel = os.path.join("inputs", name)
    data = raw if raw is not None else ("\n".join(lines) + "\n").encode("utf-8")
    with open(os.path.join(dest, rel), "wb") as fh:
        fh.write(data)
    return rel


def _helical_lines(p: dict, output: str, fmt: str = "csv") -> list[str]:
    return [
        "kind = helical",
        f"gamma = {_f(p['gamma'])}",
        f"delta = {_f(p['delta'])}",
        f"omega = {_f(p['omega'])}",
        f"t_max = {_f(p['t_max'])}",
        f"dt = {_f(p['dt'])}",
        f"sign = {p['sign']}",
        f"output = {output}",
        f"format = {fmt}",
    ]


def _helical_params(rng: random.Random, n_steps: float, sign: int) -> dict:
    gamma = rng.uniform(0.01, 0.08)
    delta = rng.uniform(-0.05, 0.05)
    omega = rng.uniform(0.005, 0.05)
    # dt * rate stays far inside the 0.5 rad limit, so RK4 meets 1e-6
    dt = rng.uniform(0.002, 0.02) / math.hypot(gamma, omega - delta)
    return {"gamma": gamma, "delta": delta, "omega": omega, "dt": dt, "t_max": round(n_steps) * dt, "sign": sign}


def _lorentz_lines(p: dict, output: str) -> list[str]:
    return [
        "kind = lorentz-check",
        f"n_cases = {p['n_cases']}",
        f"max_generators = {p['max_generators']}",
        f"rapidity_max = {_f(p['rapidity_max'])}",
        f"seed = {p['seed']}",
        f"output = {output}",
        "format = json",
    ]


def _resonance_params(rng: random.Random, n_points: float) -> dict:
    gamma = rng.uniform(0.01, 0.1)
    half = rng.uniform(0.1, 0.5)
    return {"gamma": gamma, "delta_min": -half, "delta_max": half, "n_points": round(n_points),
            "t_pass": rng.uniform(0.5, 1.5) * math.pi / gamma}


def _resonance_lines(p: dict, output: str, fmt: str) -> list[str]:
    return [
        "kind = resonance-curve",
        f"gamma = {_f(p['gamma'])}",
        f"delta_min = {_f(p['delta_min'])}",
        f"delta_max = {_f(p['delta_max'])}",
        f"n_points = {p['n_points']}",
        f"t_pass = {_f(p['t_pass'])}",
        f"output = {output}",
        f"format = {fmt}",
    ]


def _pms_lines(p: dict, output: str) -> list[str]:
    return [
        "kind = pms",
        f"xi1 = {_f(p['xi1'])}",
        f"xi2 = {_f(p['xi2'])}",
        f"theta = {_f(p['theta'])}",
        f"n_blocks = {p['n_blocks']}",
        f"output = {output}",
    ]


def _pms_params(rng: random.Random, n_blocks: float) -> dict:
    theta = rng.uniform(0.01, 0.3)
    return {"xi1": 2.0 * theta * rng.uniform(0.9, 1.1), "xi2": rng.uniform(0.0, 0.05), "theta": theta,
            "n_blocks": round(n_blocks)}


# ---------------------------------------------------------------------------
# workloads

# ops of each kind in one round of the compute workload
COMPUTE_MIX = {"helical": 8, "lorentz-check": 5, "resonance-curve": 3, "integrate-helical": 3,
               "integrate-constant": 2, "pms-propagate": 3}


def _helical_ops(rng: random.Random, dest: str, n: int) -> list:
    signs = [1, -1] * (n // 2) + [1] * (n % 2)
    rng.shuffle(signs)
    ops = []
    for i, (steps, sign) in enumerate(zip(_strata(rng, 300, 2500, n), signs)):
        p = _helical_params(rng, steps, sign)
        ops.append({"kind": "helical", "scn": _scn(dest, f"h{i:02d}.scn", _helical_lines(p, f"h{i:02d}.csv")),
                    "params": p, "table": f"h{i:02d}.csv"})
    return ops


def _lorentz_ops(rng: random.Random, dest: str, n: int) -> list:
    ops = []
    # pair each n_cases stratum with a fixed max_generators, so the op costs do not depend on the seed
    sizes = sorted(_strata(rng, 50, 250, n))
    for i, (n_cases, mg) in enumerate(zip(sizes, (1 + i % 5 for i in range(n)))):
        p = {"n_cases": round(n_cases), "max_generators": mg, "rapidity_max": rng.uniform(0.2, 2.0),
             "seed": rng.randrange(2**31)}
        ops.append({"kind": "lorentz-check", "scn": _scn(dest, f"l{i:02d}.scn", _lorentz_lines(p, f"l{i:02d}.json")),
                    "params": p, "table": f"l{i:02d}.json"})
    return ops


def _resonance_ops(rng: random.Random, dest: str, n: int) -> list:
    ops = []
    for i, n_points in enumerate(_strata(rng, 1000, 4000, n)):
        p = _resonance_params(rng, n_points)
        ops.append({"kind": "resonance-curve",
                    "scn": _scn(dest, f"r{i:02d}.scn", _resonance_lines(p, f"r{i:02d}.json", "json")), "params": p,
                    "table": f"r{i:02d}.json"})
    return ops


def _unit_vector(rng: random.Random) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v]


def _library_ops(rng: random.Random, n_helical: int, n_constant: int, n_pms: int) -> list:
    ops = []
    for steps in _strata(rng, 400, 2000, n_helical):
        ops.append({"kind": "integrate-helical", "params": _helical_params(rng, steps, 1)})
    for steps in _strata(rng, 400, 2000, n_constant):
        mag = rng.uniform(0.01, 0.1)
        dt = rng.uniform(0.002, 0.02) / mag
        ops.append({"kind": "integrate-constant",
                    "params": {"b": [mag * x for x in _unit_vector(rng)], "dt": dt, "t_max": round(steps) * dt}})
    for n_blocks in _strata(rng, 500, 5000, n_pms):
        p = _pms_params(rng, n_blocks)
        p["p0"] = _unit_vector(rng)
        ops.append({"kind": "pms-propagate", "params": p})
    return ops


def _gen_compute(rng: random.Random, dest: str) -> tuple[list, list]:
    """Scenario ops (helical as CSV, lorentz-check and resonance-curve as JSON)
    and direct library calls, shuffled into one round."""
    mix = COMPUTE_MIX
    ops = (_helical_ops(rng, dest, mix["helical"]) + _lorentz_ops(rng, dest, mix["lorentz-check"])
           + _resonance_ops(rng, dest, mix["resonance-curve"])
           + _library_ops(rng, mix["integrate-helical"], mix["integrate-constant"], mix["pms-propagate"]))
    rng.shuffle(ops)
    warm_h = {"gamma": 0.04, "delta": 0.0, "omega": math.pi / 157, "dt": 0.025, "t_max": 5.0, "sign": 1}
    warm_l = {"n_cases": 20, "max_generators": 3, "rapidity_max": 2.0, "seed": 1}
    warm_r = {"gamma": 0.04, "delta_min": -0.4, "delta_max": 0.4, "n_points": 200, "t_pass": math.pi / 0.04}
    warm = [
        {"kind": "helical", "scn": _scn(dest, "warm_h.scn", _helical_lines(warm_h, "warm_h.csv")),
         "params": warm_h, "table": "warm_h.csv"},
        {"kind": "lorentz-check", "scn": _scn(dest, "warm_l.scn", _lorentz_lines(warm_l, "warm_l.json")),
         "params": warm_l, "table": "warm_l.json"},
        {"kind": "resonance-curve", "scn": _scn(dest, "warm_r.scn", _resonance_lines(warm_r, "warm_r.json", "json")),
         "params": warm_r, "table": "warm_r.json"},
        {"kind": "integrate-helical", "params": _helical_params(random.Random(0), 200, 1)},
        {"kind": "pms-propagate", "params": {"xi1": 0.3, "xi2": 0.01, "theta": math.pi / 21, "n_blocks": 210,
                                             "p0": [0.0, 0.0, 1.0]}},
    ]
    return ops, warm


# Invalid documents: each injected fault yields exactly one 'error:' line
# naming its key, so the verifier can demand that every one is listed.
_REQUIRED = {"pms": ("xi1", "xi2", "theta", "n_blocks"),
             "helical": ("gamma", "delta", "omega", "t_max", "dt"),
             "resonance-curve": ("gamma", "n_points", "t_pass")}
_BAD_RANGE = {"n_blocks": "-3", "gamma": "-0.5", "t_max": "-1.0", "dt": "0.0", "n_points": "1", "t_pass": "-2.0",
              "xi1": "nan", "xi2": "inf", "theta": "nan", "delta": "inf", "omega": "nan"}


def _invalid_doc(rng: random.Random, kind: str) -> tuple[list[str], list[str]]:
    """A scenario of ``kind`` with 2-4 distinct faults, plus one expected fragment per fault."""
    valid = {
        "pms": {"xi1": "0.3", "xi2": "0.01", "theta": "0.15", "n_blocks": "21"},
        "helical": {"gamma": "0.04", "delta": "0.0", "omega": "0.02", "t_max": "10.0", "dt": "0.1"},
        "resonance-curve": {"gamma": "0.04", "delta_min": "-0.4", "delta_max": "0.4", "n_points": "50",
                            "t_pass": "78.5"},
    }[kind]
    keys = list(_REQUIRED[kind])
    rng.shuffle(keys)
    expected = []
    extra = []
    n_faults = rng.randint(2, 4)
    for fault, key in zip(rng.sample(("missing", "type", "range", "unknown"), n_faults), keys):
        if fault == "missing":
            del valid[key]
            expected.append(f"missing required key '{key}'")
        elif fault == "type":
            valid[key] = "abc"
            expected.append(f"key '{key}': expected")
        elif fault == "range":
            valid[key] = _BAD_RANGE[key]
            expected.append(f"key '{key}': value")
        else:
            name = f"bogus_{key}"
            extra.append(f"{name} = 1")
            expected.append(f"unknown key '{name}'")
    lines = [f"kind = {kind}"] + [f"{k} = {v}" for k, v in valid.items()] + extra
    return lines, expected


def _probe(dest: str, name: str, idx: int) -> dict:
    out = f"p{idx:02d}.csv"
    if name == "helical-degenerate":
        lines = ["kind = helical", "gamma = 0.0", "delta = 0.0", "omega = 0.03", "t_max = 10.0", "dt = 0.1",
                 f"output = {out}"]
    elif name == "helical-step-too-large":
        lines = ["kind = helical", "gamma = 0.5", "delta = 0.0", "omega = 2.0", "t_max = 10.0", "dt = 0.4",
                 f"output = {out}"]
    elif name == "lorentz-rapidity-800":
        lines = ["kind = lorentz-check", "n_cases = 4", "max_generators = 3", "rapidity_max = 800.0", "seed = 3",
                 f"output = {out}"]
    elif name == "output-escapes-out-dir":
        lines = ["kind = pms", "xi1 = 0.3", "xi2 = 0.01", "theta = 0.15", "n_blocks = 5", "output = ../escaped.csv"]
    else:
        raw = "kind = pms\nxi1 = 0.3\nxi2 = 0.01\ntheta = 0.15\nn_blocks = 5\n# caf\xe9 \xff\n".encode("latin-1")
        return {"kind": "probe", "probe": name, "argv": ["run", _scn(dest, f"p{idx:02d}.scn", [], raw)]}
    return {"kind": "probe", "probe": name, "argv": ["run", _scn(dest, f"p{idx:02d}.scn", lines)]}


def _gen_cli(rng: random.Random, dest: str) -> tuple[list, list]:
    """One round: the five item-4 probes, a pms, a resonance-curve and an
    em-check run whose tables add up to CLI_ROWS rows, two validate ops,
    list-kinds and four invalid files."""
    ops = [_probe(dest, name, i) for i, name in enumerate(PROBES)]
    em = {"case": rng.choice(("plane-wave", "point-charge", "constant")), "n_levels": 3, "h0": rng.uniform(0.01, 0.04)}
    pms = _pms_params(rng, rng.uniform(20, 200))
    ops.append({"kind": "pms", "params": pms, "table": "c_pms.csv",
                "argv": ["run", _scn(dest, "c_pms.scn", _pms_lines(pms, "c_pms.csv"))]})
    res = _resonance_params(rng, CLI_ROWS - (2 * pms["n_blocks"] + 2) - 5 * em["n_levels"])
    ops.append({"kind": "resonance-curve", "params": res, "table": "c_res.csv",
                "argv": ["run", _scn(dest, "c_res.scn", _resonance_lines(res, "c_res.csv", "csv"))]})
    lines = ["kind = em-check", f"case = {em['case']}", f"h0 = {_f(em['h0'])}", f"n_levels = {em['n_levels']}",
             "output = c_em.csv"]
    ops.append({"kind": "em-check", "params": em, "argv": ["run", _scn(dest, "c_em.scn", lines)],
                "table": "c_em.csv"})
    valid = (_helical_lines(_helical_params(rng, 500, 1), "v.csv"),
             _lorentz_lines({"n_cases": 10, "max_generators": 2, "rapidity_max": 1.0, "seed": 5}, "v.json"))
    for i, lines in enumerate(valid):
        ops.append({"kind": "validate", "argv": ["validate", _scn(dest, f"c_val{i}.scn", lines)]})
    ops.append({"kind": "list-kinds", "argv": ["list-kinds"]})
    invalid = (("pms", "run"), ("pms", "validate"), ("helical", "validate"), ("resonance-curve", "run"))
    for i, (kind, cmd) in enumerate(invalid):
        lines, expected = _invalid_doc(rng, kind)
        ops.append({"kind": "invalid", "argv": [cmd, _scn(dest, f"c_bad{i}.scn", lines)], "errors": expected})
    rng.shuffle(ops)
    warm_v = _pms_lines({"xi1": 0.3, "xi2": 0.01, "theta": math.pi / 21, "n_blocks": 21}, "warm.csv")
    warm = [{"kind": "validate", "argv": ["validate", _scn(dest, "warm_v.scn", warm_v)]}]
    return ops, warm


_GENERATORS = {"compute": _gen_compute, "cli": _gen_cli}


def generate(workload: str, seed: int, dest: str) -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``dest``; return and save the manifest."""
    os.makedirs(os.path.join(dest, "inputs"), exist_ok=True)
    rng = random.Random(f"quatspin-perfbench/{workload}/{seed}")
    ops, warm = _GENERATORS[workload](rng, dest)
    for i, op in enumerate(ops):
        op["id"] = i
    manifest = {"workload": workload, "seed": seed, "ops": ops, "warmup": warm}
    with open(os.path.join(dest, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest
