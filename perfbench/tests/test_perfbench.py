"""Tests of the benchmark itself: seeded inputs, per-op verdicts, traced counts.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402


def _tree(root: str) -> dict:
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    gen.generate(workload, 7, str(tmp_path / "a"))
    gen.generate(workload, 7, str(tmp_path / "b"))
    gen.generate(workload, 8, str(tmp_path / "c"))
    a, b, c = (_tree(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a["manifest.json"] != c["manifest.json"]


def test_op_mix_does_not_depend_on_the_seed(tmp_path):
    kinds = [sorted(op["kind"] for op in gen.generate("compute", seed, str(tmp_path / str(seed)))["ops"])
             for seed in (1, 2)]
    assert kinds[0] == kinds[1] == sorted(k for k, n in gen.COMPUTE_MIX.items() for _ in range(n))
    # the rows each table check verifies (and the Tally counts)
    table_rows = {"pms": lambda p: 2 * p["n_blocks"] + 2, "resonance-curve": lambda p: p["n_points"],
                  "em-check": lambda p: 5 * p["n_levels"]}
    for seed in (3, 4):
        ops = gen.generate("cli", seed, str(tmp_path / f"cli{seed}"))["ops"]
        assert sorted(op["probe"] for op in ops if op["kind"] == "probe") == sorted(gen.PROBES)
        assert len(ops) == 3 * len(gen.PROBES)
        assert sum(table_rows[op["kind"]](op["params"]) for op in ops if op["kind"] in table_rows) == gen.CLI_ROWS


class _Corrupting(worker.Scenarios):
    """Runs the op, then damages its output table as a broken encoder would."""

    def __init__(self, work, damage):
        super().__init__(work)
        self.damage = damage

    def execute(self, op):
        report = super().execute(op)
        path = os.path.join(self.out, op["table"])
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(self.damage(data))
        return report


SIZE = {
    "helical": lambda p: p["t_max"] / p["dt"],
    "lorentz-check": lambda p: p["n_cases"],
    "resonance-curve": lambda p: p["n_points"],
}


def _smallest(ops, kind):
    return min((op for op in ops if op["kind"] == kind), key=lambda op: SIZE[kind](op["params"]))


def _nudge_last_point(data: bytes) -> bytes:
    """Move the last row's pz and pz_mid by 1e-3, keeping the row self-consistent."""
    lines = data.split(b"\n")
    cells = lines[-2].split(b",")
    cells[8] = cells[11] = repr(float(cells[8]) + 1e-3).encode()
    lines[-2] = b",".join(cells)
    return b"\n".join(lines)


def _rescale_p_down(data: bytes) -> bytes:
    """Scale every p_down by 0.99 and refit p_up so that p_down + p_up stays exactly 1."""
    doc = json.loads(data)
    doc["rows"] = [[delta, 0.99 * p_down, 1.0 - 0.99 * p_down] for delta, p_down, _ in doc["rows"]]
    return json.dumps(doc, separators=(",", ":")).encode() + b"\n"


@pytest.mark.parametrize(
    "kind, damage",
    [
        ("helical", _nudge_last_point),
        ("helical", lambda d: d[: len(d) // 2]),
        ("lorentz-check", lambda d: d.replace(b'"i2_rel_err"', b'"i1_rel_err"', 1)),
        ("resonance-curve", lambda d: d.replace(b'"p_up"', b'"p_dn"')),
        ("resonance-curve", _rescale_p_down),
    ],
)
def test_corrupted_table_counts_as_failed_op(tmp_path, kind, damage):
    manifest = gen.generate("compute", 1, str(tmp_path))
    op = _smallest(manifest["ops"], kind)
    clean = worker.Tally({})
    clean.run(worker.Scenarios(str(tmp_path)), op)
    assert (clean.ok, clean.failures) == (1, {})

    broken = worker.Tally({})
    broken.run(_Corrupting(str(tmp_path), damage), op)
    assert broken.ok == 0 and broken.rows == 0
    assert list(broken.failures) == [f"{kind}#{op['id']}"]


def test_table_that_changes_between_rounds_counts_as_failed_op(tmp_path):
    manifest = gen.generate("compute", 1, str(tmp_path))
    op = _smallest(manifest["ops"], "helical")
    digests = {op["id"]: "0" * 64}
    tally = worker.Tally(digests)
    tally.run(worker.Scenarios(str(tmp_path)), op)
    assert tally.ok == 0
    assert "differs from the first round" in tally.failures[f"helical#{op['id']}"]["reason"]


class _FixedExit(worker.Cli):
    """Pretends every op exited with ``code`` and printed nothing."""

    def __init__(self, work, code):
        super().__init__(work)
        self.code = code

    def execute(self, op):
        return self.code, "", ""


@pytest.mark.parametrize("kind, code", [("list-kinds", 1), ("validate", 3), ("invalid", 0), ("invalid", 1),
                                        ("probe", 0), ("probe", 1), ("pms", 2)])
def test_wrong_exit_code_counts_as_failed_op(tmp_path, kind, code):
    manifest = gen.generate("cli", 1, str(tmp_path))
    op = next(op for op in manifest["ops"] if op["kind"] == kind)
    tally = worker.Tally({})
    tally.run(_FixedExit(str(tmp_path), code), op)
    assert tally.ok == 0 and len(tally.failures) == 1
    assert f"exit {code}" in next(iter(tally.failures.values()))["reason"]


def test_traceback_and_escaped_output_fail_even_with_the_right_code(tmp_path):
    out = tmp_path / "cli" / "out"
    out.mkdir(parents=True)
    probe = {"kind": "probe", "probe": "x"}
    with pytest.raises(verify.Failed, match="traceback"):
        verify.cli_result(probe, 2, "", f"{verify.TRACEBACK}\n  ...\nValueError: x\n", str(out))
    (tmp_path / "cli" / verify.ESCAPED).write_text("x\n")
    with pytest.raises(verify.Failed, match="outside --out"):
        verify.cli_result(probe, 2, "", "error: x\n", str(out))
    assert not (tmp_path / "cli" / verify.ESCAPED).exists()
    assert verify.cli_result(probe, 2, "", "error: x\n", str(out)) == (0, b"")


def test_invalid_file_must_list_every_error(tmp_path):
    op = {"kind": "invalid", "errors": ["missing required key 'xi1'", "unknown key 'bogus_theta'"]}
    out = str(tmp_path / "out")
    assert verify.cli_result(op, 2, "", "error: missing required key 'xi1'\nerror: unknown key 'bogus_theta'\n",
                             out) == (0, b"")
    with pytest.raises(verify.Failed, match="misses"):
        verify.cli_result(op, 2, "", "error: missing required key 'xi1'\n", out)


def test_latency_metrics_cover_every_op_run():
    # 100 ops over two rounds; the second round is twice as slow
    latencies = [float(i) for i in range(100, 0, -1)] + [2.0 * i for i in range(100, 0, -1)]
    res = {"latencies": latencies, "rounds": 2, "rows": 20, "ok": 199, "attempted": 200, "peak_rss_mb": 1.0}
    metrics, facts = run.end_to_end(res, [0.3, 0.1, 0.2], "compute")
    assert metrics["op_tail_s"][0] == 180.0
    assert metrics["op_p50_s"][0] == 67.5
    assert metrics["rows_per_s"][0] == 20 / 15150.0
    assert metrics["setup_s"][0] == 0.2
    assert metrics["ok_ratio"][0] == 0.995
    assert facts["op_tail_s"].startswith("p95.0, 10 ops beyond")


def test_timed_loop_runs_only_whole_rounds():
    class Instant:
        def execute(self, op):
            return None

        def verify(self, op, result):
            return 1, b""

    ops = [{"id": i, "kind": "x"} for i in range(3)]
    tally, rounds = worker.timed_loop(Instant(), ops, 0.0)
    assert (rounds, len(tally.latencies), tally.rows) == (1, 3, 3)
    tally, rounds = worker.timed_loop(Instant(), ops, 0.01)
    assert rounds > 1 and len(tally.latencies) == 3 * rounds


def test_traced_counts_repeat_for_a_seed(tmp_path):
    manifest = gen.generate("compute", 4, str(tmp_path))
    pms = sorted((op for op in manifest["ops"] if op["kind"] == "pms-propagate"), key=lambda op: op["params"]["n_blocks"])
    integrate = [op for op in manifest["ops"] if op["kind"].startswith("integrate")]
    manifest["ops"] = pms[:2] + integrate[:2]
    counts = []
    for _ in range(2):
        res = worker.traced_rounds("compute", worker.Compute(str(tmp_path)), manifest, str(tmp_path))
        assert all(not tally.failures for tally in res["passes"])
        counts.append({k: v for k, v in res["per_layer"].items() if not k.endswith(("_s", "per_s"))})
    assert counts[0] == counts[1]
    assert counts[0]["spin.pms_propagate.blocks"] == sum(op["params"].get("n_blocks", 0) for op in manifest["ops"])
    assert counts[0]["quaternion.quat_mul.calls"] > 0 and counts[0]["spin.integrate_spin.steps"] > 0


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = spans.Tracer()
    # a parent with two overlapping children (two pool threads) and one disjoint child
    for start, end, parent in ((0.0, 10.0, -1), (1.0, 3.0, 0), (2.0, 5.0, 0), (7.0, 8.0, 0)):
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
    assert tracer.self_times() == [5.0, 2.0, 3.0, 1.0]
