"""Spans around calls into quatspin's layers, recorded from the benchmark side.

``Tracer.install()`` replaces the public functions listed in ``SPANS`` by
timing wrappers in every ``quatspin`` module namespace that binds them, so
names imported with ``from ... import`` inside ``scenarios`` and ``spin``
are covered too.  Spans are kept in flat arrays in memory and written once
at the end.  A span's parent is the innermost open span of its thread; a
span opened in a pool thread with nothing open on that thread belongs to
the innermost span open on the thread that installed the tracer, which is
the one that called into the pool.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from array import array

# span name -> (module, attribute); "Class.method" patches the class
SPANS = {
    "quaternion.quat_mul": ("quatspin.quaternion", "quat_mul"),
    "quaternion.quat_to_rotation": ("quatspin.quaternion", "quat_to_rotation"),
    "spin.integrate_spin": ("quatspin.spin", "integrate_spin"),
    "spin.pms_propagate": ("quatspin.spin", "pms_propagate"),
    "spin.polarization": ("quatspin.spin", "SpinTrajectory.polarization"),
    "spin.spin_flip_probability": ("quatspin.spin", "spin_flip_probability"),
    "spin.spin_up_probability": ("quatspin.spin", "spin_up_probability"),
    "lorentz.transform_tensor": ("quatspin.lorentz", "transform_tensor"),
    "lorentz.rotate_field_closed": ("quatspin.lorentz", "rotate_field_closed"),
    "lorentz.boost_field_closed": ("quatspin.lorentz", "boost_field_closed"),
    "lorentz.rotation_generator": ("quatspin.lorentz", "rotation_generator"),
    "lorentz.boost_generator": ("quatspin.lorentz", "boost_generator"),
    "emfield.lorentz_invariants": ("quatspin.emfield", "lorentz_invariants"),
    "emfield.energy_quadratic": ("quatspin.emfield", "energy_quadratic"),
    "emfield.em_tensor": ("quatspin.emfield", "em_tensor"),
    "emfield.maxwell_residual": ("quatspin.emfield", "maxwell_residual"),
    "emfield.wave_residual": ("quatspin.emfield", "wave_residual"),
    "scenarios.load_scenario": ("quatspin.scenarios", "load_scenario"),
    "scenarios.run_scenario": ("quatspin.scenarios", "run_scenario"),
    "scenarios.write_table": ("quatspin.scenarios", "write_table"),
    "cli.main": ("quatspin.cli", "main"),
}

# reported metric prefix -> the spans it sums
GROUPS = {
    "quaternion.quat_to_rotation": ("quaternion.quat_to_rotation",),
    "quaternion.quat_mul": ("quaternion.quat_mul",),
    "spin.integrate_spin": ("spin.integrate_spin",),
    "spin.pms_propagate": ("spin.pms_propagate",),
    "spin.probability": ("spin.spin_flip_probability", "spin.spin_up_probability"),
    "lorentz.transform_tensor": ("lorentz.transform_tensor",),
    "lorentz.closed_form": ("lorentz.rotate_field_closed", "lorentz.boost_field_closed"),
    "lorentz.generators": ("lorentz.rotation_generator", "lorentz.boost_generator"),
    "emfield.invariants": ("emfield.lorentz_invariants", "emfield.energy_quadratic", "emfield.em_tensor"),
    "emfield.residual": ("emfield.maxwell_residual", "emfield.wave_residual"),
    "scenarios.load": ("scenarios.load_scenario",),
    "cli.main": ("cli.main",),
}
LAYERS = ("quaternion", "spin", "lorentz", "emfield", "scenarios", "cli")


def _count_steps(args, kwargs, result, counts, dur):
    counts["spin.integrate_spin.steps"] += len(result) - 1


def _count_blocks(args, kwargs, result, counts, dur):
    counts["spin.pms_propagate.blocks"] += args[0].n_blocks


def _count_table(args, kwargs, result, counts, dur):
    bound = dict(zip(("path", "columns", "rows", "fmt"), args), **kwargs)
    fmt = bound["fmt"]
    counts[f"scenarios.encode.{fmt}.rows"] += len(bound["rows"])
    counts[f"scenarios.encode.{fmt}.bytes"] += os.path.getsize(bound["path"])
    counts[f"scenarios.encode.{fmt}.busy_s"] += dur


COUNTERS = {
    "spin.integrate_spin": _count_steps,
    "spin.pms_propagate": _count_blocks,
    "scenarios.write_table": _count_table,
}


class Tracer:
    """Records one span per wrapped call while ``enabled`` is true."""

    def __init__(self):
        self.names = list(SPANS)
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.counts = {"spin.integrate_spin.steps": 0, "spin.pms_propagate.blocks": 0}
        for fmt in ("csv", "json"):
            for key in ("rows", "bytes", "busy_s"):
                self.counts[f"scenarios.encode.{fmt}.{key}"] = 0
        self.enabled = False
        self.current_op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = []
        self._local.stack = self._home
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, idx: int, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            outer = stack or tracer._home
            with tracer._lock:
                sid = len(tracer.start)
                tracer.start.append(0.0)
                tracer.end.append(0.0)
                tracer.name.append(idx)
                tracer.parent.append(outer[-1] if outer else -1)
                tracer.op.append(tracer.current_op)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if counter is not None:
                counter(args, kwargs, result, tracer.counts, t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every function in SPANS wherever a quatspin module binds it."""
        owners = {module: importlib.import_module(module) for module, _ in SPANS.values()}
        modules = [m for name, m in sorted(sys.modules.items()) if name == "quatspin" or name.startswith("quatspin.")]
        for idx, (span, (module, attr)) in enumerate(SPANS.items()):
            owner = owners[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(idx, original, COUNTERS.get(span)))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original, COUNTERS.get(span))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -----------------------------------------------------------------------
    # analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children = {}
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                children.setdefault(parent, []).append(sid)
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, kids in children.items():
            lo, hi = self.start[sid], self.end[sid]
            intervals = sorted((max(lo, self.start[k]), min(hi, self.end[k])) for k in kids)
            covered = 0.0
            cur_s, cur_e = intervals[0]
            for s, e in intervals[1:]:
                if s > cur_e:
                    covered += max(0.0, cur_e - cur_s)
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            covered += max(0.0, cur_e - cur_s)
            out[sid] -= covered
        return out

    def metrics(self) -> dict:
        """Per-layer counts, busy and self times from the recorded spans."""
        n = len(self.names)
        calls = [0] * n
        busy = [0.0] * n
        own = [0.0] * n
        for idx, s, e, self_s in zip(self.name, self.start, self.end, self.self_times()):
            calls[idx] += 1
            busy[idx] += e - s
            own[idx] += self_s
        by_name = {name: (calls[i], busy[i], own[i]) for i, name in enumerate(self.names)}
        out = {}
        for group, spans in GROUPS.items():
            out[f"{group}.calls"] = sum(by_name[s][0] for s in spans)
            out[f"{group}.busy_s"] = sum(by_name[s][1] for s in spans)
        out["scenarios.run.calls"] = by_name["scenarios.run_scenario"][0]
        out["scenarios.run.self_s"] = by_name["scenarios.run_scenario"][2]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v[2] for k, v in by_name.items() if k.split(".")[0] == layer)
        out.update(self.counts)
        busy_integrate = out["spin.integrate_spin.busy_s"]
        out["spin.steps_per_s"] = out["spin.integrate_spin.steps"] / busy_integrate if busy_integrate else 0.0
        for fmt in ("csv", "json"):
            busy_fmt = out[f"scenarios.encode.{fmt}.busy_s"]
            out[f"scenarios.encode.{fmt}.rows_per_s"] = out[f"scenarios.encode.{fmt}.rows"] / busy_fmt if busy_fmt else 0.0
        out["trace.spans"] = len(self.start)
        return out

    def save(self, path: str):
        import numpy as np

        np.savez(path, start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float),
                 name=np.frombuffer(self.name, dtype=np.int32), parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32), names=np.array(self.names))
