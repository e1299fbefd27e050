"""Scenario files: parsing and validation, in the standard library only.

A scenario is one flat key = value file (``#`` comments allowed) naming a
kind plus its parameters.  This module turns one into a validated
``Scenario`` or a ``ConfigError`` listing every problem; ``scenarios``
runs it.  It imports no numpy, so the command line can list kinds, validate
files and report configuration errors without paying for it.
"""

import math
import os
from collections import namedtuple

FORMATS = ("csv", "json")
EM_CASES = ("plane-wave", "point-charge", "constant")
OUT_DIR_ENV = "QUATSPIN_OUT_DIR"
MAX_SCENARIO_CHARS = 1 << 20  # a scenario is a few hundred characters: load_scenario refuses a longer file
MAX_STEPS = 1_000_000  # spin.integrate_spin's step cap, which a helical document must keep: about 100 MB, a few seconds
MAX_STEP_ANGLE = 0.5  # rad: the most that one of integrate_spin's steps may turn the spin


class ConfigError(ValueError):
    """Invalid scenario document; carries every violation, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class Scenario(namedtuple("Scenario", "kind params seed output fmt")):
    """Validated scenario: kind, typed params, output name/format, sweep seed; ``_replace`` makes a changed copy."""

    __slots__ = ()


def parse_scenario_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a raw dict of texts; validate_scenario reads each as its key's type."""
    raw = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
    if errors:
        raise ConfigError(errors)
    return raw


_Field = namedtuple("_Field", "name kind required default check expect", defaults=(True, None, None, ""))


_COMMON = (
    _Field("seed", int, required=False, default=0, check=lambda v: v >= 0, expect=">= 0"),
    # a directory part could put the table outside the output directory, a NUL fails open(); "" is the default
    _Field("output", str, required=False, default=None,
           check=lambda v: v == "" or (v not in (".", "..") and not {"/", "\\", "\0"} & set(v)),
           expect="a bare file name (no directory part or NUL, not '.' or '..')"),
    _Field("format", str, required=False, default="csv", check=lambda v: v in FORMATS,
           expect="one of " + ", ".join(FORMATS)),
)

# the size bounds keep every table at about 10^6 rows at most, as MAX_STEPS does for helical
_SCHEMAS = {
    "pms": (
        _Field("xi1", float, check=math.isfinite, expect="finite"),
        _Field("xi2", float, check=math.isfinite, expect="finite"),
        _Field("theta", float, check=math.isfinite, expect="finite"),
        _Field("n_blocks", int, check=lambda v: 0 <= v <= 499_999, expect="0..499999"),
    ),
    "helical": (
        _Field("gamma", float, check=lambda v: math.isfinite(v) and v >= 0, expect="finite and >= 0"),
        _Field("delta", float, check=math.isfinite, expect="finite"),
        _Field("omega", float, check=math.isfinite, expect="finite"),
        _Field("t_max", float, check=lambda v: math.isfinite(v) and v > 0, expect="> 0"),
        _Field("dt", float, check=lambda v: math.isfinite(v) and v > 0, expect="> 0"),
        _Field("sign", int, required=False, default=1, check=lambda v: v in (1, -1), expect="1 or -1"),
    ),
    "resonance-curve": (
        _Field("gamma", float, check=lambda v: math.isfinite(v) and v >= 0, expect="finite and >= 0"),
        _Field("delta_min", float, check=math.isfinite, expect="finite"),
        _Field("delta_max", float, check=math.isfinite, expect="finite"),
        _Field("n_points", int, check=lambda v: 2 <= v <= 1_000_000, expect="2..1000000"),
        _Field("t_pass", float, check=lambda v: math.isfinite(v) and v >= 0, expect=">= 0"),
    ),
    "em-check": (
        _Field("case", str, check=lambda v: v in EM_CASES, expect="one of " + ", ".join(EM_CASES)),
        # the wave stencil reaches 2 * h0, at most the point charge's smallest coordinate; h0 / 2^11 stays finite
        _Field("h0", float, required=False, default=0.02, check=lambda v: 1e-4 <= v <= 0.25, expect="in [1e-4, 0.25]"),
        _Field("n_levels", int, required=False, default=3, check=lambda v: 1 <= v <= 12, expect="1..12"),
    ),
    "lorentz-check": (
        _Field("n_cases", int, required=False, default=1000, check=lambda v: 1 <= v <= 250_000, expect="1..250000"),
        _Field("max_generators", int, required=False, default=5, check=lambda v: 1 <= v <= 5, expect="1..5"),
        # five boosts at rapidity 50 keep the squared field scale finite
        _Field("rapidity_max", float, required=False, default=2.0,
               check=lambda v: 0 < v <= 50, expect="in (0, 50]"),
    ),
}
KINDS = tuple(_SCHEMAS)


def _coerce(field: _Field, value):
    """Text read as its key's type (a float beyond the largest float as inf), a value of that type, or None."""
    if isinstance(value, bool):  # no field is a bool, and a bool is an int
        return None
    try:
        if isinstance(value, str):
            return field.kind(value)
        if field.kind is float and isinstance(value, int):
            return float(value)
    except ValueError:  # not a literal of the type
        return None
    except OverflowError:  # an int beyond the largest float reads as its text does, and the key's check refuses it
        return math.inf if value > 0 else -math.inf
    return value if isinstance(value, field.kind) else None


# the library's own rules, which spin applies to arrays (np.sqrt) and validate_scenario to floats (math.sqrt)
def span_steps(t0, t1, dt):
    """integrate_spin's step count from t0 to t1, less a rounding allowance: it takes max(1, ceil()) steps."""
    return (t1 - t0) / dt - 1e-12


def step_angle(h, b_sq, coupling, sqrt):
    """The angle by which a step h in a field of squared norm b_sq turns the spin, to hold to MAX_STEP_ANGLE."""
    return h * (sqrt(b_sq) * abs(coupling))


def rabi_terms(t_pass, gamma, delta, sqrt):
    """The squared Rabi rate gamma^2 + delta^2 of the resonance probabilities, and their phase after t_pass."""
    w_sq = gamma * gamma + delta * delta
    return w_sq, 0.5 * t_pass * sqrt(w_sq)


def validate_scenario(raw: dict) -> Scenario:
    """Type and range-check a raw document; raises ConfigError naming every problem."""
    errors = []
    kind = raw.get("kind")
    if kind is None:
        errors.append("missing required key 'kind'")
    elif kind not in KINDS:
        errors.append(f"unknown kind {kind!r}; allowed kinds: {', '.join(KINDS)}")

    fields = _COMMON + _SCHEMAS.get(kind, ())
    known = {"kind"} | {f.name for f in fields}
    for key in sorted(raw):
        if key not in known:
            errors.append(f"unknown key {key!r}")

    values = {}
    for f in fields:
        if f.name not in raw:
            if f.required:
                errors.append(f"missing required key {f.name!r}")
            else:
                values[f.name] = f.default
            continue
        value = _coerce(f, raw[f.name])
        if value is None:
            errors.append(f"key {f.name!r}: expected {f.kind.__name__}, got {raw[f.name]!r}")
            continue
        if f.check is not None and not f.check(value):
            errors.append(f"key {f.name!r}: value {value!r} must be {f.expect}")
            continue
        values[f.name] = value

    # each check across keys runs only when every key it reads is valid: one error per fault
    if kind == "resonance-curve" and "delta_min" in values and "delta_max" in values:
        # resonance_curve builds its grid from the span, which must not overflow
        if not 0.0 < values["delta_max"] - values["delta_min"] < math.inf:
            errors.append("key 'delta_max': must be greater than delta_min, by a finite span")
        elif "gamma" in values and "t_pass" in values:  # at the grid's largest |delta|, where the terms overflow first
            delta = max(abs(values["delta_min"]), abs(values["delta_max"]))
            w_sq, phase = rabi_terms(values["t_pass"], values["gamma"], delta, math.sqrt)
            if not math.isfinite(w_sq):
                key = max(("gamma", "delta_min", "delta_max"), key=lambda k: abs(values[k]))
                errors.append(f"key {key!r}: gamma^2 + max(|delta_min|, |delta_max|)^2 overflows")
            elif not math.isfinite(phase):
                errors.append("key 't_pass': the phase 0.5 * t_pass * sqrt(gamma^2 + max(|delta_min|, "
                              "|delta_max|)^2) overflows")
    if kind == "helical" and "gamma" in values and "delta" in values:
        if values["gamma"] == 0.0 and values["delta"] == 0.0:
            errors.append("keys 'gamma' and 'delta': cannot both be 0")
    if kind == "helical" and all(k in values for k in ("gamma", "delta", "omega", "t_max", "dt")):
        # helical_field at t = 0 is (-gamma, 0, omega - delta): its squares summed as integrate_spin sums them
        gamma, d = values["gamma"], values["omega"] - values["delta"]
        angle = step_angle(min(values["dt"], values["t_max"]), gamma * gamma + d * d, 1.0, math.sqrt)
        # integrate_spin's bound (StepTooLarge), beyond rounding: never reject a step it would take
        if angle > MAX_STEP_ANGLE * (1.0 + 1e-12):
            errors.append(f"key 'dt': the first step turns the spin by {angle!r} rad, more than {MAX_STEP_ANGLE} "
                          "(min(dt, t_max) * hypot(gamma, omega - delta))")
    if kind == "helical" and "t_max" in values:
        # integrate_spin's InvalidTimeSpan test
        if "dt" in values and (steps := span_steps(0.0, values["t_max"], values["dt"])) > MAX_STEPS:
            errors.append(f"keys 't_max' and 'dt': t_max / dt = {steps!r} steps, more than MAX_STEPS = {MAX_STEPS}")
        # helical_field's drive phase omega * t at the last sample time, t_max
        if "omega" in values and not math.isfinite(values["omega"] * values["t_max"]):
            errors.append("keys 'omega' and 't_max': the drive phase omega * t_max overflows")

    if errors:
        raise ConfigError(errors)

    fmt = values.pop("format")
    seed = values.pop("seed")
    output = values.pop("output") or f"{kind}.{fmt}"
    return Scenario(kind=kind, params=values, seed=seed, output=output, fmt=fmt)


def _open_without_waiting(path: str, flags: int) -> int:
    """os.open without blocking: a FIFO with no writer opens at once, and then reads as empty."""
    fd = os.open(path, flags | os.O_NONBLOCK)
    os.set_blocking(fd, True)  # a pipe whose writer is attached is read to its end, as before
    return fd


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8-sig", opener=_open_without_waiting) as fh:  # a byte-order mark is skipped
        text = fh.read(MAX_SCENARIO_CHARS + 1)  # no further: an endless file, such as /dev/zero, ends here too
    if len(text) > MAX_SCENARIO_CHARS:
        raise ConfigError([f"the scenario file holds more than MAX_SCENARIO_CHARS = {MAX_SCENARIO_CHARS} "
                           "characters"])
    return validate_scenario(parse_scenario_text(text))
