"""Scenario configuration and JSON report rendering.

A Scenario bundles everything a certification run needs: the algebra, the
orbit weight, the deformation size delta, integrator and sampling controls,
the seed, and tolerance overrides.  Scenarios are built from flat key-value
config files (``key = value`` lines, ``#`` comments) plus optional keyword
overrides, so a run is reproducible from its config and seed alone.

Reports are plain dicts rendered with sorted keys; wall-clock timing lives
in a dedicated ``timing`` block so that two runs of the same scenario are
byte-identical everywhere else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

SCHEMA_VERSION = 1

# verification thresholds; every entry can be overridden from the config
# file with a ``tolerances.<name> = <value>`` line
DEFAULT_TOLERANCES = {
    "chi_multiset": 1e-8,
    "chi_contraction": 1.0,
    "growth_slack": -1e-10,
    "flat_identity": 1e-10,
    "bracket_slack": -1e-10,
    "moment_identity": 1e-6,
    "scaling_linearity": 1e-12,
    "closedness": 1e-4,
    "exactness": 1e-4,
    "zero_restriction": 1e-10,
    "nullspace": 1e-8,
    "properness_low": 0.95,
    "properness_high": 1.05,
    "gamma_deviation": 0.1,
    "segment_margin": 0.0,
    "segment_pencil": 1e-6,
    "affinity": 1e-12,
    "stage_pullback": 1e-3,
    "composite_pullback": 1e-3,
    "zero_section": 1e-6,
    "equivariance": 1e-6,
    "moment_shift": 1e-5,
    "group_drift": 1e-8,
}

_INT_KEYS = {"p", "q", "n", "steps", "samples", "stage_samples",
             "lemma_samples", "seed"}
_FLOAT_KEYS = {"delta_mult", "delta_abs", "eps", "radius"}


@dataclass
class Scenario:
    """Inputs of one certification run.

    `lam` holds torus coordinates of the orbit weight against the dual torus
    basis (None selects the distinguished weight lambda_0).  `delta_abs`
    overrides the `delta_mult` multiplier of b_lambda when set.  `steps`
    drives the final deformation stage; the two product-side stages are
    exact maps.  All randomness is drawn from streams derived from `seed`.
    """

    family: str = "su"
    p: int | None = None
    q: int | None = None
    n: int | None = None
    lam: tuple[float, ...] | None = None
    delta_mult: float = 1.5
    delta_abs: float | None = None
    steps: int = 200
    samples: int = 50
    stage_samples: int = 10
    lemma_samples: int = 1000
    eps: float = 1e-4
    radius: float = 1.2
    seed: int = 0
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ("su", "sp"):
            raise ValueError(f"unknown family {self.family!r}")
        for name in sorted(_FLOAT_KEYS):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite (got {value})")
        if self.lam is not None and not all(map(math.isfinite, self.lam)):
            raise ValueError(f"lam must be finite (got {list(self.lam)})")
        if self.delta_abs is None and not self.delta_mult > 1.0:
            raise ValueError(
                f"delta_mult must exceed 1 (got {self.delta_mult}); smaller "
                "multipliers leave the weight segment outside the chamber"
            )
        if self.steps < 10:
            raise ValueError(f"steps must be at least 10 (got {self.steps})")
        if self.samples < 1 or self.stage_samples < 1 or self.lemma_samples < 1:
            raise ValueError("sample counts must be positive")
        if not self.eps > 0.0:
            raise ValueError("finite-difference eps must be positive")
        if not self.radius > 0.1:
            raise ValueError(
                f"radius must exceed 0.1 (got {self.radius}); sample points "
                "have fiber norms drawn from [0.1, radius]"
            )
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
        for key, value in sorted(self.tolerances.items()):
            if not math.isfinite(value):
                raise ValueError(f"tolerances.{key} must be finite (got {value})")

    def tolerance(self, name):
        if name not in DEFAULT_TOLERANCES:
            raise KeyError(name)
        return float(self.tolerances.get(name, DEFAULT_TOLERANCES[name]))

    def algebra_params(self):
        if self.family == "su":
            return {"p": self.p, "q": self.q}
        return {"n": self.n}

    def describe(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["lam"] = None if self.lam is None else list(self.lam)
        out["tolerances"] = {
            k: self.tolerance(k) for k in sorted(DEFAULT_TOLERANCES)
        }
        return out


def parse_config(text):
    """Flat ``key = value`` lines into a raw string dict; '#' starts a comment."""
    raw = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"config line {ln}: empty key or value")
        if key in raw:
            raise ValueError(f"config line {ln}: duplicate key {key!r}")
        raw[key] = value
    return raw


def scenario_from_config(text, **overrides):
    """Build a Scenario from config text; keyword overrides win over the file."""
    raw = parse_config(text)
    kwargs = {}
    tolerances = {}
    for key, value in raw.items():
        if key.startswith("tolerances."):
            tolerances[key[len("tolerances."):]] = float(value)
        elif key == "lambda":
            kwargs["lam"] = tuple(float(part) for part in value.split(","))
        elif key in _INT_KEYS:
            kwargs[key] = int(value)
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(value)
        elif key == "family":
            kwargs[key] = value
        else:
            raise ValueError(f"unknown config key {key!r}")
    if tolerances:
        kwargs["tolerances"] = tolerances
    scenario = Scenario(**kwargs)
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if "delta_mult" in overrides:  # else the file's delta_abs would outrank it
        overrides.setdefault("delta_abs", None)
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario


def load_scenario(path, **overrides):
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_config(fh.read(), **overrides)


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps accepts them.

    Non-finite floats, numpy or not, become the strings "inf", "-inf" and
    "nan", so the output is standard JSON.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return jsonable(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def render_report(report):
    """Deterministic JSON text: sorted keys, two-space indent, newline end."""
    return json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n"


def write_report(report, path):
    text = render_report(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def strip_timing(report_text):
    """Report text with the timing block removed, for byte comparisons."""
    data = json.loads(report_text)
    data.pop("timing", None)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
