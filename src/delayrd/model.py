"""Problem definition and configuration ingestion.

The equation under study is a reaction-diffusion equation with a single
discrete delay on the (truncated) real line,

    du/dt = Laplacian(u) - mu*u + sigma*u(x, t - tau) + f(u(x, t - tau)) + g(x),

with positive constants ``mu``, ``sigma``, ``tau``, a globally Lipschitz
nonlinearity ``f`` with ``f(0) = 0`` and Lipschitz constant ``lf``, and a
square-integrable forcing ``g``.  This module holds the parameter containers,
the finite nonlinearity/forcing catalogs with exact Lipschitz constants and
computable norms, and the JSON configuration parser used by the command line
front end.  The dissipativity gate on these parameters is in `estimates`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

__all__ = [
    "ConfigError",
    "ForcingSpec",
    "Grid",
    "NonlinearitySpec",
    "ProblemParameters",
    "RunOptions",
    "evaluate_forcing",
    "evaluate_nonlinearity",
    "parse_config",
    "serialize_config",
]

# f = scale * shape, each shape of maximal slope 1 (attained at the origin)
NONLINEARITY_SHAPES = {"zero": np.zeros_like, "scaled_tanh": np.tanh, "scaled_sin": np.sin,
                       "saturating_linear": lambda v: np.clip(v, -1.0, 1.0)}
NONLINEARITY_KINDS = tuple(NONLINEARITY_SHAPES)
FORCING_KINDS = ("zero", "gaussian_bump", "compact_bump")
# Longest march, in steps, and the largest other count or size a config may set.
MAX_MARCH_STEPS = 2**20
# Most modes and most dichotomy samples: spectrum's time and memory grow
# linearly in each (configs/certify.json with 65,536 modes: 17 s, 1.3 GB RSS
# on a 2-vCPU x86-64 host).
MAX_SPECTRAL_COUNT = 2**12
# Most pairs and contraction times: squeeze holds pairs * times * 10 floats.
MAX_ENSEMBLE = 2**12
MAX_CONTRACTION_TIMES = 64
# Most floats in one history segment, (steps_per_delay + 1) * points.
MAX_SEGMENT_FLOATS = 2**24


class ConfigError(ValueError):
    """Raised when a configuration document violates the schema."""


# --- configuration schema -------------------------------------------------
# Each section's dataclass is its schema table: field name = JSON key,
# annotation = type, default = default, ``rule`` metadata = the predicate a
# value must pass.  Only rules tying several fields together are hand-written.


def _rule(test, rule: str, **kwargs):
    """A field whose values must pass ``test``; ``rule`` completes the error."""
    return field(metadata={"rule": (test, rule)}, **kwargs)


def _positive(**kwargs):
    return _rule(lambda v: v > 0, "must be positive", **kwargs)


def _nonnegative(**kwargs):
    return _rule(lambda v: v >= 0, "must be nonnegative", **kwargs)


def _count(default: int, cap: int):
    """A loop count or array length, from 1 to ``cap``."""
    return _rule(lambda n: 1 <= n <= cap, f"must be from 1 to {cap}", default=default)


def _kind(catalog: tuple):
    return _rule(lambda k: k in catalog, "must be one of " + ", ".join(catalog), default="zero")


def _check_rules(obj, where: str = "") -> None:
    """Raise ConfigError for the first field of ``obj`` that breaks its rule."""
    for f in fields(obj):
        if "rule" in f.metadata:
            test, rule = f.metadata["rule"]
            if not test(getattr(obj, f.name)):
                raise ConfigError(f"{where}{f.name} {rule}")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Delayed nonlinearity f, drawn from a finite catalog.

    Every member satisfies f(0) = 0 exactly and has global Lipschitz
    constant equal to ``scale`` (the base shapes tanh, sin and the unit
    saturation all have maximal slope 1, attained at the origin).
    """

    kind: str = _kind(NONLINEARITY_KINDS)
    scale: float = _nonnegative(default=0.0)

    def __post_init__(self):
        _check_rules(self, "nonlinearity.")

    @property
    def lipschitz(self) -> float:
        """Exact global Lipschitz constant of the map."""
        return 0.0 if self.kind == "zero" else self.scale


@dataclass(frozen=True)
class ForcingSpec:
    """Forcing term g: either zero, a Gaussian bump, or a compactly
    supported mollifier bump.  ``amplitude`` is the peak value at
    ``center``; ``width`` is the length scale (standard deviation for the
    Gaussian, support half-width for the compact bump)."""

    kind: str = _kind(FORCING_KINDS)
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        _check_rules(self, "forcing.")
        if self.kind != "zero" and self.width <= 0:
            raise ConfigError("forcing.width must be positive for a nonzero kind")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box [-L, L).

    Parameters
    ----------
    half_length : float
        Box half-length L.  The box truncates the real line; it must be
        chosen large enough that the far-field mass near |x| = L stays
        negligible over the simulated horizon.
    points : int
        Number of nodes, a power of two (the semigroup step runs in
        transform space).
    """

    half_length: float = _positive(default=16.0)
    points: int = _rule(lambda n: 2 <= n <= MAX_MARCH_STEPS and not n & (n - 1),
                        f"must be a power of two from 2 to {MAX_MARCH_STEPS}", default=512)

    def __post_init__(self):
        _check_rules(self, "grid.")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points

    @property
    def nodes(self) -> np.ndarray:
        """Node positions x_j = -L + j*h, j = 0 .. points-1."""
        return -self.half_length + self.spacing * np.arange(self.points)

    @property
    def frequencies(self) -> np.ndarray:
        """Real-transform wavenumbers xi_k = pi*k/L, k = 0 .. points/2."""
        return np.pi / self.half_length * np.arange(self.points // 2 + 1)


@dataclass(frozen=True)
class ProblemParameters:
    """All constants entering the equation and its certificates.

    ``sigma = 0`` is accepted here (several limiting checks rely on it);
    the configuration parser is stricter and demands sigma > 0 from
    external input.
    """

    mu: float = _positive()
    sigma: float = _nonnegative()
    tau: float = _positive()
    lf: float = _nonnegative()
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)

    def __post_init__(self):
        _check_rules(self)
        if self.nonlinearity.lipschitz > self.lf + 1e-12:
            raise ConfigError(
                "nonlinearity Lipschitz constant exceeds declared lf"
            )


@dataclass(frozen=True)
class RunOptions:
    """Knobs that shape a batch run but not the equation itself."""

    horizon: float = _nonnegative(default=10.0)
    steps_per_delay: int = _count(32, MAX_MARCH_STEPS)
    cutoff_radius: float = _positive(default=3.0)
    modes: int = _count(8, MAX_SPECTRAL_COUNT)
    m_cut: int = _count(3, MAX_MARCH_STEPS)
    seed: int = _rule(lambda v: 0 <= v <= 2**64 - 1, "must be nonnegative and at most 2**64 - 1",
                      default=0)
    ensemble: int = _count(20, MAX_ENSEMBLE)
    snapshot_every: int = _nonnegative(default=0)
    eps: float = _positive(default=1e-3)
    contraction_times: tuple[float, ...] = _rule(
        lambda t: 1 <= len(t) <= MAX_CONTRACTION_TIMES,
        f"must hold from 1 to {MAX_CONTRACTION_TIMES} times", default=(1.0,))
    dichotomy_samples: int = _count(16, MAX_SPECTRAL_COUNT)
    history_norm: float = _nonnegative(default=1.0)

    def __post_init__(self):
        _check_rules(self, "run.")
        if self.m_cut > self.modes:
            raise ConfigError("run.modes >= run.m_cut >= 1 required")


def evaluate_nonlinearity(spec: NonlinearitySpec, value):
    """Apply f pointwise to a field sample (scalar or array).

    The delayed nonlinearity acts through composition with the delayed
    field value; f(0) = 0 exactly for every catalog member.
    """
    v = np.asarray(value, dtype=float)
    if spec.kind == "zero" or spec.scale == 0.0:  # +0.0 where 0.0 * shape(v) gives -0.0
        out = np.zeros_like(v)
    else:
        out = NONLINEARITY_SHAPES[spec.kind](v)
        out *= spec.scale
    return out if out.ndim else float(out)


def evaluate_forcing(spec: ForcingSpec, x):
    """Evaluate g pointwise on positions ``x``."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "zero" or spec.amplitude == 0.0:
        return np.zeros_like(x)
    with np.errstate(over="ignore"):  # far nodes: r or r * r is inf, exp(-inf) = 0
        r = (x - spec.center) / spec.width
        if spec.kind == "gaussian_bump":
            return spec.amplitude * np.exp(-0.5 * r * r)
    # compact_bump: smooth mollifier supported on |x - center| < width,
    # normalized to peak value `amplitude` at the center.
    out = np.zeros_like(x)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = spec.amplitude * np.exp(1.0 - 1.0 / (1.0 - ri * ri))
    return out


# --- configuration parsing ------------------------------------------------

_SECTIONS = {"nonlinearity": NonlinearitySpec, "forcing": ForcingSpec, "grid": Grid,
             "run": RunOptions}


def _finite_float(token: str) -> float:
    """JSON float and NaN/Infinity hook: only finite floats pass."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def _number(value, what: str):
    """``value`` unchanged if it is a number (not a bool) that fits a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or abs(value) > sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number")
    return value


def _integer(value, what: str) -> int:
    """``value`` as an int if it is a whole number (not a bool)."""
    if _number(value, what) != int(value):
        raise ConfigError(f"{what} must be an integer")
    return int(value)


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string")
    return value


def _floats(value, what: str) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{what} must be a nonempty list")
    return tuple(float(_number(t, f"{what} entry")) for t in value)


# field annotation -> coercion of a JSON value to it
_COERCE = {"float": lambda v, what: float(_number(v, what)), "int": _integer, "str": _string,
           "tuple[float, ...]": _floats}


def _section(cls, doc, where: str):
    """Build dataclass ``cls`` from the JSON object ``doc``: every key must
    name a field, each value is coerced by the field's annotation, and an
    absent field takes its dataclass default."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    schema = {f.name: f for f in fields(cls)}
    for key in doc:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for f in schema.values():
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {f.name!r} in {where}")
    return cls(**{key: _COERCE[schema[key].type](value, f"key {key!r} in {where}")
                  for key, value in doc.items()})


def parse_config(text: str):
    """Parse a JSON configuration document.

    Parameters
    ----------
    text : str
        UTF-8 JSON.  Top-level keys: ``mu``, ``sigma``, ``tau``, ``lf``
        (required numbers), and optional objects ``nonlinearity``,
        ``forcing``, ``grid``, ``run``, whose keys, types and defaults are
        the fields of NonlinearitySpec, ForcingSpec, Grid and RunOptions.
        Unknown keys anywhere are rejected with an error naming the
        offending key.

    Returns
    -------
    (ProblemParameters, Grid, RunOptions)

    Raises
    ------
    ConfigError
        On malformed JSON (including NaN/Infinity, numbers that overflow
        a float and nesting deeper than the parser's recursion limit),
        unknown/missing keys, values of the wrong type, values
        that break a field's rule, sigma <= 0, mu*tau so large that
        exp(mu*tau) overflows a float, or a history segment of more than
        MAX_SEGMENT_FLOATS floats.
    """
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, a rejected number, deep nesting
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be a JSON object")
    top = {key: value for key, value in doc.items() if key not in _SECTIONS}
    params = _section(ProblemParameters, top, "top level")
    if params.sigma == 0:
        raise ConfigError("sigma must be positive")
    # exp(mu*tau) enters the dissipativity gate and the constants
    if params.mu * params.tau > math.log(sys.float_info.max):
        raise ConfigError("mu*tau must not exceed log of the largest float (about 709.78)")

    nonlinearity, forcing, grid, run = (_section(cls, doc.get(key, {}), key)
                                        for key, cls in _SECTIONS.items())
    if nonlinearity.kind != "zero" and "scale" not in doc["nonlinearity"]:
        # by default f realizes the declared Lipschitz constant exactly
        nonlinearity = replace(nonlinearity, scale=params.lf)
    if (run.steps_per_delay + 1) * grid.points > MAX_SEGMENT_FLOATS:
        raise ConfigError(f"(run.steps_per_delay + 1) * grid.points must be at most "
                          f"{MAX_SEGMENT_FLOATS}")
    return replace(params, forcing=forcing, nonlinearity=nonlinearity), grid, run


def serialize_config(p: ProblemParameters, grid: Grid, run: RunOptions) -> str:
    """Serialize parameters back to the JSON schema (round-trip safe)."""
    doc = {"mu": p.mu, "sigma": p.sigma, "tau": p.tau, "lf": p.lf,
           "nonlinearity": asdict(p.nonlinearity), "forcing": asdict(p.forcing),
           "grid": asdict(grid), "run": asdict(run)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
