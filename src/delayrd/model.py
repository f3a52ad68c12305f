"""Problem definition and configuration ingestion.

The equation under study is a reaction-diffusion equation with a single
discrete delay on the (truncated) real line,

    du/dt = Laplacian(u) - mu*u + sigma*u(x, t - tau) + f(u(x, t - tau)) + g(x),

with positive constants ``mu``, ``sigma``, ``tau``, a globally Lipschitz
nonlinearity ``f`` with ``f(0) = 0`` and Lipschitz constant ``lf``, and a
square-integrable forcing ``g``.  This module holds the parameter containers,
the finite nonlinearity/forcing catalogs with exact Lipschitz constants and
computable norms, the dissipativity gate ``sigma*(lf+1)*exp(mu*tau) < mu``,
and the JSON configuration parser used by the command line front end.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

__all__ = [
    "ConfigError",
    "DissipativityReport",
    "ForcingSpec",
    "Grid",
    "NonlinearitySpec",
    "ProblemParameters",
    "RunOptions",
    "check_dissipativity",
    "evaluate_forcing",
    "evaluate_nonlinearity",
    "parse_config",
    "serialize_config",
]

NONLINEARITY_KINDS = ("zero", "scaled_tanh", "scaled_sin", "saturating_linear")
FORCING_KINDS = ("zero", "gaussian_bump", "compact_bump")
# Longest march, in steps, and the largest loop count a config may set.
MAX_MARCH_STEPS = 2**20


class ConfigError(ValueError):
    """Raised when a configuration document violates the schema."""


@dataclass(frozen=True)
class NonlinearitySpec:
    """Delayed nonlinearity f, drawn from a finite catalog.

    Every member satisfies f(0) = 0 exactly and has global Lipschitz
    constant equal to ``scale`` (the base shapes tanh, sin and the unit
    saturation all have maximal slope 1, attained at the origin).
    """

    kind: str = "zero"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ConfigError(f"unknown nonlinearity kind {self.kind!r}")
        if self.scale < 0:
            raise ConfigError("nonlinearity scale must be nonnegative")

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

    kind: str = "zero"
    amplitude: float = 0.0
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in FORCING_KINDS:
            raise ConfigError(f"unknown forcing kind {self.kind!r}")
        if self.kind != "zero" and self.width <= 0:
            raise ConfigError("forcing width must be positive")


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

    half_length: float
    points: int

    def __post_init__(self):
        if self.half_length <= 0:
            raise ConfigError("grid half_length must be positive")
        if self.points < 2 or self.points & (self.points - 1):
            raise ConfigError("grid points must be a power of two")

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

    mu: float
    sigma: float
    tau: float
    lf: float
    forcing: ForcingSpec = field(default_factory=ForcingSpec)
    nonlinearity: NonlinearitySpec = field(default_factory=NonlinearitySpec)

    def __post_init__(self):
        if self.mu <= 0:
            raise ConfigError("mu must be positive")
        if self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.lf < 0:
            raise ConfigError("lf must be nonnegative")
        if self.nonlinearity.lipschitz > self.lf + 1e-12:
            raise ConfigError(
                "nonlinearity Lipschitz constant exceeds declared lf"
            )


@dataclass(frozen=True)
class RunOptions:
    """Knobs that shape a batch run but not the equation itself."""

    horizon: float = 10.0
    steps_per_delay: int = 32
    cutoff_radius: float = 3.0
    modes: int = 8
    m_cut: int = 3
    seed: int = 0
    ensemble: int = 20
    snapshot_every: int = 0
    eps: float = 1e-3
    contraction_times: tuple[float, ...] = (1.0,)
    dichotomy_samples: int = 16
    history_norm: float = 1.0

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigError("run.horizon must be nonnegative")
        if self.steps_per_delay < 1:
            raise ConfigError("run.steps_per_delay must be at least 1")
        if self.cutoff_radius <= 0:
            raise ConfigError("run.cutoff_radius must be positive")
        if self.modes < 1 or self.m_cut < 1 or self.m_cut > self.modes:
            raise ConfigError("run.modes >= run.m_cut >= 1 required")
        if self.ensemble < 1:
            raise ConfigError("run.ensemble must be at least 1")
        if self.seed < 0:
            raise ConfigError("run.seed must be nonnegative")
        if self.dichotomy_samples < 1:
            raise ConfigError("run.dichotomy_samples must be at least 1")
        for key in ("modes", "ensemble", "dichotomy_samples"):
            if getattr(self, key) > MAX_MARCH_STEPS:
                raise ConfigError(f"run.{key} must be at most {MAX_MARCH_STEPS}")
        if self.eps <= 0:
            raise ConfigError("run.eps must be positive")
        if self.history_norm < 0:
            raise ConfigError("run.history_norm must be nonnegative")


def evaluate_nonlinearity(spec: NonlinearitySpec, value):
    """Apply f pointwise to a field sample (scalar or array).

    The delayed nonlinearity acts through composition with the delayed
    field value; f(0) = 0 exactly for every catalog member.
    """
    v = np.asarray(value, dtype=float)
    if spec.kind == "zero" or spec.scale == 0.0:
        out = np.zeros_like(v)
    elif spec.kind == "scaled_tanh":
        out = spec.scale * np.tanh(v)
    elif spec.kind == "scaled_sin":
        out = spec.scale * np.sin(v)
    else:  # saturating_linear
        out = spec.scale * np.clip(v, -1.0, 1.0)
    return out if out.ndim else float(out)


def evaluate_forcing(spec: ForcingSpec, x):
    """Evaluate g pointwise on positions ``x``."""
    x = np.asarray(x, dtype=float)
    if spec.kind == "zero" or spec.amplitude == 0.0:
        return np.zeros_like(x)
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


@dataclass(frozen=True)
class DissipativityReport:
    beta: float
    holds: bool


def check_dissipativity(p: ProblemParameters) -> DissipativityReport:
    """Evaluate the absorbing-set gate.

    Returns beta = sigma*(lf+1)*exp(mu*tau) and the flag beta < mu.  All
    certificates downstream require the flag to hold.
    """
    beta = p.sigma * (p.lf + 1.0) * math.exp(p.mu * p.tau)
    return DissipativityReport(beta=beta, holds=beta < p.mu)


# --- configuration schema -------------------------------------------------

_TOP_KEYS = {"mu", "sigma", "tau", "lf", "nonlinearity", "forcing", "grid", "run"}
_REQUIRED_KEYS = ("mu", "sigma", "tau", "lf")
_NONLIN_KEYS = {"kind", "scale"}
_FORCING_KEYS = {"kind", "amplitude", "center", "width"}
_GRID_KEYS = {"half_length", "points"}
_RUN_KEYS = {f.name for f in fields(RunOptions)}
_RUN_INT_KEYS = {f.name for f in fields(RunOptions) if f.type == "int"}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


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


def _optional_number(section: dict, key: str, default, where: str):
    return _number(section.get(key, default), f"key {key!r} in {where}")


def _require_number(section: dict, key: str, where: str) -> float:
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return float(_number(section[key], f"key {key!r} in {where}"))


def parse_config(text: str):
    """Parse a JSON configuration document.

    Parameters
    ----------
    text : str
        UTF-8 JSON.  Top-level keys: ``mu``, ``sigma``, ``tau``, ``lf``
        (required numbers), and optional objects ``nonlinearity``,
        ``forcing``, ``grid``, ``run``.  Unknown keys anywhere are
        rejected with an error naming the offending key.

    Returns
    -------
    (ProblemParameters, Grid, RunOptions)

    Raises
    ------
    ConfigError
        On malformed JSON (including NaN/Infinity and numbers that overflow
        a float), unknown/missing keys, non-numeric values for numeric
        keys, non-positive mu/sigma/tau, or mu*tau so large that exp(mu*tau)
        overflows a float.
    """
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except ValueError as exc:  # JSONDecodeError or a rejected number
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "top level")

    values = {key: _require_number(doc, key, "top level") for key in _REQUIRED_KEYS}
    for key in ("mu", "sigma", "tau"):
        if values[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if values["lf"] < 0:
        raise ConfigError("lf must be nonnegative")
    # exp(mu*tau) enters the dissipativity gate and the constants
    if values["mu"] * values["tau"] > math.log(sys.float_info.max):
        raise ConfigError("mu*tau must not exceed log of the largest float (about 709.78)")

    nl_doc = doc.get("nonlinearity", {"kind": "zero"})
    if not isinstance(nl_doc, dict):
        raise ConfigError("nonlinearity must be an object")
    _reject_unknown(nl_doc, _NONLIN_KEYS, "nonlinearity")
    nl_kind = nl_doc.get("kind", "zero")
    # By default the scale is the declared Lipschitz constant, so that f
    # realizes lf exactly.
    nl_scale = _optional_number(nl_doc, "scale", values["lf"] if nl_kind != "zero" else 0.0,
                                "nonlinearity")
    nonlinearity = NonlinearitySpec(kind=nl_kind, scale=float(nl_scale))

    f_doc = doc.get("forcing", {"kind": "zero"})
    if not isinstance(f_doc, dict):
        raise ConfigError("forcing must be an object")
    _reject_unknown(f_doc, _FORCING_KEYS, "forcing")
    forcing = ForcingSpec(
        kind=f_doc.get("kind", "zero"),
        amplitude=float(_optional_number(f_doc, "amplitude", 0.0, "forcing")),
        center=float(_optional_number(f_doc, "center", 0.0, "forcing")),
        width=float(_optional_number(f_doc, "width", 1.0, "forcing")),
    )

    g_doc = doc.get("grid", {})
    if not isinstance(g_doc, dict):
        raise ConfigError("grid must be an object")
    _reject_unknown(g_doc, _GRID_KEYS, "grid")
    grid = Grid(
        half_length=float(_optional_number(g_doc, "half_length", 16.0, "grid")),
        points=_integer(g_doc.get("points", 512), "key 'points' in grid"),
    )

    r_doc = doc.get("run", {})
    if not isinstance(r_doc, dict):
        raise ConfigError("run must be an object")
    _reject_unknown(r_doc, _RUN_KEYS, "run")
    run_kwargs = {}
    for key, value in r_doc.items():
        if key == "contraction_times":
            if not isinstance(value, list) or not value:
                raise ConfigError("run.contraction_times must be a nonempty list")
            value = tuple(float(_number(t, "run.contraction_times entry")) for t in value)
        else:
            value = (_integer if key in _RUN_INT_KEYS else _number)(value, f"key {key!r} in run")
        run_kwargs[key] = value
    run = RunOptions(**run_kwargs)

    params = ProblemParameters(
        mu=values["mu"],
        sigma=values["sigma"],
        tau=values["tau"],
        lf=values["lf"],
        forcing=forcing,
        nonlinearity=nonlinearity,
    )
    return params, grid, run


def serialize_config(p: ProblemParameters, grid: Grid, run: RunOptions) -> str:
    """Serialize parameters back to the JSON schema (round-trip safe)."""
    doc = {"mu": p.mu, "sigma": p.sigma, "tau": p.tau, "lf": p.lf,
           "nonlinearity": asdict(p.nonlinearity), "forcing": asdict(p.forcing),
           "grid": asdict(grid), "run": asdict(run)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
