"""Batch command line front end.

Five subcommands drive the library end to end:

* ``certify``   — constants, spectral splitting, dimension certificates;
* ``simulate``  — one seeded trajectory with norm/far-field CSV output;
* ``spectrum``  — eigenvalues, characteristic roots, dichotomy constant;
* ``squeeze``   — seeded trajectory pairs, measured vs analytic contraction;
* ``report``    — merge the JSON artifacts of a directory into a summary.

Exit codes: 0 success, 2 configuration error, 3 infeasible certificate,
4 numerical divergence.

A history is the (S + 1, P) array of its rows on the run's grid:
`random_history` draws one, and `random_pair` and `eigenmode_pair` draw
pairs of them for ``squeeze``.

`main` parses with one argparse parser per process, built on its first
call, and sets up every run with `_load_config`: ``--seed`` and
``--snapshot-every`` replace ``run.seed`` and ``run.snapshot_every`` and
pass those keys' `RunOptions` rules.  ``certify`` and ``squeeze`` share
one gate on the standing hypotheses, `_certification`.

Reproducibility contract: all randomness flows through a single
``numpy.random.Generator`` seeded with PCG64 (documented, counter-based,
cross-platform stable); JSON is the text of ``json.dumps(sort_keys=True,
indent=2)``, built in one pass by ``_json_text``: a list whose dicts all
have one key set and whose values are exact ints or floats with a finite
sum is written by one ``%`` over its records' joined ``%r`` templates
(``_record_template``, a 64-entry LRU memo), so a 48-mode spectrum.json
takes 48 such calls for its 21-record root lists and one for its 528 root
groups; any other list writes item by item; CSV uses repr floats with '.'
decimals and LF line endings; files are written atomically (temp file +
rename).  Rerunning a subcommand with the same manifest produces
byte-identical payloads; the manifest records the sha256 of the bytes each
writer wrote (no artifact is read back to hash it) and carries the only
timestamp, which is excluded from hashing.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import hashlib
import json
import math
import os
import struct
import sys
from itertools import chain, islice, takewhile
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from . import __version__
from .estimates import (CERTIFICATE_TOLERANCE, DISSIPATIVITY_CONDITION, absorbing_time,
                        compute_estimates, far_field_radii, verify_far_field)
from .model import (
    MAX_MARCH_STEPS,
    ConfigError,
    ForcingSpec,
    Grid,
    ProblemParameters,
    RunOptions,
    parse_config,
)
from .semigroup import field_norm
from .solver import (
    DivergenceError,
    evolve,
    far_field_masses,
    grid_step,
    segment_norm,
    segment_sups,
    step_count,
)
# Not called here, but perfbench/tracing.py patches these names in this module.
from .solver import far_field_mass, integrate, segment_at  # noqa: F401
from .spectrum import ROOT_RESIDUAL_TOL, SplittingError, dichotomy_constant, spectral_partition
from .squeezing import analytic_bounds, inside_sines, make_projections, measure_contraction
from .dimension import optimize_certificate

__all__ = [
    "RunManifest",
    "cmd_certify",
    "cmd_report",
    "cmd_simulate",
    "cmd_spectrum",
    "cmd_squeeze",
    "eigenmode_pair",
    "main",
    "random_history",
    "random_pair",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGENCE = 4

SNAPSHOT_MAGIC = b"DRDF"
SNAPSHOT_VERSION = 1

# --- deterministic output helpers -------------------------------------------


def _atomic_write_bytes(path: str, payload: bytes) -> str:
    """Write ``payload`` to ``path`` atomically, by way of a temp file named
    for the process, with the mode `open` gives; returns its sha256.  An
    OSError is a ConfigError naming ``path``, and no temp file is left."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.getpid()}~")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return hashlib.sha256(payload).hexdigest()


@functools.lru_cache(maxsize=64)
def _record_template(keys: tuple, pad: str) -> str:
    """Text of a dict of the sorted str ``keys`` at indent ``pad``, a %r per value."""
    inner = pad + "  "
    return "{\n" + inner + f",\n{inner}".join(
        encode_basestring_ascii(key).replace("%", "%%") + ": %r" for key in keys) + f"\n{pad}}}"


def _plain(values: tuple) -> bool:
    """Exact ints and floats with a finite sum (an overflow, even of a list of
    records that each sum to a finite float, costs the template)."""
    try:
        return {int, float}.issuperset(map(type, values)) and math.isfinite(sum(values))
    except OverflowError:  # an int beyond the float range
        return False


def _json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` built in one pass, with
    non-finite floats as "nan"/"inf"/"-inf" and numpy scalars as floats and
    ints; ``pad`` indents its line.  Exact-type dispatch, hot cases first.
    A list of dicts that all have its first dict's 2+ keys, and whose values
    together pass `_plain`, is one ``%`` on its joined templates; any other
    list takes the general path item by item."""
    kind = type(obj)
    if kind is float:
        if math.isfinite(obj):
            return repr(obj)
        return '"nan"' if obj != obj else '"inf"' if obj > 0 else '"-inf"'
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is dict:
            items = [encode_basestring_ascii(key) + ": " + _json_text(obj[key], inner)
                     for key in sorted(obj)]
            return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
        if (type(head := obj[0]) is dict and len(head) > 1  # itemgetter: 2+ keys for a tuple
                and all(type(d) is dict and len(d) == len(head) for d in obj)):
            keys = tuple(sorted(head))
            try:
                values = tuple(chain.from_iterable(map(itemgetter(*keys), obj)))
            except KeyError:  # another key set of the same size
                values = None
            if values is not None and _plain(values):
                records = f",\n{inner}".join([_record_template(keys, inner)] * len(obj))
                return "[\n" + inner + records % values + f"\n{pad}]"
        items = [_json_text(v, inner) for v in obj]
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{pad}]"
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return repr(obj)
    if isinstance(obj, np.floating):
        return _json_text(float(obj))
    if isinstance(obj, np.integer):
        return repr(int(obj))
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def write_json(path: str, obj) -> str:
    return _atomic_write_bytes(path, (_json_text(obj) + "\n").encode("utf-8"))


def write_csv(path: str, header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    return _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_snapshot(path: str, field_values: np.ndarray, half_length: float, t: float) -> str:
    """Binary field snapshot: little-endian magic 'DRDF', uint32 version,
    uint64 npoints, float64 half-length, float64 time, float64 values."""
    header = struct.pack("<4sIQdd", SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                         field_values.size, half_length, t)
    return _atomic_write_bytes(path, header + np.asarray(field_values, dtype="<f8").tobytes())


def read_snapshot(path: str):
    """(values, half_length, t) of a `write_snapshot` file; ValueError for a
    file that is not one, or is shorter than its header or its values."""
    with open(path, "rb") as handle:
        blob = handle.read()
    header = struct.calcsize("<4sIQdd")
    if len(blob) < header:
        raise ValueError(f"truncated snapshot header: {len(blob)} of {header} bytes")
    magic, version, npoints, half_length, t = struct.unpack_from("<4sIQdd", blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot file")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    if len(blob) - header < 8 * npoints:
        raise ValueError(f"truncated snapshot values: {len(blob) - header} of "
                         f"{8 * npoints} bytes")
    values = np.frombuffer(blob, dtype="<f8", offset=header, count=npoints)
    return values.copy(), half_length, t


class RunManifest:
    """Provenance record of one subcommand run.

    The payload hash map covers every artifact written by the run; the
    timestamp lives only in the manifest and is excluded from hashing, so
    identical manifests imply byte-identical payloads.  Making a manifest
    makes its run directory, so a subcommand builds it only once every
    stage that can fail before writing has passed.  An ``out_dir`` that
    cannot be made (a file, or a path under one) is a ConfigError.
    """

    def __init__(self, config_path: str, seed: int, subcommand: str, out_dir: str):
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        self.doc = {"config_path": config_path, "seed": seed, "subcommand": subcommand,
                    "out_dir": out_dir, "version": __version__}
        self.payloads: dict = {}

    def save(self, name: str, writer, *args) -> None:
        """Write artifact ``name`` into the run directory and record the
        sha256 that ``writer`` returns for the bytes it wrote."""
        self.payloads[name] = writer(os.path.join(self.doc["out_dir"], name), *args)

    def write(self) -> None:
        write_json(os.path.join(self.doc["out_dir"], "manifest.json"), dict(
            self.doc, payload_sha256=dict(sorted(self.payloads.items())),
            generated_at=datetime.datetime.now(datetime.timezone.utc).isoformat()))


# --- seeded ensembles --------------------------------------------------------


def random_history(rng: np.random.Generator, grid: Grid, tau: float,
                   steps_per_delay: int, norm: float, modes: int = 6,
                   support: float = None) -> np.ndarray:
    """Draw the (S + 1, P) rows of a smooth random history with a prescribed
    segment norm.

    The field is a Gaussian-envelope superposition of low trigonometric
    modes, blended smoothly in theta between two independent draws, then
    rescaled so that the segment sup-norm equals ``norm`` exactly.  The
    envelope keeps the far-field mass negligible on the working box.
    """
    x = grid.nodes
    L = grid.half_length
    support = L / 4.0 if support is None else support
    envelope = np.exp(-((x / support) ** 2))

    def draw_field() -> np.ndarray:
        coeffs = rng.standard_normal((modes, 2))
        field = np.zeros_like(x)
        for j in range(1, modes + 1):
            field += (coeffs[j - 1, 0] * np.cos(j * np.pi * x / L)
                      + coeffs[j - 1, 1] * np.sin(j * np.pi * x / L))
        return envelope * field

    f0, f1 = draw_field(), draw_field()
    thetas = np.linspace(-tau, 0.0, steps_per_delay + 1)
    weight = 0.5 * (1.0 + np.cos(np.pi * (thetas + tau) / tau))  # 1 at -tau, 0 at 0
    samples = np.multiply.outer(weight, f0)
    samples += np.multiply.outer(1.0 - weight, f1)
    current = segment_norm(samples, grid)
    if current == 0.0 or norm == 0.0:
        return np.zeros_like(samples)
    samples *= norm / current
    return samples


def random_pair(rng: np.random.Generator, grid: Grid, tau: float,
                steps_per_delay: int, norm: float, separation: float):
    """A base history and a broadband perturbation of it, as two (S + 1, P)
    row arrays.

    The perturbation mixes 10 modes, more (and higher) than the base's 6,
    under a wider Gaussian envelope (half-width L/2.5 against L/4), so the
    difference has content in all three projection ranges.
    """
    phi = random_history(rng, grid, tau, steps_per_delay, norm)
    bump = random_history(rng, grid, tau, steps_per_delay, separation,
                          modes=10, support=grid.half_length / 2.5)
    return phi, phi + bump


def eigenmode_pair(rng: np.random.Generator, grid: Grid, p: ProblemParameters,
                   spectral, steps_per_delay: int, norm: float, separation: float):
    """A pair of (S + 1, P) history row arrays whose difference lies in the
    span of the inside modes.

    The perturbation combines the leading Dirichlet sine modes of Omega_K
    (zero-extended), among the first six, that have a root in the search
    window (roots move left as the eigenvalue grows, so only trailing modes
    lack one), each carried backward in theta by its own dominant decay
    rate, so the difference history is dynamically consistent with the
    linear flow.  This is the regime the contraction bounds describe;
    box-wide slowly-decaying content (which the inside splitting never
    sees) is deliberately excluded.
    """
    phi = random_history(rng, grid, p.tau, steps_per_delay, norm)
    thetas = np.linspace(-p.tau, 0.0, steps_per_delay + 1)
    rooted = list(takewhile(lambda mr: mr.roots, spectral.mode_roots[:6]))
    # the rightmost root: branch 0, real whenever one is
    rates = np.array([mr.roots[0].real for mr in rooted])
    weights = np.exp(np.multiply.outer(thetas, rates))
    weights *= rng.standard_normal(len(rooted)) / np.arange(1, len(rooted) + 1)
    bump = weights @ inside_sines(grid, spectral.K, len(rooted)).T
    scale = segment_norm(bump, grid)
    if scale > 0:
        bump *= separation / scale
    bump += phi
    return phi, bump


# --- shared pipeline pieces ---------------------------------------------------


def _load_config(path: str, **flags):
    """(params, grid, run) of the config at ``path``.  Each flag given (not
    None) replaces its run key through `RunOptions`, so it passes the key's
    own rule: ``seed=-1`` fails as "run.seed must be nonnegative and at most
    2**64 - 1"."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    p, grid, run = parse_config(text)
    return p, grid, dataclasses.replace(run, **{k: v for k, v in flags.items() if v is not None})


# I = integral over [-1, 1] of exp(2 - 2 / (1 - r^2)) dr = 0.98338081291272...,
# the squared L2 norm of the compact bump of unit amplitude and width, by the
# trapezoidal rule with h = 1/128 (the end nodes add 0).  Every derivative of
# the integrand vanishes at r = +-1, so the Euler-Maclaurin corrections are 0
# and the error falls faster than any power of h: h = 1/32 is 8e-10 off,
# h = 1/64 is 5e-14 off, and h = 1/128 to 1/2048 agree within an ulp.
_COMPACT_BUMP_SQUARE = float(np.exp(2.0 - 2.0 / (1.0 - (np.arange(-127, 128) / 128.0) ** 2))
                             .sum()) / 128.0


def _forcing_norm(forcing: ForcingSpec) -> float:
    """||g|| in L2 of the whole line, in closed form: |A| (w sqrt(pi))^(1/2)
    for the Gaussian bump and |A| (w I)^(1/2) for the compact bump (A the
    amplitude, w the width), so it does not depend on the box or the centre."""
    if forcing.kind == "zero" or forcing.amplitude == 0.0:  # 0 * inf for the widest bumps
        return 0.0
    square = math.sqrt(math.pi) if forcing.kind == "gaussian_bump" else _COMPACT_BUMP_SQUARE
    return abs(forcing.amplitude) * math.sqrt(forcing.width * square)


def _spectral_bundle(p: ProblemParameters, grid: Grid, run: RunOptions):
    """The spectral data and its spectrum.json document.  K_m (and the
    "dichotomy", drawn with ``run.seed``) is attached only to a certified one."""
    if run.cutoff_radius >= grid.half_length / 4:
        raise ConfigError("run.cutoff_radius must satisfy K < L/4 (grid half_length L)")
    spectral = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes)
    if not spectral.certificate_ok:
        return spectral, spectral.as_dict()
    rng = np.random.default_rng(np.random.PCG64(run.seed))
    dichotomy = dichotomy_constant(p, spectral, run.dichotomy_samples, rng=rng)
    spectral = dataclasses.replace(spectral, K_m=dichotomy["K_m"])
    return spectral, dict(spectral.as_dict(), dichotomy=dichotomy)


def _certification(p: ProblemParameters, grid: Grid, run: RunOptions):
    """(estimates, spectral data, spectrum.json document, diagnostics): one
    line per failed standing hypothesis, in order dissipativity beta < mu,
    rho_m < 0, every mode complete, energy gap mu - sigma - 1 > 0.  Empty
    exactly when the run is dissipative, energy-feasible and has a K_m."""
    est = compute_estimates(p, _forcing_norm(p.forcing), norm_phi0=run.history_norm)
    spectral, spec_doc = _spectral_bundle(p, grid, run)
    diagnostics = []
    if not est.dissipative:
        diagnostics.append(f"dissipativity condition {DISSIPATIVITY_CONDITION} violated: "
                           f"beta={est.beta!r} >= mu={p.mu!r}")
    diagnostics += _spectral_diagnostics(spectral)
    if not est.energy_feasible:
        diagnostics.append("energy gap mu - sigma - 1 <= 0: c1/c4/c5 infeasible")
    return est, spectral, spec_doc, diagnostics


def _spectral_diagnostics(spectral) -> list:
    """One line per failed spectral hypothesis, rho_m < 0 then every mode
    complete: empty exactly when ``spectral.certificate_ok``."""
    lines = [] if spectral.rho_m < 0 else ["spectral splitting unavailable (rho_m >= 0)"]
    incomplete = [mr.mode for mr in spectral.mode_roots if not mr.complete]
    if incomplete:
        lines.append(f"mode {incomplete[0]}: characteristic roots incomplete "
                     f"(residual above {ROOT_RESIDUAL_TOL!r})")
    return lines


def _infeasible(diagnostics: list) -> int:
    """Exit 3, with one ``infeasible: <line>`` on stderr per diagnostic."""
    for line in diagnostics:
        print(f"infeasible: {line}", file=sys.stderr)
    return EXIT_INFEASIBLE


# --- subcommands --------------------------------------------------------------


def cmd_certify(config_path: str, out_dir: str, p: ProblemParameters, grid: Grid,
                run: RunOptions) -> int:
    """Full certification pipeline: estimates, spectrum, dimension bounds.
    Both stages that can fail run before anything is written, so a failed
    run leaves no unhashed artifact.  A failed `_certification` hypothesis
    is a diagnostic, and the certificates are not searched."""
    est, spectral, spec_doc, diagnostics = _certification(p, grid, run)
    T_D = absorbing_time(p, est, norm_D=run.history_norm)
    manifest = RunManifest(config_path, run.seed, "certify", out_dir)
    manifest.save("estimates.json", write_json,
                  dict(dataclasses.asdict(est), T_D=T_D, norm_D=run.history_norm,
                       dissipativity_condition=DISSIPATIVITY_CONDITION))
    manifest.save("spectrum.json", write_json, spec_doc)

    cert_doc = {}
    if not diagnostics:
        for mode, cert in optimize_certificate(p, spectral, est).items():
            cert_doc[mode] = dataclasses.asdict(cert)
            if not cert.feasible:
                name, number = ("Hausdorff", "eta") if mode == "hausdorff" else ("fractal", "zeta")
                diagnostics.append(f"no feasible {name} certificate ({number} >= 1 everywhere)")
    cert_doc["diagnostics"] = diagnostics
    cert_doc["feasible"] = not diagnostics
    manifest.save("certificate.json", write_json, cert_doc)
    manifest.write()

    return _infeasible(diagnostics) if diagnostics else EXIT_OK


def cmd_simulate(config_path: str, out_dir: str, p: ProblemParameters, grid: Grid,
                 run: RunOptions) -> int:
    """Integrate one trajectory from a ``run.seed`` history; export norm and
    far-field CSVs, a snapshot every ``run.snapshot_every`` steps and the
    far-field verdict at ``run.eps``.  Rows are reduced S = steps_per_delay
    at a time as `evolve` yields them, so memory is O(S P) plus O(N) scalars."""
    S, dt = run.steps_per_delay, p.tau / run.steps_per_delay
    steps = step_count(run.horizon, dt)
    if steps > MAX_MARCH_STEPS:
        raise ConfigError(f"run.horizon must be at most {MAX_MARCH_STEPS} steps of dt = {dt!r}")
    manifest = RunManifest(config_path, run.seed, "simulate", out_dir)
    rng = np.random.default_rng(np.random.PCG64(run.seed))
    phi = random_history(rng, grid, p.tau, S, run.history_norm)
    radii = far_field_radii(grid.half_length)

    def tails(rows):  # one column per radius: the cutoff, then `radii`
        return np.stack([far_field_masses(rows, grid, K)
                         for K in (run.cutoff_radius, *radii)], axis=-1)

    rows = chain([phi[-1]], chain.from_iterable(evolve(phi, steps, p, grid)))
    norms, masses = [], []
    while block := list(islice(rows, S)):
        for n, row in enumerate(block, start=len(norms)):
            norms.append(field_norm(row, grid))
            if run.snapshot_every > 0 and n % run.snapshot_every == 0:
                manifest.save(f"field_{n:08d}.bin", write_snapshot, row, grid.half_length, n * dt)
        masses.append(tails(np.stack(block)))
    sups = segment_sups(tails(phi), np.concatenate(masses))

    manifest.save("norms.csv", write_csv, ("t", "norm_u", "farfield_mass"),
                  [(n * dt, norm, sups[n, 0]) for n, norm in enumerate(norms)])
    manifest.save("farfield.csv", write_csv, ("t", *(f"mass_K={K!r}" for K in radii)),
                  [(n * dt, *sups[n, 1:]) for n in range(0, len(norms), max(1, S // 2))])
    manifest.save("farfield_check.json", write_json,
                  verify_far_field(sups[:, 1:], dt, run.eps, radii))
    manifest.write()
    return EXIT_OK


def cmd_spectrum(config_path: str, out_dir: str, p: ProblemParameters, grid: Grid,
                 run: RunOptions) -> int:
    """Spectral data only: eigenvalues, roots, splitting, dichotomy.  The
    spectral stage runs before the output directory is made.  An unsplit or
    incomplete spectrum exits 3 with certify's spectral ``infeasible:``
    lines."""
    spectral, doc = _spectral_bundle(p, grid, run)
    manifest = RunManifest(config_path, run.seed, "spectrum", out_dir)
    manifest.save("spectrum.json", write_json, doc)
    manifest.write()
    diagnostics = _spectral_diagnostics(spectral)
    return _infeasible(diagnostics) if diagnostics else EXIT_OK


def cmd_squeeze(config_path: str, out_dir: str, p: ProblemParameters, grid: Grid,
                run: RunOptions) -> int:
    """Measure P/Q/R contraction on pairs drawn with ``run.seed``; exit 3,
    with certify's ``infeasible:`` lines, if `_certification` finds a
    standing hypothesis failed.  The output directory is made only once
    every stage that can fail has passed."""
    dt = p.tau / run.steps_per_delay
    try:  # measure_contraction marches to the grid_step of each time
        aligned = all(grid_step(t, dt) <= MAX_MARCH_STEPS for t in run.contraction_times)
    except ValueError:
        aligned = False
    if not aligned:
        raise ConfigError(f"run.contraction_times must be multiples n * dt of dt = {dt!r} "
                          f"with 0 <= n <= {MAX_MARCH_STEPS}")
    est, spectral, _, diagnostics = _certification(p, grid, run)
    if diagnostics:
        return _infeasible(diagnostics)
    ps = make_projections(grid, run.cutoff_radius, spectral.k_m)
    manifest = RunManifest(config_path, run.seed, "squeeze", out_dir)

    # drawn lazily, a pair at a time; integrating draws nothing from rng
    rng = np.random.default_rng(np.random.PCG64(run.seed))
    pairs = (eigenmode_pair(rng, grid, p, spectral, run.steps_per_delay,
                            norm=run.history_norm,
                            separation=0.3 * run.history_norm)
             for _ in range(run.ensemble))
    times = run.contraction_times
    denoms, measured = measure_contraction(pairs, times, p, ps)
    bounds = np.array([[b["bP"], b["bQ"], b["bR"]]
                       for b in (analytic_bounds(t, p, spectral, est) for t in times)])

    # one row per differing pair and time: t, then measured and bound of P, Q, R
    table = np.empty((len(measured), len(times), 7))
    table[..., 0], table[..., 1::2], table[..., 2::2] = times, measured, bounds
    manifest.save("contraction.csv", write_csv, ("t", "measured_P", "bound_P", "measured_Q",
                                                 "bound_Q", "measured_R", "bound_R"),
                  table.reshape(-1, 7))

    ratios = measured / bounds
    worst = np.max(ratios, axis=(0, 1), initial=0.0)
    limit = 1.0 + CERTIFICATE_TOLERANCE
    summary = {
        "pairs": run.ensemble,
        "times": list(times),
        "zero_difference": int(np.sum(denoms == 0.0)) * len(times),
        **{f"worst_ratio_{part}": float(v) for part, v in zip("PQR", worst)},
        "within_bounds": bool(np.all(worst <= limit)),
    }
    manifest.save("squeeze.json", write_json, summary)
    manifest.write()
    if summary["within_bounds"]:
        return EXIT_OK
    # each part over the limit, at its worst pair and time; pairs count from 1
    # in draw order, and the ratios hold the differing ones only
    drawn = np.flatnonzero(denoms != 0.0) + 1
    lines = []
    for j, part in enumerate("PQR"):
        if not worst[j] <= limit:
            pair, n = divmod(int(np.argmax(ratios[..., j])), len(times))
            lines.append(f"measured/bound {part} {worst[j]:.4g} > {limit!r} "
                         f"at t = {times[n]!r} (pair {drawn[pair]})")
    return _infeasible(lines)


# summary.txt lines of the plain-record artifacts, filled in by str.format_map
_REPORT_LINES = {
    "estimates.json": ("dissipative: {dissipative} (beta={beta}, "
                       "condition: {dissipativity_condition})",
                       "absorbing radius c3: {c3}  (T_D for norm {norm_D}: {T_D})"),
    "spectrum.json": ("splitting: k_m={k_m} rho1={rho1} rho_m={rho_m} K_m={K_m}",),
    "squeeze.json": ("squeeze: worst measured/bound ratios P={worst_ratio_P} "
                     "Q={worst_ratio_Q} R={worst_ratio_R} within_bounds={within_bounds}",),
}


def _certificate_summary(cert) -> tuple:
    """summary.csv rows, certificate lines and diagnostic lines of one
    certificate.json document."""
    rows = []
    for mode, free_key, contraction_key in (("hausdorff", "alpha", "eta"),
                                            ("fractal", "beta_free", "zeta")):
        if mode in cert:
            c = cert[mode]
            rows.append((mode, str(c["feasible"]), c[f"{mode}_bound"], c["k_m"], c["t0"],
                         c[free_key], c[contraction_key]))
    lines = [f"{mode}: bound={bound} (k_m={k_m}, t0={t0}, free={free}, "
             f"contraction={contraction})"
             for mode, _, bound, k_m, t0, free, contraction in rows]
    return rows, lines, [f"diagnostic: {line}" for line in cert.get("diagnostics", [])]


def cmd_report(directory: str) -> int:
    """Merge the JSON artifacts of a directory into summary.csv/summary.txt.
    Every artifact is read, checked against manifest.json's payload_sha256
    when the manifest lists it, and formatted before anything is written.
    A missing, edited or malformed artifact (nested too deep to parse
    included) exits 2 and removes the summary files of an earlier report, so
    no summary outlives its artifacts."""

    def refuse(message: str) -> int:
        print(message, file=sys.stderr)
        for name in ("summary.csv", "summary.txt"):
            if os.path.isfile(os.path.join(directory, name)):
                os.remove(os.path.join(directory, name))
        return EXIT_CONFIG

    required = ("estimates.json", "spectrum.json", "certificate.json")
    names = [name for name in ("manifest.json", *required, "squeeze.json")
             if os.path.exists(os.path.join(directory, name))]
    missing = [name for name in required if name not in names]
    if missing:
        return refuse("missing artifacts: " + ", ".join(missing))

    hashes, sections = {}, {}
    for name in names:
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                blob = handle.read()
            if name in hashes and hashlib.sha256(blob).hexdigest() != hashes[name]:
                return refuse(f"malformed artifact {name}: sha256 differs from manifest.json")
            doc = json.loads(blob.decode("utf-8"))
            if name == "manifest.json":
                hashes = dict(doc["payload_sha256"])
            else:
                sections[name] = (_certificate_summary(doc) if name == "certificate.json" else
                                  [line.format_map(doc) for line in _REPORT_LINES[name]])
        except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            return refuse(f"malformed artifact {name}: {exc!r}")
    rows, certificates, diagnostics = sections["certificate.json"]
    lines = ["certification summary", "=====================", *sections["estimates.json"],
             *sections["spectrum.json"], *certificates, *sections.get("squeeze.json", []),
             *diagnostics]

    write_csv(os.path.join(directory, "summary.csv"), ("certificate", "feasible", "bound",
              "k_m", "t0", "free_parameter", "contraction"), rows)
    _atomic_write_bytes(os.path.join(directory, "summary.txt"),
                        ("\n".join(lines) + "\n").encode("utf-8"))
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


@functools.cache  # built on the first main() call, then shared by every later one
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayrd",
        description="certification toolkit for the delayed reaction-diffusion equation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="path to JSON configuration")
        sp.add_argument("--seed", type=int, default=None,
                        help="PCG64 seed (overrides run.seed from the config)")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--parallel", type=int, default=1,
                        help="accepted and ignored: every subcommand runs serially")

    add_common(sub.add_parser("certify", help="compute constants and dimension bounds"))
    simulate = sub.add_parser("simulate", help="integrate one seeded trajectory")
    add_common(simulate)
    simulate.add_argument("--snapshot-every", type=int, default=None,
                          help="snapshot stride in steps (overrides run.snapshot_every)")
    add_common(sub.add_parser("spectrum", help="characteristic roots and splitting"))
    add_common(sub.add_parser("squeeze", help="measure contraction on seeded pairs"))
    report = sub.add_parser("report", help="merge artifacts into a summary")
    report.add_argument("--dir", required=True, help="artifact directory")
    return parser


_COMMANDS = {"certify": cmd_certify, "simulate": cmd_simulate, "spectrum": cmd_spectrum,
             "squeeze": cmd_squeeze}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "report":
            return cmd_report(args.dir)
        setup = _load_config(args.config, seed=args.seed,
                             snapshot_every=getattr(args, "snapshot_every", None))
        return _COMMANDS[args.subcommand](args.config, args.out, *setup)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SplittingError as exc:
        return _infeasible([str(exc)])
    except DivergenceError as exc:
        print(f"divergence at step {exc.step}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
