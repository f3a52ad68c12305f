"""Batch command line front end.

Five subcommands drive the library end to end:

* ``certify``   — constants, spectral splitting, dimension certificates;
* ``simulate``  — one seeded trajectory with norm/far-field CSV output;
* ``spectrum``  — eigenvalues, characteristic roots, dichotomy constant;
* ``squeeze``   — seeded trajectory pairs, measured vs analytic contraction;
* ``report``    — merge the JSON artifacts of a directory into a summary.

Exit codes: 0 success, 2 configuration error, 3 infeasible certificate,
4 numerical divergence.

Reproducibility contract: all randomness flows through a single
``numpy.random.Generator`` seeded with PCG64 (documented, counter-based,
cross-platform stable); JSON is the text of ``json.dumps(sort_keys=True,
indent=2)``, built in one pass by ``_json_text``; CSV uses repr floats with
'.' decimals and LF line endings; files are written atomically
(temp file + rename).  Rerunning a subcommand with the same manifest
produces byte-identical payloads; the manifest records their sha256 hashes
and carries the only timestamp, which is excluded from hashing.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import os
import struct
import sys
import tempfile
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .estimates import absorbing_time, compute_estimates, far_field_radii, verify_far_field
from .model import (
    MAX_MARCH_STEPS,
    ConfigError,
    Grid,
    ProblemParameters,
    RunOptions,
    check_dissipativity,
    evaluate_forcing,
    parse_config,
)
from .semigroup import Field, field_norm
from .solver import (
    DivergenceError,
    HistorySegment,
    evolve,
    far_field_masses,
    segment_norm,
    segment_sups,
    step_count,
)
# Not called here, but perfbench/tracing.py patches these names in this module.
from .solver import far_field_mass, integrate, segment_at  # noqa: F401
from .spectrum import SplittingError, dichotomy_constant, spectral_partition
from .squeezing import make_projections, measure_contraction
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

DISSIPATIVITY_CONDITION = "sigma*(L_f+1)*exp(mu*tau) - mu < 0"


# --- deterministic output helpers -------------------------------------------


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` built in one pass, with
    non-finite floats as "nan"/"inf"/"-inf" and numpy scalars as floats and
    ints; ``pad`` indents its line.  Exact-type dispatch, hot cases first."""
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
            items = [f"{encode_basestring_ascii(key)}: {_json_text(obj[key], inner)}"
                     for key in sorted(obj)]
            return "{\n" + inner + f",\n{inner}".join(items) + f"\n{pad}}}"
        return "[\n" + inner + f",\n{inner}".join([_json_text(v, inner) for v in obj]) + f"\n{pad}]"
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


def write_json(path: str, obj) -> None:
    _atomic_write_bytes(path, (_json_text(obj) + "\n").encode("utf-8"))


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_snapshot(path: str, field_values: np.ndarray, half_length: float, t: float) -> None:
    """Binary field snapshot: little-endian magic 'DRDF', uint32 version,
    uint64 npoints, float64 half-length, float64 time, float64 values."""
    header = struct.pack("<4sIQdd", SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                         field_values.size, half_length, t)
    _atomic_write_bytes(path, header + np.asarray(field_values, dtype="<f8").tobytes())


def read_snapshot(path: str):
    with open(path, "rb") as handle:
        blob = handle.read()
    magic, version, npoints, half_length, t = struct.unpack_from("<4sIQdd", blob, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot file")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    values = np.frombuffer(blob, dtype="<f8", offset=struct.calcsize("<4sIQdd"),
                           count=npoints)
    return values.copy(), half_length, t


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """Provenance record of one subcommand run.

    The payload hash map covers every artifact written by the run; the
    timestamp lives only in the manifest and is excluded from hashing, so
    identical manifests imply byte-identical payloads.
    """

    def __init__(self, config_path: str, seed: int, subcommand: str, out_dir: str):
        self.config_path = config_path
        self.seed = seed
        self.subcommand = subcommand
        self.out_dir = out_dir
        self.version = __version__
        self.payloads: dict = {}

    def record(self, path: str) -> None:
        self.payloads[os.path.basename(path)] = _sha256(path)

    def save(self, name: str, writer, *args) -> None:
        """Write artifact ``name`` into the run directory and record it."""
        path = os.path.join(self.out_dir, name)
        writer(path, *args)
        self.record(path)

    def write(self) -> None:
        doc = {
            "config_path": self.config_path,
            "seed": self.seed,
            "subcommand": self.subcommand,
            "out_dir": self.out_dir,
            "version": self.version,
            "payload_sha256": dict(sorted(self.payloads.items())),
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        write_json(os.path.join(self.out_dir, "manifest.json"), doc)


# --- seeded ensembles --------------------------------------------------------


def random_history(rng: np.random.Generator, grid: Grid, tau: float,
                   steps_per_delay: int, norm: float, modes: int = 6,
                   support: float = None) -> HistorySegment:
    """Draw a smooth random history with a prescribed segment norm.

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
    samples = np.outer(weight, f0) + np.outer(1.0 - weight, f1)
    seg = HistorySegment(samples, grid, tau, steps_per_delay)
    current = segment_norm(seg)
    if current == 0.0 or norm == 0.0:
        return HistorySegment(np.zeros_like(samples), grid, tau, steps_per_delay)
    return HistorySegment(samples * (norm / current), grid, tau, steps_per_delay)


def random_pair(rng: np.random.Generator, grid: Grid, tau: float,
                steps_per_delay: int, norm: float, separation: float,
                modes: int = 10, support: float = None):
    """A base history and a broadband perturbation of it.

    The perturbation mixes more (and higher) modes than the base so the
    difference has content in all three projection ranges; ``support``
    sets the Gaussian envelope width of the perturbation (default L/2.5).
    """
    phi = random_history(rng, grid, tau, steps_per_delay, norm)
    support = grid.half_length / 2.5 if support is None else support
    bump = random_history(rng, grid, tau, steps_per_delay, separation,
                          modes=modes, support=support)
    psi = HistorySegment(phi.samples + bump.samples, grid, tau, steps_per_delay)
    return phi, psi


def eigenmode_pair(rng: np.random.Generator, grid: Grid, p: ProblemParameters,
                   spectral, steps_per_delay: int, norm: float,
                   separation: float, modes_used: int = 6):
    """A pair whose difference lies in the span of the inside modes.

    The perturbation combines the first ``modes_used`` Dirichlet sine
    modes of Omega_K (zero-extended), each carried backward in theta by
    its own dominant decay rate, so the difference history is dynamically
    consistent with the linear flow.  This is the regime the contraction
    bounds describe; box-wide slowly-decaying content (which the inside
    splitting never sees) is deliberately excluded.
    """
    phi = random_history(rng, grid, p.tau, steps_per_delay, norm)
    K = spectral.K
    x = grid.nodes
    inside = np.abs(x) < K
    thetas = np.linspace(-p.tau, 0.0, steps_per_delay + 1)
    count = min(modes_used, len(spectral.mode_roots))
    bump = np.zeros((steps_per_delay + 1, grid.points))
    for j in range(1, count + 1):
        mode = np.zeros_like(x)
        mode[inside] = np.sin(j * math.pi * (x[inside] + K) / (2.0 * K))
        mr = spectral.mode_roots[j - 1]
        rho_j = max((r.real for r in mr.roots if r.imag == 0),
                    default=mr.roots[0].real)
        bump += (rng.standard_normal() / j) * np.outer(np.exp(rho_j * thetas), mode)
    seg = HistorySegment(bump, grid, p.tau, steps_per_delay)
    scale = segment_norm(seg)
    if scale > 0:
        bump = bump * (separation / scale)
    psi = HistorySegment(phi.samples + bump, grid, p.tau, steps_per_delay)
    return phi, psi


# --- shared pipeline pieces ---------------------------------------------------


def _load_config(path: str, seed: int | None):
    """(params, grid, run, seed); a ``seed`` of None means ``run.seed``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    p, grid, run = parse_config(text)
    return p, grid, run, run.seed if seed is None else seed


def _forcing_norm(p: ProblemParameters, grid: Grid) -> float:
    return field_norm(Field(values=evaluate_forcing(p.forcing, grid.nodes), grid=grid))


def _spectral_bundle(p: ProblemParameters, grid: Grid, run: RunOptions, seed: int):
    if run.cutoff_radius >= grid.half_length / 4:
        raise ConfigError("run.cutoff_radius must satisfy K < L/4 (grid half_length L)")
    spectral = spectral_partition(p, run.cutoff_radius, run.m_cut, run.modes)
    dichotomy = None
    if spectral.rho_m < 0:
        rng = np.random.default_rng(np.random.PCG64(seed))
        dichotomy = dichotomy_constant(p, spectral, run.dichotomy_samples, rng=rng)
        spectral = dataclasses.replace(spectral, K_m=dichotomy["K_m"])
    return spectral, dichotomy


# --- subcommands --------------------------------------------------------------


def cmd_certify(config_path: str, seed: int | None, out_dir: str) -> int:
    """Full certification pipeline: estimates, spectrum, dimension bounds.
    Both stages that can fail run before anything is written, so a failed
    run leaves no unhashed artifact."""
    p, grid, run, seed = _load_config(config_path, seed)
    norm_g = _forcing_norm(p, grid)
    est = compute_estimates(p, norm_g, norm_phi0=run.history_norm)
    T_D = absorbing_time(p, est, norm_D=run.history_norm)
    gate = check_dissipativity(p)
    diagnostics = []
    if not gate.holds:
        diagnostics.append(
            f"dissipativity condition {DISSIPATIVITY_CONDITION} violated: "
            f"beta={gate.beta!r} >= mu={p.mu!r}"
        )

    spectral, dichotomy = _spectral_bundle(p, grid, run, seed)

    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(config_path, seed, "certify", out_dir)
    est_doc = est.as_dict()
    est_doc.update(T_D=T_D, norm_D=run.history_norm,
                   dissipativity_condition=DISSIPATIVITY_CONDITION)
    manifest.save("estimates.json", write_json, est_doc)
    spec_doc = spectral.as_dict()
    if dichotomy is not None:
        spec_doc["dichotomy"] = dichotomy
    manifest.save("spectrum.json", write_json, spec_doc)

    cert_doc = {}
    if spectral.K_m is not None and est.energy_feasible and est.dissipative:
        hausdorff = optimize_certificate(p, spectral, est, mode="hausdorff")
        fractal = optimize_certificate(p, spectral, est, mode="fractal")
        cert_doc["hausdorff"] = hausdorff.as_dict()
        cert_doc["fractal"] = fractal.as_dict()
        if not hausdorff.feasible:
            diagnostics.append("no feasible Hausdorff certificate (eta >= 1 everywhere)")
        if not fractal.feasible:
            diagnostics.append("no feasible fractal certificate (zeta >= 1 everywhere)")
    else:
        if spectral.K_m is None:
            diagnostics.append("spectral splitting unavailable (rho_m >= 0)")
        if not est.energy_feasible:
            diagnostics.append("energy gap mu - sigma - 1 <= 0: c1/c4/c5 infeasible")
    cert_doc["diagnostics"] = diagnostics
    cert_doc["feasible"] = not diagnostics
    manifest.save("certificate.json", write_json, cert_doc)
    manifest.write()

    if diagnostics:
        for line in diagnostics:
            print(f"infeasible: {line}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_simulate(config_path: str, seed: int | None, out_dir: str,
                 snapshot_every: int = None) -> int:
    """Integrate one seeded trajectory and export norm/far-field CSVs plus
    the far-field threshold verdict at the configured tolerance.  Rows are
    reduced S = steps_per_delay at a time as `evolve` yields them, so memory
    is O(S P) plus O(N) scalars."""
    p, grid, run, seed = _load_config(config_path, seed)
    S, dt = run.steps_per_delay, p.tau / run.steps_per_delay
    steps = step_count(run.horizon, dt)
    if steps > MAX_MARCH_STEPS:
        raise ConfigError(f"run.horizon must be at most {MAX_MARCH_STEPS} steps of dt = {dt!r}")
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(config_path, seed, "simulate", out_dir)
    rng = np.random.default_rng(np.random.PCG64(seed))
    phi = random_history(rng, grid, p.tau, S, run.history_norm)
    every = run.snapshot_every if snapshot_every is None else snapshot_every
    radii = far_field_radii(grid.half_length)

    def tails(rows):  # one column per radius: the cutoff, then `radii`
        return np.stack([far_field_masses(rows, grid, K)
                         for K in (run.cutoff_radius, *radii)], axis=-1)

    rows = chain([phi.samples[-1]], (w[-1] for w in evolve(phi, steps, p)))
    norms, masses = [], []
    while block := list(islice(rows, S)):
        for n, row in enumerate(block, start=len(norms)):
            norms.append(field_norm(Field(values=row, grid=grid)))
            if every > 0 and n % every == 0:
                manifest.save(f"field_{n:08d}.bin", write_snapshot, row, grid.half_length, n * dt)
        masses.append(tails(np.stack(block)))
    sups = segment_sups(tails(phi.samples), np.concatenate(masses))

    manifest.save("norms.csv", write_csv, ("t", "norm_u", "farfield_mass"),
                  [(n * dt, norm, sups[n, 0]) for n, norm in enumerate(norms)])
    manifest.save("farfield.csv", write_csv, ("t", *(f"mass_K={K!r}" for K in radii)),
                  [(n * dt, *sups[n, 1:]) for n in range(0, len(norms), max(1, S // 2))])
    manifest.save("farfield_check.json", write_json,
                  verify_far_field(sups[:, 1:], dt, run.eps, radii))
    manifest.write()
    return EXIT_OK


def cmd_spectrum(config_path: str, seed: int | None, out_dir: str) -> int:
    """Spectral data only: eigenvalues, roots, splitting, dichotomy.  The
    spectral stage runs before the output directory is made."""
    p, grid, run, seed = _load_config(config_path, seed)
    spectral, dichotomy = _spectral_bundle(p, grid, run, seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(config_path, seed, "spectrum", out_dir)
    doc = spectral.as_dict()
    if dichotomy is not None:
        doc["dichotomy"] = dichotomy
    manifest.save("spectrum.json", write_json, doc)
    manifest.write()
    return EXIT_OK if spectral.certificate_ok else EXIT_INFEASIBLE


def cmd_squeeze(config_path: str, seed: int | None, out_dir: str) -> int:
    """Measure P/Q/R contraction on seeded trajectory pairs.  The output
    directory is made only once every stage that can fail before the
    march has passed."""
    p, grid, run, seed = _load_config(config_path, seed)
    dt = p.tau / run.steps_per_delay
    if any(not 0 <= t / dt <= MAX_MARCH_STEPS or abs(t / dt - round(t / dt)) > 1e-9
           for t in run.contraction_times):  # measure_contraction's grid rule
        raise ConfigError(f"run.contraction_times must be multiples n * dt of dt = {dt!r} "
                          f"with 0 <= n <= {MAX_MARCH_STEPS}")
    norm_g = _forcing_norm(p, grid)
    est = compute_estimates(p, norm_g, norm_phi0=run.history_norm)
    spectral, _ = _spectral_bundle(p, grid, run, seed)
    if spectral.K_m is None or not est.dissipative or not est.energy_feasible:
        print("squeeze requires a dissipative configuration with rho_m < 0 "
              "and mu - sigma - 1 > 0", file=sys.stderr)
        return EXIT_INFEASIBLE
    ps = make_projections(grid, run.cutoff_radius, spectral.k_m)
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(config_path, seed, "squeeze", out_dir)

    # drawn lazily, a group at a time; integrating draws nothing from rng
    rng = np.random.default_rng(np.random.PCG64(seed))
    pairs = (eigenmode_pair(rng, grid, p, spectral, run.steps_per_delay,
                            norm=run.history_norm,
                            separation=0.3 * run.history_norm)
             for _ in range(run.ensemble))
    reports = measure_contraction(pairs, run.contraction_times, p, ps,
                                  spectral=spectral, est=est)

    rows = []
    worst = {"P": 0.0, "Q": 0.0, "R": 0.0}
    zero_diff = 0
    for rep in reports:
        if rep["status"] == "zero-difference":
            zero_diff += 1
            continue
        rows.append((rep["t"], rep["measured_P"], rep["bound_P"],
                     rep["measured_Q"], rep["bound_Q"],
                     rep["measured_R"], rep["bound_R"]))
        for part in ("P", "Q", "R"):
            ratio = rep[f"measured_{part}"] / rep[f"bound_{part}"]
            worst[part] = max(worst[part], ratio)
    manifest.save("contraction.csv", write_csv, ("t", "measured_P", "bound_P", "measured_Q",
                                                 "bound_Q", "measured_R", "bound_R"), rows)

    summary = {
        "pairs": run.ensemble,
        "times": list(run.contraction_times),
        "zero_difference": zero_diff,
        "worst_ratio_P": worst["P"],
        "worst_ratio_Q": worst["Q"],
        "worst_ratio_R": worst["R"],
        "within_bounds": all(v <= 1.05 for v in worst.values()),
    }
    manifest.save("squeeze.json", write_json, summary)
    manifest.write()
    return EXIT_OK if summary["within_bounds"] else EXIT_INFEASIBLE


def cmd_report(directory: str) -> int:
    """Merge the JSON artifacts of a directory into summary.csv/summary.txt."""
    wanted = ("estimates.json", "spectrum.json", "certificate.json")
    missing = [name for name in wanted
               if not os.path.exists(os.path.join(directory, name))]
    if missing:
        print("missing artifacts: " + ", ".join(missing), file=sys.stderr)
        return EXIT_CONFIG

    docs = {}
    for name in wanted:
        with open(os.path.join(directory, name), "r", encoding="utf-8") as handle:
            docs[name] = json.load(handle)
    squeeze_path = os.path.join(directory, "squeeze.json")
    if os.path.exists(squeeze_path):
        with open(squeeze_path, "r", encoding="utf-8") as handle:
            docs["squeeze.json"] = json.load(handle)

    est = docs["estimates.json"]
    spec = docs["spectrum.json"]
    cert = docs["certificate.json"]

    header = ["certificate", "feasible", "bound", "k_m", "t0", "free_parameter",
              "contraction"]
    rows = []
    for mode in ("hausdorff", "fractal"):
        if mode not in cert:
            continue
        c = cert[mode]
        free = c["alpha"] if mode == "hausdorff" else c["beta_free"]
        contraction = c["eta"] if mode == "hausdorff" else c["zeta"]
        rows.append((mode, str(c["feasible"]),
                     c[f"{mode}_bound"], c["k_m"], c["t0"], free, contraction))
    summary_csv = os.path.join(directory, "summary.csv")
    write_csv(summary_csv, header, rows)

    lines = ["certification summary", "====================="]
    lines.append(f"dissipative: {est['dissipative']} (beta={est['beta']}, "
                 f"condition: {est['dissipativity_condition']})")
    lines.append(f"absorbing radius c3: {est['c3']}  (T_D for norm {est['norm_D']}: "
                 f"{est['T_D']})")
    lines.append(f"splitting: k_m={spec['k_m']} rho1={spec['rho1']} "
                 f"rho_m={spec['rho_m']} K_m={spec['K_m']}")
    for mode, _, bound, k_m, t0, free, contraction in rows:
        lines.append(f"{mode}: bound={bound} (k_m={k_m}, t0={t0}, "
                     f"free={free}, contraction={contraction})")
    if "squeeze.json" in docs:
        sq = docs["squeeze.json"]
        lines.append(f"squeeze: worst measured/bound ratios "
                     f"P={sq['worst_ratio_P']} Q={sq['worst_ratio_Q']} "
                     f"R={sq['worst_ratio_R']} within_bounds={sq['within_bounds']}")
    for line in cert.get("diagnostics", []):
        lines.append(f"diagnostic: {line}")
    summary_txt = os.path.join(directory, "summary.txt")
    _atomic_write_bytes(summary_txt, ("\n".join(lines) + "\n").encode("utf-8"))
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


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
                          help="write a binary field snapshot every K steps")
    add_common(sub.add_parser("spectrum", help="characteristic roots and splitting"))
    add_common(sub.add_parser("squeeze", help="measure contraction on seeded pairs"))
    report = sub.add_parser("report", help="merge artifacts into a summary")
    report.add_argument("--dir", required=True, help="artifact directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "report":
            return cmd_report(args.dir)
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        if args.subcommand == "certify":
            return cmd_certify(args.config, args.seed, args.out)
        if args.subcommand == "simulate":
            if args.snapshot_every is not None and args.snapshot_every < 0:
                raise ConfigError("--snapshot-every must be nonnegative")
            return cmd_simulate(args.config, args.seed, args.out,
                                snapshot_every=args.snapshot_every)
        if args.subcommand == "spectrum":
            return cmd_spectrum(args.config, args.seed, args.out)
        if args.subcommand == "squeeze":
            return cmd_squeeze(args.config, args.seed, args.out)
        raise AssertionError(f"unhandled subcommand {args.subcommand}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SplittingError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DivergenceError as exc:
        print(f"divergence at step {exc.step}", file=sys.stderr)
        return EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
