"""Output checks for the benchmark workloads.

Each ``check_*`` function returns a list of problems found in one call's
outputs; an empty list means the call is correct.  Numbers are compared with
a relative tolerance (``RTOL``, with ``ATOL`` for values near zero), never by
bytes, so a change that moves a result in its last digits still passes.
Byte identity is tracked separately as a share of matching hashes.

What is checked at every seed:

* the exit code (certify and report: the stored one; squeeze: 0 or 3, and
  it must agree with ``within_bounds``);
* the manifest: exactly the expected files, each with its ``payload_sha256``;
* cross-artifact invariants (norms against snapshots, far-field masses
  decreasing in the radius, worst ratios against the CSV rows, summary rows
  against the certificate);
* the 1e-10 residual gate on every characteristic root, recomputed here;
* the artifacts that do not depend on the seed (``estimates.json`` and the
  root part of ``spectrum.json``) against the stored reference.

At the default seed every artifact is also compared with the reference.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import struct

RTOL = 1e-9
ATOL = 1e-12
ROOT_RESIDUAL_GATE = 1e-10
SQUEEZE_SLACK = 1.05          # worst measured/bound ratio that still passes
SNAPSHOT_HEADER = "<4sIQdd"
REPORT_FILES = frozenset({"summary.csv", "summary.txt"})
# Keys whose values are round-off sized and differ between equally good
# implementations; the residual gate checks them instead.
ROUNDOFF_KEYS = frozenset({"residual"})
# spectrum.json keys drawn from the seeded dichotomy samples.
SEEDED_SPECTRUM_KEYS = frozenset({"K_m", "dichotomy"})


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path: str):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    if lines[-1] != "":
        raise ValueError(f"{os.path.basename(path)}: no final LF")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
    return header, rows


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def compare(actual, expected, where: str, problems: list, skip=frozenset()) -> None:
    """Compare two decoded JSON values, numbers within tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) - skip != set(expected) - skip:
            problems.append(f"{where}: keys differ from the reference")
            return
        for key in sorted(set(expected) - skip - ROUNDOFF_KEYS):
            compare(actual[key], expected[key], f"{where}.{key}", problems, skip)
    elif isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            problems.append(f"{where}: length differs from the reference")
            return
        for i, (a, e) in enumerate(zip(actual, expected)):
            compare(a, e, f"{where}[{i}]", problems, skip)
    elif isinstance(expected, (int, float)) and not isinstance(expected, bool):
        if (not isinstance(actual, (int, float)) or isinstance(actual, bool)
                or not close(float(actual), float(expected))):
            problems.append(f"{where}: {actual!r} != reference {expected!r}")
    elif actual != expected:
        problems.append(f"{where}: {actual!r} != reference {expected!r}")


def compare_csv(path: str, ref_path: str, problems: list) -> None:
    name = os.path.basename(path)
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    if header != ref_header or len(rows) != len(ref_rows):
        problems.append(f"{name}: shape differs from the reference")
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, (a, e) in enumerate(zip(row, ref)):
            if not close(a, e):
                problems.append(f"{name} row {i} {header[j]}: {a!r} != reference {e!r}")
                return


def check_manifest(out_dir: str, expected_files: set, problems: list,
                   added_later=frozenset()) -> dict:
    """Check that the manifest hashes exactly the expected files, correctly.

    ``added_later`` names files a later call of the iteration may write into
    the same directory (``report`` adds its summaries to certify's).
    """
    path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(path):
        problems.append("manifest.json missing")
        return {}
    payload = load_json(path)["payload_sha256"]
    if set(payload) != expected_files:
        problems.append(f"manifest lists {sorted(set(payload) ^ expected_files)} "
                        "unexpectedly")
    on_disk = set(os.listdir(out_dir)) - {"manifest.json"} - added_later
    if on_disk != expected_files:
        problems.append(f"unexpected files on disk: {sorted(on_disk ^ expected_files)}")
    for name, digest in sorted(payload.items()):
        file_path = os.path.join(out_dir, name)
        if os.path.exists(file_path) and sha256_file(file_path) != digest:
            problems.append(f"{name}: sha256 differs from payload_sha256")
    return payload


def _steps(run: dict, tau: float) -> tuple:
    S = run["steps_per_delay"]
    dt = tau / S
    return S, dt, max(0, int(math.ceil(run["horizon"] / dt - 1e-9)))


def _radii(L: float) -> list:
    radii, radius = [], L / 32.0
    while radius <= L / 2.0 + 1e-12:
        radii.append(radius)
        radius *= 2.0
    return radii


def check_simulate(out_dir: str, cfg: dict, rc: int, ref_dir: str) -> list:
    problems = []
    if rc != 0:
        return [f"exit {rc}, expected 0"]
    run = cfg["run"]
    P, L = cfg["grid"]["points"], cfg["grid"]["half_length"]
    S, dt, steps = _steps(run, cfg["tau"])
    every = run["snapshot_every"]
    snaps = {f"field_{n:08d}.bin": n for n in range(0, steps + 1, every)} if every else {}
    check_manifest(out_dir, {"norms.csv", "farfield.csv", "farfield_check.json", *snaps},
                   problems)
    if problems:
        return problems

    header, norms = read_csv(os.path.join(out_dir, "norms.csv"))
    if header != ["t", "norm_u", "farfield_mass"] or len(norms) != steps + 1:
        return problems + ["norms.csv: wrong header or row count"]
    for n, (t, norm_u, mass) in enumerate(norms):
        if not (close(t, n * dt) and math.isfinite(norm_u) and norm_u >= 0
                and math.isfinite(mass) and mass >= 0):
            problems.append(f"norms.csv row {n}: bad values")
            break

    h = 2.0 * L / P
    for name, n in snaps.items():
        with open(os.path.join(out_dir, name), "rb") as handle:
            blob = handle.read()
        magic, version, points, half_length, t = struct.unpack_from(SNAPSHOT_HEADER, blob)
        values = blob[struct.calcsize(SNAPSHOT_HEADER):]
        if (magic, version, points, half_length) != (b"DRDF", 1, P, L) or \
                len(values) != 8 * P or not close(t, n * dt):
            problems.append(f"{name}: bad header or size")
            continue
        field = struct.unpack(f"<{P}d", values)
        if not close(math.sqrt(h * math.fsum(v * v for v in field)), norms[n][1]):
            problems.append(f"{name}: L2 norm disagrees with norms.csv")

    radii = _radii(L)
    header, ff = read_csv(os.path.join(out_dir, "farfield.csv"))
    stride = max(1, S // 2)
    sampled = list(range(0, steps + 1, stride))
    if header != ["t", *(f"mass_K={K!r}" for K in radii)] or len(ff) != len(sampled):
        return problems + ["farfield.csv: wrong header or row count"]
    K_run = run["cutoff_radius"]
    for row, n in zip(ff, sampled):
        masses = row[1:]
        if any(b > a * (1 + RTOL) + ATOL for a, b in zip(masses, masses[1:])):
            problems.append(f"farfield.csv t={row[0]!r}: mass grows with the radius")
            break
        inner = [m for K, m in zip(radii, masses) if K <= K_run]
        outer = [m for K, m in zip(radii, masses) if K >= K_run]
        mass = norms[n][2]
        if (inner and mass > inner[-1] * (1 + RTOL) + ATOL) or \
                (outer and mass < outer[0] * (1 - RTOL) - ATOL):
            problems.append(f"norms.csv t={row[0]!r}: far-field mass outside "
                            "its neighbours in farfield.csv")
            break

    check = load_json(os.path.join(out_dir, "farfield_check.json"))
    eps = run["eps"]
    last_is_final = sampled[-1] == steps
    if check["status"] == "ok":
        if check["R_emp"] not in radii or not check["tail_at_result"] <= eps:
            problems.append("farfield_check.json: result off the radius grid or above eps")
        else:
            col = 1 + radii.index(check["R_emp"])
            if any(row[col] > eps for row in ff if row[0] >= check["T_emp"] - 1e-12):
                problems.append("farfield_check.json: tail above eps after T_emp")
            if last_is_final and any(ff[-1][1 + i] <= eps for i in range(col - 1)):
                problems.append("farfield_check.json: a smaller radius already passes")
    elif last_is_final and any(m <= eps for m in ff[-1][1:]):
        problems.append("farfield_check.json: inconclusive, but a radius passes")

    if ref_dir:
        compare_csv(os.path.join(out_dir, "norms.csv"),
                    os.path.join(ref_dir, "norms.csv"), problems)
        compare_csv(os.path.join(out_dir, "farfield.csv"),
                    os.path.join(ref_dir, "farfield.csv"), problems)
        compare(check, load_json(os.path.join(ref_dir, "farfield_check.json")),
                "farfield_check.json", problems)
    return problems


def check_squeeze(out_dir: str, cfg: dict, rc: int, ref_dir: str,
                  expected_rc: int) -> list:
    problems = []
    if rc not in (0, 3) or (ref_dir and rc != expected_rc):
        return [f"exit {rc}, expected {expected_rc if ref_dir else '0 or 3'}"]
    check_manifest(out_dir, {"contraction.csv", "squeeze.json"}, problems)
    if problems:
        return problems
    run = cfg["run"]
    times = run["contraction_times"]
    summary = load_json(os.path.join(out_dir, "squeeze.json"))
    header, rows = read_csv(os.path.join(out_dir, "contraction.csv"))
    if summary["pairs"] != run["ensemble"] or summary["times"] != times or \
            len(rows) != summary["pairs"] * len(times) - summary["zero_difference"]:
        return problems + ["squeeze.json: pairs, times or row count wrong"]
    worst = {"P": 0.0, "Q": 0.0, "R": 0.0}
    for i, row in enumerate(rows):
        t, values = row[0], row[1:]
        if t not in times or (summary["zero_difference"] == 0 and t != times[i % len(times)]):
            problems.append(f"contraction.csv row {i}: unexpected time {t!r}")
            break
        if not all(math.isfinite(v) and v >= 0 for v in values) or \
                not all(b > 0 for b in values[1::2]):
            problems.append(f"contraction.csv row {i}: bad values")
            break
        for part, measured, bound in zip("PQR", values[0::2], values[1::2]):
            worst[part] = max(worst[part], measured / bound)
    for part, value in worst.items():
        if not close(summary[f"worst_ratio_{part}"], value):
            problems.append(f"squeeze.json: worst_ratio_{part} disagrees with the rows")
    within = all(v <= SQUEEZE_SLACK for v in worst.values())
    if summary["within_bounds"] != within or rc != (0 if within else 3):
        problems.append("within_bounds or the exit code disagrees with the ratios")
    if ref_dir:
        compare(summary, load_json(os.path.join(ref_dir, "squeeze.json")),
                "squeeze.json", problems)
        compare_csv(os.path.join(out_dir, "contraction.csv"),
                    os.path.join(ref_dir, "contraction.csv"), problems)
    return problems


def root_residuals(spectrum: dict, cfg: dict):
    """Recompute |lambda + mu + mu_m - sigma exp(-lambda tau)| for every root."""
    mu, sigma, tau = cfg["mu"], cfg["sigma"], cfg["tau"]
    for mode in spectrum["modes"]:
        a = mu + mode["eigenvalue"]
        for root in mode["roots"]:
            lam = complex(root["re"], root["im"])
            yield abs(lam + a - sigma * cmath.exp(-lam * tau)), root["residual"]


def check_certify(out_dir: str, cfg: dict, rc: int, ref_dir: str,
                  expected_rc: int, default_seed: bool) -> list:
    problems = []
    if rc != expected_rc:
        return [f"exit {rc}, expected {expected_rc}"]
    names = ("estimates.json", "spectrum.json", "certificate.json")
    check_manifest(out_dir, set(names), problems, REPORT_FILES)
    if problems:
        return problems
    estimates, spectrum, certificate = (load_json(os.path.join(out_dir, n)) for n in names)
    if not any(spectrum["modes"]):
        problems.append("spectrum.json: no roots")
    for recomputed, stored in root_residuals(spectrum, cfg):
        if not (recomputed <= ROOT_RESIDUAL_GATE and stored <= ROOT_RESIDUAL_GATE):
            problems.append(f"spectrum.json: root residual {recomputed!r} above the gate")
            break
    if certificate["feasible"] != (rc == 0) or \
            certificate["feasible"] == bool(certificate["diagnostics"]):
        problems.append("certificate.json: feasibility disagrees with the exit code")
    compare(estimates, load_json(os.path.join(ref_dir, "estimates.json")),
            "estimates.json", problems)
    compare(spectrum, load_json(os.path.join(ref_dir, "spectrum.json")),
            "spectrum.json", problems,
            skip=frozenset() if default_seed else SEEDED_SPECTRUM_KEYS)
    if default_seed:
        compare(certificate, load_json(os.path.join(ref_dir, "certificate.json")),
                "certificate.json", problems)
    return problems


def check_report(source_dir: str, rc: int) -> list:
    """``report`` must exit 0 and tabulate exactly what certificate.json says."""
    if rc != 0:
        return [f"report exit {rc}, expected 0"]
    certificate = load_json(os.path.join(source_dir, "certificate.json"))
    expected = [["certificate", "feasible", "bound", "k_m", "t0", "free_parameter",
                 "contraction"]]
    for mode in ("hausdorff", "fractal"):
        if mode in certificate:
            c = certificate[mode]
            free = c["alpha"] if mode == "hausdorff" else c["beta_free"]
            contraction = c["eta"] if mode == "hausdorff" else c["zeta"]
            expected.append([str(v) for v in (mode, c["feasible"], c[f"{mode}_bound"],
                                              c["k_m"], c["t0"], free, contraction)])
    problems = []
    with open(os.path.join(source_dir, "summary.csv"), "r", encoding="utf-8") as handle:
        if [line.split(",") for line in handle.read().splitlines()] != expected:
            problems.append("summary.csv disagrees with certificate.json")
    with open(os.path.join(source_dir, "summary.txt"), "r", encoding="utf-8") as handle:
        if not handle.read().startswith("certification summary\n"):
            problems.append("summary.txt: missing title")
    return problems
