#!/usr/bin/env python3
"""Run one `delayrd` benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  The workloads are defined in ``workloads.py`` and their outputs
are checked by ``checks.py``; ``NOTES.md`` explains the metrics.

The first iteration of every run is an untimed warm-up at the default seed,
so every run also compares all outputs with the stored reference; the timed
iterations use ``--seed``.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``cpu_s`` (medians
over the timed iterations), ``peak_rss_mb``,
``setup_s`` (median over fresh interpreters importing ``delayrd.cli``) and
``ok_frac``.  On workloads marked ``host_corrected``, ``wall_s`` and
``cpu_s`` are stated at the reference host speed: each iteration's times are
divided by the host slowdown that ``hostspeed.py`` probes around its calls;
the raw medians are in the report lines.  ``--trace 1`` alternates untraced
iterations at ``--parallel 1`` and 2 with traced ones at ``--parallel 1``
and prints the per-layer metrics of ``tracing.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without a checkout
to run (no ``src/delayrd``) the script exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import hostspeed
from tracing import Tracer, median_metrics
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_LAUNCHES = 11     # fresh interpreters timed for setup_s
MIN_TIMED = 3           # timed iterations even when --seconds is short
SETUP_TIMEOUT = 60.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "ok_frac": "frac"}
LAYER_UNITS = {"_calls": "count", "_s": "s", "_bytes": "B", "_evals": "count",
               "_per_s": "1/s", "_frac": "frac", "_ratio": "ratio", "_share": "frac",
               "steps": "count", "roots": "count", "bytes_computed": "B",
               "bytes_written": "B", "files_written": "count", "spans": "count",
               "max_residual": "abs"}


def layer_unit(name: str) -> str:
    for suffix in sorted(LAYER_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return LAYER_UNITS[suffix]
    raise KeyError(name)


def machine_info() -> dict:
    import numpy as np

    def read(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        except OSError:
            return None

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = read(os.path.join(base, index, "level"))
        kind = read(os.path.join(base, index, "type"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = read(os.path.join(base, index, "size"))
    meminfo = read("/proc/meminfo") or ""
    mem_total = next((line.split(":")[1].strip() for line in meminfo.splitlines()
                      if line.startswith("MemTotal")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu": platform.processor() or platform.machine(),
            **caches, "MemTotal": mem_total}


def measure_setup(launches: int) -> list:
    """Seconds from launching a fresh interpreter until ``delayrd.cli`` is
    imported and ready, one sample per launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import delayrd.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT)
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError("delayrd.cli does not import in a fresh interpreter")
        samples.append(elapsed)
    return samples


class Runner:
    """Runs iterations of one workload and checks every call's outputs."""

    def __init__(self, workload, seed: int, main):
        self.workload = workload
        self.seed = seed
        self.main = main
        self.ref_root = os.path.join(REFERENCE_DIR, workload.name)
        self.expected = {c.name: checks.load_json(os.path.join(self.ref_root, c.name,
                                                               "expected.json"))
                         for c in workload.calls}
        self.configs = {c.name: c.load_config() for c in workload.calls if c.config}
        os.makedirs(OUT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="work-", dir=OUT)
        self.iterations = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_payload = {}
        self.hash_matches = 0
        self.hashes_seen = 0
        self.samples = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def iteration(self, parallel: int, tracer: Tracer = None, seed: int = None) -> dict:
        """One closed-loop iteration; returns its wall/cpu, the call ids and
        the host slowdown probed before every call and after the last."""
        seed = self.seed if seed is None else seed
        out_root = os.path.join(self.work, f"iter-{self.iterations}")
        self.iterations += 1
        results, runs, walls, cpu, probes = [], [], [], 0.0, []
        if tracer is not None:
            tracer.install()
        try:
            for call in self.workload.calls:
                argv = call.argv(out_root, seed, parallel)
                run_id = self.attempted
                self.attempted += 1
                runs.append(run_id)
                probes.append(hostspeed.probe())
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    start, cpu_start = time.perf_counter(), time.process_time()
                    try:
                        if tracer is not None:
                            tracer.run = run_id
                            rc = tracer.call("cli.main", self.main, argv)
                        else:
                            rc = self.main(argv)
                    except SystemExit as exc:
                        rc = exc.code
                    except Exception:  # noqa: BLE001 - a crash is a failed call
                        rc = 1
                        err.write(traceback.format_exc())
                    walls.append(time.perf_counter() - start)
                    cpu += time.process_time() - cpu_start
                results.append((call, rc, err.getvalue()))
            probes.append(hostspeed.probe())
        finally:
            if tracer is not None:
                tracer.uninstall()
        for call, rc, err in results:
            self._check(call, rc, err, out_root, seed)
        shutil.rmtree(out_root, ignore_errors=True)
        return {"wall": sum(walls), "cpu": cpu, "runs": runs, "calls": walls,
                "slowdown": hostspeed.slowdown(probes)}

    def _check(self, call, rc, err, out_root, seed) -> None:
        out_dir = os.path.join(out_root, call.name)
        ref_dir = os.path.join(self.ref_root, call.name)
        expected_rc = self.expected[call.name]["exit"]
        cfg = self.configs.get(call.name)
        default_seed = seed == DEFAULT_SEED
        ref = ref_dir if default_seed else None
        try:
            if call.subcommand == "simulate":
                problems = checks.check_simulate(out_dir, cfg, rc, ref)
            elif call.subcommand == "squeeze":
                problems = checks.check_squeeze(out_dir, cfg, rc, ref, expected_rc)
            elif call.subcommand == "certify":
                problems = checks.check_certify(out_dir, cfg, rc, ref_dir, expected_rc,
                                                default_seed)
            else:
                problems = checks.check_report(os.path.join(out_root, call.source), rc)
            if call.subcommand != "report":
                problems += self._check_hashes(call.name, out_dir, seed)
        except Exception as exc:  # noqa: BLE001 - malformed output fails the call
            problems = [f"check raised {exc!r}"]
        if problems:
            self.failed += 1
            detail = "; ".join(problems[:3]) + (f" | stderr: {err.strip()[-300:]}"
                                                if err.strip() else "")
            self.problems.append(f"{call.name}: {detail}")

    def _check_hashes(self, name: str, out_dir: str, seed: int) -> list:
        """Same seed, same bytes: compare with the first call of this run at
        the seed, and count the artifacts byte-identical to the reference."""
        payload = checks.load_json(os.path.join(out_dir, "manifest.json"))["payload_sha256"]
        first = self.first_payload.setdefault((name, seed), payload)
        reference = self.expected[name]["payload_sha256"] if seed == DEFAULT_SEED else first
        self.hashes_seen += len(payload)
        self.hash_matches += sum(reference.get(k) == v for k, v in payload.items())
        if payload != first:
            return ["artifacts differ from the first call at the same seed"]
        return []


def timed_loop(seconds: float, body) -> None:
    """Call ``body`` back to back for about ``seconds``: no call starts that
    would, at the median duration so far, end after the deadline."""
    start = time.perf_counter()
    durations = []
    while (len(durations) < MIN_TIMED
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        begin = time.perf_counter()
        body()
        durations.append(time.perf_counter() - begin)


def spread(values: list) -> str:
    return (f"median of {len(values)}, min {min(values):.4f}, "
            f"max {max(values):.4f}")


def run_untraced(runner: Runner, seconds: float, report: list) -> dict:
    setup = measure_setup(SETUP_LAUNCHES)
    warm = runner.iteration(runner.workload.parallel, seed=DEFAULT_SEED)
    timed = []
    timed_loop(seconds, lambda: timed.append(runner.iteration(runner.workload.parallel)))
    # iteration timings at the reference host speed (hostspeed.py) where the
    # workload is corrected; raw ones are reported too
    slow = [t["slowdown"] for t in timed]
    scale = slow if runner.workload.host_corrected else [1.0] * len(timed)
    walls = [t["wall"] / f for t, f in zip(timed, scale)]
    cpus = [t["cpu"] / f for t, f in zip(timed, scale)]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    raw_walls = [t["wall"] for t in timed]
    raw_cpus = [t["cpu"] for t in timed]
    runner.samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup,
                      "raw_wall_s": raw_walls, "raw_cpu_s": raw_cpus,
                      "slowdown": slow,
                      "calls": [t["calls"] for t in timed],
                      "warm_up_wall_s": warm["wall"]}
    report += [
        f"wall_s      {metrics['wall_s']:.4f} s   ({spread(walls)}; "
        f"untimed warm-up {warm['wall']:.4f} s raw)",
        f"setup_s     {metrics['setup_s']:.4f} s   ({spread(setup)} launches)",
        f"cpu_s       {metrics['cpu_s']:.4f} s   ({spread(cpus)})",
        f"host slowdown {statistics.median(slow):.3f} ({spread(slow)}; "
        f"{'divided out' if runner.workload.host_corrected else 'not divided out'}); raw medians: "
        f"wall {statistics.median(raw_walls):.4f} s, cpu {statistics.median(raw_cpus):.4f} s",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB  (ru_maxrss of this process)",
        f"ok_frac     {metrics['ok_frac']:.4f} frac",
        f"failed_frac {runner.failed / runner.attempted:.4f} frac "
        f"({runner.failed} of {runner.attempted} calls)",
    ]
    return metrics


def run_traced(runner: Runner, seconds: float, report: list, spans_path: str) -> dict:
    tracer = Tracer()
    runner.iteration(runner.workload.parallel, seed=DEFAULT_SEED)  # warm-up
    calls = runner.workload.calls
    # the pool overhead is measured on the calls with a thread pool (squeeze),
    # or on the whole iteration where there are none
    pooled = [i for i, c in enumerate(calls) if c.subcommand == "squeeze"] \
        or list(range(len(calls)))
    plain = {1: [], 2: []}
    traced = []
    by_call = {"simulate": [], "squeeze": []}   # per-call metrics for the sanity checks

    def one_round():
        for parallel in (1, 2):
            walls = runner.iteration(parallel)["calls"]
            plain[parallel].append((sum(walls), sum(walls[i] for i in pooled)))
        it = runner.iteration(1, tracer)
        traced.append(tracer.layer_metrics(it["runs"], it["wall"])
                      | {"trace.wall_s": it["wall"]})
        for call, run, wall in zip(calls, it["runs"], it["calls"]):
            if call.subcommand in by_call:
                by_call[call.subcommand].append(tracer.layer_metrics([run], wall))

    timed_loop(seconds, one_round)
    tracer.write(spans_path)
    metrics = median_metrics(traced)
    wall_1 = statistics.median(w for w, _ in plain[1])
    metrics["cli.hash_match_frac"] = (runner.hash_matches / runner.hashes_seen
                                      if runner.hashes_seen else 0.0)
    metrics["cli.pool_overhead_ratio"] = (statistics.median(p for _, p in plain[2])
                                          / statistics.median(p for _, p in plain[1]))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_1

    # Does the workload stress what it claims?  Printed, never failed: an
    # optimisation of the stressed layer is meant to change the answer.
    sanity = []
    if by_call["simulate"]:
        share = median_metrics(by_call["simulate"])["solver.segment_share"]
        sanity.append((f"simulate: segment reductions >= 70% of its wall ({share:.0%})",
                       share >= 0.7))
    if by_call["squeeze"]:
        largest = {m["largest_self"] for m in by_call["squeeze"]}
        sanity.append((f"squeeze: solver.integrate has the largest self time at "
                       f"--parallel 1 (largest: {', '.join(sorted(largest))})",
                       largest == {"solver.integrate"}))
    if any(c.subcommand == "certify" for c in calls):
        sanity.append(("certify: solver.integrate_calls = 0",
                       metrics["solver.integrate_calls"] == 0))
    report += [f"traced iterations {len(traced)} at --parallel 1; untraced "
               f"{len(plain[1])} at --parallel 1 and {len(plain[2])} at --parallel 2",
               f"solver.integrate_s, steps included, is "
               f"{metrics['solver.integrate_s'] / metrics['trace.wall_s']:.0%}"
               " of the traced wall"]
    report += [f"sanity: {text}: {'PASS' if ok else 'FAIL'}" for text, ok in sanity]
    report += [f"spans written to {os.path.relpath(spans_path, ROOT)}"]
    report += [f"{k:32s} {v:.6g} {layer_unit(k)}" for k, v in sorted(metrics.items())]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "delayrd", "cli.py")):
        print(f"no delayrd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        from delayrd.cli import main as cli_main
    except ImportError as exc:
        print(f"cannot import delayrd.cli: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, cli_main)
    machine = machine_info()
    report = [f"workload {workload.name}: {workload.size}",
              f"closed loop, one client, iterations back to back; --parallel "
              f"{workload.parallel}; seed {args.seed}",
              "machine " + json.dumps(machine)]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics = run_traced(runner, args.seconds, report,
                                 os.path.join(OUT, f"spans-{tag}.jsonl"))
            units = {k: layer_unit(k) for k in metrics}
        else:
            metrics = run_untraced(runner, args.seconds, report)
            units = END_TO_END_UNITS
    finally:
        runner.close()
    report += [f"problem: {p}" for p in runner.problems[:10]]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"machine": machine, "report": report, "samples": runner.samples,
                   **result}, handle, indent=2)
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
