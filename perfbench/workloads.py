"""Benchmark workloads: which `delayrd` CLI calls one iteration makes.

Each workload is a closed loop with one client: one process calls
``delayrd.cli.main`` for every call of an iteration, back to back, and starts
the next iteration only when the previous one has finished.  The input size
of every workload is fixed by its config files under ``configs/``; the
workload seed is passed to the CLI as ``--seed``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_DIR = os.path.join(HERE, "reference")

# Seed at which the stored reference artifacts were made.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Call:
    """One ``delayrd`` invocation inside an iteration."""

    name: str          # artifact directory of the call, unique in the workload
    subcommand: str
    config: str = ""   # config file name under configs/ ("" for report)
    source: str = ""   # for report: the call whose artifacts it merges

    def config_path(self) -> str:
        return os.path.join(CONFIG_DIR, self.config)

    def load_config(self) -> dict:
        with open(self.config_path(), "r", encoding="utf-8") as handle:
            return json.load(handle)

    def argv(self, out_root: str, seed: int, parallel: int) -> list:
        if self.subcommand == "report":
            return ["report", "--dir", os.path.join(out_root, self.source)]
        return [self.subcommand, "--config", self.config_path(),
                "--out", os.path.join(out_root, self.name),
                "--seed", str(seed), "--parallel", str(parallel)]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and NOTES.md."""

    name: str
    size: str
    parallel: int       # --parallel of the measured calls (only squeeze uses it)
    calls: tuple
    # Divide wall_s and cpu_s by the host slowdown (hostspeed.py)?  Only where
    # the workload's time was measured to track the probe: certify-sweep moves
    # with it (correlation 0.86), simulate-squeeze hardly (elasticity 0.24), so
    # dividing it would add the probe's swings rather than remove the host's.
    host_corrected: bool


def _certify_sweep_calls(points: int) -> tuple:
    calls = []
    for i in range(points):
        calls.append(Call(f"certify-{i}", "certify", f"certify-sweep-{i}.json"))
        calls.append(Call(f"report-{i}", "report", source=f"certify-{i}"))
    return tuple(calls)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-squeeze",
            size="simulate, P=1024, L=32, S=64, tau=0.5, horizon 10 (1280 steps), "
                 "snapshot every 64 steps; then squeeze --parallel 2, P=1024, L=16, "
                 "S=64, ensemble 16, contraction_times [0.5, 1, 2, 4]",
            parallel=2,
            calls=(Call("simulate", "simulate", "simulate-farfield.json"),
                   Call("squeeze", "squeeze", "squeeze-pairs.json")),
            host_corrected=False,
        ),
        Workload(
            name="certify-sweep",
            size="7 x (certify + report), P=512, L=16, modes 48, "
                 "dichotomy_samples 64",
            parallel=1,
            calls=_certify_sweep_calls(7),
            host_corrected=True,
        ),
    )
}
