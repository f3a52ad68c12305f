"""Spans around the calls into each `delayrd` module, recorded from outside.

The package is not edited.  ``Tracer.install`` replaces the names that the
calling modules look up at call time: the names ``cli``, ``estimates`` and
``squeezing`` bound with ``from ... import``, the module-level helpers that
``spectrum``, ``squeezing`` and ``dimension`` call internally, and
``SemigroupStepper.step`` on the class.  ``uninstall`` puts the originals
back, so untraced iterations in the same process run the plain code.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``run`` identifies the ``main()``
call it belongs to.  Spans stay in memory until ``write`` at exit.  Counters
derived from argument and result sizes are kept per run next to them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict


def _step_bytes(counters, args, result):
    # input row, rfft spectrum, scaled spectrum, output row (computed)
    points = args[1].shape[-1]
    counters["semigroup.bytes_computed"] += 16 * points + 32 * (points // 2 + 1)


def _integrate_steps(counters, args, result):
    counters["solver.steps"] += result.steps
    counters["solver.point_steps"] += result.steps * result.values.shape[1]


def _segment_bytes(counters, args, result):
    counters["solver.segment_bytes"] += result.samples.nbytes


def _roots(counters, args, result):
    residuals = [r for mr in result.mode_roots for r in mr.residuals]
    counters["spectrum.roots"] += len(residuals)
    counters["spectrum.max_residual"] = max(counters["spectrum.max_residual"],
                                            max(residuals, default=0.0))


def _written(counters, args, result):
    counters["cli.bytes_written"] += len(args[1])


# (span name, (module, attribute) pairs to patch, counter recorder)
TARGETS = (
    ("model.parse_config", (("cli", "parse_config"),), None),
    ("semigroup.step", (("semigroup", "SemigroupStepper.step"),), _step_bytes),
    ("semigroup.field_norm", (("cli", "field_norm"),), None),
    ("solver.integrate", (("cli", "integrate"), ("squeezing", "integrate")),
     _integrate_steps),
    ("solver.segment_at", (("cli", "segment_at"), ("estimates", "segment_at"),
                           ("squeezing", "segment_at")), _segment_bytes),
    ("solver.far_field_mass", (("cli", "far_field_mass"),
                               ("estimates", "far_field_mass")), None),
    ("solver.segment_norm", (("cli", "segment_norm"), ("estimates", "segment_norm"),
                             ("squeezing", "segment_norm")), None),
    ("estimates.compute_estimates", (("cli", "compute_estimates"),), None),
    ("estimates.absorbing_time", (("cli", "absorbing_time"),), None),
    ("estimates.verify_far_field", (("cli", "verify_far_field"),), None),
    ("spectrum.spectral_partition", (("cli", "spectral_partition"),), _roots),
    ("spectrum.dichotomy_constant", (("cli", "dichotomy_constant"),), None),
    ("spectrum.linear_delay_evolve", (("spectrum", "linear_delay_evolve"),), None),
    ("squeezing.make_projections", (("cli", "make_projections"),), None),
    ("squeezing.measure_contraction", (("cli", "measure_contraction"),), None),
    ("squeezing.project", (("squeezing", "project_P"), ("squeezing", "project_Q"),
                           ("squeezing", "project_R")), None),
    ("dimension.optimize_certificate", (("cli", "optimize_certificate"),), None),
    ("dimension.eta", (("dimension", "eta"),), None),
    ("dimension.zeta", (("dimension", "zeta"),), None),
    ("cli.write", (("cli", "write_json"), ("cli", "write_csv"),
                   ("cli", "write_snapshot")), None),
    ("cli.atomic_write", (("cli", "_atomic_write_bytes"),), _written),
    ("cli.ensemble_draw", (("cli", "random_history"), ("cli", "random_pair"),
                           ("cli", "eigenmode_pair")), None),
)

MODULES = ("model", "semigroup", "solver", "estimates", "spectrum", "squeezing",
           "dimension", "cli")
COUNTERS = ("semigroup.bytes_computed", "solver.steps", "solver.point_steps",
            "solver.segment_bytes", "spectrum.roots", "spectrum.max_residual",
            "cli.bytes_written")


class Tracer:
    """Span recorder for the traced iterations of one benchmark run."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(lambda: dict.fromkeys(COUNTERS, 0))
        self.run = 0
        self._stack = []
        self._saved = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn, record):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if record is not None:
                record(self.counters[self.run], args, result)
            return result
        return traced

    def install(self) -> None:
        for name, places, record in TARGETS:
            for module, attr in places:
                owner = importlib.import_module(f"delayrd.{module}")
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, record))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run": run}) + "\n")

    def layer_metrics(self, runs, wall: float) -> dict:
        """Per-layer metrics of the ``main()`` calls ``runs`` (one iteration)."""
        runs = set(runs)
        chosen = [(i, s) for i, s in enumerate(self.spans) if s[4] in runs]
        child = defaultdict(float)
        for _, (_, start, end, parent, _) in chosen:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_time, top = (defaultdict(int), defaultdict(float),
                                        defaultdict(float), defaultdict(float))
        for i, (name, start, end, parent, _) in chosen:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                top[name] += end - start
        counters = dict.fromkeys(COUNTERS, 0)
        for run in runs:
            for key, value in self.counters[run].items():
                if key == "spectrum.max_residual":
                    counters[key] = max(counters[key], value)
                else:
                    counters[key] += value
        segment_s = (total["solver.segment_at"] + total["solver.far_field_mass"]
                     + total["solver.segment_norm"])
        m = {
            "model.parse_config_calls": calls["model.parse_config"],
            "model.parse_config_s": total["model.parse_config"],
            "semigroup.step_calls": calls["semigroup.step"],
            "semigroup.step_s": total["semigroup.step"],
            "semigroup.bytes_computed": counters["semigroup.bytes_computed"],
            "solver.integrate_calls": calls["solver.integrate"],
            "solver.steps": counters["solver.steps"],
            "solver.integrate_s": total["solver.integrate"],
            "solver.point_steps_per_s": (counters["solver.point_steps"]
                                         / total["solver.integrate"]
                                         if total["solver.integrate"] else 0.0),
            "solver.segment_at_calls": calls["solver.segment_at"],
            "solver.segment_at_s": total["solver.segment_at"],
            "solver.segment_bytes": counters["solver.segment_bytes"],
            "solver.far_field_mass_calls": calls["solver.far_field_mass"],
            "solver.far_field_mass_s": total["solver.far_field_mass"],
            "solver.segment_norm_s": total["solver.segment_norm"],
            "solver.segment_share": segment_s / wall,
            "estimates.compute_s": (total["estimates.compute_estimates"]
                                    + total["estimates.absorbing_time"]),
            "estimates.verify_far_field_s": total["estimates.verify_far_field"],
            "spectrum.partition_s": total["spectrum.spectral_partition"],
            "spectrum.roots": counters["spectrum.roots"],
            "spectrum.max_residual": counters["spectrum.max_residual"],
            "spectrum.dichotomy_s": total["spectrum.dichotomy_constant"],
            "spectrum.linear_evolve_calls": calls["spectrum.linear_delay_evolve"],
            "spectrum.linear_evolve_s": total["spectrum.linear_delay_evolve"],
            "squeezing.measure_calls": calls["squeezing.measure_contraction"],
            "squeezing.measure_s": total["squeezing.measure_contraction"],
            "squeezing.project_s": total["squeezing.project"],
            "dimension.optimize_s": total["dimension.optimize_certificate"],
            "dimension.contraction_evals": calls["dimension.eta"] + calls["dimension.zeta"],
            # a write span may enclose an atomic_write span; count each once
            "cli.write_s": top["cli.write"] + sum(
                end - start for _, (name, start, end, parent, _) in chosen
                if name == "cli.atomic_write"
                and (parent < 0 or self.spans[parent][0] != "cli.write")),
            "cli.bytes_written": counters["cli.bytes_written"],
            "cli.files_written": calls["cli.atomic_write"],
            "cli.ensemble_draw_s": top["cli.ensemble_draw"],
            "trace.spans": len(chosen),
        }
        for module in MODULES:
            m[f"{module}.self_s"] = sum(v for k, v in self_time.items()
                                        if k.split(".")[0] == module)
        m["largest_self"] = max(self_time, key=self_time.get)
        return m


def median_metrics(per_iteration: list) -> dict:
    """Median of each numeric per-iteration metric (counts repeat exactly)."""
    keys = [k for k, v in per_iteration[0].items() if not isinstance(v, str)]
    return {k: statistics.median(m[k] for m in per_iteration) for k in keys}
