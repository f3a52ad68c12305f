#!/usr/bin/env python3
"""Regenerate the reference artifacts under ``reference/``.

    python3 perfbench/make_reference.py

Runs every workload once at the default seed and stores, per call, the exit
code and ``payload_sha256`` (``expected.json``) and the text artifacts the
checks compare numerically (JSON re-serialized compactly, CSV as written).
Snapshots are not stored: their hashes are in ``expected.json`` and their
norms are checked against ``norms.csv``.  Only regenerate when the program's
outputs change on purpose, and say why in the change that does it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from delayrd.cli import main as cli_main  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402


def main() -> int:
    for workload in WORKLOADS.values():
        target = os.path.join(REFERENCE_DIR, workload.name)
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as work:
            for call in workload.calls:
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = cli_main(call.argv(work, DEFAULT_SEED, workload.parallel))
                out_dir = os.path.join(work, call.name)
                dest = os.path.join(target, call.name)
                os.makedirs(dest)
                expected = {"exit": rc, "payload_sha256": {}}
                if call.subcommand != "report":
                    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
                        expected["payload_sha256"] = json.load(fh)["payload_sha256"]
                    for name in sorted(expected["payload_sha256"]):
                        src = os.path.join(out_dir, name)
                        if name.endswith(".csv"):
                            shutil.copyfile(src, os.path.join(dest, name))
                        elif name.endswith(".json"):
                            with open(src, encoding="utf-8") as fh:
                                doc = json.load(fh)
                            with open(os.path.join(dest, name), "w", encoding="utf-8") as fh:
                                fh.write(json.dumps(doc, sort_keys=True,
                                                    separators=(",", ":")) + "\n")
                with open(os.path.join(dest, "expected.json"), "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(expected, sort_keys=True, indent=2) + "\n")
                print(f"{workload.name}/{call.name}: exit {rc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
