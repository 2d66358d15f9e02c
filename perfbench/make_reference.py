"""Regenerate reference.json: the expected outputs of every workload variant.

    python3 perfbench/make_reference.py

Runs each workload's call sequence once per input variant with the code in
``src/`` and stores each call's fingerprint (see checks.py).  Run it only when
the program's outputs are meant to change, and state the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness
import workloads
from checks import REFERENCE_PATH
from run import SRC, WORK_ROOT


def main() -> int:
    sys.path.insert(0, SRC)
    import covdensity.cli as cli

    reference = {"n_variants": workloads.N_VARIANTS, "workloads": {}}
    for name in workloads.WORKLOADS:
        per_variant = reference["workloads"][name] = {}
        for variant in range(workloads.N_VARIANTS):
            work = os.path.join(WORK_ROOT, f"reference-{name}-{variant}")
            try:
                session = harness.Session(cli, workloads.build(name, variant, work), None)
                session.run_sweep()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if session.failed:
                print("\n".join(session.problems), file=sys.stderr)
                return 1
            per_variant[str(variant)] = session.fingerprints
            print(f"{name} variant {variant}: {len(session.fingerprints)} calls", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
