"""Record the default seed's frame digests into ``golden.json``.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/record_golden.py

Every input the default seed generates is rendered once on a serial,
unobserved system (any executor and observer give bit-identical
results by contract), for a serve-mixed window of
``SERVE_GOLDEN_SECONDS``; longer windows check their extra frames
against their own first render only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERVE_GOLDEN_SECONDS = 60.0


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import host

    host.pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import RBCDSystem

    from perfbench import check, workloads

    doc = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name, setup in workloads.SETUPS.items():
        prepared = setup(workloads.DEFAULT_SEED, SERVE_GOLDEN_SECONDS,
                         check.Checker())
        prepared.close()
        with RBCDSystem(config=prepared.config) as system:
            doc["workloads"][name] = {
                str(index): check.digest(system.detect_frame(frame))
                for index, frame in sorted(prepared.inputs.items())
            }
        print(f"{name}: {len(doc['workloads'][name])} digests")
    with open(check.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
