"""Regenerate the stored reference outputs from the program as it is now.

Usage, from the repository root:

    python3 perfbench/make_references.py

Runs every operation of every input set of every workload once and stores
its output record in perfbench/references/. Only run this when a change of results is intended and reviewed: the references are
what every benchmark run is checked against.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.run import OUT, load_program

    problem = load_program()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from perfbench import reference
    from perfbench.workloads import BANK, WORKLOADS

    OUT.mkdir(exist_ok=True)
    for name in sorted(WORKLOADS):
        cls = WORKLOADS[name]
        sets = {}
        for bank in range(BANK):
            wl = cls(bank, OUT)
            try:
                wl.setup()
                sets[str(bank)] = [
                    [reference.record(text) for _, text in wl.texts(wl.run(k))]
                    for k in range(cls.cycle)
                ]
            finally:
                wl.close()
        reference.save(name, {"workload": name, "bank": BANK, "cycle": cls.cycle, "sets": sets})
        print(f"{name}: {BANK} input sets x {cls.cycle} operations", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
