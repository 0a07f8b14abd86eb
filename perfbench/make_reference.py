"""Rewrite ``reference.json`` from the current engine.

    python3 perfbench/make_reference.py

Run only for a reviewed, intended change of the engine's outputs: every
benchmark run compares its reference case with this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, engine_on_path


def main() -> int:
    if not engine_on_path():
        print(f"error: engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, reference_values
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        out = {name: reference_values(wl, Path(tmp)) for name, wl in WORKLOADS.items()}
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
