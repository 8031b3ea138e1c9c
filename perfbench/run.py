#!/usr/bin/env python3
"""imgforge benchmark entry point.

    python3 perfbench/run.py --workload pump-ext4 --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a source checkout: imgforge is imported from
the checkout's ``src/`` and nowhere else, and the run exits with an error
before doing any work when that tree is missing.  See ``bench.py`` for
what a run does and prints.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "imgforge" / "__init__.py").is_file():
        print(f"perfbench: imgforge sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
