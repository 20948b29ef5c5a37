"""Entry point: ``python3 benchmarks/e2e`` or ``python -m benchmarks.e2e``.

Runs the library from this checkout's ``src`` (no installation), and
refuses to run without it rather than measuring some other copy.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no library source at {_ROOT / 'src' / 'repro'}")
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
