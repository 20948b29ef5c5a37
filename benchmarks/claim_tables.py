"""The one writer of ``benchmarks/claim_tables.txt``.

``pytest benchmarks`` prints every experiment's claim-versus-measured
table and leaves the committed file alone, so a plain run cannot
smear one host's timing noise over it.  To refresh tables on purpose::

    PYTHONPATH=src python -m benchmarks.claim_tables benchmarks/bench_e16_precompute.py

runs pytest with the given arguments (``benchmarks`` when there are
none) and, when every test passed, merges the tables that run emitted
into ``claim_tables.txt`` by id (:func:`~benchmarks.trajectory
.merge_claim_tables`): re-running one experiment file rewrites only its
own tables.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from benchmarks.trajectory import merge_claim_tables

PATH = pathlib.Path(__file__).resolve().parent / "claim_tables.txt"


def main() -> int:
    code = int(pytest.main(sys.argv[1:] or [str(PATH.parent)]))
    if code != 0:
        print(f"pytest exited {code}; {PATH.name} left unchanged", file=sys.stderr)
        return code
    # Loaded by the run above: every bench file imports emit from it.
    from benchmarks.conftest import emitted_tables

    existing = PATH.read_text() if PATH.exists() else ""
    PATH.write_text(merge_claim_tables(existing, emitted_tables()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
