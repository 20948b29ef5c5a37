"""repro.lint.flow — interprocedural secret-taint dataflow analysis.

Where the RP1xx rules check single AST nodes, this package follows
*values*: a small taint lattice (CLEAN < DERIVED < SECRET), per-function
transfer functions, and whole-program summaries joined over a
name-based call graph.  Taint is seeded at declared sources (secret key
fields, scalar sampling, raw pairing results), cleared at declared
sanitizers (the KDF family, hashes/MACs, ``ct.bytes_eq``) and
declassifiers (group one-way operations), and reported when it reaches
a sink:

========  ===============  ===================================================
Rule id   Name             Violation
========  ===============  ===================================================
RP201     secret-flow-sink secret reaches logging / print / f-string / repr /
                           exception text, possibly through helper calls;
                           also: secret dataclass fields in a generated repr
RP202     secret-branch    branch, loop or assert condition depends on a
                           secret (variable-time control flow)
RP203     secret-serialize secret or pre-KDF pairing value serialized or
                           persisted without a KDF
RP204     taint-escape     secret passed to an untracked third-party call
========  ===============  ===================================================

See ``docs/STATIC_ANALYSIS.md`` for the lattice, the registry contract,
and how to declare new sources/sinks/sanitizers.
"""

from __future__ import annotations

from repro.lint.flow.analysis import analyze_program
from repro.lint.flow.lattice import CLEAN, DERIVED, SECRET, Taint
from repro.lint.flow.transfer import FLOW_RULES

__all__ = [
    "CLEAN",
    "DERIVED",
    "FLOW_RULES",
    "SECRET",
    "Taint",
    "analyze_program",
]
