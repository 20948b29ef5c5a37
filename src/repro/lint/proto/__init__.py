"""Typestate protocol analysis (RP401–RP405).

The fourth analyzer family: object-protocol checking over the shared
whole-program core (:mod:`repro.lint.program`).  ``analyze_protocols``
is the engine-facing entry point; the rules are plain
:class:`~repro.lint.rules.base.Rule` instances like every other
family's, so the CLI, SARIF renderer, and waiver machinery treat all
four uniformly.
"""

from repro.lint.proto.analysis import PROTO_RULES, analyze_protocols

__all__ = ["PROTO_RULES", "analyze_protocols"]
