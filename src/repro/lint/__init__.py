"""repro.lint — a crypto-hygiene static analyzer for this repository.

The paper's security argument assumes implementation hygiene that no
test can fully enforce: secret scalars drawn from a CSPRNG, secrets
compared in constant time, group elements validated at deserialization
boundaries, and domain-separated hashing.  This package walks the
source tree with :mod:`ast` (stdlib only, no third-party dependency)
and enforces those invariants as machine-checkable rules:

========  ================  ====================================================
Rule id   Name              Invariant
========  ================  ====================================================
RP101     rng-discipline    no ambient ``random.*`` in crypto modules; secret
                            randomness flows from an injected rng or
                            ``repro.crypto.rng.system_rng``
RP102     ct-compare        no ``==``/``!=`` on secret-named values; use
                            ``repro.crypto.ct.bytes_eq``
RP103     secret-leak       secret-named values never reach f-strings, ``repr``,
                            ``print``, logging, or exception messages
RP104     point-validation  decoded group elements are validated (on-curve +
                            subgroup) before they escape the decoder
RP105     hash-domain       no raw ``a + b`` concatenation fed to a hash; core
                            code uses the domain-separated helpers
RP201     secret-flow-sink  no interprocedural dataflow path from a secret to
                            a rendering sink (f-string, ``print``, logging,
                            exception message, dataclass ``__repr__``)
RP202     secret-branch     no branch or loop condition decided by a secret
                            (variable-time control flow)
RP203     secret-serialize  no secret or raw pairing output serialized or
                            persisted without first passing a KDF
RP204     taint-escape      no secret passed into an untracked third-party
                            call
RP401     unverified-update-use     no wire-decoded update reaches a
                            cache insert, decrypt, or serialization
                            sink before the pairing check
                            ê(sG, H1(T)) == ê(G, I_T) passes
RP402     unguarded-transport-await no ``await`` on a transport
                            round-trip outside an asyncio.wait_for /
                            deadline scope
RP403     untracked-task    no dropped ``create_task``/``ensure_future``
                            result — tasks are stored, awaited, or
                            cancelled
RP404     unclassified-service-error  service raises use the transient/
                            permanent taxonomy; broad excepts must
                            re-raise or classify
RP405     verify-result-discarded   no verification verdict computed
                            and thrown away
========  ================  ====================================================

RP1xx are single-node pattern rules (:mod:`repro.lint.rules`); RP2xx
come from the whole-program taint analysis (:mod:`repro.lint.flow`),
which propagates a CLEAN < DERIVED < SECRET lattice through function
summaries to a fixpoint and reports at the call site that supplies the
secret, however many calls separate it from the sink; RP4xx come from
the typestate protocol pass (:mod:`repro.lint.proto`), which tracks
per-variable abstract states (FETCHED < PARAM < VERIFIED for wire-
decoded updates) through assignments, branches, and interprocedural
summaries, plus the async-discipline and error-taxonomy checks.
The two whole-program families share one core,
:mod:`repro.lint.program`: the program index, the call binder, the
summary fixpoint and the finding sink.

Suppression is explicit and reviewable, and has one form: an inline
``# lint: allow[rule-name] justification`` waiver on (or directly
above) the offending line.  A waiver that suppresses nothing fails the
gate.  ``python -m repro.lint src/`` runs the analyzer;
``tests/lint/test_tree_is_clean.py`` gates the pytest suite.

See ``docs/STATIC_ANALYSIS.md`` for the rule-by-rule rationale.
"""

from __future__ import annotations

from repro.lint.engine import RULES, LintReport
from repro.lint.findings import Finding

__all__ = ["RULES", "Finding", "LintReport"]
