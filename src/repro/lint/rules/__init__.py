"""The single-node rules (RP1xx).

To add a rule: subclass :class:`repro.lint.rules.base.Rule` in a new
module here, give it a fresh ``RPxxx`` id and a kebab-case ``name``,
append an instance to ``MODULE_RULES``, document it in
``docs/STATIC_ANALYSIS.md``, and add positive/negative fixtures under
``tests/lint/fixtures/``.  ``repro.lint.engine.RULES`` is the one table
of every rule, these and the whole-program families'.
"""

from __future__ import annotations

from repro.lint.rules.base import CRYPTO_DIRS, ModuleContext, Rule
from repro.lint.rules.constant_time import ConstantTimeRule
from repro.lint.rules.hash_domain import HashDomainRule
from repro.lint.rules.point_validation import PointValidationRule
from repro.lint.rules.rng_discipline import RngDisciplineRule
from repro.lint.rules.secret_leak import SecretLeakRule

MODULE_RULES: tuple[Rule, ...] = (
    RngDisciplineRule(),
    ConstantTimeRule(),
    SecretLeakRule(),
    PointValidationRule(),
    HashDomainRule(),
)

__all__ = ["CRYPTO_DIRS", "MODULE_RULES", "ModuleContext", "Rule"]
