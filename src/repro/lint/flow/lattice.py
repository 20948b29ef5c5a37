"""The taint lattice: CLEAN < DERIVED < SECRET, plus parameter symbols.

An abstract value carries two things:

* a **level** — the concrete taint known inside the current function:
  ``SECRET`` for declared secret material itself (key scalars, rng
  draws), ``DERIVED`` for values computed from secrets (or raw pairing
  outputs) that have not passed a sanitizer, ``CLEAN`` otherwise;
* **deps** — the formal parameters whose *caller-side* taint joins into
  the value.  Deps are what make the analysis interprocedural: a
  function's summary says "the return value is at least as tainted as
  parameters {i, j}", and call sites substitute actual argument taints.

Each dep edge also records whether the flow is **direct** (the value
*is* the parameter, or a secret-named projection of it) or a neutral
attribute projection (``self.policy`` on an object that also holds a
key).  Only direct flows count at sinks — a server object is not
leaked by rendering its epoch counter — which is the cheap stand-in
for field sensitivity that keeps container objects from poisoning
every method call on them.

Join is pointwise (max level, union of deps), so the lattice is finite
and the summary fixpoint terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

CLEAN = 0
DERIVED = 1
SECRET = 2

# A dep edge is (param_index, direct).
Dep = "tuple[int, bool]"


@dataclass(frozen=True)
class Taint:
    """One abstract value: concrete level + symbolic parameter deps."""

    level: int = CLEAN
    deps: frozenset = field(default_factory=frozenset)  # of (int, bool)

    def join(self, other: "Taint") -> "Taint":
        if other is TAINT_CLEAN:
            return self
        if self is TAINT_CLEAN:
            return other
        return Taint(max(self.level, other.level), self.deps | other.deps)

    def with_level(self, level: int) -> "Taint":
        """The same deps at a different concrete level."""
        return Taint(level, self.deps)

    def demoted(self) -> "Taint":
        """A neutral projection: same level, dep edges no longer direct."""
        if not self.deps:
            return self
        return Taint(self.level, frozenset((i, False) for i, _ in self.deps))

    def direct_deps(self) -> "frozenset[int]":
        return frozenset(i for i, direct in self.deps if direct)


TAINT_CLEAN = Taint()
TAINT_DERIVED = Taint(DERIVED)
TAINT_SECRET = Taint(SECRET)


def join_all(values: "list[Taint] | tuple[Taint, ...]") -> Taint:
    out = TAINT_CLEAN
    for value in values:
        out = out.join(value)
    return out


def param(index: int, level: int = CLEAN) -> Taint:
    """The symbolic taint of formal parameter ``index`` (a direct flow)."""
    return Taint(level, frozenset(((index, True),)))
