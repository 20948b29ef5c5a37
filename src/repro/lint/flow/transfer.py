"""The taint domain: abstract interpretation of one function body.

:class:`FunctionTransfer` is the taint domain of the shared statement
walker (:class:`~repro.lint.program.Walker`, which owns the control
flow, target binding, comprehension scopes and the call-site loop).
It maps local names to :class:`~repro.lint.flow.lattice.Taint` values
and supplies the join, the expression and call semantics, and the sink
checks at branch tests (RP202), returns (RP203), raises and assert
messages (RP201).  The output is a :class:`Summary` — the function's
interprocedural contract:

* ``returns`` — taint of the return value, with the parameter indices
  that flow into it;
* ``param_sinks`` — parameters that reach a sink *inside* the function
  (directly or through further calls), so a call site passing a secret
  argument is reported even when the leak is several hops away.

Findings are emitted only on the reporting pass (after the summary
fixpoint), and only when a value is *concretely* tainted — a parameter
that merely might be secret records a summary entry instead, and the
call site that actually supplies a secret gets the finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.flow import registry as reg
from repro.lint.flow.lattice import (
    CLEAN,
    DERIVED,
    SECRET,
    TAINT_CLEAN,
    Taint,
    join_all,
)
from repro.lint.program import FunctionInfo, Summaries, Walker, arguments, clip, env_key
from repro.lint.rules.base import CRYPTO_DIRS, Rule, name_tokens

# Which package top-dirs each rule patrols; None = everywhere.  "" is
# the top_dir of files outside the repro package (examples, benchmarks,
# scripts) — rendering and third-party escapes matter there, branch
# timing and serialization discipline do not.
RP201 = Rule(
    "RP201",
    "secret-flow-sink",
    "a secret (or pre-KDF derived) value flows — possibly through "
    "helper calls — into logging, printing, f-strings, repr, or "
    "exception text",
    "log a length/placeholder instead, or KDF the value first; for "
    "dataclasses holding keys, redact with repro.crypto.redacted_repr",
)
RP202 = Rule(
    "RP202",
    "secret-branch",
    "control flow (if/while/assert/ternary) depends on a secret "
    "value — variable-time execution observable over the network",
    "restructure to constant-time selection, or waive with a "
    "justification when the branch reveals only negligible information",
    scopes=CRYPTO_DIRS,
)
RP203 = Rule(
    "RP203",
    "secret-serialize",
    "a secret or pre-KDF pairing value is serialized or persisted "
    "without passing a KDF",
    "pass the value through repro.crypto.kdf.derive_key or "
    "PairingGroup.mask_bytes before it leaves the process",
    scopes=CRYPTO_DIRS,
)
RP204 = Rule(
    "RP204",
    "taint-escape",
    "a secret value is passed to an untracked third-party callable "
    "the analysis cannot follow",
    "wrap the boundary in an audited in-tree helper, or sanitize "
    "the value before it crosses",
    scopes=(*CRYPTO_DIRS, ""),
)
FLOW_RULES = (RP201, RP202, RP203, RP204)

# Minimum concrete taint level at which each rule fires.  RP201/RP203
# include DERIVED: pre-KDF pairing values must not be rendered or
# serialized.  RP202/RP204 demand SECRET to keep verification-pairing
# branches and generic helper calls quiet.
RULE_THRESHOLD = {RP201: DERIVED, RP202: SECRET, RP203: DERIVED, RP204: SECRET}


@dataclass
class Summary:
    """A function's interprocedural contract."""

    returns: Taint = TAINT_CLEAN
    # (param index, rule) -> (call depth to the sink, description).
    # The description is the *original* sink's, never re-composed, so
    # summary entries are stable and the fixpoint terminates.
    param_sinks: dict[tuple[int, Rule], tuple[int, str]] = field(default_factory=dict)


def _qualify(level: int) -> str:
    return "secret" if level >= SECRET else "secret-derived"


class FunctionTransfer(Walker[Taint]):
    """The taint domain over one function body."""

    CAUGHT = TAINT_CLEAN

    def __init__(self, func: FunctionInfo, summaries: Summaries[Summary], report: bool):
        super().__init__(func, summaries, report)
        self.returns = TAINT_CLEAN
        self.param_sinks: dict[tuple[int, Rule], tuple[int, str]] = {}
        for i, name in enumerate(func.params):
            level = SECRET if reg.is_secret_name(name) else CLEAN
            self.env[name] = Taint(level, frozenset(((i, True),)))

    def run(self) -> Summary:
        self.exec_block(getattr(self.func.node, "body", []), self.env)
        return Summary(self.returns, dict(self.param_sinks))

    # -- findings and summary entries ---------------------------------------

    def _sink(
        self, node: ast.AST, rule: Rule, taint: Taint, happened: str
    ) -> None:
        """A tainted value reached a sink described by ``happened``."""
        threshold = RULE_THRESHOLD[rule]
        if taint.level >= threshold:
            self._emit(node, rule, f"{_qualify(taint.level)} value {happened}")
        elif taint.direct_deps():
            # Only *direct* flows become summary entries: rendering a
            # neutral field of an object that also holds a key is not a
            # leak of the key.
            desc = clip(f"{happened} in `{self.func.name}`")
            for dep in taint.direct_deps():
                self.param_sinks.setdefault((dep, rule), (0, desc))

    # -- the walker's hooks -------------------------------------------------

    def join_values(self, a: Taint, b: Taint) -> Taint:
        return a.join(b)

    def on_test(self, test: ast.expr, env: dict[str, Taint]) -> None:
        self._sink(
            test,
            RP202,
            self.eval(test, env),
            "decides a branch (variable-time control flow on a secret)",
        )

    def on_return(self, stmt: ast.Return, env: dict[str, Taint]) -> None:
        taint = self.eval(stmt.value, env)
        self.returns = self.returns.join(taint)
        if reg.is_serializer_name(self.func.name):
            self._sink(
                stmt,
                RP203,
                taint,
                f"returned from serializer `{self.func.name}` without a KDF",
            )

    def on_raise(self, stmt: ast.Raise, env: dict[str, Taint]) -> None:
        exc = stmt.exc
        if exc is None:
            return
        for arg in arguments(exc) if isinstance(exc, ast.Call) else [exc]:
            self._sink(
                arg,
                RP201,
                self.eval(arg, env),
                "rendered into a raised exception message",
            )

    def on_assert(self, stmt: ast.Assert, env: dict[str, Taint]) -> None:
        self.on_test(stmt.test, env)
        if stmt.msg is not None:
            self._sink(
                stmt.msg,
                RP201,
                self.eval(stmt.msg, env),
                "rendered in an assert message",
            )

    def store_item(self, target: ast.Subscript, taint: Taint, env: dict[str, Taint]) -> None:
        if isinstance(target.value, ast.Name):
            base = target.value.id
            env[base] = env.get(base, TAINT_CLEAN).join(taint)

    # -- expressions --------------------------------------------------------

    def eval(
        self,
        node: ast.expr | None,
        env: dict[str, Taint],
        *,
        no_serialize_sinks: bool = False,
    ) -> Taint:
        if node is None or isinstance(node, ast.Constant):
            return TAINT_CLEAN
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return Taint(SECRET) if reg.is_secret_name(node.id) else TAINT_CLEAN
        if isinstance(node, ast.Attribute):
            key = env_key(node)
            if key is not None and key in env:
                return env[key]
            base = self.eval(node.value, env)
            if reg.is_secret_name(node.attr):
                return Taint(SECRET, base.deps)
            if reg.is_public_name(node.attr):
                return TAINT_CLEAN
            return base.demoted()
        if isinstance(node, ast.Call):
            return self.eval_call(node, env, no_serialize_sinks=no_serialize_sinks)
        if isinstance(node, ast.JoinedStr):
            out = TAINT_CLEAN
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    taint = self.eval(part.value, env)
                    self._sink(part.value, RP201, taint, "formatted into an f-string")
                    out = out.join(taint)
            return out
        if isinstance(node, ast.BinOp):
            return self.eval(node.left, env).join(self.eval(node.right, env))
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.BoolOp):
            return join_all([self.eval(v, env) for v in node.values])
        if isinstance(node, ast.Compare):
            return join_all(
                [self.eval(node.left, env)]
                + [self.eval(c, env) for c in node.comparators]
            )
        if isinstance(node, ast.IfExp):
            self.on_test(node.test, env)
            return self.eval(node.body, env).join(self.eval(node.orelse, env))
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return join_all([self.eval(e, env) for e in node.elts])
        if isinstance(node, ast.Dict):
            return join_all(
                [self.eval(k, env) for k in node.keys if k is not None]
                + [self.eval(v, env) for v in node.values]
            )
        if isinstance(node, ast.Subscript):
            return self.eval(node.value, env)
        if isinstance(node, ast.Slice):
            return join_all(
                [self.eval(p, env) for p in (node.lower, node.upper, node.step) if p]
            )
        if isinstance(node, (ast.Starred, ast.Await, ast.FormattedValue)):
            return self.eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value, env)
            self.bind(node.target, taint, env)
            return taint
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self.returns = self.returns.join(self.eval(node.value, env))
            return TAINT_CLEAN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            comp_env = self.comprehension_scope(node, env)
            if isinstance(node, ast.DictComp):
                return self.eval(node.key, comp_env).join(
                    self.eval(node.value, comp_env)
                )
            return self.eval(node.elt, comp_env)
        return TAINT_CLEAN

    # -- calls --------------------------------------------------------------

    def eval_call(
        self,
        node: ast.Call,
        env: dict[str, Taint],
        *,
        no_serialize_sinks: bool = False,
    ) -> Taint:
        func = node.func
        fname = None
        base_name = None
        is_attr = isinstance(func, ast.Attribute)
        if isinstance(func, ast.Name):
            fname = func.id
        elif is_attr:
            fname = func.attr
            if isinstance(func.value, ast.Name):
                base_name = func.value.id

        sanitizing = fname in reg.SANITIZER_CALLS or (
            is_attr and base_name in reg.SANITIZER_MODULES
        )

        # Serializing a value directly *into* a sanitizer
        # (`derive_key(k.to_bytes(), ...)`) is the sanctioned idiom, so
        # serialization sinks are suppressed inside sanitizer arguments.
        suppress = no_serialize_sinks or sanitizing
        arg_taints = [
            self.eval(arg, env, no_serialize_sinks=suppress) for arg in arguments(node)
        ]
        args_join = join_all(arg_taints)

        if sanitizing:
            return TAINT_CLEAN
        if fname in reg.DECLASSIFIER_CALLS:
            return TAINT_CLEAN
        if fname in reg.SOURCE_CALLS:
            return Taint(reg.SOURCE_CALLS[fname])
        if fname in reg.PAIRING_CALLS:
            base = self.eval(func.value, env) if is_attr else TAINT_CLEAN
            return Taint(reg.PAIRING_LEVEL, args_join.deps | base.deps)

        # -- rendering sinks (RP201) ----------------------------------------
        sink_label = self._render_sink_label(func, fname, base_name)
        if sink_label is not None:
            for arg, taint in zip(arguments(node), arg_taints):
                self._sink(arg, RP201, taint, f"passed to {sink_label}")
            return TAINT_CLEAN

        # -- persistence sinks (RP203) --------------------------------------
        if not no_serialize_sinks and is_attr:
            persist_label = None
            if fname in reg.SERIALIZE_MODULE_CALLS and base_name in reg.SERIALIZER_MODULES:
                persist_label = f"{base_name}.{fname}()"
            elif fname in reg.PERSIST_METHODS and base_name not in reg.STDIO_RECEIVERS:
                persist_label = f".{fname}()"
            if persist_label is not None:
                for arg, taint in zip(node.args, arg_taints):
                    self._sink(
                        arg,
                        RP203,
                        taint,
                        f"serialized via {persist_label} without a KDF",
                    )
                return TAINT_CLEAN

        # -- calls resolved inside the analyzed program ---------------------
        base_taint = self.eval(func.value, env) if is_attr else None
        resolved = self._apply_program_call(
            node, base_taint, arg_taints, no_serialize_sinks
        )
        if resolved is not None:
            return resolved

        # -- untracked third-party boundary (RP204) -------------------------
        origin = self.program.imports[self.func.path].get(
            base_name if is_attr else fname
        )
        if origin is not None and not reg.is_tracked_module(origin):
            for arg, taint in zip(arguments(node), arg_taints):
                self._sink(
                    arg,
                    RP204,
                    taint,
                    f"passed to untracked third-party call `{fname}()`",
                )
            return args_join

        # Unresolved in-tree/builtin call: propagate argument taint (and
        # the receiver's for method calls — `secret.hex()` stays secret;
        # demoted because the result of an unknown method is a neutral
        # projection of the receiver, not the receiver itself).
        if base_taint is not None:
            return args_join.join(base_taint.demoted())
        return args_join

    def _render_sink_label(
        self, func: ast.expr, fname: str | None, base_name: str | None
    ) -> str | None:
        if isinstance(func, ast.Name) and fname in reg.RENDER_CALLS:
            return f"{fname}()"
        if isinstance(func, ast.Attribute):
            if fname in reg.LOG_METHODS and base_name is not None:
                if name_tokens(base_name) & reg.LOG_RECEIVER_TOKENS:
                    return f"{base_name}.{fname}()"
            if fname in reg.WARN_CALLS:
                return f"{fname}()"
            if fname == "format":
                return "str.format()"
            if fname == "write" and base_name in reg.STDIO_RECEIVERS:
                return f"{base_name}.write()"
        return None

    def _apply_program_call(
        self,
        node: ast.Call,
        base_taint: Taint | None,
        arg_taints: list[Taint],
        no_serialize_sinks: bool,
    ) -> Taint | None:
        """Apply summaries of in-program candidates; None when unresolved."""
        bound_calls = self.program.bind_call(node, arg_taints, base_taint)
        if bound_calls is None:
            # Constructor: the instance is a *container*, tracked
            # symbolically (non-direct deps) but not concretely — the
            # object is not the secret it holds.  Secrets are recovered
            # at field extraction (`kp.private`) by the name heuristics,
            # and unredacted reprs by the structural dataclass check.
            return join_all(arg_taints).with_level(CLEAN).demoted()
        if not bound_calls:
            return None
        out = TAINT_CLEAN
        for cand, param_taints in bound_calls:
            summary = self.summaries.of(cand)
            for (pidx, rule), (depth, desc) in summary.param_sinks.items():
                if no_serialize_sinks and rule is RP203:
                    continue
                arg_taint = param_taints.get(pidx)
                if arg_taint is None:
                    continue
                if arg_taint.level >= RULE_THRESHOLD[rule]:
                    pname = (
                        cand.params[pidx] if pidx < len(cand.params) else f"#{pidx}"
                    )
                    self._emit(
                        node,
                        rule,
                        f"{_qualify(arg_taint.level)} argument `{pname}` to "
                        f"`{cand.name}()` reaches a sink {depth + 1} call(s) "
                        f"deep in: {desc}",
                    )
                elif arg_taint.direct_deps():
                    for dep in arg_taint.direct_deps():
                        self.param_sinks.setdefault((dep, rule), (depth + 1, desc))
            ret = Taint(summary.returns.level)
            for pidx, direct in summary.returns.deps:
                arg_taint = param_taints.get(pidx, TAINT_CLEAN)
                if not direct:
                    # Returning a neutral projection of the argument
                    # forwards only symbolic (non-direct) flow, not the
                    # argument's concrete taint.
                    arg_taint = arg_taint.with_level(CLEAN).demoted()
                ret = ret.join(arg_taint)
            out = out.join(ret)
        return out
