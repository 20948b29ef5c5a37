"""Typestate protocols and the RP401–RP405 rules.

The pass runs after the flow fixpoint on the same
:class:`~repro.lint.program.Program`, adding a third
whole-program family: object *protocols* in the Strom–Yemini typestate
tradition.  Each tracked value carries an abstract state; operations
either transition the state or demand one the value has not reached.

The central protocol is the paper's verify-before-use invariant: a
``TimeBoundKeyUpdate`` decoded from wire bytes is FETCHED, and only the
pairing check ``ê(sG, H1(T)) == ê(G, I_T)`` (``update.verify`` /
``ensure_valid`` / ``verify_archive`` / ``pair_ratio_is_one``) moves it
to VERIFIED — the state every cache insert, decrypt, and
re-serialization requires.  Like the taint pass, the analysis is
interprocedural: per-function summaries record which parameters a
helper verifies, which it sinks, and the state of what it returns, and
a summary fixpoint lets findings fire at the call site that actually
supplies the unverified value.

========  ==========================  =================================
Rule id   Name                        Violation
========  ==========================  =================================
RP401     unverified-update-use       a wire-decoded update reaches a
                                      cache insert, decrypt, or
                                      serialization sink while still
                                      FETCHED on some path
RP402     unguarded-transport-await   ``await`` on a transport/channel
                                      round-trip outside any
                                      ``asyncio.wait_for``/deadline
                                      scope
RP403     untracked-task              ``create_task``/``ensure_future``
                                      result dropped — never stored,
                                      awaited, or cancelled
RP404     unclassified-service-error  a ``repro.service`` raise outside
                                      the transient/permanent taxonomy,
                                      or a broad except that swallows
                                      without re-raising
RP405     verify-result-discarded     the boolean verdict of a
                                      verification call is computed and
                                      thrown away
========  ==========================  =================================

:class:`ProtoTransfer` is the typestate domain of the shared statement
walker (:class:`~repro.lint.program.Walker`, which owns the control
flow, target binding, comprehension scopes and the call-site loop).
States join pessimistically (a value verified on only one branch stays
FETCHED after the merge), guard verdicts transition their subject only
on the control-flow path where the verdict is known true (the
``refine`` hook), and a ``for``-loop that verifies its loop variable on
every iteration promotes the iterated collection (the ``promote``
hook).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.program import (
    FunctionInfo,
    Program,
    Summaries,
    Walker,
    arguments,
    clip,
    env_key,
    own_nodes,
)
from repro.lint.proto import registry as preg
from repro.lint.rules.base import Rule, name_tokens, terminal_name

RP401 = Rule(
    "RP401",
    "unverified-update-use",
    "an update decoded from wire bytes reaches a cache insert, "
    "decrypt, or serialization sink without passing the pairing "
    "check ê(sG, H1(T)) == ê(G, I_T) on every path — a forged "
    "update accepted here poisons everything downstream that "
    "trusts the cache",
    "guard the value first: `if not update.verify(group, pub): "
    "raise`, `update.ensure_valid(...)`, or batch-verify the "
    "collection with verify_archive(...) and drop the failures",
)
RP402 = Rule(
    "RP402",
    "unguarded-transport-await",
    "an `await` on a transport/channel round-trip is not enclosed "
    "in an asyncio.wait_for/deadline scope — a stalled peer then "
    "parks this coroutine forever, outside every retry policy",
    "wrap the call: `await asyncio.wait_for(transport.request(...), "
    "timeout)` (see service.client for the Deadline idiom)",
)
RP403 = Rule(
    "RP403",
    "untracked-task",
    "the Task returned by create_task/ensure_future is dropped — "
    "an untracked task is garbage-collected mid-flight, its "
    "exceptions are logged to the void, and shutdown cannot cancel "
    "or await it",
    "store the task (e.g. on self), await or cancel it on the "
    "shutdown path, or hand it to a tracked task group",
)
RP404 = Rule(
    "RP404",
    "unclassified-service-error",
    "service-layer error handling outside the transient/permanent "
    "taxonomy: a raise the retry policies cannot classify, or a "
    "broad except that swallows errors they needed to see",
    "raise TransientServiceError/PermanentServiceError (or a "
    "subclass) from repro.errors; catch the specific exception and "
    "record or re-wrap it instead of `except Exception: pass`",
)
RP405 = Rule(
    "RP405",
    "verify-result-discarded",
    "the boolean verdict of a verification call is never consumed "
    "— the pairing check ran, burned the CPU, and protected "
    "nothing",
    "branch on the verdict (`if not ok: raise ...`) or use the "
    "raising form `update.ensure_valid(...)`",
)
PROTO_RULES = (RP401, RP402, RP403, RP404, RP405)

# -- the typestate lattice ---------------------------------------------------

# FETCHED < PARAM < VERIFIED; merge joins take the minimum, so a value
# is only as trusted as its least-trusted path.  PARAM is the unknown
# middle: a parameter's real state is the call site's business, so a
# sink reached by a PARAM value records a summary entry instead of a
# finding.
FETCHED = 0
PARAM = 1
VERIFIED = 2

# Value kinds: one update, a collection of updates, or the boolean
# verdict of a verification call (which remembers whose verdict it is).
UPDATE = "update"
COLL = "coll"
VERDICT = "verdict"


@dataclass(frozen=True)
class Val:
    """One tracked abstract value."""

    kind: str
    state: int = FETCHED
    # Parameter indices this value (directly) derives from; drives the
    # verifies/param_sinks/verdict_of summary entries.
    params: frozenset[int] = frozenset()
    # VERDICT only: env keys (locals, `self.attr`) the verdict vouches
    # for — consumed when control flow branches on the verdict.
    subjects: tuple[str, ...] = ()


def _join_vals(a: Val | None, b: Val | None) -> Val | None:
    if a is None or b is None:
        return None
    if a.kind == VERDICT or b.kind == VERDICT:
        # A verdict merged with anything else is no longer a usable
        # verdict (which branch computed it?).
        return None
    kind = COLL if COLL in (a.kind, b.kind) else UPDATE
    return Val(kind, min(a.state, b.state), a.params | b.params)


@dataclass
class ProtoSummary:
    """One function's protocol contract."""

    # State of the returned update value, None when no update returned.
    returns_update: int | None = None
    # Parameter indices VERIFIED on every normal (non-raising) exit.
    verifies: frozenset[int] = frozenset()
    # Nonempty: the return value is a verify verdict for these params.
    verdict_of: frozenset[int] = frozenset()
    # Parameter index -> description of the update sink it reaches.
    # Descriptions are the original sink's, never re-composed, so
    # entries are stable and the fixpoint terminates.
    param_sinks: dict[int, str] = field(default_factory=dict)


def _is_update_name(identifier: str) -> bool:
    return preg.UPDATE_NAME_MARKER in identifier.lower()


def _receiver_name(expr: ast.expr) -> str | None:
    """Terminal name of a call/store receiver, looking through
    subscripts: ``self.transports[source]`` -> ``transports``."""
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    return terminal_name(node)


class ProtoTransfer(Walker[Val]):
    """The typestate domain over one function body."""

    def __init__(
        self, func: FunctionInfo, summaries: Summaries[ProtoSummary], report: bool
    ):
        super().__init__(func, summaries, report)
        self.param_index = {name: i for i, name in enumerate(func.params)}
        for i, name in enumerate(func.params):
            if _is_update_name(name):
                kind = COLL if name.lower().rstrip("_").endswith("s") else UPDATE
                self.env[name] = Val(kind, PARAM, frozenset((i,)))
        self.returns_update: int | None = None
        self.verdict_params: frozenset[int] = frozenset()
        self.param_sinks: dict[int, str] = {}
        # Intersection of VERIFIED params over all normal exits; None
        # until the first exit is seen.
        self._exit_verified: frozenset[int] | None = None

    def run(self) -> ProtoSummary:
        # Functions named like guards are the verifier TCB: their
        # bodies implement verification (serializing updates to shard
        # them, pairing on raw fields) and are exempt from their own
        # protocol.
        if self.func.name in preg.GUARD_DEF_NAMES:
            return ProtoSummary()
        body = getattr(self.func.node, "body", [])
        if not self.exec_block(body, self.env):
            self._note_exit(self.env)
        return ProtoSummary(
            returns_update=self.returns_update,
            verifies=self._exit_verified or frozenset(),
            verdict_of=self.verdict_params,
            param_sinks=dict(self.param_sinks),
        )

    def _note_exit(self, env: dict[str, Val]) -> None:
        verified = frozenset(
            i
            for name, i in self.param_index.items()
            if (val := env.get(name)) is not None
            and val.kind in (UPDATE, COLL)
            and val.state == VERIFIED
        )
        if self._exit_verified is None:
            self._exit_verified = verified
        else:
            self._exit_verified &= verified

    # -- findings and summary entries ---------------------------------------

    def _sink(self, node: ast.AST, val: Val | None, happened: str) -> None:
        """A tracked update value reached an RP401 sink."""
        if val is None or val.kind not in (UPDATE, COLL):
            return
        if val.state == FETCHED:
            self._emit(
                node,
                RP401,
                f"unverified update (state FETCHED) {happened} in "
                f"`{self.func.name}` — ê(sG, H1(T)) == ê(G, I_T) was "
                "never checked on this path",
            )
        elif val.state == PARAM:
            desc = clip(f"{happened} in `{self.func.name}`")
            for i in val.params:
                self.param_sinks.setdefault(i, desc)

    # -- the walker's hooks -------------------------------------------------

    join_values = staticmethod(_join_vals)

    def refine(
        self, test: ast.expr, then_env: dict[str, Val], else_env: dict[str, Val]
    ) -> None:
        self._verify_subjects(test, then_env)
        # `if not update.verify(...): raise` verifies the else path.
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            self._verify_subjects(test.operand, else_env)

    def on_return(self, stmt: ast.Return, env: dict[str, Val]) -> None:
        val = self.eval(stmt.value, env)
        if val is not None:
            if val.kind in (UPDATE, COLL):
                self.returns_update = (
                    val.state
                    if self.returns_update is None
                    else min(self.returns_update, val.state)
                )
            elif val.kind == VERDICT:
                self.verdict_params |= val.params
        self._note_exit(env)

    def on_assert(self, stmt: ast.Assert, env: dict[str, Val]) -> None:
        self._verify_subjects(stmt.test, env)

    def expr_statement(self, stmt: ast.Expr, env: dict[str, Val]) -> None:
        value = stmt.value
        call = value.value if isinstance(value, ast.Await) else value
        if isinstance(call, ast.Call):
            name = terminal_name(call.func)
            if name in preg.VERIFY_PREDICATES:
                rendered = clip(ast.unparse(call))
                self._emit(
                    call,
                    RP405,
                    f"verdict of `{rendered}` is discarded in "
                    f"`{self.func.name}` — the check constrains nothing",
                )
        self.eval(value, env)

    def augment(self, stmt: ast.AugAssign, env: dict[str, Val]) -> None:
        # `pending += [update]` puts the update into `pending`, as
        # `pending.append(update)` does.
        self._put(stmt.target, stmt.value, self.eval(stmt.value, env), env)

    def bind_element(
        self, target: ast.expr, iterated: Val | None, env: dict[str, Val]
    ) -> None:
        if (
            iterated is not None
            and iterated.kind in (UPDATE, COLL)
            and isinstance(target, ast.Name)
        ):
            env[target.id] = Val(UPDATE, iterated.state, iterated.params)

    def promote(
        self,
        stmt: ast.For | ast.AsyncFor,
        iterated: Val | None,
        loop_env: dict[str, Val],
        env: dict[str, Val],
    ) -> None:
        # Verifying the loop variable on every iteration verifies the
        # iterated collection (`for u in coll: u.ensure_valid(...)`
        # leaves coll VERIFIED).  Vacuous for an empty collection,
        # which is also vacuously safe.
        iter_key = env_key(stmt.iter)
        if (
            iter_key is not None
            and isinstance(stmt.target, ast.Name)
            and iterated is not None
            and iterated.kind in (UPDATE, COLL)
            and (loop_val := loop_env.get(stmt.target.id)) is not None
            and loop_val.kind == UPDATE
            and loop_val.state == VERIFIED
        ):
            env[iter_key] = Val(iterated.kind, VERIFIED, iterated.params)

    def store_item(
        self, target: ast.Subscript, val: Val | None, env: dict[str, Val]
    ) -> None:
        # `container[k] = v`: a cache-named container is an RP401 sink;
        # any other container becomes a tracked collection holding v's
        # state.
        receiver = _receiver_name(target.value)
        if receiver is None:
            return
        if name_tokens(receiver) & preg.CACHE_NAME_TOKENS:
            rendered = clip(ast.unparse(target))
            self._sink(target, val, f"stored into cache `{rendered}`")
        elif val is not None and val.kind in (UPDATE, COLL):
            self._collect(env_key(target.value), val, env)

    def _put(
        self, container: ast.expr, item: ast.expr, val: Val | None, env: dict[str, Val]
    ) -> None:
        """``item`` (evaluated to ``val``) went into ``container`` by
        ``append``, ``add`` or ``+=``: a cache-named container is an
        RP401 sink; any other becomes a tracked collection."""
        rname = _receiver_name(container)
        if rname is not None and (name_tokens(rname) & preg.CACHE_NAME_TOKENS):
            self._sink(item, val, f"appended to cache `{clip(ast.unparse(container))}`")
        elif val is not None and val.kind in (UPDATE, COLL):
            self._collect(env_key(container), val, env)

    def _collect(self, key: str | None, val: Val, env: dict[str, Val]) -> None:
        """``val`` went into the container at ``key``."""
        if key is None:
            return
        held = Val(COLL, val.state, val.params)
        joined = _join_vals(env.get(key, held), held)
        if joined is not None:
            env[key] = joined

    # -- verdict consumption -------------------------------------------------

    def _verify_key(self, key: str | None, env: dict[str, Val]) -> None:
        val = env.get(key) if key is not None else None
        if val is not None and val.kind in (UPDATE, COLL):
            env[key] = Val(val.kind, VERIFIED, val.params)

    def _verdict(self, exprs: list[ast.expr | None], env: dict[str, Val]) -> Val:
        """The verdict of a check on ``exprs``: it vouches for those of
        them that are tracked updates."""
        subjects: list[str] = []
        params: frozenset[int] = frozenset()
        for expr in exprs:
            key = env_key(expr)
            val = env.get(key) if key is not None else None
            if val is not None and val.kind in (UPDATE, COLL):
                subjects.append(key)
                params |= val.params
        return Val(VERDICT, params=params, subjects=tuple(subjects))

    def _verify_subjects(self, test: ast.expr, env: dict[str, Val]) -> None:
        """Verify, in ``env``, what ``test``'s verdict vouches for: the
        state where ``test`` is true."""
        val = self.eval(test, env)
        if val is not None and val.kind == VERDICT:
            for key in val.subjects:
                self._verify_key(key, env)

    # -- expressions --------------------------------------------------------

    def eval(self, node: ast.expr | None, env: dict[str, Val]) -> Val | None:
        if node is None or isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            key = env_key(node)
            if key is not None and key in env:
                return env[key]
            self.eval(node.value, env)
            return None
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, ast.Await):
            return self.eval(node.value, env)
        if isinstance(node, ast.NamedExpr):
            val = self.eval(node.value, env)
            self.bind(node.target, val, env)
            return val
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value, env)
            self.eval(node.slice, env)
            if base is not None and base.kind in (UPDATE, COLL):
                return Val(UPDATE, base.state, base.params)
            return None
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out: Val | None = None
            for elt in node.elts:
                val = self.eval(elt, env)
                if val is not None and val.kind in (UPDATE, COLL):
                    elt_coll = Val(COLL, val.state, val.params)
                    out = elt_coll if out is None else _join_vals(out, elt_coll)
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            then = self.eval(node.body, env)
            other = self.eval(node.orelse, env)
            if then is not None and other is not None:
                return _join_vals(then, other)
            return then if other is None else other
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            comp_env = self.comprehension_scope(node, env)
            if isinstance(node, ast.DictComp):
                self.eval(node.key, comp_env)
                self.eval(node.value, comp_env)
                return None
            elt_val = self.eval(node.elt, comp_env)
            if elt_val is not None and elt_val.kind in (UPDATE, COLL):
                return Val(COLL, elt_val.state, elt_val.params)
            return None
        if isinstance(
            node,
            (ast.UnaryOp, ast.BinOp, ast.BoolOp, ast.Compare, ast.Yield, ast.YieldFrom),
        ):
            # `not verdict` is no verdict: `refine` reads the polarity
            # off the branch test itself.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
            return None
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        return None

    # -- calls --------------------------------------------------------------

    def eval_call(self, node: ast.Call, env: dict[str, Val]) -> Val | None:
        func = node.func
        fname = terminal_name(func)
        is_attr = isinstance(func, ast.Attribute)
        receiver_key = env_key(func.value) if is_attr else None
        receiver_val = self.eval(func.value, env) if is_attr else None
        arg_vals = [self.eval(arg, env) for arg in arguments(node)]

        # Origin: `UpdateType.from_bytes(...)` decodes untrusted bytes.
        if (
            is_attr
            and fname in preg.UPDATE_DECODE_CALLS
            and (rname := terminal_name(func.value)) is not None
            and _is_update_name(rname)
        ):
            return Val(UPDATE, FETCHED)

        # Guards --------------------------------------------------------
        if fname in preg.VERIFY_RAISING_GUARDS and is_attr:
            self._verify_key(receiver_key, env)
            return None
        if fname in preg.BATCH_VERIFY_CALLS:
            for arg in arguments(node):
                self._verify_key(env_key(arg), env)
            return None
        if fname in preg.VERIFY_PREDICATES:
            return self._verdict([func.value] if is_attr else node.args, env)

        # Sinks ---------------------------------------------------------
        if fname in preg.UPDATE_USE_CALLS:
            for arg, val in zip(arguments(node), arg_vals):
                self._sink(arg, val, f"passed to `{fname}()`")
            return None
        if (
            fname in preg.UPDATE_SERIALIZE_CALLS
            and is_attr
            and receiver_val is not None
        ):
            self._sink(
                func.value, receiver_val, "re-serialized via `.to_bytes()`"
            )
            return None
        if fname in ("append", "add") and is_attr and node.args:
            self._put(func.value, node.args[0], arg_vals[0], env)
            return None

        # Pass-through builtins keep the element state.
        if not is_attr and fname in ("list", "sorted", "tuple", "set", "reversed"):
            for val in arg_vals:
                if val is not None and val.kind in (UPDATE, COLL):
                    return Val(COLL, val.state, val.params)
            return None

        # Calls resolved inside the analyzed program ---------------------
        return self._apply_program_call(node, arg_vals, env)

    def _apply_program_call(
        self, node: ast.Call, arg_vals: list[Val | None], env: dict[str, Val]
    ) -> Val | None:
        # A constructor call binds nothing (None): constructors build
        # *trusted* local values — the typestate protocol governs bytes
        # that crossed a wire, and those enter through from_bytes, not
        # __init__.
        args = list(zip(arguments(node), arg_vals))
        out: Val | None = None
        for cand, bound in self.program.bind_call(node, args) or ():
            summary = self.summaries.of(cand)
            arg_exprs = {pidx: expr for pidx, (expr, _) in bound.items()}
            param_vals = {pidx: val for pidx, (_, val) in bound.items()}
            for pidx, desc in sorted(summary.param_sinks.items()):
                val = param_vals.get(pidx)
                if val is None or val.kind not in (UPDATE, COLL):
                    continue
                if val.state == FETCHED:
                    pname = (
                        cand.params[pidx]
                        if pidx < len(cand.params)
                        else f"#{pidx}"
                    )
                    self._emit(
                        node,
                        RP401,
                        f"unverified update passed as `{pname}` to "
                        f"`{cand.name}()`, which {desc}",
                    )
                elif val.state == PARAM:
                    for i in val.params:
                        self.param_sinks.setdefault(i, desc)
            for pidx in summary.verifies:
                self._verify_key(env_key(arg_exprs.get(pidx)), env)
            if summary.verdict_of:
                exprs = [arg_exprs.get(pidx) for pidx in sorted(summary.verdict_of)]
                verdict = self._verdict(exprs, env)
                out = verdict if out is None else None
            elif summary.returns_update is not None:
                returned = Val(UPDATE, summary.returns_update)
                out = returned if out is None else _join_vals(out, returned)
        return out


class ProtocolAnalysis:
    """One whole-program typestate pass: the protocol fixpoint and
    report (RP401, RP405), then the per-function RP402–RP404 scans."""

    def __init__(self, program: Program):
        self.program = program

    def run(self) -> None:
        self.program.solve(ProtoTransfer, ProtoSummary()).report()
        for func in self.program.functions:
            self._rule_402(func)
            self._rule_403(func)
            self._rule_404(func)

    # -- RP402: unguarded transport awaits -----------------------------------

    def _rule_402(self, func: FunctionInfo) -> None:
        guarded: set[int] = set()
        for node in own_nodes(func.node):
            if (
                isinstance(node, ast.Call)
                and terminal_name(node.func) in preg.DEADLINE_GUARD_CALLS
            ):
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    for inner in ast.walk(arg):
                        guarded.add(id(inner))
        for node in own_nodes(func.node):
            if not isinstance(node, ast.Await):
                continue
            call = node.value
            if not isinstance(call, ast.Call) or id(call) in guarded:
                continue
            if not isinstance(call.func, ast.Attribute):
                continue
            if call.func.attr not in preg.TRANSPORT_AWAIT_METHODS:
                continue
            rname = _receiver_name(call.func.value)
            if rname is None or not (
                name_tokens(rname) & preg.TRANSPORT_RECEIVER_TOKENS
            ):
                continue
            self.program.emit(
                func,
                node,
                RP402,
                f"`await {clip(ast.unparse(call))}` in `{func.name}` is "
                "not bounded by asyncio.wait_for or a deadline scope — a "
                "stalled peer parks this coroutine forever",
            )

    # -- RP403: dropped asyncio tasks ----------------------------------------

    def _rule_403(self, func: FunctionInfo) -> None:
        spawners: list[tuple[ast.stmt, ast.Call, str | None]] = []
        own = list(own_nodes(func.node))
        for node in own:
            if isinstance(node, ast.Expr) and self._spawner_call(node.value):
                spawners.append((node, node.value, None))
            elif (
                isinstance(node, ast.Assign)
                and self._spawner_call(node.value)
                and all(isinstance(t, ast.Name) for t in node.targets)
            ):
                for target in node.targets:
                    spawners.append((node, node.value, target.id))
        if not spawners:
            return
        loads: set[str] = {
            node.id
            for node in own
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt, call, name in spawners:
            fname = terminal_name(call.func)
            if name is None:
                self.program.emit(
                    func,
                    stmt,
                    RP403,
                    f"task spawned by `{fname}(...)` in `{func.name}` is "
                    "dropped — never stored, awaited, or cancelled",
                )
            elif name not in loads:
                self.program.emit(
                    func,
                    stmt,
                    RP403,
                    f"task `{name}` spawned in `{func.name}` is never "
                    "read again — not awaited, cancelled, or stored",
                )

    @staticmethod
    def _spawner_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and terminal_name(node.func) in preg.TASK_SPAWNERS
        )

    # -- RP404: the service error taxonomy -----------------------------------

    def _rule_404(self, func: FunctionInfo) -> None:
        if func.top_dir in preg.RAISE_TAXONOMY_SCOPES:
            allowed = preg.SERVICE_TAXONOMY_CLASSES | preg.SERVICE_WRAPPED_ERRORS
            for node in own_nodes(func.node):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                target = exc.func if isinstance(exc, ast.Call) else exc
                name = terminal_name(target)
                # Only class-looking names are judged: re-raising a
                # caught variable (`raise exc`) is classification done
                # elsewhere.
                if name is None or not name[:1].isupper():
                    continue
                if name in allowed:
                    continue
                self.program.emit(
                    func,
                    node,
                    RP404,
                    f"`raise {name}(...)` in `{func.name}` is outside the "
                    "transient/permanent service-error taxonomy — retry "
                    "policies cannot classify it",
                )
        if func.top_dir in preg.BROAD_EXCEPT_SCOPES:
            for node in own_nodes(func.node):
                if not isinstance(node, ast.Try):
                    continue
                for handler in node.handlers:
                    if not self._broad_handler(handler):
                        continue
                    if any(
                        isinstance(inner, ast.Raise)
                        for stmt in handler.body
                        for inner in ast.walk(stmt)
                    ):
                        continue
                    caught = (
                        terminal_name(handler.type)
                        if handler.type is not None
                        else "everything"
                    )
                    self.program.emit(
                        func,
                        handler,
                        RP404,
                        f"broad `except {caught}` in `{func.name}` swallows "
                        "the error without re-raising or classifying it — "
                        "transient faults and real bugs become silence",
                    )

    @staticmethod
    def _broad_handler(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        return any(terminal_name(t) in preg.BROAD_EXCEPT_NAMES for t in types)


def analyze_protocols(program: Program) -> None:
    """Run the typestate pass, emitting RP4xx findings into
    ``program``.  Its summaries are the protocol family's own
    fixpoint over the shared program."""
    ProtocolAnalysis(program).run()
