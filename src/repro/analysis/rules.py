"""The repository's invariant rules (RPR001–RPR005).

Each rule is the machine-checked form of a DESIGN.md invariant (see
DESIGN.md §12 for the rule ↔ design-section map).  Rule ids are stable:
they are never renumbered or reused, so ``# repro: noqa(RPR00n)``
suppressions and CI logs stay meaningful across revisions.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from ..config import FEATURE_KNOBS
from .engine import Finding, ModuleContext, Rule, covers, resolve_import, rule
from .layers import LAYER_CONTRACTS, RUNTIME_SEAM_MODULES

#: Heuristic for "this expression names a threading synchronisation
#: primitive": matches ``lock`` / ``mutex`` / ``cond(ition)`` /
#: ``sem(aphore)`` anywhere in the identifier (``self._lock``,
#: ``shard.lock``, ``record.condition``, ``_pool_lock`` …).
_LOCK_NAME_RE = re.compile(r"lock|mutex|cond|sem", re.IGNORECASE)

#: Dotted call targets that block the calling thread.  RPR002 flags them
#: inside ``async def`` bodies — a blocked coroutine blocks the whole
#: event loop and every gathered operation on it.
BLOCKING_CALLS: frozenset[str] = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.waitpid",
        "urllib.request.urlopen",
    }
)

#: Bare builtins that perform blocking file/console I/O.
BLOCKING_BUILTINS: frozenset[str] = frozenset({"open", "input"})

#: Any dotted path *ending* in one of these is blocking by contract:
#: :func:`repro.aio.run_sync` drives a coroutine to completion inline, so
#: calling it from a coroutine nests one engine inside another and blocks
#: the loop for the full inner operation.
BLOCKING_TAILS: frozenset[str] = frozenset({"run_sync"})

#: Methods that block when invoked on a queue-like receiver (identified
#: by name, e.g. ``self._queue.get()``).
BLOCKING_QUEUE_METHODS: frozenset[str] = frozenset({"get", "put", "join"})
_QUEUE_NAME_RE = re.compile(r"queue", re.IGNORECASE)


def _dotted_name(expr: ast.expr) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _own_scope_walk(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class
    scopes — an ``await`` inside a nested ``async def`` belongs to that
    function, not to the enclosing one."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _async_functions(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


def _lockish_display(expr: ast.expr) -> str | None:
    """Name of *expr* when it plausibly denotes a threading primitive."""
    if isinstance(expr, ast.Name) and _LOCK_NAME_RE.search(expr.id):
        return expr.id
    if isinstance(expr, ast.Attribute) and _LOCK_NAME_RE.search(expr.attr):
        dotted = _dotted_name(expr)
        return dotted if dotted is not None else expr.attr
    return None


@rule
class LockHeldAcrossAwait(Rule):
    """A ``with <lock>:`` scope in a coroutine must not contain ``await``.

    A threading lock held across a suspension point is held for the
    lifetime of *every other task* the loop schedules in between — the
    deadlock/starvation class the async core must never reintroduce
    (DESIGN.md §8).  Asyncio primitives (``async with``) are exempt by
    construction: the rule only inspects synchronous ``with`` blocks.
    """

    id = "RPR001"
    name = "lock-held-across-await"
    description = "threading lock/condition scope contains an await"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in _async_functions(ctx.tree):
            for node in _own_scope_walk(func.body):
                if not isinstance(node, ast.With):
                    continue
                lock_names = [
                    name
                    for item in node.items
                    if (name := _lockish_display(item.context_expr)) is not None
                ]
                if not lock_names:
                    continue
                for inner in _own_scope_walk(node.body):
                    if isinstance(inner, ast.Await):
                        yield self.finding(
                            ctx,
                            node,
                            f"'with {lock_names[0]}' in coroutine "
                            f"'{func.name}' spans 'await' at line "
                            f"{inner.lineno}; release the lock before "
                            "suspending",
                        )
                        break


@rule
class BlockingCallInCoroutine(Rule):
    """Coroutines must not call blocking primitives.

    ``time.sleep``, blocking queue methods, file/socket I/O and
    :func:`repro.aio.run_sync` park the event-loop thread, so one slow
    operation stalls every gathered read.  Only the I/O runtime seam
    itself (:data:`repro.analysis.layers.RUNTIME_SEAM_MODULES`) may block
    — blocking inline is ``SyncRuntime``'s documented contract.
    """

    id = "RPR002"
    name = "blocking-call-in-coroutine"
    description = "blocking primitive called inside 'async def'"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if any(covers(seam, ctx.module) for seam in RUNTIME_SEAM_MODULES):
            return
        for func in _async_functions(ctx.tree):
            for node in _own_scope_walk(func.body):
                if not isinstance(node, ast.Call):
                    continue
                label = self._blocking_label(node)
                if label is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"blocking call '{label}' inside coroutine "
                        f"'{func.name}'; use the IORuntime seam "
                        "(await runtime.sleep / run_batches) instead",
                    )

    @staticmethod
    def _blocking_label(call: ast.Call) -> str | None:
        dotted = _dotted_name(call.func)
        if dotted is not None:
            if dotted in BLOCKING_CALLS:
                return dotted
            if dotted in BLOCKING_BUILTINS:
                return dotted
            tail = dotted.rsplit(".", 1)[-1]
            if tail in BLOCKING_TAILS:
                return dotted
            if tail in BLOCKING_QUEUE_METHODS and "." in dotted:
                receiver = dotted.rsplit(".", 1)[0]
                if _QUEUE_NAME_RE.search(receiver):
                    return dotted
        return None


@rule
class SansIOLayerViolation(Rule):
    """The sans-IO layers must not import I/O engines or backends.

    The contract is data, not code: see
    :data:`repro.analysis.layers.LAYER_CONTRACTS`.  Both absolute and
    relative imports are resolved against the file's dotted module name,
    so ``from ..fault import health`` inside ``repro.metadata.build`` is
    caught just like ``import repro.fault.health``.
    """

    id = "RPR003"
    name = "sans-io-layer-violation"
    description = "sans-IO module imports an I/O engine/backend module"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        contracts = [
            contract
            for contract in LAYER_CONTRACTS
            if any(covers(prefix, ctx.module) for prefix in contract.modules)
        ]
        if not contracts:
            return
        is_package = ctx.path.name == "__init__.py"
        for node in ast.walk(ctx.tree):
            candidates: list[str] = []
            if isinstance(node, ast.Import):
                candidates = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = resolve_import(
                    ctx.module,
                    is_package=is_package,
                    level=node.level,
                    target=node.module,
                )
                candidates = [base] + [
                    f"{base}.{alias.name}" if base else alias.name
                    for alias in node.names
                ]
            else:
                continue
            for contract in contracts:
                for candidate in candidates:
                    banned = next(
                        (
                            prefix
                            for prefix in contract.forbidden
                            if covers(prefix, candidate)
                        ),
                        None,
                    )
                    if banned is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"layer '{contract.name}': {ctx.module} must "
                            f"not import {banned} ({contract.rationale})",
                        )
                        break


@rule
class UngatedFeatureKnob(Rule):
    """Feature knobs may only be read through their gate helper.

    Every optional behaviour behind a :class:`repro.config.BlobSeerConfig`
    feature field must be a provable no-op when off — the perf-gate's
    ``--exact-columns`` depends on it.  Funnelling every read through
    :meth:`BlobSeerConfig.feature_enabled` keeps the gate a single
    auditable chokepoint; a raw ``config.speculative_prefetch`` read is a
    new ungated code path waiting to happen.
    """

    id = "RPR004"
    name = "ungated-feature-knob"
    description = "feature knob read directly instead of via feature_enabled()"

    #: The config module itself (field definitions, validation and the
    #: gate helper) is the one legitimate home of raw knob access.
    exempt_modules: tuple[str, ...] = ("repro.config",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if any(covers(prefix, ctx.module) for prefix in self.exempt_modules):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in FEATURE_KNOBS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"feature knob '{node.attr}' read directly; call "
                    f"config.feature_enabled({node.attr!r}) so the no-op "
                    "gate stays auditable",
                )


@rule
class UndocumentedStatsCounter(Rule):
    """Every stats/result field carries a ``#:`` docstring.

    ``ReadStats`` / ``WriteResult`` / ``*Stats`` fields are the repo's
    public measurement surface — benchmark columns and CI perf-gates are
    built on them, so an undocumented counter is an unreviewable number.
    Accepted forms: a ``#:`` comment block immediately above the field, or
    an inline ``#:`` trailing the field's line.
    """

    id = "RPR005"
    name = "undocumented-stats-counter"
    description = "stats dataclass field lacks a '#:' docstring"

    @staticmethod
    def _is_stats_class(node: ast.ClassDef) -> bool:
        return node.name.endswith("Stats") or node.name in (
            "WriteResult",
            "ReadResult",
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.ClassDef) and self._is_stats_class(node)):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ):
                    continue
                if self._documented(ctx, stmt):
                    continue
                yield self.finding(
                    ctx,
                    stmt,
                    f"field '{node.name}.{stmt.target.id}' lacks a '#:' "
                    "docstring comment",
                )

    @staticmethod
    def _documented(ctx: ModuleContext, stmt: ast.AnnAssign) -> bool:
        end = stmt.end_lineno if stmt.end_lineno is not None else stmt.lineno
        for lineno in range(stmt.lineno, end + 1):
            if "#:" in ctx.line_text(lineno):
                return True
        lineno = stmt.lineno - 1
        while lineno >= 1:
            text = ctx.line_text(lineno).strip()
            if not text.startswith("#"):
                break
            if text.startswith("#:"):
                return True
            lineno -= 1
        return False
