"""Interprocedural layer: call graph + per-function dataflow summaries.

The per-module rule families see one AST at a time and the project
families see the module graph, but neither can answer the questions
the serving and caching layers raise: *does this coroutine eventually
block the event loop?*, *does every input that shapes a cached value
also shape its fingerprint?*  Those are properties of flows **across**
functions.

This module computes, for every function in a
:class:`~repro.check.project.Project`, one
:class:`FunctionSummary` — a small, JSON-serializable record of the
facts the ``async-*`` and ``fp-*`` rule families need:

* await points, calls (canonicalized through the module's import
  table), environment reads, writes to ``self.*`` attributes;
* stale-read races: a read of shared ``self`` state that spans an
  ``await`` before a write of the same attribute (path-sensitive —
  ``return``/``raise`` terminate paths, so the serving core's probe /
  register / compute discipline does not fire);
* orphaned tasks and unbounded asyncio queues;
* cache-boundary sites (``*.put`` on a cache/store receiver, the one
  write API of every :mod:`repro.store` namespace) with the backward
  slice of the key and value expressions reduced to *roots*: the
  parameters and ``self`` attributes each side ultimately depends on,
  including control dependencies (an input that picks the branch
  shapes the value as surely as one added to it).

Summaries are **intra**-procedural, so they cache per file: the
content digest that keys the pickled AST also keys the summary list
(same generation directory, same invalidation story — editing any
``check`` source starts a fresh generation, editing one analyzed
module re-summarizes only that module).  The interprocedural closure
(:class:`Dataflow`) is recomputed from summaries on every run that
the findings memo (:class:`~repro.check.project.FindingsCache`) does
not answer; it is dictionary lookups, not parsing, and stays well
inside the warm-run budget.

Resolution is best-effort and *sound for the rules built on it*: a
call that cannot be resolved (a method on an arbitrary object, a
callable passed by reference) is skipped, never guessed.  The rule
families document what that means for their verdicts.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.check.analyzer import ImportMap, ModuleContext
from repro.check.project import AstCache
from repro.store import ContentStore

#: Bump on any change to the summary record shape.  Edits to this file
#: already start a fresh cache generation (the AST-cache salt digests
#: the ``check`` package); the version guards hand-built caches.
SUMMARY_VERSION = "repro-summary-v1"

#: Dotted prefixes whose *read* makes a value environment-dependent.
ENV_PREFIXES = ("os.environ", "os.getenv")


def _is_env_read(dotted: str) -> bool:
    return any(
        dotted == p or dotted.startswith(p + ".") for p in ENV_PREFIXES
    )


# -- summary records ----------------------------------------------------------

@dataclass(frozen=True)
class Race:
    """One stale-read-across-await race inside a coroutine."""

    attr: str
    read_line: int
    await_line: int
    write_line: int
    write_col: int

    def to_jsonable(self) -> list:
        return [self.attr, self.read_line, self.await_line,
                self.write_line, self.write_col]

    @classmethod
    def from_jsonable(cls, data: Sequence) -> "Race":
        return cls(data[0], data[1], data[2], data[3], data[4])


@dataclass(frozen=True)
class CachePut:
    """One cache-boundary call (``recv.put(key, value)``) and its slices.

    Roots are the names the key/value expressions ultimately depend
    on: function parameters and ``self.<attr>`` reads.  Locals are
    expanded through their assignments (including loop targets and the
    control conditions guarding each binding); module-level constants
    are code — the content-derived salt already covers them — and are
    deliberately *not* roots.
    """

    recv: str
    method: str
    line: int
    col: int
    key_roots: tuple[str, ...]
    value_roots: tuple[str, ...]
    control_roots: tuple[str, ...]
    value_calls: tuple[tuple[str, int], ...]
    value_env: tuple[tuple[str, int], ...]

    def to_jsonable(self) -> dict:
        return {
            "recv": self.recv,
            "method": self.method,
            "line": self.line,
            "col": self.col,
            "key_roots": list(self.key_roots),
            "value_roots": list(self.value_roots),
            "control_roots": list(self.control_roots),
            "value_calls": [list(c) for c in self.value_calls],
            "value_env": [list(e) for e in self.value_env],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "CachePut":
        return cls(
            recv=data["recv"],
            method=data["method"],
            line=data["line"],
            col=data["col"],
            key_roots=tuple(data["key_roots"]),
            value_roots=tuple(data["value_roots"]),
            control_roots=tuple(data["control_roots"]),
            value_calls=tuple((c[0], c[1]) for c in data["value_calls"]),
            value_env=tuple((e[0], e[1]) for e in data["value_env"]),
        )


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the interprocedural rules need to know about one
    function, computed without leaving its module."""

    module: str | None
    qualname: str  # "func" or "Class.method"
    cls: str | None
    line: int
    is_async: bool
    params: tuple[str, ...]
    awaits: tuple[int, ...]
    calls: tuple[tuple[str, int, int], ...]  # (canonical dotted, line, col)
    attr_writes: tuple[tuple[str, int], ...]
    env_reads: tuple[tuple[str, int, int], ...]
    races: tuple[Race, ...]
    orphan_tasks: tuple[tuple[int, int], ...]
    unbounded_queues: tuple[tuple[int, int], ...]
    cache_puts: tuple[CachePut, ...]

    def to_jsonable(self) -> dict:
        return {
            "module": self.module,
            "qualname": self.qualname,
            "cls": self.cls,
            "line": self.line,
            "is_async": self.is_async,
            "params": list(self.params),
            "awaits": list(self.awaits),
            "calls": [list(c) for c in self.calls],
            "attr_writes": [list(w) for w in self.attr_writes],
            "env_reads": [list(e) for e in self.env_reads],
            "races": [r.to_jsonable() for r in self.races],
            "orphan_tasks": [list(t) for t in self.orphan_tasks],
            "unbounded_queues": [list(q) for q in self.unbounded_queues],
            "cache_puts": [p.to_jsonable() for p in self.cache_puts],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "FunctionSummary":
        return cls(
            module=data["module"],
            qualname=data["qualname"],
            cls=data["cls"],
            line=data["line"],
            is_async=data["is_async"],
            params=tuple(data["params"]),
            awaits=tuple(data["awaits"]),
            calls=tuple((c[0], c[1], c[2]) for c in data["calls"]),
            attr_writes=tuple((w[0], w[1]) for w in data["attr_writes"]),
            env_reads=tuple((e[0], e[1], e[2]) for e in data["env_reads"]),
            races=tuple(Race.from_jsonable(r) for r in data["races"]),
            orphan_tasks=tuple((t[0], t[1]) for t in data["orphan_tasks"]),
            unbounded_queues=tuple(
                (q[0], q[1]) for q in data["unbounded_queues"]
            ),
            cache_puts=tuple(
                CachePut.from_jsonable(p) for p in data["cache_puts"]
            ),
        )


# -- expression scanning ------------------------------------------------------

_SKIP_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _canon(dotted: str, imap: ImportMap) -> str:
    """Canonicalize the chain's base through the module's imports."""
    base, _, rest = dotted.partition(".")
    target = imap.names.get(base)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


@dataclass
class _ExprFacts:
    """What one expression tree reads, calls, and awaits."""

    names: set[str] = field(default_factory=set)
    self_attrs: list[tuple[str, int]] = field(default_factory=list)
    awaits: list[int] = field(default_factory=list)
    calls: list[tuple[str, int, int]] = field(default_factory=list)
    env_reads: list[tuple[str, int, int]] = field(default_factory=list)


def _scan_expr(expr: ast.AST, imap: ImportMap) -> _ExprFacts:
    """Facts for one expression, not descending into nested defs.

    Comprehension and lambda parameters are locally bound, so they are
    excluded from ``names`` (their iterables are walked and contribute
    instead).
    """
    facts = _ExprFacts()
    bound: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, _SKIP_NODES):
            return
        if isinstance(node, ast.Await):
            facts.awaits.append(node.lineno)
        if isinstance(node, ast.Lambda):
            args = node.args
            for a in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                bound.add(a.arg)
        if isinstance(node, ast.comprehension):
            for t in ast.walk(node.target):
                if isinstance(t, ast.Name):
                    bound.add(t.id)
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                canon = _canon(dotted, imap)
                facts.calls.append(
                    (canon, node.lineno, node.col_offset + 1)
                )
        if isinstance(node, (ast.Attribute, ast.Name)):
            dotted = _dotted(node)
            if dotted is not None:
                canon = _canon(dotted, imap)
                if _is_env_read(canon):
                    facts.env_reads.append(
                        (canon, node.lineno, node.col_offset + 1)
                    )
                base = dotted.split(".", 1)[0]
                facts.names.add(base)
                if base == "self" and "." in dotted:
                    attr = dotted.split(".")[1]
                    facts.self_attrs.append((attr, node.lineno))
                return  # the chain is one read; don't re-scan its parts
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(expr)
    facts.names -= bound
    return facts


def _scan_exprs(exprs: Iterable[ast.AST], imap: ImportMap) -> _ExprFacts:
    merged = _ExprFacts()
    for expr in exprs:
        f = _scan_expr(expr, imap)
        merged.names |= f.names
        merged.self_attrs += f.self_attrs
        merged.awaits += f.awaits
        merged.calls += f.calls
        merged.env_reads += f.env_reads
    return merged


def _stmt_exprs(stmt: ast.stmt) -> list[ast.AST]:
    """The expressions a statement evaluates *itself* (not its body)."""
    if isinstance(stmt, ast.Assign):
        return [stmt.value]
    if isinstance(stmt, ast.AugAssign):
        return [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Raise):
        return [e for e in (stmt.exc, stmt.cause) if e is not None]
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg else [])
    return []


# -- stale-read race detection ------------------------------------------------

@dataclass
class _RaceState:
    """Per-path symbolic state for the atomicity walk.

    ``binds`` maps a local to the ``self`` attribute its value was read
    from; ``stale`` marks binds (and guard reads) an ``await`` has been
    crossed since — the value in hand may no longer match the shared
    attribute.  Sync statements are atomic on one event loop, so only
    stale values are racy.
    """

    binds: dict[str, tuple[str, int]] = field(default_factory=dict)
    stale: dict[str, tuple[str, int, int]] = field(default_factory=dict)
    # (attr, read_line, await_line | None); staleness is set in place.
    guards: list[list] = field(default_factory=list)

    def copy(self) -> "_RaceState":
        return _RaceState(
            binds=dict(self.binds),
            stale=dict(self.stale),
            guards=self.guards,  # shared on purpose: staleness is global
        )

    def merge(self, other: "_RaceState") -> None:
        self.binds.update(other.binds)
        self.stale.update(other.stale)


def _write_targets(stmt: ast.stmt) -> list[tuple[str, int, int, list[ast.AST], bool]]:
    """``self.<attr>`` writes in a statement.

    Returns (attr, line, col, value_exprs, rhs_is_constant).  Covers
    plain/aug/ann assignment to ``self.attr`` and ``self.attr[...]``,
    and ``del self.attr[...]``.
    """
    out: list[tuple[str, int, int, list[ast.AST], bool]] = []

    def attr_of(target: ast.AST) -> ast.Attribute | None:
        if isinstance(target, ast.Subscript):
            target = target.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target
        return None

    def record(target: ast.AST, values: list[ast.AST], const: bool) -> None:
        node = attr_of(target)
        if node is not None:
            out.append(
                (node.attr, target.lineno, target.col_offset + 1,
                 values, const)
            )

    if isinstance(stmt, ast.Assign):
        const = isinstance(stmt.value, ast.Constant)
        for target in stmt.targets:
            extra = (
                [target.slice] if isinstance(target, ast.Subscript) else []
            )
            record(target, [stmt.value] + extra, const)
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        record(stmt.target, [stmt.value], isinstance(stmt.value, ast.Constant))
    elif isinstance(stmt, ast.AugAssign):
        extra = (
            [stmt.target.slice]
            if isinstance(stmt.target, ast.Subscript) else []
        )
        record(stmt.target, [stmt.value] + extra,
               isinstance(stmt.value, ast.Constant))
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            extra = (
                [target.slice] if isinstance(target, ast.Subscript) else []
            )
            record(target, extra, True)
    return out


class _RaceWalker:
    """Path-sensitive walk of one coroutine body.

    ``return`` and ``raise`` terminate a path, which is what makes the
    serving core's discipline clean: the ``await`` inside the
    coalesced-probe branch never reaches the leader-registration
    writes, because that branch returns.
    """

    def __init__(self, imap: ImportMap) -> None:
        self.imap = imap
        self.races: list[Race] = []
        self._seen: set[tuple[str, int]] = set()

    def run(self, body: Sequence[ast.stmt]) -> None:
        self._block(body, _RaceState())

    # -- helpers --------------------------------------------------------------

    def _record(self, attr: str, read_line: int, await_line: int,
                write_line: int, write_col: int) -> None:
        key = (attr, write_line)
        if key not in self._seen:
            self._seen.add(key)
            self.races.append(
                Race(attr, read_line, await_line, write_line, write_col)
            )

    def _go_stale(self, state: _RaceState, await_line: int) -> None:
        for name, (attr, read_line) in state.binds.items():
            state.stale[name] = (attr, read_line, await_line)
        for guard in state.guards:
            if guard[2] is None:
                guard[2] = await_line

    def _check_writes(self, stmt: ast.stmt, state: _RaceState,
                      awaits_here: list[int]) -> None:
        for attr, line, col, values, const in _write_targets(stmt):
            facts = _scan_exprs(values, self.imap)
            # (a) the RHS holds a value read from the same attribute
            # before an await was crossed.
            for name in facts.names:
                if name in state.stale and state.stale[name][0] == attr:
                    _, read_line, await_line = state.stale[name]
                    self._record(attr, read_line, await_line, line, col)
            # (b) read-modify-write with the await inside the statement
            # itself: ``self.x = self.x + await f()``.
            if awaits_here and any(a == attr for a, _ in facts.self_attrs):
                read_line = next(
                    l for a, l in facts.self_attrs if a == attr
                )
                self._record(attr, read_line, awaits_here[0], line, col)
            if isinstance(stmt, ast.AugAssign) and awaits_here:
                self._record(attr, line, awaits_here[0], line, col)
            # (c) check-then-act: an if-test read of the attribute went
            # stale before this (non-constant) write.
            if not const:
                for g_attr, g_line, g_await in state.guards:
                    if g_attr == attr and g_await is not None:
                        self._record(attr, g_line, g_await, line, col)

    # -- statement dispatch ---------------------------------------------------

    def _block(self, stmts: Sequence[ast.stmt], state: _RaceState) -> bool:
        """Walk a block; returns False when every path terminated."""
        for stmt in stmts:
            if not self._stmt(stmt, state):
                return False
        return True

    def _stmt(self, stmt: ast.stmt, state: _RaceState) -> bool:
        facts = _scan_exprs(_stmt_exprs(stmt), self.imap)
        self._check_writes(stmt, state, facts.awaits)
        if facts.awaits:
            self._go_stale(state, facts.awaits[0])
        self._bind(stmt, facts, state)

        if isinstance(stmt, (ast.Return, ast.Raise)):
            return False
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return False
        if isinstance(stmt, ast.If):
            pushed = [[attr, line, None] for attr, line in facts.self_attrs]
            state.guards.extend(pushed)
            body_state = state.copy()
            else_state = state.copy()
            body_live = self._block(stmt.body, body_state)
            else_live = self._block(stmt.orelse, else_state)
            if body_live:
                state.merge(body_state)
            if else_live:
                state.merge(else_state)
            # Guards stay on the stack once pushed: the act half of a
            # check-then-act can sit after the if-block.  Constant-RHS
            # writes (the reset-to-None cleanup idiom) are exempt in
            # _check_writes.
            return body_live or else_live
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.AsyncFor):
                self._go_stale(state, stmt.lineno)
            loop_state = state.copy()
            # Two passes catch back-edge staleness (await at the bottom
            # of the body, write at the top of the next iteration).
            for _ in range(2):
                self._block(stmt.body, loop_state)
            state.merge(loop_state)
            self._block(stmt.orelse, state)
            return True
        if isinstance(stmt, ast.Try):
            body_live = self._block(stmt.body, state)
            for handler in stmt.handlers:
                handler_state = state.copy()
                if self._block(handler.body, handler_state):
                    state.merge(handler_state)
            self._block(stmt.orelse, state)
            final_live = self._block(stmt.finalbody, state)
            return body_live and final_live
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            if isinstance(stmt, ast.AsyncWith):
                self._go_stale(state, stmt.lineno)
            return self._block(stmt.body, state)
        return True

    def _bind(self, stmt: ast.stmt, facts: _ExprFacts,
              state: _RaceState) -> None:
        targets: list[str] = []
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        targets.append(node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ) and stmt.value is not None:
            targets.append(stmt.target.id)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for node in ast.walk(stmt.target):
                if isinstance(node, ast.Name):
                    targets.append(node.id)
        if not targets:
            return
        # What does the RHS carry?  A fresh read of a self attribute, a
        # propagated (possibly stale) earlier read, or neither.
        attr_read = facts.self_attrs[0] if facts.self_attrs else None
        stale_src = next(
            (state.stale[n] for n in facts.names if n in state.stale),
            None,
        )
        bind_src = attr_read or next(
            (state.binds[n] for n in facts.names if n in state.binds),
            None,
        )
        for name in targets:
            state.binds.pop(name, None)
            state.stale.pop(name, None)
            if attr_read is not None:
                state.binds[name] = attr_read
            elif stale_src is not None:
                state.stale[name] = stale_src
            elif bind_src is not None:
                state.binds[name] = bind_src


# -- cache-boundary slicing ---------------------------------------------------

_PUT_METHODS = ("put",)
_PUT_RECEIVERS = ("cache", "store")


def _is_cache_receiver(recv_dotted: str) -> bool:
    last = recv_dotted.split(".")[-1].lower()
    return any(tag in last for tag in _PUT_RECEIVERS)


@dataclass
class _Binding:
    value: ast.AST
    controls: tuple[ast.AST, ...]


class _SliceContext:
    """Assignments and put sites of one function body, with the control
    expressions enclosing each."""

    def __init__(self, fn: ast.AST, imap: ImportMap) -> None:
        self.imap = imap
        self.assigns: dict[str, list[_Binding]] = {}
        self.puts: list[tuple[ast.Call, str, str, tuple[ast.AST, ...]]] = []
        self.params = _param_names(fn)
        self._collect(fn.body, ())

    def _add(self, name: str, value: ast.AST,
             controls: tuple[ast.AST, ...]) -> None:
        self.assigns.setdefault(name, []).append(_Binding(value, controls))

    def _bind_target(self, target: ast.AST, value: ast.AST,
                     controls: tuple[ast.AST, ...]) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                self._add(node.id, value, controls)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.value, ast.Name
            ):
                # ``table[k] = v`` grows ``table``: v (and k) feed it.
                self._add(node.value.id, value, controls)

    def _scan_calls(self, node: ast.AST,
                    controls: tuple[ast.AST, ...]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, _SKIP_NODES):
                continue
            if not isinstance(sub, ast.Call):
                continue
            dotted = _dotted(sub.func)
            if dotted is None or "." not in dotted:
                continue
            recv, _, method = dotted.rpartition(".")
            if method in _PUT_METHODS and _is_cache_receiver(recv):
                if len(sub.args) >= 2:
                    self.puts.append((sub, recv, method, controls))

    def _collect(self, stmts: Sequence[ast.stmt],
                 controls: tuple[ast.AST, ...]) -> None:
        for stmt in stmts:
            for expr in _stmt_exprs(stmt):
                self._scan_calls(expr, controls)
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._bind_target(target, stmt.value, controls)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind_target(stmt.target, stmt.value, controls)
            elif isinstance(stmt, ast.AugAssign):
                self._bind_target(stmt.target, stmt.value, controls)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind_target(stmt.target, stmt.iter, controls)
                self._collect(stmt.body, controls + (stmt.iter,))
                self._collect(stmt.orelse, controls)
                continue
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        self._bind_target(
                            item.optional_vars, item.context_expr, controls
                        )
            if isinstance(stmt, ast.If):
                inner = controls + (stmt.test,)
                self._collect(stmt.body, inner)
                self._collect(stmt.orelse, inner)
            elif isinstance(stmt, ast.While):
                self._collect(stmt.body, controls + (stmt.test,))
                self._collect(stmt.orelse, controls)
            elif isinstance(stmt, ast.Try):
                self._collect(stmt.body, controls)
                for handler in stmt.handlers:
                    self._collect(handler.body, controls)
                self._collect(stmt.orelse, controls)
                self._collect(stmt.finalbody, controls)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._collect(stmt.body, controls)

    # -- expansion ------------------------------------------------------------

    def expand(
        self, seeds: Sequence[ast.AST], collect_calls: bool
    ) -> tuple[set[str], list[tuple[str, int]], list[tuple[str, int]]]:
        """Roots (params / self attrs) a set of expressions depends on.

        With ``collect_calls``, also returns the calls and environment
        reads encountered on the *data* side of the slice (control
        conditions contribute roots but not calls: a condition selects
        the value, its callees do not produce it).
        """
        roots: set[str] = set()
        calls: list[tuple[str, int]] = []
        env: list[tuple[str, int]] = []
        seen: set[tuple[str, bool]] = set()
        work: list[tuple[str, bool]] = []

        def process_expr(expr: ast.AST, collecting: bool) -> None:
            facts = _scan_expr(expr, self.imap)
            if collecting:
                calls.extend((c[0], c[1]) for c in facts.calls)
                env.extend((e[0], e[1]) for e in facts.env_reads)
            for attr, _line in facts.self_attrs:
                roots.add(f"self.{attr}")
            for name in facts.names:
                if name == "self":
                    continue
                work.append((name, collecting))

        for seed in seeds:
            process_expr(seed, collect_calls)
        while work:
            name, collecting = work.pop()
            if (name, collecting) in seen:
                continue
            seen.add((name, collecting))
            if name in self.params:
                roots.add(name)
                continue
            bindings = self.assigns.get(name)
            if bindings is None:
                continue  # module-level or builtin: code, already salted
            for binding in bindings:
                process_expr(binding.value, collecting)
                for ctrl in binding.controls:
                    process_expr(ctrl, False)
        return roots, calls, env

    def cache_puts(self) -> list[CachePut]:
        out: list[CachePut] = []
        for call, recv, method, controls in self.puts:
            key_roots, _, _ = self.expand([call.args[0]], False)
            value_roots, value_calls, value_env = self.expand(
                [call.args[1]], True
            )
            control_roots, _, _ = self.expand(list(controls), False)
            out.append(
                CachePut(
                    recv=recv,
                    method=method,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    key_roots=tuple(sorted(key_roots)),
                    value_roots=tuple(sorted(value_roots)),
                    control_roots=tuple(sorted(control_roots)),
                    value_calls=tuple(dict.fromkeys(value_calls)),
                    value_env=tuple(dict.fromkeys(value_env)),
                )
            )
        return out


def _param_names(fn: ast.AST) -> tuple[str, ...]:
    args = fn.args
    names = [
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    ]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


# -- per-function summarization -----------------------------------------------

_TASK_SPAWNERS = ("create_task", "ensure_future")
_QUEUE_TYPES = ("asyncio.Queue", "asyncio.LifoQueue", "asyncio.PriorityQueue")


def _iter_body_stmts(body: Sequence[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement in a function body, not entering nested defs."""
    stack = list(body)
    while stack:
        stmt = stack.pop()
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, _SKIP_NODES):
                continue
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case)):
                stack.extend(
                    c for c in ast.iter_child_nodes(child)
                    if isinstance(c, ast.stmt)
                )


def _summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    module: str | None,
    qualname: str,
    cls: str | None,
    imap: ImportMap,
) -> FunctionSummary:
    is_async = isinstance(fn, ast.AsyncFunctionDef)
    all_stmts = list(_iter_body_stmts(fn.body))
    facts = _scan_exprs(
        [e for stmt in all_stmts for e in _stmt_exprs(stmt)], imap
    )

    attr_writes: list[tuple[str, int]] = []
    orphans: list[tuple[int, int]] = []
    for stmt in all_stmts:
        for attr, line, _col, _values, _const in _write_targets(stmt):
            attr_writes.append((attr, line))
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            dotted = _dotted(stmt.value.func)
            if dotted is not None:
                canon = _canon(dotted, imap)
                if canon.split(".")[-1] in _TASK_SPAWNERS:
                    orphans.append(
                        (stmt.value.lineno, stmt.value.col_offset + 1)
                    )

    unbounded: list[tuple[int, int]] = []
    for canon, line, col in facts.calls:
        if canon in _QUEUE_TYPES:
            unbounded.append((line, col))
    # Filter out bounded constructions: any maxsize kw or positional.
    if unbounded:
        bounded_ok: list[tuple[int, int]] = []
        for stmt in all_stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                dotted = _dotted(node.func)
                if dotted is None or _canon(dotted, imap) not in _QUEUE_TYPES:
                    continue
                has_bound = bool(node.args) or any(
                    kw.arg == "maxsize"
                    and not (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value in (0, None)
                    )
                    for kw in node.keywords
                )
                if has_bound:
                    bounded_ok.append(
                        (node.lineno, node.col_offset + 1)
                    )
        unbounded = [loc for loc in unbounded if loc not in bounded_ok]

    races: tuple[Race, ...] = ()
    if is_async and fn.args.args and fn.args.args[0].arg == "self":
        walker = _RaceWalker(imap)
        walker.run(fn.body)
        races = tuple(walker.races)

    slices = _SliceContext(fn, imap)

    return FunctionSummary(
        module=module,
        qualname=qualname,
        cls=cls,
        line=fn.lineno,
        is_async=is_async,
        params=_param_names(fn),
        awaits=tuple(sorted(set(facts.awaits))),
        calls=tuple(facts.calls),
        attr_writes=tuple(attr_writes),
        env_reads=tuple(dict.fromkeys(facts.env_reads)),
        races=races,
        orphan_tasks=tuple(orphans),
        unbounded_queues=tuple(dict.fromkeys(unbounded)),
        cache_puts=tuple(slices.cache_puts()),
    )


def summarize_module(
    ctx: ModuleContext, imap: ImportMap
) -> list[FunctionSummary]:
    """Summaries for every function and method in one module."""
    out: list[FunctionSummary] = []

    def walk(body: Sequence[ast.stmt], prefix: str, cls: str | None) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                out.append(
                    _summarize_function(stmt, ctx.module, qual, cls, imap)
                )
                walk(stmt.body, f"{qual}.", cls)
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, f"{prefix}{stmt.name}.", stmt.name)

    walk(ctx.tree.body, "", None)
    return out


# -- the summary cache --------------------------------------------------------

class SummaryCache(ContentStore):
    """Per-file summary store sharing the AST cache's generation dir.

    The root, generation and content digest that name a file's pickled
    AST (:class:`~repro.check.project.AstCache`) name its summary list,
    so the two caches hit and miss together and a stale summary can
    never outlive its tree.
    """

    suffix = ".sum.json"
    version = AstCache.version
    salt_packages = AstCache.salt_packages

    @staticmethod
    def _decode(payload: bytes) -> list[FunctionSummary]:
        data = json.loads(payload)
        if data.get("version") != SUMMARY_VERSION:
            raise ValueError(f"not a {SUMMARY_VERSION} entry")
        return [FunctionSummary.from_jsonable(f) for f in data["functions"]]

    def get(self, digest: str) -> list[FunctionSummary] | None:
        return self.read(digest, self._decode)

    def put(self, digest: str,
            summaries: list[FunctionSummary]) -> Path | None:
        payload = json.dumps({
            "version": SUMMARY_VERSION,
            "functions": [s.to_jsonable() for s in summaries],
        })
        return self.write(digest, payload.encode())


# -- the interprocedural view -------------------------------------------------

class Dataflow:
    """Call-graph + summary index over one Project.

    Build once per analysis run (:meth:`repro.check.project.Project.
    dataflow` memoizes).  Summaries come from the per-file cache when
    the project was loaded with one; the cross-module index and
    transitive closures are recomputed on every run the findings memo
    misses — they are the cheap part.
    """

    def __init__(self, project) -> None:
        self.project = project
        #: (module, qualname) -> summary; first definition wins, which
        #: matches how the module index resolves duplicate names.
        self.functions: dict[tuple[str, str], FunctionSummary] = {}
        self.by_module: dict[str, list[FunctionSummary]] = {}
        #: (path, module, summary) triples in load order; summaries do
        #: not carry paths (a cached summary must survive a file move),
        #: so the triple is how rules anchor findings.
        self.entries: list[tuple[str, str | None, FunctionSummary]] = []
        self._closure_memo: dict = {}

    @classmethod
    def build(cls, project) -> "Dataflow":
        flow = cls(project)
        cache = project.summary_cache
        for ctx in project.modules:
            digest = project.digest_by_path.get(ctx.path)
            summaries = None
            if cache is not None and digest is not None:
                summaries = cache.get(digest)
            if summaries is None:
                summaries = summarize_module(ctx, project.imports_of(ctx))
                project.stats.summaries_computed += 1
                if cache is not None and digest is not None:
                    cache.put(digest, summaries)
            else:
                project.stats.summaries_reused += 1
            flow._index(ctx, summaries)
        return flow

    def _index(self, ctx: ModuleContext, summaries: list[FunctionSummary]) -> None:
        if ctx.module is not None:
            self.by_module.setdefault(ctx.module, [])
        for summary in summaries:
            self.entries.append((ctx.path, ctx.module, summary))
            if ctx.module is not None:
                self.by_module[ctx.module].append(summary)
                self.functions.setdefault(
                    (ctx.module, summary.qualname), summary
                )

    # -- call resolution ------------------------------------------------------

    def iter_functions(
        self,
    ) -> Iterator[tuple[str, str | None, FunctionSummary]]:
        yield from self.entries

    def resolve_call(
        self, module: str | None, caller: FunctionSummary, dotted: str
    ) -> FunctionSummary | None:
        """Best-effort: the in-project summary a call lands on.

        Handles ``self.m()`` (same class), local functions and methods
        (``helper()``, ``Class.method()``), and fully-qualified
        imported names (``repro.x.y.f()``).  Anything else — a method
        on an arbitrary object, a callable value — resolves to None and
        the caller must treat the call as opaque.
        """
        if module is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and caller.cls is not None and len(parts) == 2:
            return self.functions.get((module, f"{caller.cls}.{parts[1]}"))
        # Module-local: "helper" or "Class.method".
        if len(parts) <= 2:
            local = self.functions.get((module, dotted))
            if local is not None:
                return local
        # Fully qualified: split at the longest known module prefix.
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod in self.by_module:
                qual = ".".join(parts[cut:])
                found = self.functions.get((mod, qual))
                if found is not None:
                    return found
                break
        return None

    # -- transitive closures --------------------------------------------------

    def first_blocking(
        self,
        module: str,
        summary: FunctionSummary,
        is_primitive,
        depth: int = 40,
    ) -> tuple[str, str] | None:
        """(callee chain head, blocking primitive) when ``summary``
        transitively reaches one of ``is_primitive``'s dotted names."""
        memo = self._closure_memo.setdefault(id(is_primitive), {})
        visiting: set[tuple[str | None, str]] = set()

        def visit(mod: str | None, s: FunctionSummary, d: int) -> str | None:
            key = (mod, s.qualname)
            if key in memo:
                return memo[key]
            if key in visiting or d > depth:
                return None
            visiting.add(key)
            found: str | None = None
            for dotted, _line, _col in s.calls:
                if is_primitive(dotted):
                    found = dotted
                    break
                callee = self.resolve_call(mod, s, dotted)
                if callee is not None:
                    inner = visit(callee.module, callee, d + 1)
                    if inner is not None:
                        found = inner
                        break
            visiting.discard(key)
            memo[key] = found
            return found

        result = visit(module, summary, 0)
        if result is None:
            return None
        return summary.qualname, result
