"""The bounded-model IR: ops, guarded branches, and path enumeration.

:mod:`repro.verify` compiles each mplib endpoint generator into an
explicit-state model.  The *states* are the generator's yield points;
the *transitions* are the channel operations and engine timeouts
between them; the *guards* are the ``if`` tests that pick the protocol
regime (eager vs rendezvous, direct vs daemon route).  This module
defines that IR and evaluates it for one concrete ``(spec, size)``:

* :class:`Op` — one transition: a tagged channel ``send``/``recv`` or
  an engine ``timeout``, anchored to its source location;
* :class:`OpStep` / :class:`BranchStep` / :class:`LoopStep` /
  :class:`HaltStep` — the compiled step tree of one protocol method;
* :func:`enumerate_paths` — all op sequences one endpoint leg can
  execute for a concrete spec and message size.

Guard evaluation is three-valued (True / False / UNKNOWN) plus the
spec-applicability verdict MISSING: a guard referencing a spec
attribute the spec does not have means the *pairing* is meaningless (a
TCP endpoint evaluated against a GM spec), and :class:`SpecNotApplicable`
skips it.  UNKNOWN guards explore both branches — a sound
over-approximation, flagged ``approx`` on every resulting path.

:class:`GuardEvaluator` reads spec attributes (``spec.X`` /
``self.spec.X``), enum members (``Route.DAEMON``), the size parameter
(``nbytes``), local variables bound earlier in the method (``large =
self._is_large(nbytes)``), and calls to non-generator boolean helpers
(``self._is_rendezvous(nbytes)``), which are interpreted over a
restricted assign/return statement subset.  Path enumeration can also
report, per ``if``, whether its then-side was entered: the ``verify``
check family's ``verify-dead-branch`` rule is built on that record.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.check.rules.yields import contains_yield

#: Guard verdict: truth value cannot be determined statically.
UNKNOWN = object()
#: Guard verdict: the spec lacks a referenced attribute entirely.
MISSING = object()

#: Hard ceiling on paths per (leg, spec, size); beyond it the model is
#: not exhaustively explorable and verification reports verify-progress.
MAX_PATHS = 64

#: Loop bodies are unrolled this many times (plus the zero-iteration
#: skip); endpoint protocols in this repo are loop-free, so any loop is
#: already an approximation.
LOOP_UNROLL = 1

#: Helper-interpreter recursion ceiling (nested helper calls / lazy
#: local bindings).
_EVAL_DEPTH = 16


class SpecNotApplicable(Exception):
    """A guard referenced a spec attribute this spec does not define."""


class PathExplosion(Exception):
    """Path enumeration exceeded :data:`MAX_PATHS`."""


@dataclass(frozen=True)
class Op:
    """One transition of the endpoint state machine."""

    kind: str  #: ``"send"`` | ``"recv"`` | ``"timeout"``
    tag: str | None  #: channel tag; None = wildcard recv / timeout
    path: str = field(default="", compare=False)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)

    def describe(self) -> str:
        if self.kind == "timeout":
            return "timeout"
        tag = "*" if self.tag is None else self.tag
        return f"{self.kind} {tag}"


# -- the step tree -------------------------------------------------------------

@dataclass(frozen=True)
class OpStep:
    """Execute one op unconditionally."""

    op: Op


@dataclass(frozen=True)
class BranchStep:
    """``if``: evaluate the guard per (spec, size) and take a side."""

    #: ``(spec, size) -> True | False | UNKNOWN``; raises
    #: :class:`SpecNotApplicable` on MISSING.
    evaluate: Callable[[object, int], object]
    then: tuple
    orelse: tuple
    path: str = ""
    line: int = 0
    col: int = 0

    def __hash__(self) -> int:  # evaluate closures are not hashable
        return id(self)


@dataclass(frozen=True)
class LoopStep:
    """``for``/``while``: body runs 0..:data:`LOOP_UNROLL` times."""

    body: tuple
    line: int = 0

    def __hash__(self) -> int:
        return id(self)


@dataclass(frozen=True)
class HaltStep:
    """``return``/``raise``: the leg terminates here."""

    line: int = 0


Step = object  # OpStep | BranchStep | LoopStep | HaltStep


@dataclass(frozen=True)
class ModelPath:
    """One fully resolved op sequence through a leg."""

    ops: tuple[Op, ...]
    #: True when an UNKNOWN guard or a loop made this path one of
    #: several over-approximated alternatives.
    approx: bool = False

    def has(self, kind: str, tag: str | None) -> bool:
        return any(op.kind == kind and op.tag == tag for op in self.ops)


# -- guard evaluation ----------------------------------------------------------

#: Environment entry marking "this name is the transfer size".
SIZE = object()


class Binding:
    """A name lazily bound to an AST expression in its defining env."""

    __slots__ = ("node", "env")

    def __init__(self, node: ast.AST, env: dict):
        self.node = node
        self.env = env


def self_method_call(call: ast.Call) -> str | None:
    """Method name when ``call`` is ``self.<name>(...)``, else None."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return None


def _spec_attr(node: ast.AST) -> str | None:
    """Attribute name for ``spec.X`` / ``self.spec.X`` receivers."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Name) and value.id == "spec":
        return node.attr
    if (
        isinstance(value, ast.Attribute)
        and value.attr == "spec"
        and isinstance(value.value, ast.Name)
        and value.value.id == "self"
    ):
        return node.attr
    return None


class _EnumRef:
    """A dotted reference to an enum member, matched structurally."""

    def __init__(self, dotted: str) -> None:
        parts = dotted.split(".")
        self.cls = parts[-2]
        self.member = parts[-1]

    def matches(self, value: object) -> bool:
        return (
            isinstance(value, enum.Enum)
            and type(value).__name__ == self.cls
            and value.name == self.member
        )


def _enum_ref(node: ast.AST, imports) -> object:
    """An enum-member operand (``Route.DAEMON``), else UNKNOWN.

    Only class-like penultimate components count: a resolved module
    attribute like ``math.inf`` is not an enum member.  The raw dotted
    text covers enums defined in the *same* module, which the import
    map cannot see.
    """
    dotted = imports.resolve(node) or _raw_chain(node)
    if dotted is not None and "." in dotted:
        if dotted.split(".")[-2][:1].isupper():
            return _EnumRef(dotted)
    return UNKNOWN


def _raw_chain(node: ast.AST) -> str | None:
    """Dotted text of a Name/Attribute chain, without import resolution."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _apply_compare(op: ast.cmpop, left: object, right: object) -> object:
    """Evaluate one comparison over spec values (UNKNOWN on failure)."""
    if isinstance(left, _EnumRef) or isinstance(right, _EnumRef):
        ref, value = (
            (left, right) if isinstance(left, _EnumRef) else (right, left)
        )
        if isinstance(value, _EnumRef):
            return UNKNOWN
        equal = ref.matches(value)
        if isinstance(op, (ast.Is, ast.Eq)):
            return equal
        if isinstance(op, (ast.IsNot, ast.NotEq)):
            return not equal
        return UNKNOWN
    try:
        if isinstance(op, (ast.Is, ast.Eq)):
            return left is right if right is None or left is None else left == right
        if isinstance(op, (ast.IsNot, ast.NotEq)):
            return (
                left is not right
                if right is None or left is None
                else left != right
            )
        if left is None or right is None:
            return UNKNOWN
        if isinstance(op, ast.Lt):
            return left < right
        if isinstance(op, ast.LtE):
            return left <= right
        if isinstance(op, ast.Gt):
            return left > right
        if isinstance(op, ast.GtE):
            return left >= right
    except TypeError:
        return UNKNOWN
    return UNKNOWN


class GuardEvaluator:
    """Evaluates guard expressions for one endpoint class.

    Besides constants, spec attributes and enum members, a *model*
    needs the concrete message size, lazily bound locals, and
    interpretation of non-generator ``self.<helper>()`` predicates
    (restricted to docstring / simple assignments / a return).
    """

    def __init__(self, cls, imports) -> None:
        self.cls = cls  # repro.verify.extract.EndpointClass
        self.imports = imports

    # -- entry point ---------------------------------------------------------
    def test(self, node: ast.AST, env: dict, spec: object, size: int,
             depth: int = 0) -> object:
        """True / False / UNKNOWN for a guard; raises SpecNotApplicable."""
        value = self._eval(node, env, spec, size, depth)
        if value is MISSING:
            raise SpecNotApplicable()
        if value is UNKNOWN:
            return UNKNOWN
        return bool(value)

    # -- recursive evaluation ------------------------------------------------
    def _eval(self, node: ast.AST, env: dict, spec: object, size: int,
              depth: int) -> object:
        if depth > _EVAL_DEPTH:
            return UNKNOWN
        if isinstance(node, ast.Constant):
            return node.value
        attr = _spec_attr(node)
        if attr is not None:
            return getattr(spec, attr, MISSING)
        if isinstance(node, ast.Name):
            entry = env.get(node.id, UNKNOWN)
            if entry is SIZE:
                return size
            if isinstance(entry, Binding):
                return self._eval(entry.node, entry.env, spec, size, depth + 1)
            return entry
        if isinstance(node, ast.UnaryOp):
            inner = self._eval(node.operand, env, spec, size, depth + 1)
            if inner in (UNKNOWN, MISSING):
                return inner
            if isinstance(node.op, ast.Not):
                return not inner
            if isinstance(node.op, ast.USub) and isinstance(inner, (int, float)):
                return -inner
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            return self._bool_op(node, env, spec, size, depth)
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left = self._eval(node.left, env, spec, size, depth + 1)
            right = self._eval(node.comparators[0], env, spec, size, depth + 1)
            if MISSING in (left, right):
                return MISSING
            if UNKNOWN in (left, right):
                return UNKNOWN
            return _apply_compare(node.ops[0], left, right)
        if isinstance(node, ast.BinOp):
            return self._bin_op(node, env, spec, size, depth)
        if isinstance(node, ast.Call):
            return self._call(node, env, spec, size, depth)
        if isinstance(node, ast.Attribute):
            # Not a spec attribute: maybe an enum reference.
            return _enum_ref(node, self.imports)
        return UNKNOWN

    def _bool_op(self, node: ast.BoolOp, env: dict, spec: object, size: int,
                 depth: int) -> object:
        results = [
            self._eval(v, env, spec, size, depth + 1) for v in node.values
        ]
        if any(r is MISSING for r in results):
            return MISSING
        truths = [r if r is UNKNOWN else bool(r) for r in results]
        if isinstance(node.op, ast.And):
            if any(t is False for t in truths):
                return False
            return True if all(t is True for t in truths) else UNKNOWN
        if any(t is True for t in truths):
            return True
        return False if all(t is False for t in truths) else UNKNOWN

    def _bin_op(self, node: ast.BinOp, env: dict, spec: object, size: int,
                depth: int) -> object:
        left = self._eval(node.left, env, spec, size, depth + 1)
        right = self._eval(node.right, env, spec, size, depth + 1)
        if MISSING in (left, right):
            return MISSING
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            return UNKNOWN
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.LShift):
                return int(left) << int(right)
            if isinstance(node.op, ast.Mod):
                return left % right
        except (ZeroDivisionError, ValueError, TypeError):
            return UNKNOWN
        return UNKNOWN

    def _call(self, node: ast.Call, env: dict, spec: object, size: int,
              depth: int) -> object:
        helper = self_method_call(node)
        if helper is None or node.keywords:
            return UNKNOWN
        entry = self.cls.method(helper)
        if entry is None or contains_yield(entry[1].body):
            return UNKNOWN
        fn = entry[1]
        params = [a.arg for a in fn.args.args[1:]]  # drop self
        if len(node.args) > len(params):
            return UNKNOWN
        local: dict = {
            p: Binding(a, env) for p, a in zip(params, node.args)
        }
        return self._interpret(fn.body, local, spec, size, depth + 1)

    def _interpret(self, body: Sequence[ast.stmt], local: dict, spec: object,
                   size: int, depth: int) -> object:
        """Run a helper predicate's restricted statement subset."""
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                local = {
                    **local,
                    stmt.targets[0].id: self._eval(
                        stmt.value, local, spec, size, depth + 1
                    ),
                }
                if local[stmt.targets[0].id] is MISSING:
                    return MISSING
                continue
            if isinstance(stmt, ast.Return):
                if stmt.value is None:
                    return None
                return self._eval(stmt.value, local, spec, size, depth + 1)
            if isinstance(stmt, ast.Assert):
                continue
            return UNKNOWN  # anything fancier: give up, soundly
        return None


# -- path enumeration ----------------------------------------------------------

def enumerate_paths(
    steps: Iterable[Step],
    spec: object,
    size: int,
    *,
    unroll: int = LOOP_UNROLL,
    max_paths: int = MAX_PATHS,
    branches: dict | None = None,
) -> list[ModelPath]:
    """All op sequences through ``steps`` for one (spec, size).

    Raises :class:`SpecNotApplicable` when a guard references an
    attribute the spec lacks, :class:`PathExplosion` past ``max_paths``.
    ``branches``, when given, records every ``if`` the enumeration
    reaches, keyed by its ``(path, line, col)``: True once some
    evaluation entered the then-side (guard True or UNKNOWN).
    """
    results = _expand(tuple(steps), spec, size, unroll, max_paths, branches)
    return [ModelPath(ops, approx) for ops, approx, _halted in results]


def _dedupe(
    paths: Iterable[tuple[tuple[Op, ...], bool, bool]]
) -> list[tuple[tuple[Op, ...], bool, bool]]:
    """Merge identical (ops, halted) paths; exact beats approximate."""
    merged: dict[tuple, bool] = {}
    for ops, approx, halted in paths:
        key = (ops, halted)
        merged[key] = merged.get(key, True) and approx
    return [(ops, approx, halted) for (ops, halted), approx in merged.items()]


def _branch_suffixes(
    step: "BranchStep", spec: object, size: int, unroll: int, max_paths: int,
    branches: dict | None,
) -> list[tuple[tuple[Op, ...], bool, bool]]:
    """Expansions of one branch step (both sides when UNKNOWN).

    A suffix reachable on *both* sides of an UNKNOWN guard does not
    depend on the guard at all (the ubiquitous ``if obs.enabled:``
    bookkeeping branches), so it stays exact; suffixes unique to one
    side are over-approximations.
    """
    verdict = step.evaluate(spec, size)
    if branches is not None:
        key = (step.path, step.line, step.col)
        branches[key] = branches.get(key, False) or verdict is not False
    if verdict is True:
        return _expand(step.then, spec, size, unroll, max_paths, branches)
    if verdict is False:
        return _expand(step.orelse, spec, size, unroll, max_paths, branches)
    then = _expand(step.then, spec, size, unroll, max_paths, branches)
    orelse = _expand(step.orelse, spec, size, unroll, max_paths, branches)
    then_keys = {(ops, halted) for ops, _, halted in then}
    else_keys = {(ops, halted) for ops, _, halted in orelse}
    out = []
    for side, other in ((then, else_keys), (orelse, then_keys)):
        for ops, approx, halted in side:
            out.append((ops, approx or (ops, halted) not in other, halted))
    return _dedupe(out)


def _expand(
    steps: tuple, spec: object, size: int, unroll: int, max_paths: int,
    branches: dict | None,
) -> list[tuple[tuple[Op, ...], bool, bool]]:
    results: list[tuple[tuple[Op, ...], bool, bool]] = [((), False, False)]
    for step in steps:
        nxt: list[tuple[tuple[Op, ...], bool, bool]] = []
        for ops, approx, halted in results:
            if halted:
                nxt.append((ops, approx, True))
                continue
            if isinstance(step, OpStep):
                nxt.append((ops + (step.op,), approx, False))
            elif isinstance(step, HaltStep):
                nxt.append((ops, approx, True))
            elif isinstance(step, BranchStep):
                for sub_ops, sub_approx, sub_halt in _branch_suffixes(
                    step, spec, size, unroll, max_paths, branches
                ):
                    nxt.append((ops + sub_ops, approx or sub_approx, sub_halt))
            elif isinstance(step, LoopStep):
                body = _expand(
                    step.body, spec, size, unroll, max_paths, branches
                )
                variants: list[tuple[tuple[Op, ...], bool, bool]] = [
                    ((), False, False)  # zero iterations
                ]
                reps = variants[:]
                for _ in range(unroll):
                    reps = [
                        (r_ops + b_ops, r_app or b_app, b_halt)
                        for r_ops, r_app, r_halt in reps
                        if not r_halt
                        for b_ops, b_app, b_halt in body
                    ]
                    variants.extend(reps)
                # A loop that performs ops at all is an approximation:
                # the unroll bound cannot prove the real iteration count.
                loop_approx = any(v[0] for v in variants)
                for v_ops, v_app, v_halt in variants:
                    nxt.append(
                        (ops + v_ops, approx or v_app or loop_approx, v_halt)
                    )
            else:  # pragma: no cover - compiler emits only the above
                raise TypeError(f"unknown step {step!r}")
        results = _dedupe(nxt)
        if len(results) > max_paths:
            raise PathExplosion(
                f"more than {max_paths} paths through one leg"
            )
    return results
