"""Compile mplib endpoint generators into bounded models.

An *endpoint class* is any project class whose ``send`` and ``recv``
methods are both generators, with methods resolved down the in-project
MRO over the :class:`repro.check.project.Project` graph — so a
subclass inheriting one leg from a base in another file is compiled as
a whole.  A *channel operation* is ``<x>.send/isend/recv(...)`` on
anything but bare ``self``, tagged by its literal ``tag=`` keyword.

The extractor preserves control flow: each method body becomes a step
tree (:mod:`repro.verify.model`) whose branches carry
guard-evaluation closures bound to the defining module's imports, the
enclosing local bindings, and the class's helper predicates.

Generator ``self.<helper>()`` calls are inlined (their steps spliced
in place, size parameters rebound through the call site); engine
``timeout`` calls become ``timeout`` ops; everything else inside an
expression is cost arithmetic the model does not need.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.rules.yields import contains_yield
from repro.verify.model import (
    SIZE,
    Binding,
    BranchStep,
    GuardEvaluator,
    HaltStep,
    LoopStep,
    Op,
    OpStep,
    Step,
    self_method_call,
)

#: Default tag of repro.net.channel.Endpoint.send/recv when the call
#: site passes none.
_DEFAULT_TAG = "data"


class EndpointClass:
    """One class with its full (inheritance-resolved) method table."""

    def __init__(self, ctx, node: ast.ClassDef):
        self.ctx = ctx
        self.node = node
        #: method name -> (defining ModuleContext, FunctionDef)
        self.methods: dict[str, tuple] = {}

    def method(self, name: str) -> tuple | None:
        return self.methods.get(name)


def collect_classes(project) -> list[EndpointClass]:
    """Every project class, methods merged down the in-project MRO."""

    def methods_of(ctx, node: ast.ClassDef, depth: int = 0) -> dict:
        table: dict = {}
        if depth <= 8:
            for base in node.bases:
                resolved = project.resolve_base_class(ctx, base)
                if resolved is not None:
                    for name, entry in methods_of(
                        resolved.ctx, resolved.node, depth + 1
                    ).items():
                        table.setdefault(name, entry)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                table[stmt.name] = (ctx, stmt)
        return table

    out = []
    for ctx, node in project.iter_classes():
        cls = EndpointClass(ctx, node)
        cls.methods = methods_of(ctx, node)
        out.append(cls)
    return out


def is_endpoint(cls: EndpointClass) -> bool:
    """Is ``cls`` an endpoint: are both send and recv generators?"""
    for name in ("send", "recv"):
        entry = cls.method(name)
        if entry is None or not contains_yield(entry[1].body):
            return False
    return True


def classify_channel_call(call: ast.Call) -> tuple[str, str | None] | None:
    """(direction, tag) when ``call`` is a channel send/recv, else None.

    The tag is None when not a literal (it then matches anything).
    ``self.send(...)`` is the protocol method itself, not the
    underlying channel endpoint, so a bare ``self`` receiver is no op.
    """
    func = call.func
    if not isinstance(func, ast.Attribute) or self_method_call(call):
        return None
    if func.attr in ("send", "isend"):
        direction = "send"
    elif func.attr == "recv":
        direction = "recv"
    else:
        return None
    tag: str | None = _DEFAULT_TAG
    for kw in call.keywords:
        if kw.arg == "tag":
            tag = kw.value.value if isinstance(kw.value, ast.Constant) else None
    return direction, tag


@dataclass
class EndpointModel:
    """The compiled two-leg state machine of one endpoint class."""

    name: str  #: class name
    module: str | None  #: module the class is defined in
    path: str  #: file of the class definition
    line: int  #: line of the class definition
    legs: dict  #: ``"send"``/``"recv"`` -> step tuple
    method_locs: dict  #: leg -> (path, line) of the defining ``def``

    def leg(self, name: str) -> tuple:
        return self.legs[name]


def iter_endpoint_models(project) -> list[EndpointModel]:
    """Compile every endpoint class in ``project``."""
    out = []
    for cls in collect_classes(project):
        if is_endpoint(cls):
            out.append(compile_endpoint(project, cls))
    return out


def compile_endpoint(project, cls) -> EndpointModel:
    """Compile one :class:`EndpointClass`."""
    legs: dict = {}
    locs: dict = {}
    for leg in ("send", "recv"):
        ctx, fn = cls.method(leg)
        compiler = _Compiler(project, cls)
        legs[leg] = compiler.compile_method(ctx, fn, visited={leg})
        locs[leg] = (ctx.path, fn.lineno)
    return EndpointModel(
        name=cls.node.name,
        module=cls.ctx.module,
        path=cls.ctx.path,
        line=cls.node.lineno,
        legs=legs,
        method_locs=locs,
    )


class _Compiler:
    """Compiles one method body (plus inlined helpers) to a step tuple."""

    def __init__(self, project, cls) -> None:
        self.project = project
        self.cls = cls
        self._evaluators: dict = {}

    def _evaluator(self, ctx) -> GuardEvaluator:
        ev = self._evaluators.get(ctx.path)
        if ev is None:
            ev = GuardEvaluator(self.cls, self.project.imports_of(ctx))
            self._evaluators[ctx.path] = ev
        return ev

    # -- entry ---------------------------------------------------------------
    def compile_method(self, ctx, fn: ast.FunctionDef, visited: set[str],
                       env: dict | None = None) -> tuple:
        if env is None:
            env = {}
            params = [a.arg for a in fn.args.args[1:]]  # drop self
            if params:
                # By LibEndpoint convention the first parameter of a
                # protocol leg is the transfer size.
                env[params[0]] = SIZE
        return self._block(ctx, fn.body, env, visited)[0]

    # -- statements ----------------------------------------------------------
    def _block(self, ctx, stmts, env: dict, visited: set[str]
               ) -> tuple[tuple, dict]:
        """Compile a statement list; returns (steps, env after block)."""
        steps: list[Step] = []
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                evaluator = self._evaluator(ctx)
                test, snapshot = stmt.test, dict(env)

                def make_eval(evaluator=evaluator, test=test, snap=snapshot):
                    def evaluate(spec: object, size: int) -> object:
                        return evaluator.test(test, snap, spec, size)
                    return evaluate

                then, _ = self._block(ctx, stmt.body, env, visited)
                orelse, _ = self._block(ctx, stmt.orelse, env, visited)
                steps.append(BranchStep(
                    make_eval(), then, orelse, path=ctx.path,
                    line=stmt.lineno, col=stmt.col_offset + 1,
                ))
                continue
            if isinstance(stmt, (ast.For, ast.While)):
                body, _ = self._block(ctx, stmt.body, env, visited)
                body_else, _ = self._block(ctx, stmt.orelse, env, visited)
                steps.append(LoopStep(body + body_else, line=stmt.lineno))
                continue
            if isinstance(stmt, ast.Try):
                inner, env = self._block(ctx, stmt.body, env, visited)
                steps.extend(inner)
                final, env = self._block(ctx, stmt.finalbody, env, visited)
                steps.extend(final)
                continue
            if isinstance(stmt, ast.With):
                inner, env = self._block(ctx, stmt.body, env, visited)
                steps.extend(inner)
                continue
            if isinstance(stmt, (ast.Return, ast.Raise)):
                for child in ast.iter_child_nodes(stmt):
                    steps.extend(self._expr(ctx, child, env, visited))
                steps.append(HaltStep(line=stmt.lineno))
                continue
            # Plain statement: extract ops from its expressions, then
            # record simple local bindings for later guard evaluation.
            steps.extend(self._expr(ctx, stmt, env, visited))
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                env = {**env, stmt.targets[0].id: Binding(stmt.value, dict(env))}
        return tuple(steps), env

    # -- expressions ---------------------------------------------------------
    def _expr(self, ctx, node: ast.AST, env: dict, visited: set[str]
              ) -> list[Step]:
        """Ops in one expression/statement, in source order."""
        steps: list[Step] = []
        self._scan(ctx, node, env, visited, steps)
        return steps

    def _scan(self, ctx, node: ast.AST, env: dict, visited: set[str],
              out: list[Step]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested definitions execute later, if ever
        if isinstance(node, ast.Call):
            classified = classify_channel_call(node)
            if classified is not None:
                out.append(OpStep(self._op(ctx, node, *classified)))
            elif self._is_timeout(node):
                out.append(OpStep(self._op(ctx, node, "timeout", None)))
            else:
                helper = self_method_call(node)
                if helper and helper not in visited:
                    entry = self.cls.method(helper)
                    if entry is not None and contains_yield(entry[1].body):
                        out.extend(
                            self._inline(entry[0], entry[1], node, env,
                                         visited | {helper})
                        )
                        return
        for child in ast.iter_child_nodes(node):
            self._scan(ctx, child, env, visited, out)

    def _inline(self, ctx, fn: ast.FunctionDef, call: ast.Call, env: dict,
                visited: set[str]) -> tuple:
        """Splice a generator helper's steps in, rebinding parameters."""
        params = [a.arg for a in fn.args.args[1:]]
        inner_env: dict = {
            p: Binding(a, dict(env)) for p, a in zip(params, call.args)
        }
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params:
                inner_env[kw.arg] = Binding(kw.value, dict(env))
        return self.compile_method(ctx, fn, visited, env=inner_env)

    @staticmethod
    def _is_timeout(call: ast.Call) -> bool:
        func = call.func
        return isinstance(func, ast.Attribute) and func.attr == "timeout"

    def _op(self, ctx, node: ast.Call, kind: str, tag: str | None) -> Op:
        return Op(
            kind=kind,
            tag=tag,
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset + 1,
        )
