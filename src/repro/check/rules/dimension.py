"""dimension: seconds/bytes/bytes-per-second inference over the models.

Everything inside :mod:`repro` is SI (seconds, bytes, B/s); the paper
quotes µs and decimal Mbps.  A single unconverted paper literal — a
``900`` where ``mbps(900)`` was meant — produces a wrong-but-plausible
curve that no unit test catches, which is exactly the OCR-digit
failure mode EXPERIMENTS.md documents for the paper text itself.

Dimensions are exponent vectors over (time, bytes): seconds = (1, 0),
bytes = (0, 1), B/s = (-1, 1); multiplication adds exponents, division
subtracts, addition requires agreement.  A dimension is inferred from
three sources, in order of strength:

1. :data:`repro.units.CONVERTER_DIMENSIONS` — a converter call is an
   explicit dimension (and unit) declaration;
2. propagation — local single-assignment dataflow, arithmetic, and
   project-wide dataclass field defaults / module constants (resolved
   cross-module through the project graph);
3. field/parameter *names* — ``latency``/``stall``/``rtt`` are
   seconds, ``nbytes``/``mss``/``sockbuf`` are bytes,
   ``bandwidth``/``rate`` are B/s (scanning compound names
   right-to-left so ``fragment_time`` is a time).

Numeric literals are dimensionless scalars under ``*``/``/`` but
wildcards under ``+``/``-`` (a bare ``8`` may legitimately mean "8
bytes of preamble"), so only provably cross-dimension arithmetic is
flagged:

* ``dim-mixed`` — ``+``/``-``/ordering-comparison between two known,
  different dimensions;
* ``dim-unconverted`` — a bare numeric literal whose magnitude says
  "paper units" assigned to a seconds- or B/s-dimensioned name
  (module constant, dataclass field default, instance attribute, or
  keyword argument) without a :mod:`repro.units` converter call.
"""

from __future__ import annotations

import ast

from repro.check.analyzer import Finding, ModuleContext

FAMILY = "dimension"

RULES = {
    "dim-mixed": (
        "arithmetic or comparison across different physical dimensions"
    ),
    "dim-unconverted": (
        "paper-magnitude literal assigned to an SI field without a "
        "units converter"
    ),
}

# -- dimension vocabulary ------------------------------------------------------

Dim = tuple[int, int]  # (time exponent, bytes exponent)

TIME: Dim = (1, 0)
SIZE: Dim = (0, 1)
RATE: Dim = (-1, 1)
SCALAR: Dim = (0, 0)

#: Marker for numeric literals: scalar in products, wildcard in sums.
_LIT = "lit"

_DIM_NAMES = {
    TIME: "seconds",
    SIZE: "bytes",
    RATE: "bytes/s",
    SCALAR: "dimensionless",
    (1, -1): "s/byte",
}


def _dim_name(dim: Dim) -> str:
    return _DIM_NAMES.get(dim, f"s^{dim[0]}*B^{dim[1]}")


#: Whole-name overrides, consulted before the word scan.  ``loss_rate``
#: is a probability, not B/s.
_NAME_OVERRIDES: dict[str, Dim | None] = {
    "loss_rate": SCALAR,
    "drop_rate": SCALAR,
    "error_rate": SCALAR,
}

_TIME_WORDS = frozenset({
    "time", "latency", "stall", "rtt", "delay", "timeout", "cost",
    "now", "duration", "elapsed",
})
_SIZE_WORDS = frozenset({
    "bytes", "byte", "nbytes", "size", "mss", "mtu", "sockbuf",
    "bufsize", "cwnd", "window", "header", "payload", "chunk",
    "threshold", "fragment", "frag", "preamble",
})
_RATE_WORDS = frozenset({
    "rate", "bandwidth", "goodput", "throughput", "bps",
})
_SCALAR_WORDS = frozenset({
    "efficiency", "fraction", "ratio", "count", "copies", "cpus",
    "segments", "segs", "nfrags", "repeats", "seed",
})

_WORD_DIMS = (
    (_TIME_WORDS, TIME),
    (_SIZE_WORDS, SIZE),
    (_RATE_WORDS, RATE),
    (_SCALAR_WORDS, SCALAR),
)


def name_dim(name: str) -> Dim | None:
    """Dimension suggested by an identifier, or None.

    Compound names are scanned right-to-left so the trailing component
    wins: ``fragment_time`` is a time, ``window_rate`` a rate.
    """
    lowered = name.lower().strip("_")
    if lowered in _NAME_OVERRIDES:
        return _NAME_OVERRIDES[lowered]
    for word in reversed(lowered.split("_")):
        for words, dim in _WORD_DIMS:
            if word in words:
                return dim
    return None


def _converter_table() -> dict[str, Dim]:
    """Fully-qualified converter name -> dimension of its return."""
    global _CONVERTERS
    if _CONVERTERS is None:
        try:
            from repro.units import CONVERTER_DIMENSIONS

            by_axis = {"time": TIME, "size": SIZE, "rate": RATE}
            _CONVERTERS = {
                f"repro.units.{name}": by_axis[axis]
                for name, (axis, _si) in CONVERTER_DIMENSIONS.items()
            }
        except Exception:
            _CONVERTERS = {}
    return _CONVERTERS


_CONVERTERS: dict[str, Dim] | None = None

#: Builtins that preserve their argument's dimension.
_PASSTHROUGH_CALLS = frozenset({
    "abs", "round", "int", "float",
    "math.ceil", "math.floor", "math.fabs",
})


# -- project-wide symbol tables ------------------------------------------------

class _Tables:
    """Lazily-built dimension tables over one project."""

    def __init__(self, project) -> None:
        self.project = project
        #: dataclass field name -> dim (None recorded on conflicts)
        self.fields: dict[str, Dim | None] = {}
        #: (module, constant) -> dim, with in-progress recursion guard
        self._constants: dict[tuple[str, str], Dim | None] = {}
        self._build_fields()

    def _build_fields(self) -> None:
        for ctx, node in self.project.iter_classes():
            if not _is_dataclass(node, ctx, self.project):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ):
                    continue
                dim = name_dim(stmt.target.id)
                if dim is None and stmt.value is not None:
                    inferred = _Inference(self, ctx, {}).dim_of(stmt.value)
                    dim = inferred if inferred != _LIT else None
                if stmt.target.id in self.fields:
                    if self.fields[stmt.target.id] != dim:
                        self.fields[stmt.target.id] = None
                else:
                    self.fields[stmt.target.id] = dim

    def constant_dim(self, ctx: ModuleContext, name: str) -> Dim | None:
        """Dimension of a module-level constant, resolved cross-module."""
        key = (ctx.path, name)
        if key in self._constants:
            return self._constants[key]
        self._constants[key] = None  # recursion guard
        resolved = self.project.resolve_local(ctx, name)
        dim: Dim | None = None
        if resolved is not None and not resolved.rest:
            node = resolved.node
            value = None
            if isinstance(node, ast.Assign):
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                value = node.value
            if value is not None:
                inferred = _Inference(self, resolved.ctx, {}).dim_of(value)
                dim = inferred if inferred != _LIT else None
        if dim is None:
            dim = name_dim(name)
        self._constants[key] = dim
        return dim


def _is_dataclass(node: ast.ClassDef, ctx: ModuleContext, project) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = project.imports_of(ctx).resolve(target)
        if dotted in ("dataclasses.dataclass", "dataclass"):
            return True
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


# -- expression inference ------------------------------------------------------

class _Inference:
    """dim_of() over expressions, against one module and local env."""

    def __init__(
        self,
        tables: _Tables,
        ctx: ModuleContext,
        env: dict[str, Dim | None],
    ) -> None:
        self.tables = tables
        self.ctx = ctx
        self.env = env

    def dim_of(self, node: ast.AST):
        """A Dim, ``_LIT`` for numeric literals, or None (unknown)."""
        if isinstance(node, ast.Constant):
            return _LIT if isinstance(node.value, (int, float)) and not isinstance(node.value, bool) else None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            dim = name_dim(node.id)
            if dim is not None:
                return dim
            return self.tables.constant_dim(self.ctx, node.id)
        if isinstance(node, ast.Attribute):
            dim = name_dim(node.attr)
            if dim is not None:
                return dim
            return self.tables.fields.get(node.attr)
        if isinstance(node, ast.Call):
            return self._call_dim(node)
        if isinstance(node, ast.BinOp):
            return self._binop_dim(node)
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            return self.dim_of(node.operand)
        if isinstance(node, ast.IfExp):
            body = self.dim_of(node.body)
            orelse = self.dim_of(node.orelse)
            return body if body == orelse else None
        if isinstance(node, (ast.YieldFrom, ast.Await)):
            return None
        return None

    def _call_dim(self, node: ast.Call):
        func = node.func
        dotted = self.tables.project.imports_of(self.ctx).resolve(func)
        if dotted is not None:
            table = _converter_table()
            if dotted in table:
                return table[dotted]
            if dotted in _PASSTHROUGH_CALLS and node.args:
                return self.dim_of(node.args[0])
        if isinstance(func, ast.Name):
            if func.id in ("min", "max"):
                dims = {
                    d
                    for d in (self.dim_of(a) for a in node.args)
                    if d != _LIT
                }
                if len(dims) == 1:
                    return dims.pop()
                return None
            if func.id in _PASSTHROUGH_CALLS and node.args:
                return self.dim_of(node.args[0])
            return None
        if isinstance(func, ast.Attribute):
            # A method's name declares its return: host.copy_time(...)
            return name_dim(func.attr)
        return None

    def _binop_dim(self, node: ast.BinOp):
        left = self.dim_of(node.left)
        right = self.dim_of(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left == right and left not in (None, _LIT):
                return left
            return None
        if isinstance(node.op, (ast.Mult, ast.Div, ast.FloorDiv)):
            left = SCALAR if left == _LIT else left
            right = SCALAR if right == _LIT else right
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Mult):
                return (left[0] + right[0], left[1] + right[1])
            return (left[0] - right[0], left[1] - right[1])
        return None


# -- the checker ---------------------------------------------------------------

#: Trailing name components that declare *display* units on purpose
#: (``_GIGE_RX_US``); the value is a paper number by construction.
_DISPLAY_SUFFIXES = frozenset({"us", "ms", "ns", "mbps", "kb", "mb", "ghz", "mhz"})

#: dim-unconverted magnitude gates.  Simulated times are µs..ms, so an
#: SI seconds value >= this reads as an unconverted µs literal; SI
#: rates start around 1e5 B/s (1 Mbps), so a positive value below this
#: reads as unconverted Mbps/MBps.
_TIME_LITERAL_MIN = 0.5
_RATE_LITERAL_MAX = 1.0e4


def _is_bare_number(node: ast.AST) -> float | None:
    """The numeric value of a call-free, name-free expression, or None."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Call, ast.Name, ast.Attribute)):
            return None
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _paper_literal(dim: Dim | None, value: float | None) -> bool:
    if value is None or value == 0:
        return False
    if dim == TIME:
        return abs(value) >= _TIME_LITERAL_MIN
    if dim == RATE:
        return 0 < abs(value) < _RATE_LITERAL_MAX
    return False


def _display_named(name: str) -> bool:
    words = name.lower().strip("_").split("_")
    return bool(words) and words[-1] in _DISPLAY_SUFFIXES


class _ModuleChecker:
    def __init__(self, tables: _Tables, ctx: ModuleContext) -> None:
        self.tables = tables
        self.ctx = ctx
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        env: dict[str, Dim | None] = {}
        self._walk_block(self.ctx.tree.body, env, toplevel=True)
        return self.findings

    # -- statement walk, building the local env in source order --------------

    def _walk_block(
        self,
        stmts: list[ast.stmt],
        env: dict[str, Dim | None],
        toplevel: bool = False,
    ) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, env, toplevel)

    def _walk_stmt(
        self, stmt: ast.stmt, env: dict[str, Dim | None], toplevel: bool
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn_env: dict[str, Dim | None] = {}
            for arg in [
                *stmt.args.posonlyargs,
                *stmt.args.args,
                *stmt.args.kwonlyargs,
            ]:
                fn_env[arg.arg] = name_dim(arg.arg)
            self._walk_block(stmt.body, fn_env)
            return
        if isinstance(stmt, ast.ClassDef):
            class_env: dict[str, Dim | None] = {}
            self._walk_block(stmt.body, class_env, toplevel=toplevel)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._check_assign(stmt, env, toplevel)
            return
        if isinstance(stmt, ast.AugAssign):
            self._check_augassign(stmt, env)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, env)
            self._walk_block(stmt.body, env)
            self._walk_block(stmt.orelse, env)
            return
        if isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, env)
            else:
                self._scan_expr(stmt.iter, env)
            self._walk_block(stmt.body, env)
            self._walk_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.With):
            self._walk_block(stmt.body, env)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, env)
            for handler in stmt.handlers:
                self._walk_block(handler.body, env)
            self._walk_block(stmt.orelse, env)
            self._walk_block(stmt.finalbody, env)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, env)

    # -- assignments ----------------------------------------------------------

    def _check_assign(
        self,
        stmt: ast.Assign | ast.AnnAssign,
        env: dict[str, Dim | None],
        toplevel: bool,
    ) -> None:
        value = stmt.value
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        if value is None:
            return
        self._scan_expr(value, env)
        inference = _Inference(self.tables, self.ctx, env)
        value_dim = inference.dim_of(value)
        for target in targets:
            name: str | None = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is None:
                continue
            declared = name_dim(name)
            self._check_unconverted(name, declared, value, stmt)
            if isinstance(target, ast.Name):
                new = value_dim if value_dim != _LIT else None
                if new is None and declared is not None:
                    new = declared
                if name in env and env[name] != new:
                    env[name] = None  # conflicting reassignment: unknown
                else:
                    env[name] = new

    def _check_augassign(
        self, stmt: ast.AugAssign, env: dict[str, Dim | None]
    ) -> None:
        self._scan_expr(stmt.value, env)
        if not isinstance(stmt.op, (ast.Add, ast.Sub)):
            return
        inference = _Inference(self.tables, self.ctx, env)
        target_dim = inference.dim_of(stmt.target)
        value_dim = inference.dim_of(stmt.value)
        if (
            target_dim not in (None, _LIT)
            and value_dim not in (None, _LIT)
            and target_dim != value_dim
        ):
            self.findings.append(
                self.ctx.finding(
                    stmt,
                    "dim-mixed",
                    f"augmented assignment mixes {_dim_name(target_dim)} "
                    f"and {_dim_name(value_dim)}",
                )
            )

    def _check_unconverted(
        self,
        name: str,
        declared: Dim | None,
        value: ast.expr,
        anchor: ast.stmt,
    ) -> None:
        if declared not in (TIME, RATE) or _display_named(name):
            return
        literal = _is_bare_number(value)
        if _paper_literal(declared, literal):
            unit = "µs" if declared == TIME else "Mbps"
            helper = "us(...)" if declared == TIME else "mbps(...)"
            self.findings.append(
                self.ctx.finding(
                    anchor,
                    "dim-unconverted",
                    f"{name!r} is in SI {_dim_name(declared)} but is "
                    f"assigned bare literal {literal:g} — a paper {unit} "
                    f"value needs repro.units.{helper}",
                )
            )

    # -- expression scan (dim-mixed + keyword literals) -----------------------

    def _scan_expr(self, expr: ast.expr, env: dict[str, Dim | None]) -> None:
        inference = _Inference(self.tables, self.ctx, env)
        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                left = inference.dim_of(node.left)
                right = inference.dim_of(node.right)
                if (
                    left not in (None, _LIT)
                    and right not in (None, _LIT)
                    and left != right
                ):
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    self.findings.append(
                        self.ctx.finding(
                            node,
                            "dim-mixed",
                            f"'{op}' mixes {_dim_name(left)} and "
                            f"{_dim_name(right)}",
                        )
                    )
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if isinstance(
                    node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
                ):
                    left = inference.dim_of(node.left)
                    right = inference.dim_of(node.comparators[0])
                    if (
                        left not in (None, _LIT)
                        and right not in (None, _LIT)
                        and left != right
                    ):
                        self.findings.append(
                            self.ctx.finding(
                                node,
                                "dim-mixed",
                                f"comparison mixes {_dim_name(left)} and "
                                f"{_dim_name(right)}",
                            )
                        )
            elif isinstance(node, ast.Call):
                self._scan_call_keywords(node, env)

    def _scan_call_keywords(
        self, call: ast.Call, env: dict[str, Dim | None]
    ) -> None:
        for kw in call.keywords:
            if kw.arg is None:
                continue
            dim = name_dim(kw.arg)
            if dim is None:
                dim = self.tables.fields.get(kw.arg)
            if dim not in (TIME, RATE) or _display_named(kw.arg):
                continue
            literal = _is_bare_number(kw.value)
            if _paper_literal(dim, literal):
                unit = "µs" if dim == TIME else "Mbps"
                helper = "us(...)" if dim == TIME else "mbps(...)"
                self.findings.append(
                    self.ctx.finding(
                        kw.value,
                        "dim-unconverted",
                        f"keyword {kw.arg!r} is in SI {_dim_name(dim)} "
                        f"but gets bare literal {literal:g} — a paper "
                        f"{unit} value needs repro.units.{helper}",
                    )
                )


def check_project(project) -> list[Finding]:
    """Infer dimensions module-by-module against project-wide tables."""
    tables = _Tables(project)
    findings: list[Finding] = []
    for ctx in project.modules:
        findings.extend(_ModuleChecker(tables, ctx).run())
    return sorted(set(findings))
