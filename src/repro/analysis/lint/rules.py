"""The repo-specific AST rules (REP001–REP011).

Each rule encodes one convention the reproduction's test campaign
hardened dynamically; the linter makes it registration-time static.
``ALL_CHECKS`` is the pass-1 rule set the CLI runs; the README rule
table is generated from the ``code`` / ``title`` / ``rationale``
metadata on each class.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Tuple

from repro.analysis.lint.framework import (
    Check,
    FileContext,
    Finding,
    _iter_comments,
)

__all__ = ["ALL_CHECKS", "all_checks"]


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: Legacy module-level numpy RNG entry points (global hidden state).
_GLOBAL_RNG_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "uniform", "normal", "standard_normal", "choice", "shuffle",
    "permutation", "seed", "get_state", "set_state", "exponential",
    "poisson", "binomial", "beta", "gamma", "lognormal", "multinomial",
})


class UnseededRngCheck(Check):
    code = "REP001"
    title = "no unseeded or global RNG in src/"
    rationale = (
        "Reproducibility is load-bearing: every stochastic path threads "
        "seeded np.random.Generator objects spawned from SeedSequence. "
        "An argument-less default_rng() or a np.random.<dist> module call "
        "draws from hidden global entropy and breaks replay."
    )
    sections = ("src",)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            if name in ("np.random.default_rng", "numpy.random.default_rng",
                        "default_rng") and not node.args and not node.keywords:
                yield ctx.finding(
                    node, self.code,
                    "unseeded default_rng(): thread a seeded Generator / "
                    "SeedSequence instead",
                )
            elif (name.startswith(("np.random.", "numpy.random."))
                    and name.rsplit(".", 1)[1] in _GLOBAL_RNG_FNS):
                yield ctx.finding(
                    node, self.code,
                    f"global-state RNG call {name}(): use a seeded "
                    "np.random.Generator",
                )


#: Call attributes that count as "the handler stamped the error".
_STAMP_ATTRS = frozenset({
    "inc", "observe", "observe_many", "set_gauge", "count_op",
    "warn", "warning", "error", "exception", "log",
})


class SilentExceptCheck(Check):
    code = "REP002"
    title = "no silent broad exception swallow"
    rationale = (
        "A bare `except:` or `except Exception:` that neither re-raises "
        "nor stamps the failure (telemetry counter / count_op / "
        "warnings.warn / logging) turns bugs into silently-wrong numbers. "
        "Deliberate swallows carry a justified # repro: noqa[REP002]."
    )
    sections = ("src", "benchmarks")

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._body_stamps_or_raises(node.body):
                continue
            caught = "bare except" if node.type is None else \
                f"except {_dotted(node.type)}"
            yield ctx.finding(
                node, self.code,
                f"{caught} swallows silently: re-raise, stamp the error "
                "(telemetry/warnings/logging), or justify with "
                "# repro: noqa[REP002]",
            )

    @staticmethod
    def _is_broad(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(_dotted(e) in ("Exception", "BaseException")
                       for e in type_node.elts)
        return _dotted(type_node) in ("Exception", "BaseException")

    @staticmethod
    def _body_stamps_or_raises(body) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    name = _dotted(node.func)
                    if name and name.rsplit(".", 1)[-1] in _STAMP_ATTRS:
                        return True
        return False


class FloatEqualityCheck(Check):
    code = "REP003"
    title = "no ==/!= against nonzero float literals outside tests"
    rationale = (
        "Bounds and envelopes are solver outputs; exact equality against "
        "a float literal is tolerance-free and flips with integrator "
        "step-size. Compare with a tolerance (np.isclose / <=). Exact "
        "0.0 sentinel checks remain legal — they test bit-level zeros."
    )
    sections = ("src", "benchmarks")

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    if (isinstance(side, ast.Constant)
                            and isinstance(side.value, float)
                            and side.value != 0.0):
                        yield ctx.finding(
                            node, self.code,
                            f"exact float comparison against {side.value!r}: "
                            "use a tolerance (np.isclose or an explicit "
                            "bound)",
                        )
                        break


class MutableDefaultCheck(Check):
    code = "REP004"
    title = "no mutable default arguments"
    rationale = (
        "A list/dict/set default is shared across calls; with specs and "
        "models cached and sharded across processes, call-to-call "
        "leakage is a heisenbug. Default to None and build inside."
    )

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield ctx.finding(
                        default, self.code,
                        f"mutable default argument in {node.name}(): "
                        "default to None and construct per call",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _dotted(node.func) in ("list", "dict", "set")
        return False


class PrintAndClockCheck(Check):
    code = "REP005"
    title = "no print()/time.time()/breakpoint() in library code"
    rationale = (
        "Library output goes through reporting/telemetry, not stdout, "
        "and timing uses time.perf_counter() (time.time() is not "
        "monotonic). The CLI (__main__) and reporting modules are "
        "allowlisted — printing is their job."
    )
    sections = ("src",)
    #: Path fragments where printing is the module's purpose.
    allow_fragments = ("repro/__main__.py", "repro/reporting/",
                       "repro/analysis/lint/cli.py")

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        posix = ctx.path.replace("\\", "/")
        if any(fragment in posix for fragment in self.allow_fragments):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name in ("print", "breakpoint"):
                yield ctx.finding(
                    node, self.code,
                    f"{name}() in library code: emit through "
                    "repro.reporting or repro.telemetry",
                )
            elif name == "time.time":
                yield ctx.finding(
                    node, self.code,
                    "time.time() is non-monotonic: use "
                    "time.perf_counter() for timing",
                )


#: Gated module-level metric helpers that pay a lookup per call.
_LOOP_TELEMETRY = frozenset({"inc", "observe", "observe_many", "set_gauge"})


class LoopTelemetryCheck(Check):
    code = "REP006"
    title = "loop-body metrics must use hoisted live_* handles"
    rationale = (
        "telemetry.inc()/observe() re-check the gate and re-look-up the "
        "instrument per call; inside hot loops the convention is one "
        "live_counter()/live_histogram() hoist before the loop (None "
        "when disabled) and plain attribute ops per iteration."
    )
    sections = ("src",)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        return self._visit(ctx, ctx.tree, loop_depth=0)

    def _visit(self, ctx: FileContext, node: ast.AST,
               loop_depth: int) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                # A nested def is invoked on its own schedule, not once
                # per enclosing-loop iteration; restart the depth.
                yield from self._visit(ctx, child, 0)
                continue
            depth = loop_depth
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                depth += 1
            if depth > 0 and isinstance(child, ast.Call):
                name = _dotted(child.func)
                if (name and name.startswith("telemetry.")
                        and name.rsplit(".", 1)[1] in _LOOP_TELEMETRY):
                    yield ctx.finding(
                        child, self.code,
                        f"{name}() inside a loop body: hoist a "
                        "telemetry.live_counter()/live_histogram() handle "
                        "before the loop",
                    )
            yield from self._visit(ctx, child, depth)


class UntestedBatchKernelCheck(Check):
    code = "REP007"
    title = "every public *_batch kernel is named in tests/"
    rationale = (
        "A batched kernel is only trusted once a test pins it to a "
        "reference oracle under tests/ (a one-query-at-a-time "
        "implementation kept there, not in the library). A kernel no "
        "test names is an unverified fast path. Any tests/test_*.py "
        "mention (name, attribute, or string) counts."
    )
    sections = ("src",)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for node, name in self._public_batch_defs(ctx.tree):
            if name not in ctx.test_names:
                yield ctx.finding(
                    node, self.code,
                    f"public batch kernel {name}() is never named in any "
                    "tests/test_*.py — add a test pinning it to a "
                    "reference oracle under tests/",
                )

    @staticmethod
    def _public_batch_defs(tree: ast.AST):
        """Module-level and class-level (not nested) *_batch defs."""
        def scan(body) -> Iterable[Tuple[ast.AST, str]]:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if (stmt.name.endswith("_batch")
                            and not stmt.name.startswith("_")):
                        yield stmt, stmt.name
                elif isinstance(stmt, ast.ClassDef):
                    yield from scan(stmt.body)
        return scan(tree.body)


class WildcardImportCheck(Check):
    code = "REP008"
    title = "no wildcard imports"
    rationale = (
        "`from x import *` hides provenance and defeats the __all__ "
        "contract the public-API tests pin; every name is imported "
        "explicitly."
    )

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if any(alias.name == "*" for alias in node.names):
                    yield ctx.finding(
                        node, self.code,
                        f"wildcard import from {node.module!r}: import the "
                        "needed names explicitly",
                    )


class AssertInLibraryCheck(Check):
    code = "REP009"
    title = "no assert statements in library code"
    rationale = (
        "python -O strips asserts, so validation guarded by them "
        "vanishes in optimized runs; library code raises explicit "
        "ValueError/TypeError (tests keep using assert, of course)."
    )
    sections = ("src",)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield ctx.finding(
                    node, self.code,
                    "assert in library code is stripped under -O: raise an "
                    "explicit exception",
                )


class RaiseWithoutFromCheck(Check):
    code = "REP010"
    title = "exception conversions must chain (raise ... from ...)"
    rationale = (
        "Converting an exception inside an except handler without "
        "`from exc` (or an explicit `from None`) loses the causal "
        "traceback the next debugger needs; the repo chains everywhere."
    )
    sections = ("src",)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        return self._visit(ctx, ctx.tree, in_handler=False)

    def _visit(self, ctx: FileContext, node: ast.AST,
               in_handler: bool) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                yield from self._visit(ctx, child, False)
                continue
            inside = in_handler or isinstance(child, ast.ExceptHandler)
            if (inside and isinstance(child, ast.Raise)
                    and child.exc is not None and child.cause is None):
                yield ctx.finding(
                    child, self.code,
                    "raise inside an except handler without `from`: chain "
                    "with `from exc` or mark deliberate with `from None`",
                )
            yield from self._visit(ctx, child, inside)


#: Identifier fragments that signal a loop-exit condition is a *bound*
#: (budget, deadline, retry cap ...) rather than a data-driven test.
_BOUND_TOKENS = (
    "max", "deadline", "timeout", "attempt", "retr", "budget", "remaining",
    "limit", "round", "patience", "iter", "count", "steps", "bound",
)

_UNBOUNDED_OK_RE = re.compile(
    r"#\s*repro:\s*unbounded-ok\[(?P<reason>[^\]]+)\]"
)


class UnboundedWhileCheck(Check):
    code = "REP011"
    title = "every while-True loop in src/ carries an explicit bound"
    rationale = (
        "The resilience campaign's failure mode is the loop that spins "
        "forever when a worker hangs or an iteration stops converging. "
        "A constant-true `while` must either contain a recognisable "
        "bound check (an `if` naming a max/deadline/attempt/budget-style "
        "limit that breaks, returns or raises) or justify itself with "
        "# repro: unbounded-ok[reason] on the `while` line."
    )
    sections = ("src",)

    def run(self, ctx: FileContext) -> Iterable[Finding]:
        waived = {
            lineno for lineno, comment in _iter_comments(ctx.text)
            if _UNBOUNDED_OK_RE.search(comment)
        }
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            if not (isinstance(node.test, ast.Constant)
                    and bool(node.test.value)):
                continue
            if node.lineno in waived:
                continue
            if self._has_bound(node):
                continue
            yield ctx.finding(
                node, self.code,
                "unbounded `while True`: add an explicit bound (an `if` "
                "on a max/deadline/attempt/budget-style limit that "
                "breaks/returns/raises) or justify with "
                "# repro: unbounded-ok[reason]",
            )

    @classmethod
    def _has_bound(cls, loop: ast.While) -> bool:
        """The loop body contains a bound-named `if` that exits.

        Nested function definitions are not descended into: a `return`
        inside a closure does not exit *this* loop, and `break` cannot
        cross a function boundary at all.
        """
        for node in cls._walk_shallow(loop.body):
            if not isinstance(node, ast.If):
                continue
            if not cls._names_a_bound(node.test):
                continue
            for inner in cls._walk_shallow([node]):
                if isinstance(inner, (ast.Break, ast.Raise, ast.Return)):
                    return True
        return False

    @staticmethod
    def _walk_shallow(nodes) -> Iterable[ast.AST]:
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _names_a_bound(test: ast.AST) -> bool:
        for node in ast.walk(test):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is None:
                continue
            lowered = name.lower()
            if any(token in lowered for token in _BOUND_TOKENS):
                return True
        return False


ALL_CHECKS = (
    UnseededRngCheck,
    SilentExceptCheck,
    FloatEqualityCheck,
    MutableDefaultCheck,
    PrintAndClockCheck,
    LoopTelemetryCheck,
    UntestedBatchKernelCheck,
    WildcardImportCheck,
    AssertInLibraryCheck,
    RaiseWithoutFromCheck,
    UnboundedWhileCheck,
)


def all_checks() -> List[Check]:
    """Fresh instances of every pass-1 rule."""
    return [cls() for cls in ALL_CHECKS]
