"""Lock-discipline pass: guarded attributes stay guarded.

The pipelined scheduler and the vault server share mutable state across
an admission thread, a collector thread, and an enclave worker. The
convention in those files is that any ``self.<attr>`` written under a
``with <lock>:`` block belongs to that lock. This pass infers the
guarded set per class — every attribute with at least one locked write
outside ``__init__`` — and then flags every read (``VL-L002``) or write
(``VL-L001``) of a guarded attribute that happens outside *any* lock
block in the same class.

Recognized guards: ``with self.<lock-attr>:`` where the attribute was
initialised from a lock factory (``threading.Lock``/``RLock``/
``Condition``/``StripedLocks``...), and striped acquisition
``with self.<striped>.lock_for(key):``. Deliberate lock-free fast paths
are annotated ``# vaultlint: unlocked-ok(<justification>)`` — the
justification is mandatory, so every benign race in the tree carries
its safety argument in-line.

The inference is deliberately conservative in one direction: attributes
*never* written under a lock (single-writer fields, pre-start
configuration) are not guarded and never flagged. The pass proves the
discipline of state the code itself declared shared, rather than
guessing at intent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Set

from .findings import Finding, make_finding
from .rules import Rulebook


def _call_factory_name(node: ast.expr) -> str:
    """The bare factory name of a call (``threading.Lock()`` -> Lock)."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_lock_guard(expr: ast.expr, lock_attrs: Set[str]) -> bool:
    """Whether a with-item expression acquires a known lock."""
    if isinstance(expr, ast.Attribute):
        return (isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in lock_attrs)
    if isinstance(expr, ast.Call):
        func = expr.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("lock_for", "acquire")):
            return _is_lock_guard(func.value, lock_attrs)
    return False


@dataclass
class _Access:
    node: ast.Attribute
    attr: str
    is_write: bool
    locked: bool
    method: str


@dataclass
class _ClassState:
    lock_attrs: Set[str] = field(default_factory=set)
    locked_writes: Set[str] = field(default_factory=set)
    accesses: List[_Access] = field(default_factory=list)


def _collect_lock_attrs(cls: ast.ClassDef, rb: Rulebook) -> Set[str]:
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = getattr(node, "value", None)
        if value is None or _call_factory_name(value) not in rb.lock_factories:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                locks.add(target.attr)
    return locks


class _MethodVisitor(ast.NodeVisitor):
    """Record self.<attr> accesses in one method with lock depth."""

    def __init__(self, state: _ClassState, method: str) -> None:
        self._state = state
        self._method = method
        self._lock_depth = 0

    def visit_With(self, node: ast.With) -> None:
        guards = sum(
            1 for item in node.items
            if _is_lock_guard(item.context_expr, self._state.lock_attrs)
        )
        for item in node.items:
            self.visit(item.context_expr)
        if guards:
            self._lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if guards:
            self._lock_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A closure defined under a lock does not run under the lock.
        depth, self._lock_depth = self._lock_depth, 0
        self.generic_visit(node)
        self._lock_depth = depth

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            attr = node.attr
            if attr not in self._state.lock_attrs:
                is_write = not isinstance(node.ctx, ast.Load)
                locked = self._lock_depth > 0
                self._state.accesses.append(_Access(
                    node=node, attr=attr, is_write=is_write,
                    locked=locked, method=self._method,
                ))
                if is_write and locked:
                    self._state.locked_writes.add(attr)
        self.generic_visit(node)


def run_lock_pass(tree: ast.AST, relpath: str,
                  rb: Rulebook) -> List[Finding]:
    if relpath not in rb.lock_scope:
        return []
    findings: List[Finding] = []
    for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        state = _ClassState(lock_attrs=_collect_lock_attrs(cls, rb))
        if not state.lock_attrs:
            continue
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue  # construction races with nothing
            _MethodVisitor(state, item.name).visit(item)
        guarded = state.locked_writes
        for access in state.accesses:
            if access.attr not in guarded or access.locked:
                continue
            rule = "VL-L001" if access.is_write else "VL-L002"
            verb = "write to" if access.is_write else "read of"
            findings.append(make_finding(
                rule, relpath, access.node,
                f"{verb} lock-guarded attribute {access.attr!r} "
                f"outside the lock in {cls.name}.{access.method}()",
            ))
    return findings
