"""Rule ``lock-discipline``: attributes mutated under a lock must always
be mutated under it.

For every class that owns a ``threading.Lock``/``RLock``/``Condition``
(assigned to a ``self`` attribute), this checker models which instance
attributes the class mutates inside ``with self.<lock>:`` blocks.  Those
attributes form the class's *guarded set* — the shared state its author
decided needs mutual exclusion.  Any mutation of a guarded attribute
outside the lock (except in ``__init__``, where the object is not yet
shared) is a race waiting for a scheduler to expose it, and is flagged.

Mutations are attribute/subscript stores (``self.hits += 1``,
``self._entries[key] = v``), known mutating method calls
(``self._members.append(...)``, ``.pop``, ``.update``, ...), and the same
through local aliases: ``member = self._members[i]; member.routed += 1``
and ``for member in self._members: member.dead = False`` both count as
mutations rooted in ``_members``.

The model is flow-insensitive and intraprocedural: a helper method that
mutates guarded state while *its caller* holds the lock is still flagged
— hold the lock where the mutation happens (re-entrant ``RLock``) or
suppress with ``# reprolint: ignore[lock-discipline]`` and a reason.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import (
    Checker,
    ModuleContext,
    import_table,
    resolve_call,
    self_attribute_root,
)

#: Call targets whose construction marks a ``self`` attribute as a lock.
_LOCK_FACTORIES = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
}

#: Method names that mutate their receiver in place.
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "move_to_end",
    "put", "put_nowait",
}


class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = (
        "attributes a class mutates under `with self.<lock>` must never "
        "be mutated outside it (except in __init__)"
    )
    scope = ()

    def check_module(self, ctx: ModuleContext) -> list:
        imports = import_table(ctx.tree)
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node, imports))
        return findings

    # -- per-class analysis --------------------------------------------------
    def _check_class(self, ctx, cls: ast.ClassDef, imports) -> list:
        locks = self._lock_attributes(cls, imports)
        if not locks:
            return []
        # (root attribute, node, locked, method name) for every mutation
        # in every method except __init__.
        mutations = []
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            aliases: dict[str, str] = {}
            self._scan_statements(
                item.body, locked=False, locks=locks, aliases=aliases,
                method=item.name, mutations=mutations,
            )
        guarded = {
            root for root, _node, locked, _method in mutations
            if locked and root not in locks
        }
        findings = []
        for root, node, locked, method in mutations:
            if locked or root not in guarded:
                continue
            findings.append(ctx.finding(
                self.name,
                node,
                f"'{cls.name}.{root}' is mutated under the lock elsewhere "
                f"but mutated here without holding it",
                symbol=f"{cls.name}.{method}",
            ))
        return findings

    def _lock_attributes(self, cls: ast.ClassDef, imports) -> set:
        locks = set()
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)):
                continue
            if resolve_call(node.value.func, imports) not in _LOCK_FACTORIES:
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    locks.add(target.attr)
        return locks

    # -- statement walk with a locked flag -----------------------------------
    def _scan_statements(self, stmts, locked, locks, aliases, method,
                         mutations):
        for stmt in stmts:
            self._scan_statement(stmt, locked, locks, aliases, method,
                                 mutations)

    def _scan_statement(self, stmt, locked, locks, aliases, method,
                        mutations):
        record = lambda root, node: mutations.append(
            (root, node, locked, method)
        )
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = locked or any(
                self._is_lock_acquire(item.context_expr, locks)
                for item in stmt.items
            )
            self._scan_statements(stmt.body, inner, locks, aliases, method,
                                  mutations)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            root = self_attribute_root(stmt.iter, aliases)
            if root is not None and isinstance(stmt.target, ast.Name):
                # Loop variable aliases elements of a self container.
                aliases[stmt.target.id] = root
            self._scan_statements(stmt.body, locked, locks, aliases, method,
                                  mutations)
            self._scan_statements(stmt.orelse, locked, locks, aliases,
                                  method, mutations)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_statements(stmt.body, locked, locks, aliases, method,
                                  mutations)
            self._scan_statements(stmt.orelse, locked, locks, aliases,
                                  method, mutations)
            return
        if isinstance(stmt, ast.Try):
            self._scan_statements(stmt.body, locked, locks, aliases, method,
                                  mutations)
            for handler in stmt.handlers:
                self._scan_statements(handler.body, locked, locks, aliases,
                                      method, mutations)
            self._scan_statements(stmt.orelse, locked, locks, aliases,
                                  method, mutations)
            self._scan_statements(stmt.finalbody, locked, locks, aliases,
                                  method, mutations)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scope: not this instance's method body
        # Simple statement: record target stores, alias captures, and
        # mutating method calls anywhere in its expressions.
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_store(target, aliases, record)
            self._capture_alias(stmt.targets, stmt.value, aliases)
        elif isinstance(stmt, ast.AugAssign):
            self._record_store(stmt.target, aliases, record)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._record_store(stmt.target, aliases, record)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_store(target, aliases, record)
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                root = self_attribute_root(node.func.value, aliases)
                if root is not None:
                    record(root, node)

    def _record_store(self, target, aliases, record):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, aliases, record)
            return
        if isinstance(target, ast.Starred):
            self._record_store(target.value, aliases, record)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = self_attribute_root(target, aliases)
            if root is not None:
                record(root, target)

    @staticmethod
    def _capture_alias(targets, value, aliases):
        """``member = self._members[i]`` makes ``member`` an alias whose
        mutations are rooted in ``_members``."""
        root = self_attribute_root(value, aliases)
        if root is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                aliases[target.id] = root

    @staticmethod
    def _is_lock_acquire(expr: ast.AST, locks: set) -> bool:
        # `with self._lock:` or `with self._cond:` (Condition) — also
        # accept an explicit `.acquire()`-style context via the bare attr.
        node = expr
        if isinstance(node, ast.Call):  # e.g. contextlib-wrapped; unwrap one
            if node.args and isinstance(node.args[0], ast.Attribute):
                node = node.args[0]
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in locks
        )
