"""Rule ``resource-lifecycle``: close what you construct.

Backends, servers, and socket clients hold child processes, file
descriptors, and listening sockets; dropping one on the floor leaks
those until interpreter exit (and in tests, across tests).  This rule
flags constructions of close()-bearing classes that can neither be
released nor escape:

* a construction used as a bare expression statement is always a leak;
* a construction bound to a local name is a leak unless that name later
  appears in a ``with`` item, a ``.close()``/``.stop()``/``.kill()``/
  ``.terminate()``/``.shutdown()`` call, a ``return``/``yield``, a call
  argument (``closing(conn)``, ``stack.enter_context(conn)``, handing it
  to another owner), a container literal, or the right-hand side of an
  attribute/subscript assignment (``self.server = server.start()`` —
  the instance owns it now).

Constructions that escape immediately — returned, yielded, passed as an
argument, stored on an attribute, placed in a container, or opened in a
``with`` — are fine: ownership moved to someone who can release them.

Watched constructors: the serving stack's known resource owners plus any
class in the *same module* that defines ``close`` or ``stop``.  The
analysis is name-based and intraprocedural; for a factory helper whose
contract is "caller closes", suppress at the construction site with
``# reprolint: ignore[resource-lifecycle]`` and a reason.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Checker, ModuleContext, walk_scope

#: Constructors/factories across the project that hand back something
#: the caller must release.
WATCHED_CONSTRUCTORS = {
    "SocketServer", "AsyncSocketServer", "RemoteBackend",
    "AsyncRemoteBackend", "InProcessBackend", "ClusterRouter",
    "spawn_artifact_server", "spawn_store_server",
    "HttpGateway", "HttpBackend", "GatewayApp",
    "ResponseCache",
}

_RELEASE_METHODS = {"close", "stop", "kill", "terminate", "shutdown"}


class ResourceLifecycleChecker(Checker):
    name = "resource-lifecycle"
    description = (
        "constructions of close()-bearing classes must be released "
        "(with/try-finally/.close()) or handed to another owner"
    )
    scope = ()

    def check_module(self, ctx: ModuleContext) -> list:
        watched = set(WATCHED_CONSTRUCTORS)
        scopes = [ctx.tree]
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                if any(isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                       and item.name in ("close", "stop")
                       for item in node.body):
                    watched.add(node.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node)
        findings = []
        for scope in scopes:
            findings.extend(self._check_scope(ctx, scope, watched))
        return findings

    # -- one function (or the module top level) ------------------------------
    def _check_scope(self, ctx, scope, watched) -> list:
        symbol = getattr(scope, "name", "")
        parents: dict[int, ast.AST] = {}
        for node in walk_scope(scope):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        findings = []
        for node in walk_scope(scope):
            if not isinstance(node, ast.Call):
                continue
            callee = self._terminal_name(node.func)
            if callee not in watched:
                continue
            verdict = self._classify(node, parents, scope)
            if verdict is None:
                continue
            bound_name, construction = verdict
            if bound_name is None:
                findings.append(ctx.finding(
                    self.name, construction,
                    f"{callee}(...) is constructed and immediately "
                    f"dropped; nothing can ever close it",
                    symbol=symbol,
                ))
            elif not self._released(scope, bound_name):
                findings.append(ctx.finding(
                    self.name, construction,
                    f"{callee}(...) bound to '{bound_name}' is never "
                    f"closed, returned, or handed off; guard it with "
                    f"`with`/try-finally or call .close()",
                    symbol=symbol,
                ))
        return findings

    @staticmethod
    def _terminal_name(func: ast.AST):
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _classify(self, call, parents, scope):
        """None = construction escapes (fine); otherwise
        ``(bound_name_or_None, node_to_report)``."""
        node = call
        while True:
            parent = parents.get(id(node))
            if parent is None or parent is scope:
                return None  # lost track of the context: assume it escapes
            if isinstance(parent, ast.withitem):
                return None
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return None
            if isinstance(parent, ast.Call) and node is not parent.func:
                return None  # argument of another call: handed off
            if isinstance(parent, (ast.List, ast.Tuple, ast.Set, ast.Dict,
                                   ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp, ast.comprehension)):
                return None  # stored in a container someone else owns
            if isinstance(parent, (ast.Assign, ast.AnnAssign,
                                   ast.NamedExpr)):
                targets = (parent.targets if isinstance(parent, ast.Assign)
                           else [parent.target])
                simple = [t for t in targets if isinstance(t, ast.Name)]
                if len(simple) != len(targets):
                    return None  # attribute/subscript target: owned now
                return (simple[0].id, call) if simple else (None, call)
            if isinstance(parent, ast.Expr):
                return (None, call)  # bare expression statement
            if isinstance(parent, (ast.Call, ast.Attribute, ast.Await,
                                   ast.IfExp, ast.BoolOp, ast.Starred,
                                   ast.keyword)):
                # e.g. `SocketServer(...).start()` — keep climbing to see
                # where the chain's result lands.
                node = parent
                continue
            node = parent

    def _released(self, scope, name: str) -> bool:
        for node in walk_scope(scope):
            if isinstance(node, ast.withitem) and self._mentions(
                    node.context_expr, name):
                return True
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RELEASE_METHODS
                    and self._mentions(node.func.value, name)):
                return True
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if node.value is not None and self._mentions(node.value,
                                                             name):
                    return True
            if isinstance(node, ast.Call):
                operands = list(node.args) + [kw.value for kw in
                                              node.keywords]
                if any(self._mentions(arg, name) for arg in operands):
                    return True
            if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                if any(isinstance(e, ast.Name) and e.id == name
                       for e in node.elts):
                    return True
            if isinstance(node, ast.Dict):
                if any(isinstance(v, ast.Name) and v.id == name
                       for v in node.values):
                    return True
            if isinstance(node, ast.Assign):
                if any(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in node.targets) and self._mentions(
                           node.value, name):
                    return True
        return False

    @staticmethod
    def _mentions(expr: ast.AST, name: str) -> bool:
        return any(isinstance(n, ast.Name) and n.id == name
                   for n in ast.walk(expr))
