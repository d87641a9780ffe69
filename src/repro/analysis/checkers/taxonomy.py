"""Rule ``error-taxonomy``: serving code speaks the typed error hierarchy.

The failover contract in :mod:`repro.serve.errors` only works if errors
keep their types: :class:`BackendError` means "this backend is unusable,
try a replica", :class:`RequestError` means "every replica will fail the
same way, do not retry".  A ``raise Exception(...)`` or a broad
``except Exception:`` that swallows without re-wrapping erases that
signal — the router either retries a doomed request or gives up on a
healthy backend.

Scope: modules whose path contains ``serve``.  Flagged:

* ``raise Exception(...)`` / ``raise RuntimeError(...)`` /
  ``raise BaseException(...)`` — raise a class from
  ``repro.serve.errors`` instead;
* a broad handler (bare ``except:``, ``except Exception``,
  ``except BaseException``, or a tuple containing either) whose body
  neither re-raises, nor references a typed error class (re-wrapping),
  nor builds a ``{"kind": ...}`` wire-reply dict (the socket servers'
  serialized form of the taxonomy), and that is not preceded in the same
  ``try`` by a handler naming a typed error (typed-first, broad-last is
  the sanctioned catch-all shape).
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Checker, ModuleContext, walk_scope

#: The project's typed error vocabulary (serve/errors.py + api/wire.py
#: + the gateway's HTTP-facing refinements in gateway/).
TYPED_ERRORS = {
    "BackendError", "RequestError", "TransportError", "RemoteServerError",
    "RemoteRequestError", "ClusterError", "PipelineCancelled",
    "WireFormatError",
    "HttpError", "GatewayAuthError", "TenantForbiddenError",
    "TenantConfigError", "AdmissionRejected",
}

_BROAD = {"Exception", "BaseException"}
_UNTYPED_RAISES = {"Exception", "BaseException", "RuntimeError"}


class ErrorTaxonomyChecker(Checker):
    name = "error-taxonomy"
    description = (
        "serve/ and gateway/ code must raise typed errors and re-wrap "
        "or re-raise inside broad `except Exception` handlers"
    )
    scope = ("serve", "gateway")

    def check_module(self, ctx: ModuleContext) -> list:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                findings.extend(self._check_raise(ctx, node))
            elif isinstance(node, ast.Try):
                findings.extend(self._check_try(ctx, node))
        return findings

    def _check_raise(self, ctx, node: ast.Raise) -> list:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in _UNTYPED_RAISES:
            return [ctx.finding(
                self.name,
                node,
                f"raise of untyped {exc.id}; raise a class from "
                f"repro.serve.errors (BackendError for backend-is-down, "
                f"RequestError for never-retry) instead",
            )]
        return []

    def _check_try(self, ctx, node: ast.Try) -> list:
        findings = []
        typed_seen_earlier = False
        for handler in node.handlers:
            broad = self._broadness(handler)
            if broad is None:
                if self._names_typed_error(handler.type):
                    typed_seen_earlier = True
                continue
            if typed_seen_earlier:
                # typed-first, broad-last: the catch-all only sees what
                # the typed clauses above it chose not to claim.
                continue
            if self._handler_is_compliant(handler):
                continue
            findings.append(ctx.finding(
                self.name,
                handler,
                f"broad `{broad}` handler neither re-raises nor re-wraps "
                f"into the typed error hierarchy (repro.serve.errors)",
            ))
        return findings

    @staticmethod
    def _broadness(handler: ast.ExceptHandler):
        """The display form of a too-broad clause, or None if typed."""
        if handler.type is None:
            return "except:"
        names = []
        if isinstance(handler.type, ast.Tuple):
            names = [e.id for e in handler.type.elts
                     if isinstance(e, ast.Name)]
        elif isinstance(handler.type, ast.Name):
            names = [handler.type.id]
        hit = sorted(set(names) & _BROAD)
        if hit:
            return f"except {hit[0]}"
        return None

    @staticmethod
    def _names_typed_error(type_node) -> bool:
        if type_node is None:
            return False
        nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
                 else [type_node])
        for node in nodes:
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.id if isinstance(node, ast.Name) else None)
            if name in TYPED_ERRORS:
                return True
        return False

    @staticmethod
    def _handler_is_compliant(handler: ast.ExceptHandler) -> bool:
        body = ast.Module(body=handler.body, type_ignores=[])
        for node in walk_scope(body):
            if isinstance(node, ast.Raise):
                return True  # re-raise or raise-from re-wrap
            if isinstance(node, ast.Name) and node.id in TYPED_ERRORS:
                return True  # re-wrap: the typed class is referenced
            if (isinstance(node, ast.Attribute)
                    and node.attr in TYPED_ERRORS):
                return True  # errors.BackendError(...) style
            if isinstance(node, ast.Dict):
                # The socket servers encode the taxonomy as a
                # `{"kind": "backend"|"request"|...}` reply dict.
                for key in node.keys:
                    if (isinstance(key, ast.Constant)
                            and key.value == "kind"):
                        return True
        return False
