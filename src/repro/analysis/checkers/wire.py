"""Rule ``wire-completeness``: every dataclass field crosses the wire.

The socket, asyncio and HTTP servers move requests and responses between
processes as JSON; a field added to ``SelectionRequest`` or
``SelectionResponse`` without a matching codec key silently vanishes at
the first process boundary — the in-process path keeps working, the
distributed paths drop the field, and the backend-equivalence suite only
notices if a test happens to set it.  This rule makes the drift a lint
failure:

* any dataclass defining both ``to_wire`` and ``from_wire`` has its
  declared fields cross-checked against the string keys of ``to_wire``'s
  top-level dict literals and ``from_wire``'s constant subscripts /
  ``.get("...")`` calls (envelope keys ``format``/``wire_version`` are
  codec metadata, not fields, and exempt);
* the :class:`~repro.queries.ops.SPQuery` dataclass lives in a different
  module from its codecs (``encode_query``/``decode_query`` in
  :mod:`repro.api.wire`), so that pair is matched project-wide in
  ``finalize`` (the ``"type"`` discriminator key is exempt).

A missing field yields one finding (anchored at the field declaration)
naming which codec directions lack it; a codec key with no backing field
yields one finding at the class.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.framework import (
    Checker,
    Finding,
    ModuleContext,
    walk_scope,
)

#: Codec metadata keys that are not dataclass fields.
ENVELOPE_KEYS = {"format", "wire_version"}
#: The query codec's discriminator key.
QUERY_TAG_KEYS = {"type"}


def _dict_literal_keys(fn, top_level_only: bool) -> set:
    """String keys of dict literals in ``fn``; with ``top_level_only``,
    dicts nested inside other dict literals are skipped (their keys
    describe nested payloads, not fields)."""
    nested = set()
    if top_level_only:
        for node in walk_scope(fn):
            if isinstance(node, ast.Dict):
                for value in node.values:
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Dict):
                            nested.add(id(sub))
    keys = set()
    for node in walk_scope(fn):
        if isinstance(node, ast.Dict) and id(node) not in nested:
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value,
                                                                str):
                    keys.add(key.value)
        # d["key"] = value stores count as produced keys too.
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    keys.add(target.slice.value)
    return keys


def _consumed_keys(fn) -> set:
    """Keys ``fn`` reads: constant subscripts and ``.get("...")``."""
    keys = set()
    for node in walk_scope(fn):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            keys.add(node.slice.value)
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            keys.add(node.args[0].value)
    return keys


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        node = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None)
        if name == "dataclass":
            return True
    return False


def _declared_fields(cls: ast.ClassDef) -> list:
    """(name, AnnAssign node) for every annotated field declaration."""
    fields = []
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target,
                                                          ast.Name):
            annotation = ast.dump(item.annotation)
            if "ClassVar" in annotation:
                continue
            fields.append((item.target.id, item))
    return fields


class WireCompletenessChecker(Checker):
    name = "wire-completeness"
    description = (
        "dataclass fields must appear in their to_wire/from_wire codecs "
        "(and SPQuery in encode_query/decode_query)"
    )
    scope = ()

    def __init__(self) -> None:
        # Cross-file state for the SPQuery <-> api.wire codec pair.
        self._spquery: Optional[tuple] = None  # (ctx-lite, node, fields)
        self._spquery_count = 0
        self._encode_keys: Optional[set] = None
        self._decode_keys: Optional[set] = None

    def check_module(self, ctx: ModuleContext) -> list:
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_dataclass_pair(ctx, node))
                if node.name == "SPQuery":
                    self._spquery_count += 1
                    self._spquery = (
                        ctx.display_path,
                        ctx.pragmas,
                        node,
                        _declared_fields(node),
                    )
            elif isinstance(node, ast.FunctionDef):
                if node.name == "encode_query":
                    self._encode_keys = (
                        _dict_literal_keys(node, top_level_only=True)
                        - QUERY_TAG_KEYS
                    )
                elif node.name == "decode_query":
                    self._decode_keys = _consumed_keys(node) - QUERY_TAG_KEYS
        return findings

    # -- same-module to_wire/from_wire pairs ---------------------------------
    def _check_dataclass_pair(self, ctx, cls: ast.ClassDef) -> list:
        if not _is_dataclass(cls):
            return []
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "to_wire" not in methods or "from_wire" not in methods:
            return []
        produced = (_dict_literal_keys(methods["to_wire"],
                                       top_level_only=True)
                    - ENVELOPE_KEYS)
        consumed = _consumed_keys(methods["from_wire"]) - ENVELOPE_KEYS
        fields = _declared_fields(cls)
        findings = []
        for name, node in fields:
            missing = []
            if name not in produced:
                missing.append("to_wire")
            if name not in consumed:
                missing.append("from_wire")
            if missing:
                findings.append(ctx.finding(
                    self.name, node,
                    f"field '{name}' is absent from "
                    f"{' and '.join(missing)}; it will be dropped at the "
                    f"first process boundary",
                    symbol=cls.name,
                ))
        field_names = {name for name, _ in fields}
        for key in sorted((produced | consumed) - field_names):
            findings.append(ctx.finding(
                self.name, cls,
                f"codec key '{key}' has no backing dataclass field",
                symbol=cls.name,
            ))
        return findings

    # -- cross-file SPQuery <-> encode_query/decode_query --------------------
    def finalize(self) -> list:
        if (self._spquery is None or self._spquery_count != 1
                or self._encode_keys is None or self._decode_keys is None):
            return []
        display_path, pragmas, cls, fields = self._spquery
        findings = []
        for name, node in fields:
            missing = []
            if name not in self._encode_keys:
                missing.append("encode_query")
            if name not in self._decode_keys:
                missing.append("decode_query")
            if missing:
                findings.append(Finding(
                    rule=self.name,
                    path=display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    symbol=cls.name,
                    message=(
                        f"field '{name}' is absent from "
                        f"{' and '.join(missing)} in api/wire.py; queries "
                        f"carrying it will lose it on the wire"
                    ),
                ))
        field_names = {name for name, _ in fields}
        for key in sorted(
                (self._encode_keys | self._decode_keys) - field_names):
            findings.append(Finding(
                rule=self.name,
                path=display_path,
                line=cls.lineno,
                col=cls.col_offset,
                symbol=cls.name,
                message=(
                    f"query codec key '{key}' has no backing SPQuery field"
                ),
            ))
        return findings
