"""Lint: the trace-kind catalog matches emitters, consumers and the docs.

``repro.obs.kinds`` is the single declaration of every trace kind.  An
AST scan of ``src/repro`` finds each string-literal kind handed to a
tracer's ``record`` (or a ``_record`` forwarder) and each literal a trace
consumer compares an event's kind against or routes a checker on; all of
them must be declared, and every declared kind must be emitted
somewhere.  A traced soak then checks the live stream against the
declared fields, and the ``docs/observability.md`` event table must list
exactly the declared kinds.
"""

import ast
import os
import re

from repro.obs.kinds import IPI_DROP_KINDS, KINDS, SLICES

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.normpath(os.path.join(_HERE, "..", "..", "src", "repro"))
_DOCS = os.path.normpath(os.path.join(_HERE, "..", "..", "docs",
                                      "observability.md"))

#: Packages whose modules read trace events.
_CONSUMER_PACKAGES = ("obs", "metrics")

#: Modules that hand a non-literal kind to ``Tracer.record``: they
#: forward a caller's literal (the caller is scanned instead).
_FORWARDERS = {os.path.join("faults", "injector.py")}


def _modules():
    for root, _dirs, files in os.walk(_SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path) as handle:
                    yield os.path.relpath(path, _SRC), ast.parse(handle.read())


def _is_tracer(node):
    """``tracer``, ``self.tracer``, ``kernel.tracer`` ..."""
    return ((isinstance(node, ast.Name) and node.id == "tracer")
            or (isinstance(node, ast.Attribute) and node.attr == "tracer"))


def _strings(node):
    """The string literals of a constant or a tuple/list/set of them."""
    items = node.elts if isinstance(node, (ast.Tuple, ast.List,
                                           ast.Set)) else [node]
    return [item.value for item in items
            if isinstance(item, ast.Constant) and isinstance(item.value, str)]


def _emit_sites(rel, tree):
    """``(kind or None, where)`` for every record call in one module."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "record" and _is_tracer(node.func.value):
            arg = node.args[2] if len(node.args) > 2 else None
        elif node.func.attr == "_record":
            arg = node.args[0] if node.args else None
        else:
            continue
        kind = (arg.value if isinstance(arg, ast.Constant)
                and isinstance(arg.value, str) else None)
        yield kind, f"{rel}:{node.lineno}"


def _kind_names(func):
    """Local names bound to an event's ``.kind`` inside one function."""
    return {target.id for node in ast.walk(func)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "kind"
            for target in node.targets if isinstance(target, ast.Name)}


def _consumed(rel, tree):
    """``(kind, where)`` for every literal a consumer matches kinds on."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            # Checker routing: ``kinds = ("tenant.pick",)``.
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and any(isinstance(target, ast.Name)
                                and target.id == "kinds"
                                for target in stmt.targets)):
                    for kind in _strings(stmt.value):
                        yield kind, f"{rel}:{stmt.lineno}"
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = _kind_names(node)
        for compare in ast.walk(node):
            if not isinstance(compare, ast.Compare):
                continue
            operands = [compare.left, *compare.comparators]
            if not any((isinstance(op, ast.Attribute) and op.attr == "kind")
                       or (isinstance(op, ast.Name) and op.id in names)
                       for op in operands):
                continue
            for operand in operands:
                for kind in _strings(operand):
                    yield kind, f"{rel}:{compare.lineno}"


def _scan():
    emitted, consumed, opaque = {}, {}, []
    for rel, tree in _modules():
        for kind, where in _emit_sites(rel, tree):
            if kind is None:
                if rel not in _FORWARDERS:
                    opaque.append(where)
            else:
                emitted.setdefault(kind, []).append(where)
        if rel.split(os.sep)[0] in _CONSUMER_PACKAGES:
            for kind, where in _consumed(rel, tree):
                consumed.setdefault(kind, []).append(where)
    return emitted, consumed, opaque


def _undeclared(found):
    return [f"{where}: {kind!r}" for kind, sites in sorted(found.items())
            if kind not in KINDS for where in sites]


def test_every_emitted_and_consumed_kind_is_declared():
    emitted, consumed, opaque = _scan()
    assert not opaque, (
        "tracer.record with a non-literal kind outside a known forwarder "
        "— pass the kind as a string literal:\n" + "\n".join(opaque))
    assert not _undeclared(emitted), (
        "emitted trace kinds missing from repro.obs.kinds:\n"
        + "\n".join(_undeclared(emitted)))
    assert not _undeclared(consumed), (
        "consumers match on trace kinds missing from repro.obs.kinds:\n"
        + "\n".join(_undeclared(consumed)))
    never = sorted(set(KINDS) - set(emitted))
    assert not never, f"declared kinds no module emits: {never}"


def test_scan_sees_the_known_consumers():
    # Guards the scan itself: a consumer rewrite that hid its literals
    # from the AST rules would otherwise pass vacuously.
    _emitted, consumed, _opaque = _scan()
    assert "obs/spans.py" in " ".join(consumed["sched_in"])
    assert "obs/invariants.py" in " ".join(consumed["tenant.pick"])
    assert "metrics/schedviz.py" in " ".join(consumed["vmenter"])


def test_pair_and_drop_declarations_are_consistent():
    for kind in KINDS.values():
        if kind.end is not None:
            assert kind.end in KINDS, kind
            assert kind.key, kind
            assert set(kind.match) <= set(KINDS[kind.end].fields), kind
        else:
            assert not (kind.key or kind.match or kind.open_is_violation)
    assert SLICES == {"sched_in": "sched_out", "vmenter": "vmexit"}
    assert set(IPI_DROP_KINDS) <= set(KINDS)


def test_traced_soak_emits_only_declared_kinds_with_their_fields(
        monkeypatch):
    from repro.obs.session import ObservabilitySession, observe
    from tests.golden.cases import storm_tenant_soak

    seen = set()
    problems = set()

    def check(event):
        seen.add(event.kind)
        spec = KINDS.get(event.kind)
        if spec is None:
            problems.add(f"undeclared kind {event.kind!r}")
            return
        missing = [field for field in spec.fields
                   if field not in event.detail]
        if missing:
            problems.add(f"{event.kind} lacks {missing}")

    adopt = ObservabilitySession.adopt_environment

    def adopt_hooked(self, env, label=None):
        tracer = adopt(self, env, label)
        tracer.add_hook(check)
        return tracer

    monkeypatch.setattr(ObservabilitySession, "adopt_environment",
                        adopt_hooked)
    with observe(trace=True, trace_cap=1):
        storm_tenant_soak()
    assert not problems, sorted(problems)
    assert {"fault.injected", "alert.raised", "span.end",
            "tenant.grant", "vmexit"} <= seen, sorted(seen)


def _documented_kinds():
    with open(_DOCS) as handle:
        text = handle.read()
    section = text.split("## Event taxonomy", 1)[1].split("\n## ", 1)[0]
    kinds = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            kinds.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return kinds


def test_docs_event_table_lists_exactly_the_catalog():
    documented = _documented_kinds()
    assert documented == set(KINDS), (
        f"undocumented: {sorted(set(KINDS) - documented)}; "
        f"documented but undeclared: {sorted(documented - set(KINDS))}")
