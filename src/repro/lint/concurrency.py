"""Whole-program concurrency analysis and the CONC-5xx rules.

The PR-3 engine is strictly per-module: each rule sees one
:class:`~repro.lint.engine.ModuleContext` at a time.  The threaded
serving stack (PR 5-7) is exactly the code that per-module analysis
cannot defend — a lock lives in one class, the ``with`` region that
guards an attribute lives in another module, and a deadlock needs two
call chains that never share a file.  This module adds the missing
layer:

* :class:`ProjectContext` — built once per lint run over *every*
  parsed module.  It resolves classes, their lock attributes
  (``threading.Lock`` / ``RLock`` / ``Condition``), attribute types
  (from constructor assignments, parameter annotations, and dataclass
  fields), and then walks every function tracking which locks are
  lexically held.  Guard knowledge propagates through private call
  sites: a helper whose internal callers all hold lock L is treated as
  guarded by L, and methods documenting ``Caller must hold
  :attr:`x``` (or named ``*_locked``) are treated as externally
  guarded.
* Four rules over the resolved project:

  ========  =======================================================
  CONC-501  shared attribute written both inside and outside its
            inferred guard
  CONC-502  inconsistent lock-acquisition order (cycle in the
            whole-program lock-order graph) or a plain ``Lock``
            re-acquired while held
  CONC-503  ``Condition.wait()`` outside a predicate re-check loop
  CONC-505  blocking call (sleep, I/O, ``.result()``, ``.infer()``,
            queue get, …) while holding a lock
  ========  =======================================================

Locks are identified by ``"ClassName.attr"`` (or ``"module.NAME"``
for module-level locks).  The same identities are used by the runtime
sanitizer :mod:`repro.robustness.lockwatch`, so the static lock-order
graph and the watchdog's observed-order report cross-validate.

Known precision limits (deliberate): only ``self.attr`` writes are
attributed (no escape analysis for objects mutated through locals),
``lock.acquire()`` outside a ``with`` is not tracked, and attributes
whose writes are *never* guarded are invisible to CONC-501 — the rule
fires on mixed discipline, not on absent discipline.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import ModuleContext, Rule, register
from repro.lint.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
)

#: threading factory name -> lock kind.
LOCK_KINDS = {"Lock": "Lock", "RLock": "RLock", "Condition": "Condition"}

#: Kinds a thread may safely re-acquire while already holding them.
REENTRANT_KINDS = {"RLock", "Condition"}

#: Method calls on ``self.attr`` that mutate the container in place.
MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "pop",
    "popleft",
    "appendleft",
    "clear",
    "update",
    "add",
    "remove",
    "discard",
    "setdefault",
}

#: Bare-name calls considered blocking for CONC-505.
BLOCKING_NAMES = {"sleep", "open", "input"}

#: Attribute calls considered blocking for CONC-505 (``.wait`` is the
#: sanctioned park and stays exempt; CONC-503 owns its correctness).
BLOCKING_ATTRS = {
    "sleep",
    "result",
    "join",
    "infer",
    "next_batch",
    "read",
    "recv",
    "send",
}

#: ``__init__``-like methods whose writes are construction, not races.
CONSTRUCTOR_METHODS = {"__init__", "__post_init__", "__new__"}

_CALLER_HOLDS_RE = re.compile(
    r"[Cc]aller (?:must hold|holds)\s+(?::attr:)?`?([A-Za-z_][A-Za-z0-9_]*)`?"
)


def _last_name(node: ast.AST) -> Optional[str]:
    """Terminal identifier of a dotted expression (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _type_name(node: Optional[ast.AST]) -> Optional[str]:
    """Bare class name named by an annotation, unwrapping ``Optional``."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        if _last_name(node.value) == "Optional":
            return _type_name(node.slice)
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _type_name(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    return None


def _elem_type_name(node: Optional[ast.AST]) -> Optional[str]:
    """Element class named by a container annotation, if any."""
    if not isinstance(node, ast.Subscript):
        return None
    base = _last_name(node.value)
    inner = node.slice
    if base == "Optional":
        return _elem_type_name(inner)
    if base in {"List", "Sequence", "Deque", "Iterable", "Tuple", "list"}:
        if isinstance(inner, ast.Tuple) and inner.elts:
            return _type_name(inner.elts[0])
        return _type_name(inner)
    if base in {"Dict", "Mapping", "dict"}:
        if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
            return _type_name(inner.elts[1])
    return None


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in {"self", "cls"}


def _docstring_guards(node: ast.AST) -> List[str]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    doc = ast.get_docstring(node, clean=True)
    if not doc:
        return []
    return _CALLER_HOLDS_RE.findall(doc)


@dataclass
class ClassInfo:
    """One resolved class: its locks, attribute types, and methods."""

    name: str
    module: str
    path: str
    locks: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    elem_types: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, ast.AST] = field(default_factory=dict)


@dataclass
class _Site:
    """A source position plus the lock context it occurred in."""

    path: str
    line: int
    col: int
    held: Tuple[str, ...]
    func: str


@dataclass
class _Write(_Site):
    cls: str = ""
    attr: str = ""


@dataclass
class _Wait(_Site):
    lock: str = ""
    in_loop: bool = False


@dataclass
class _Acquire(_Site):
    lock: str = ""


@dataclass
class _Call(_Site):
    callee: str = ""


@dataclass
class _Block(_Site):
    desc: str = ""


@dataclass
class FunctionInfo:
    """Per-function facts collected by the walker."""

    key: str
    name: str
    cls: Optional[str]
    path: str
    module: str
    doc_guard_attrs: List[str] = field(default_factory=list)
    external: bool = False
    acquires: List[_Acquire] = field(default_factory=list)
    writes: List[_Write] = field(default_factory=list)
    waits: List[_Wait] = field(default_factory=list)
    calls: List[_Call] = field(default_factory=list)
    blocks: List[_Block] = field(default_factory=list)
    direct_locks: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class PreFinding:
    """A project-level finding waiting to be emitted for its file."""

    path: str
    lineno: int
    col_offset: int
    message: str


class ProjectContext:
    """Cross-module view of classes, locks, and guard regions.

    Built once per lint run, before the per-file rule visits; every
    :class:`ModuleContext` gets this object attached as
    ``ctx.project`` so rules can correlate files.
    """

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.lock_kinds: Dict[str, str] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.guards: Dict[str, Set[str]] = {}
        #: (held, acquired) -> earliest site establishing the edge.
        self.edges: Dict[Tuple[str, str], _Site] = {}
        self.self_acquires: List[Tuple[str, _Site]] = []
        self.findings: Dict[str, List[PreFinding]] = {}
        self._module_locks: Dict[str, Dict[str, str]] = {}
        self._module_funcs: Dict[str, Dict[str, str]] = {}
        self._unique_lock_attrs: Dict[str, str] = {}

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[ModuleContext]) -> "ProjectContext":
        project = cls()
        ordered = sorted(contexts, key=lambda c: c.path)
        for ctx in ordered:
            project._scan_module(ctx)
        project._finalize_lock_index()
        for ctx in ordered:
            project._walk_module(ctx)
        project._propagate_guards()
        project._build_order_graph()
        project._analyze()
        return project

    @classmethod
    def from_paths(cls, paths: Iterable[str]) -> "ProjectContext":
        """Parse ``*.py`` files under ``paths`` and build a project.

        Unparseable files are skipped — this entry point serves the
        runtime watchdog and docs, not the lint gate (which reports
        PARSE-001 separately).
        """
        from repro.lint.engine import iter_python_files

        contexts: List[ModuleContext] = []
        for path in iter_python_files(paths):
            try:
                with open(path, encoding="utf-8") as fh:
                    contexts.append(ModuleContext.from_source(path, fh.read()))
            except (OSError, SyntaxError):
                continue
        return cls.build(contexts)

    def _scan_module(self, ctx: ModuleContext) -> None:
        tail = ctx.module.rsplit(".", 1)[-1] or ctx.module
        module_locks: Dict[str, str] = {}
        module_funcs: Dict[str, str] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                kind = self._lock_factory_kind(node.value)
                if isinstance(target, ast.Name) and kind is not None:
                    module_locks[target.id] = kind
                    self.lock_kinds[f"{tail}.{target.id}"] = kind
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_funcs[node.name] = f"{ctx.module}::{node.name}"
            elif isinstance(node, ast.ClassDef):
                self._scan_class(ctx, node)
        self._module_locks[ctx.module] = module_locks
        self._module_funcs[ctx.module] = module_funcs

    def _scan_class(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        info = self.classes.get(node.name)
        if info is not None:
            # Same bare name in two modules: keep the first (sorted
            # path order) for resolution; collisions are rare and only
            # cost precision, never correctness of suppression-free
            # self-hosting (messages stay deterministic).
            info = ClassInfo(name=node.name, module=ctx.module, path=ctx.path)
            self._ingest_class_body(info, node)
            return
        info = ClassInfo(name=node.name, module=ctx.module, path=ctx.path)
        self._ingest_class_body(info, node)
        self.classes[node.name] = info

    def _ingest_class_body(self, info: ClassInfo, node: ast.ClassDef) -> None:
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self._note_attr_annotation(info, stmt.target.id, stmt.annotation)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = stmt
                self._scan_method_assignments(info, stmt)

    def _note_attr_annotation(
        self, info: ClassInfo, attr: str, annotation: Optional[ast.AST]
    ) -> None:
        type_name = _type_name(annotation)
        if type_name in LOCK_KINDS:
            info.locks[attr] = LOCK_KINDS[type_name]
            self.lock_kinds[f"{info.name}.{attr}"] = LOCK_KINDS[type_name]
            return
        if type_name is not None:
            info.attr_types.setdefault(attr, type_name)
        elem = _elem_type_name(annotation)
        if elem is not None:
            info.elem_types.setdefault(attr, elem)

    def _scan_method_assignments(self, info: ClassInfo, func: ast.AST) -> None:
        params: Dict[str, Optional[ast.AST]] = {}
        args = getattr(func, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            ):
                params[arg.arg] = arg.annotation
        for stmt in ast.walk(func):  # type: ignore[arg-type]
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
                annotation = stmt.annotation
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute) and _is_self(target.value)
                ):
                    continue
                attr = target.attr
                if annotation is not None:
                    self._note_attr_annotation(info, attr, annotation)
                kind = self._lock_factory_kind(value)
                if kind is None and isinstance(value, ast.Name):
                    kind_name = _type_name(params.get(value.id))
                    kind = LOCK_KINDS.get(kind_name or "")
                if kind is not None:
                    info.locks[attr] = kind
                    self.lock_kinds[f"{info.name}.{attr}"] = kind
                    continue
                value_type = self._value_type_name(value, params)
                if value_type is not None:
                    info.attr_types.setdefault(attr, value_type)
                elem = self._value_elem_type_name(value)
                if elem is not None:
                    info.elem_types.setdefault(attr, elem)

    @staticmethod
    def _lock_factory_kind(value: Optional[ast.AST]) -> Optional[str]:
        if isinstance(value, ast.Call):
            name = _last_name(value.func)
            if name in LOCK_KINDS:
                return LOCK_KINDS[name]
        return None

    def _value_type_name(
        self, value: Optional[ast.AST], params: Dict[str, Optional[ast.AST]]
    ) -> Optional[str]:
        if isinstance(value, ast.Call):
            name = _last_name(value.func)
            if name is not None and name[:1].isupper():
                return name
        if isinstance(value, ast.Name) and value.id in params:
            return _type_name(params[value.id])
        return None

    @staticmethod
    def _value_elem_type_name(value: Optional[ast.AST]) -> Optional[str]:
        elt: Optional[ast.AST] = None
        if isinstance(value, ast.ListComp):
            elt = value.elt
        elif isinstance(value, (ast.List, ast.Tuple)) and value.elts:
            elt = value.elts[0]
        if isinstance(elt, ast.Call):
            name = _last_name(elt.func)
            if name is not None and name[:1].isupper():
                return name
        return None

    def _finalize_lock_index(self) -> None:
        by_attr: Dict[str, List[str]] = {}
        for info in self.classes.values():
            for attr in info.locks:
                by_attr.setdefault(attr, []).append(f"{info.name}.{attr}")
        self._unique_lock_attrs = {
            attr: keys[0] for attr, keys in by_attr.items() if len(keys) == 1
        }

    # -- expression resolution --------------------------------------

    def _expr_type(
        self, node: ast.AST, env: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value, env)
            info = self.classes.get(base or "")
            if info is not None:
                return info.attr_types.get(node.attr)
            return None
        if isinstance(node, ast.Call):
            name = _last_name(node.func)
            if name in self.classes:
                return name
            return None
        if isinstance(node, ast.Subscript):
            value = node.value
            if isinstance(value, ast.Attribute):
                base = self._expr_type(value.value, env)
                info = self.classes.get(base or "")
                if info is not None:
                    return info.elem_types.get(value.attr)
        return None

    def resolve_lock(
        self, node: ast.AST, env: Dict[str, str], module: str
    ) -> Optional[str]:
        """Stable identity of the lock named by ``node``, if known."""
        if isinstance(node, ast.Name):
            tail = module.rsplit(".", 1)[-1] or module
            key = f"{tail}.{node.id}"
            if node.id in self._module_locks.get(module, {}):
                return key
            return None
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value, env)
            info = self.classes.get(base or "")
            if info is not None and node.attr in info.locks:
                return f"{info.name}.{node.attr}"
            if info is None and base is None:
                return self._unique_lock_attrs.get(node.attr)
        return None

    def resolve_call(
        self, func: ast.AST, env: Dict[str, str], module: str
    ) -> Optional[str]:
        if isinstance(func, ast.Name):
            own = self._module_funcs.get(module, {})
            if func.id in own:
                return own[func.id]
            if func.id in self.classes:
                return f"{func.id}.__init__"
            hits = sorted(
                funcs[func.id]
                for funcs in self._module_funcs.values()
                if func.id in funcs
            )
            if len(hits) == 1:
                return hits[0]
            return None
        if isinstance(func, ast.Attribute):
            base = self._expr_type(func.value, env)
            info = self.classes.get(base or "")
            if info is not None and func.attr in info.methods:
                return f"{info.name}.{func.attr}"
        return None

    # -- function walking -------------------------------------------

    def _walk_module(self, ctx: ModuleContext) -> None:
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{ctx.module}::{node.name}"
                self._walk_function(ctx, node, key, node.name, None)
            elif isinstance(node, ast.ClassDef):
                info = self.classes.get(node.name)
                cls_name = node.name if info is not None else None
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        key = f"{node.name}.{stmt.name}"
                        self._walk_function(ctx, stmt, key, stmt.name, cls_name)

    def _walk_function(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        key: str,
        name: str,
        cls_name: Optional[str],
    ) -> None:
        if key in self.functions:
            # Re-walk under a unique key so duplicate class names
            # (fixture trees) never merge unrelated facts.
            key = f"{key}@{ctx.path}"
            if key in self.functions:
                return
        env: Dict[str, str] = {}
        if cls_name is not None:
            env["self"] = cls_name
            env["cls"] = cls_name
        args = getattr(node, "args", None)
        if args is not None:
            for arg in list(args.posonlyargs) + list(args.args) + list(
                args.kwonlyargs
            ):
                arg_type = _type_name(arg.annotation)
                if arg_type is not None and arg.arg not in env:
                    env[arg.arg] = arg_type
        doc_attrs = _docstring_guards(node)
        info = FunctionInfo(
            key=key,
            name=name,
            cls=cls_name,
            path=ctx.path,
            module=ctx.module,
            doc_guard_attrs=doc_attrs,
            external=bool(doc_attrs) or name.endswith("_locked"),
        )
        self.functions[key] = info
        walker = _FunctionWalker(self, ctx, info, env)
        walker.walk(getattr(node, "body", []))
        for nested_node, nested_name in walker.nested:
            nested_key = f"{key}.<locals>.{nested_name}"
            self._walk_function(ctx, nested_node, nested_key, nested_name, cls_name)

    # -- guard propagation ------------------------------------------

    def _doc_guard_locks(self, info: FunctionInfo) -> Set[str]:
        out: Set[str] = set()
        cls = self.classes.get(info.cls or "")
        for attr in info.doc_guard_attrs:
            if cls is not None and attr in cls.locks:
                out.add(f"{cls.name}.{attr}")
            elif attr in self._unique_lock_attrs:
                out.add(self._unique_lock_attrs[attr])
        return out

    def _propagate_guards(self) -> None:
        calls_to: Dict[str, List[_Call]] = {}
        for func in self.functions.values():
            for call in func.calls:
                if call.callee in self.functions:
                    calls_to.setdefault(call.callee, []).append(call)
        guards: Dict[str, Set[str]] = {
            key: self._doc_guard_locks(func)
            for key, func in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for key, func in self.functions.items():
                # Call-site guards flow only into private helpers (and
                # documented caller-must-hold methods): a public method
                # is part of the class contract and may gain external
                # callers that hold nothing.
                if not (func.name.startswith("_") or func.external):
                    continue
                sites = calls_to.get(key, [])
                if not sites:
                    continue
                inherited: Optional[Set[str]] = None
                for site in sites:
                    effective = set(site.held) | guards.get(site.func, set())
                    if inherited is None:
                        inherited = effective
                    else:
                        inherited &= effective
                new = self._doc_guard_locks(func) | (inherited or set())
                if new != guards[key]:
                    guards[key] = new
                    changed = True
        self.guards = guards

    def effective_held(self, site: _Site) -> Set[str]:
        return set(site.held) | self.guards.get(site.func, set())

    # -- lock-order graph -------------------------------------------

    def _transitive_locks(self) -> Dict[str, Set[str]]:
        trans: Dict[str, Set[str]] = {
            key: set(func.direct_locks)
            for key, func in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for key, func in self.functions.items():
                for call in func.calls:
                    callee = trans.get(call.callee)
                    if callee and not callee <= trans[key]:
                        trans[key] |= callee
                        changed = True
        return trans

    def _add_edge(self, held: str, acquired: str, site: _Site) -> None:
        if held == acquired:
            if self.lock_kinds.get(held) not in REENTRANT_KINDS:
                self.self_acquires.append((held, site))
            return
        key = (held, acquired)
        best = self.edges.get(key)
        if best is None or (site.path, site.line, site.col) < (
            best.path,
            best.line,
            best.col,
        ):
            self.edges[key] = site

    def _build_order_graph(self) -> None:
        trans = self._transitive_locks()
        for func in self.functions.values():
            guard = self.guards.get(func.key, set())
            for acq in func.acquires:
                for held in sorted(set(acq.held) | guard):
                    self._add_edge(held, acq.lock, acq)
            for call in func.calls:
                if call.callee not in self.functions:
                    continue
                for target in sorted(trans.get(call.callee, set())):
                    for held in sorted(set(call.held) | guard):
                        self._add_edge(held, target, call)

    def lock_order_edges(self) -> List[Tuple[str, str]]:
        """Sorted (held, acquired) pairs of the static order graph."""
        return sorted(self.edges)

    def _order_cycles(self) -> List[List[str]]:
        adjacency: Dict[str, Set[str]] = {}
        for held, acquired in self.edges:
            adjacency.setdefault(held, set()).add(acquired)
            adjacency.setdefault(acquired, set())
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        cycles: List[List[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for nxt in sorted(adjacency.get(node, ())):
                if nxt not in index:
                    strongconnect(nxt)
                    low[node] = min(low[node], low[nxt])
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    cycles.append(sorted(component))

        for node in sorted(adjacency):
            if node not in index:
                strongconnect(node)
        return sorted(cycles)

    # -- analyses ---------------------------------------------------

    def _analyze(self) -> None:
        self.findings = {
            "CONC-501": self._find_mixed_guards(),
            "CONC-502": self._find_order_hazards(),
            "CONC-503": self._find_bare_waits(),
            "CONC-505": self._find_blocking_under_lock(),
        }

    def _find_mixed_guards(self) -> List[PreFinding]:
        writes: Dict[Tuple[str, str], List[Tuple[_Write, Set[str]]]] = {}
        for func in self.functions.values():
            for write in func.writes:
                writes.setdefault((write.cls, write.attr), []).append(
                    (write, self.effective_held(write))
                )
        out: List[PreFinding] = []
        for (cls_name, attr), sites in sorted(writes.items()):
            info = self.classes.get(cls_name)
            if info is None or attr in info.locks:
                continue
            guarded = [(w, eff) for w, eff in sites if eff]
            unguarded = []
            for write, eff in sites:
                if eff:
                    continue
                func = self.functions[write.func]
                if func.name in CONSTRUCTOR_METHODS or func.external:
                    continue
                unguarded.append(write)
            if not guarded or not unguarded:
                continue
            tally: Dict[str, int] = {}
            for _, eff in guarded:
                for lock in eff:
                    tally[lock] = tally.get(lock, 0) + 1
            guard = sorted(tally, key=lambda k: (-tally[k], k))[0]
            by_func: Dict[str, _Write] = {}
            for write in sorted(unguarded, key=lambda w: (w.line, w.col)):
                by_func.setdefault(write.func, write)
            for func_key in sorted(by_func):
                write = by_func[func_key]
                short = self.functions[func_key].name
                out.append(
                    PreFinding(
                        path=write.path,
                        lineno=write.line,
                        col_offset=write.col,
                        message=(
                            f"'{cls_name}.{attr}' is written in {short}() "
                            f"without holding '{guard}', but other writes "
                            f"are guarded by it"
                        ),
                    )
                )
        return out

    def _find_order_hazards(self) -> List[PreFinding]:
        out: List[PreFinding] = []
        for cycle in self._order_cycles():
            members = set(cycle)
            sites = [
                (site, held, acquired)
                for (held, acquired), site in sorted(self.edges.items())
                if held in members and acquired in members
            ]
            site, held, acquired = min(
                sites, key=lambda item: (item[0].path, item[0].line, item[0].col)
            )
            out.append(
                PreFinding(
                    path=site.path,
                    lineno=site.line,
                    col_offset=site.col,
                    message=(
                        "lock-order cycle among "
                        + ", ".join(f"'{name}'" for name in cycle)
                        + f": '{acquired}' is acquired while holding "
                        + f"'{held}' here, and the reverse order exists "
                        + "elsewhere — a potential deadlock"
                    ),
                )
            )
        seen: Set[Tuple[str, str]] = set()
        for lock, site in sorted(
            self.self_acquires, key=lambda item: (item[1].path, item[0])
        ):
            func = self.functions[site.func]
            if (lock, site.func) in seen:
                continue
            seen.add((lock, site.func))
            out.append(
                PreFinding(
                    path=site.path,
                    lineno=site.line,
                    col_offset=site.col,
                    message=(
                        f"non-reentrant lock '{lock}' may be acquired in "
                        f"{func.name}() by a thread already holding it; "
                        f"a plain Lock deadlocks against itself"
                    ),
                )
            )
        return out

    def _find_bare_waits(self) -> List[PreFinding]:
        out: List[PreFinding] = []
        for key in sorted(self.functions):
            func = self.functions[key]
            for wait in func.waits:
                if wait.in_loop:
                    continue
                out.append(
                    PreFinding(
                        path=wait.path,
                        lineno=wait.line,
                        col_offset=wait.col,
                        message=(
                            f"Condition '{wait.lock}'.wait() in {func.name}() "
                            f"is not wrapped in a predicate re-check loop; "
                            f"spurious wakeups and stolen notifies require "
                            f"'while not <predicate>: wait()'"
                        ),
                    )
                )
        return out

    def _find_blocking_under_lock(self) -> List[PreFinding]:
        out: List[PreFinding] = []
        for key in sorted(self.functions):
            func = self.functions[key]
            for block in func.blocks:
                held = sorted(self.effective_held(block))
                if not held:
                    continue
                held_text = ", ".join(f"'{name}'" for name in held)
                out.append(
                    PreFinding(
                        path=block.path,
                        lineno=block.line,
                        col_offset=block.col,
                        message=(
                            f"blocking call {block.desc} in {func.name}() "
                            f"while holding {held_text}; every other thread "
                            f"needing the lock stalls for the full call"
                        ),
                    )
                )
        return out


class _FunctionWalker:
    """Statement walker tracking lexically-held locks for one function."""

    def __init__(
        self,
        project: ProjectContext,
        ctx: ModuleContext,
        info: FunctionInfo,
        env: Dict[str, str],
    ) -> None:
        self.project = project
        self.ctx = ctx
        self.info = info
        self.env = env
        self.held: List[str] = []
        self.loops = 0
        self.nested: List[Tuple[ast.AST, str]] = []

    def _site(self, node: ast.AST) -> Tuple[str, int, int, Tuple[str, ...], str]:
        return (
            self.ctx.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            tuple(self.held),
            self.info.key,
        )

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested.append((node, node.name))
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
            return
        if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
            if isinstance(node, ast.While):
                self.expr(node.test)
            else:
                self.expr(node.iter)
                self._bind_local(node.target, None)
            self.loops += 1
            self.walk(node.body)
            self.walk(node.orelse)
            self.loops -= 1
            return
        if isinstance(node, ast.If):
            self.expr(node.test)
            self.walk(node.body)
            self.walk(node.orelse)
            return
        if isinstance(node, ast.Try):
            self.walk(node.body)
            for handler in node.handlers:
                self.walk(handler.body)
            self.walk(node.orelse)
            self.walk(node.finalbody)
            return
        if isinstance(node, ast.Assign):
            self.expr(node.value)
            for target in node.targets:
                self._write_target(target)
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                self._bind_local(node.targets[0], node.value)
            return
        if isinstance(node, ast.AugAssign):
            self.expr(node.value)
            self._write_target(node.target)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.expr(node.value)
            self._write_target(node.target)
            if isinstance(node.target, ast.Name):
                bound = _type_name(node.annotation)
                if bound is not None:
                    self.env.setdefault(node.target.id, bound)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child)
            elif isinstance(child, ast.stmt):
                self.stmt(child)

    def _bind_local(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if not isinstance(target, ast.Name) or value is None:
            return
        inferred = self.project._expr_type(value, self.env)
        if inferred is not None:
            self.env[target.id] = inferred

    def _with(self, node: ast.stmt) -> None:
        acquired: List[str] = []
        for item in getattr(node, "items", []):
            self.expr(item.context_expr)
            lock = self.project.resolve_lock(
                item.context_expr, self.env, self.ctx.module
            )
            if lock is not None:
                site = _Acquire(*self._site(item.context_expr), lock=lock)
                self.info.acquires.append(site)
                self.info.direct_locks.add(lock)
                self.held.append(lock)
                acquired.append(lock)
        self.walk(getattr(node, "body", []))
        for _ in acquired:
            self.held.pop()

    def _write_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._write_target(elt)
            return
        attr: Optional[str] = None
        node: Optional[ast.AST] = None
        if isinstance(target, ast.Attribute) and _is_self(target.value):
            attr, node = target.attr, target
        elif (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and _is_self(target.value.value)
        ):
            attr, node = target.value.attr, target
        if attr is None or node is None or self.info.cls is None:
            return
        self.info.writes.append(
            _Write(*self._site(node), cls=self.info.cls, attr=attr)
        )

    def _record_mutator(self, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) or self.info.cls is None:
            return
        if (
            func.attr in MUTATOR_METHODS
            and isinstance(func.value, ast.Attribute)
            and _is_self(func.value.value)
        ):
            self.info.writes.append(
                _Write(
                    *self._site(call), cls=self.info.cls, attr=func.value.attr
                )
            )

    def _record_heapq(self, call: ast.Call) -> None:
        name = _last_name(call.func)
        if name not in {"heappush", "heappop", "heapify", "heappushpop"}:
            return
        if self.info.cls is None or not call.args:
            return
        target = call.args[0]
        if isinstance(target, ast.Attribute) and _is_self(target.value):
            self.info.writes.append(
                _Write(*self._site(call), cls=self.info.cls, attr=target.attr)
            )

    def _blocking_desc(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in BLOCKING_NAMES:
                return f"{func.id}()"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        if attr == "join" and isinstance(func.value, ast.Constant):
            return None  # "sep".join(...) builds a string
        if attr == "get":
            receiver = _last_name(func.value) or ""
            if "queue" in receiver.lower():
                return f".{attr}()"
            return None
        if attr in BLOCKING_ATTRS:
            return f".{attr}()"
        return None

    def expr(self, node: Optional[ast.AST]) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._call(node)
            return
        if isinstance(node, ast.Lambda):
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child)
            elif isinstance(child, ast.comprehension):
                self.expr(child.iter)
                for cond in child.ifs:
                    self.expr(cond)

    def _call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            self.expr(func.value)
            if func.attr in {"wait", "wait_for"}:
                lock = self.project.resolve_lock(
                    func.value, self.env, self.ctx.module
                )
                if (
                    lock is not None
                    and self.project.lock_kinds.get(lock) == "Condition"
                ):
                    self.info.waits.append(
                        _Wait(
                            *self._site(call),
                            lock=lock,
                            in_loop=self.loops > 0,
                        )
                    )
        self._record_mutator(call)
        self._record_heapq(call)
        desc = self._blocking_desc(call)
        if desc is not None:
            self.info.blocks.append(_Block(*self._site(call), desc=desc))
        callee = self.project.resolve_call(func, self.env, self.ctx.module)
        if callee is not None:
            self.info.calls.append(_Call(*self._site(call), callee=callee))
        for arg in call.args:
            self.expr(arg)
        for keyword in call.keywords:
            self.expr(keyword.value)


def _project_for(ctx: ModuleContext) -> ProjectContext:
    project = getattr(ctx, "project", None)
    if project is None:
        project = ProjectContext.build([ctx])
        ctx.project = project
    return project


class _ConcRule(Rule):
    """Base: emit the precomputed project findings for this file."""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        project = _project_for(ctx)
        for pre in project.findings.get(self.rule_id, []):
            if pre.path == ctx.path:
                yield ctx.finding(self, pre, pre.message)


@register
class MixedGuardRule(_ConcRule):
    rule_id = "CONC-501"
    severity = SEVERITY_ERROR
    title = "Shared attribute written both inside and outside its guard"
    rationale = (
        "A write that races its guarded siblings loses updates under the "
        "serving thread pool; either every write holds the inferred lock "
        "or the attribute is single-writer by construction."
    )


@register
class LockOrderRule(_ConcRule):
    rule_id = "CONC-502"
    severity = SEVERITY_ERROR
    title = "Inconsistent lock-acquisition order"
    rationale = (
        "A cycle in the whole-program lock-order graph means two threads "
        "can each hold what the other needs — the fleet deadlocks under "
        "load, not in unit tests.  The runtime LockOrderWatchdog "
        "cross-validates this graph against observed acquisitions."
    )


@register
class BareWaitRule(_ConcRule):
    rule_id = "CONC-503"
    severity = SEVERITY_ERROR
    title = "Condition.wait() outside a predicate re-check loop"
    rationale = (
        "Condition waits wake spuriously and notifies can be consumed by "
        "other waiters; only 'while not predicate: wait()' is correct."
    )


@register
class BlockingUnderLockRule(_ConcRule):
    rule_id = "CONC-505"
    severity = SEVERITY_WARNING
    title = "Blocking call while holding a lock"
    rationale = (
        "Sleeping, file/socket I/O, joining, or running inference under "
        "a lock serializes every thread that needs it; convoys inflate "
        "tail latency far beyond the blocking call itself."
    )
