"""Per-function call extraction and a best-effort internal call graph.

For every function (including methods and nested functions, addressed
as ``module:Qual.name``) the extractor records:

* **internal calls** — calls resolved to another function in the
  analyzed tree, via the module's import table, local definitions, and
  ``self.method()`` within a class;
* **external calls** — calls resolved to a dotted name outside the
  tree (``time.perf_counter``, ``os.environ.get``) or, when the
  receiver is an unresolvable local, an attribute pattern
  (``*.result``, ``*.popitem``);
* **submitted refs** — function *references* handed to a worker pool
  (``pool.submit(f)``, ``pool.map(f)``, ``loop.run_in_executor(x, f)``)
  — these cross a fork boundary and seed the fork-worker zone, but are
  deliberately *not* synchronous call edges, so code dispatched via
  ``asyncio.to_thread``/``run_in_executor`` does not leak into the
  async-handler zone;
* the function-body facts the rule engine needs (set iterations,
  ``open()`` modes, env reads, ...), precomputed here so rules stay
  declarative.

Resolution is deliberately conservative and deterministic: an edge is
added only when the callee is named statically.  Zones built on this
graph therefore under-approximate; the configured seeds (see
:mod:`repro.analysis.zones`) are chosen so the paths the invariants
protect are covered by direct calls.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.modules import ModuleInfo

FuncKey = str  # "module:qualname", e.g. "repro.compiler.service:compile_one"

MODULE_BODY = "<module>"

#: Attribute methods whose call mutates the receiver in place; used for
#: K-FORK-STATE "is this module-level name mutated anywhere" evidence.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "remove",
        "discard",
        "clear",
        "setdefault",
        "pop",
        "popitem",
    }
)

#: Set-producing builtins / expression forms (for D-SETITER taint).
_SET_BUILTINS = frozenset({"set", "frozenset"})

#: Wrappers that consume an iterable order-insensitively — iterating a
#: set through these is deterministic and compliant.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Wrappers that *preserve* iteration order — feeding a set through
#: these leaks set order into the result.
_ORDER_LEAKING = frozenset({"list", "tuple", "enumerate", "iter"})


@dataclass(frozen=True)
class CallSite:
    """One call to a resolved name, with its source span."""

    name: str  # internal FuncKey, dotted external, or "*.attr" pattern
    line: int
    col: int
    nargs: int  # positional + keyword argument count


@dataclass(frozen=True)
class BodyFact:
    """One rule-relevant body site (set iteration, open call, ...)."""

    kind: str
    line: int
    col: int
    detail: str = ""


@dataclass
class FunctionInfo:
    """Everything the zones and rules need to know about one function."""

    module: str
    qualname: str
    path: str
    line: int
    is_async: bool
    internal_calls: list[CallSite] = field(default_factory=list)
    external_calls: list[CallSite] = field(default_factory=list)
    submitted: list[FuncKey] = field(default_factory=list)
    facts: list[BodyFact] = field(default_factory=list)
    #: attribute names this function assigns / augments on any object
    #: (``self.n_probes += 1`` records ``n_probes``); the zone
    #: classifier uses these to find effort-counter mutators.
    attr_stores: set[str] = field(default_factory=set)

    @property
    def key(self) -> FuncKey:
        return f"{self.module}:{self.qualname}"


@dataclass
class ModuleFacts:
    """Module-level state the K-* rules judge."""

    #: module-level names bound to mutable literals/constructors:
    #: name -> (line, col, kind)
    mutable_globals: dict[str, tuple[int, int, str]] = field(default_factory=dict)
    #: module-level names bound to threading locks: name -> (line, col)
    lock_globals: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: names for which some function in the module holds mutation
    #: evidence (``global`` rebind, ``name[...] =``, ``name.append``...)
    mutated_names: set[str] = field(default_factory=set)


@dataclass
class CallGraph:
    """The analyzed tree: functions, edges, and module-level facts."""

    functions: dict[FuncKey, FunctionInfo] = field(default_factory=dict)
    module_facts: dict[str, ModuleFacts] = field(default_factory=dict)
    modules: dict[str, ModuleInfo] = field(default_factory=dict)

    def reachable(self, seeds: list[FuncKey]) -> dict[FuncKey, FuncKey | None]:
        """BFS over internal call edges.

        Returns ``reached -> immediate caller`` (``None`` for seeds),
        in deterministic order: seeds are processed sorted, neighbors
        in call-site order.
        """
        parent: dict[FuncKey, FuncKey | None] = {}
        queue: list[FuncKey] = []
        for seed in sorted(set(seeds)):
            if seed in self.functions and seed not in parent:
                parent[seed] = None
                queue.append(seed)
        while queue:
            key = queue.pop(0)
            info = self.functions[key]
            for call in info.internal_calls:
                name = call.name
                if name not in self.functions and f"{name}.__init__" in self.functions:
                    name = f"{name}.__init__"  # class instantiation
                if name in self.functions and name not in parent:
                    parent[name] = key
                    queue.append(name)
        return parent

    def trace(self, parent: dict[FuncKey, FuncKey | None], key: FuncKey) -> tuple[str, ...]:
        """The seed -> ... -> key chain recorded by :meth:`reachable`."""
        chain: list[str] = []
        cursor: FuncKey | None = key
        while cursor is not None and len(chain) < 32:
            chain.append(cursor)
            cursor = parent.get(cursor)
        return tuple(reversed(chain))


class _ImportTable:
    """Alias -> dotted target for one module's imports and local defs."""

    def __init__(self, module: ModuleInfo):
        self.module = module
        self.aliases: dict[str, str] = {}
        package = module.package
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import x.y`` binds the *top* name x to x.
                        top = alias.name.split(".")[0]
                        self.aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = package.split(".")
                    parts = parts[: len(parts) - (node.level - 1)]
                    base = ".".join(parts + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{base}.{alias.name}" if base else alias.name

    def resolve(self, expr: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted name, or None."""
        parts: list[str] = []
        cursor = expr
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        base = self.aliases.get(cursor.id, cursor.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def rooted_in_import(self, expr: ast.expr) -> bool:
        """True when the chain's root Name is an imported alias — i.e.
        the dotted resolution is a real module path, not a guess built
        from a local variable's name."""
        cursor = expr
        while isinstance(cursor, ast.Attribute):
            cursor = cursor.value
        return isinstance(cursor, ast.Name) and cursor.id in self.aliases


def _dotted_to_key(dotted: str, module_names: set[str]) -> FuncKey | None:
    """Split a dotted name into ``module:qual`` on the longest known
    module prefix (``repro.a.b.f`` -> ``repro.a.b:f``)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        prefix = ".".join(parts[:cut])
        if prefix in module_names:
            return f"{prefix}:{'.'.join(parts[cut:])}"
    return None


def build_call_graph(modules: list[ModuleInfo]) -> CallGraph:
    """Extract functions, edges, and facts from parsed modules."""
    graph = CallGraph()
    module_names = {m.name for m in sorted(modules, key=lambda m: m.name)}
    for module in sorted(modules, key=lambda m: m.name):
        graph.modules[module.name] = module
        table = _ImportTable(module)
        facts = ModuleFacts()
        graph.module_facts[module.name] = facts
        _scan_module_level(module, facts)
        extractor = _Extractor(module, table, module_names, graph, facts)
        extractor.run()
    # Local (same-module) definitions resolve in a second pass so
    # forward references work regardless of definition order.
    for info in graph.functions.values():
        _resolve_local_calls(info, graph)
    return graph


def _scan_module_level(module: ModuleInfo, facts: ModuleFacts) -> None:
    """Record module-level mutable bindings and lock constructions."""
    facts.mutated_names |= _mutation_evidence(module)
    for node in module.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        kind = _mutable_kind(value)
        if kind is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if kind == "lock":
                # A lock is hazardous across the fork however it is
                # named — the constants convention does not exempt it.
                facts.lock_globals[target.id] = (node.lineno, node.col_offset)
                continue
            if target.id == "__all__" or (
                target.id.isupper() and target.id not in facts.mutated_names
            ):
                # Dunder/SHOUTING names are read-only constants by
                # convention; mutation evidence overrides the exemption.
                continue
            facts.mutable_globals[target.id] = (node.lineno, node.col_offset, kind)


def _mutable_kind(value: ast.expr) -> str | None:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        dotted = _plain_dotted(value.func)
        if dotted in ("list", "dict", "set", "collections.defaultdict", "defaultdict"):
            return dotted.rpartition(".")[2]
        if dotted in (
            "threading.Lock",
            "threading.RLock",
            "threading.Condition",
            "threading.Semaphore",
            "Lock",
            "RLock",
        ):
            return "lock"
    if isinstance(value, ast.Constant) and value.value is None:
        # ``_ACTIVE: X | None = None`` rebound via ``global`` is mutable
        # module state; only flagged when mutation evidence exists.
        return "optional-slot"
    return None


def _plain_dotted(expr: ast.expr) -> str:
    parts: list[str] = []
    cursor = expr
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return ".".join(reversed(parts))
    return ""


def _mutation_evidence(module: ModuleInfo) -> set[str]:
    """Names a function in this module mutates (rebinding via
    ``global``, subscript stores, augmented assigns, mutating method
    calls)."""
    mutated: set[str] = set()
    global_names: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Global):
            global_names |= set(node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name):
                    mutated.add(target.value.id)
                if isinstance(target, ast.Name) and isinstance(node, ast.AugAssign):
                    mutated.add(target.id)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and isinstance(func.value, ast.Name)
            ):
                mutated.add(func.value.id)
    # A ``global`` declaration inside any function means the name is
    # rebound somewhere in that function.
    mutated |= global_names
    return mutated


class _Extractor:
    """Walks one module collecting :class:`FunctionInfo` records."""

    def __init__(
        self,
        module: ModuleInfo,
        table: _ImportTable,
        module_names: set[str],
        graph: CallGraph,
        facts: ModuleFacts,
    ):
        self.module = module
        self.table = table
        self.module_names = module_names
        self.graph = graph
        self.facts = facts
        #: same-module definitions: bare name -> qualname
        self.local_defs: dict[str, str] = {}

    def run(self) -> None:
        self._collect_defs(self.module.tree.body, prefix="")
        body_info = self._make_info(MODULE_BODY, self.module.tree, is_async=False)
        self._scan_body(body_info, self.module.tree.body, class_name=None, skip_defs=True)
        self.graph.functions[body_info.key] = body_info
        self._walk_defs(self.module.tree.body, prefix="", class_name=None)

    def _collect_defs(self, body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                if not prefix:
                    self.local_defs[node.name] = qual
            elif isinstance(node, ast.ClassDef):
                qual = f"{prefix}{node.name}"
                if not prefix:
                    self.local_defs[node.name] = qual
                self._collect_defs(node.body, prefix=f"{qual}.")

    def _walk_defs(self, body: list[ast.stmt], prefix: str, class_name: str | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                info = self._make_info(
                    qual, node, is_async=isinstance(node, ast.AsyncFunctionDef)
                )
                self._scan_body(info, node.body, class_name=class_name, skip_defs=True)
                self.graph.functions[info.key] = info
                # Nested defs become their own functions, called from
                # the enclosing one only when named directly.
                self._walk_defs(node.body, prefix=f"{qual}.", class_name=class_name)
            elif isinstance(node, ast.ClassDef):
                self._walk_defs(node.body, prefix=f"{prefix}{node.name}.", class_name=node.name)

    def _make_info(
        self, qualname: str, node: ast.AST, is_async: bool
    ) -> FunctionInfo:
        return FunctionInfo(
            module=self.module.name,
            qualname=qualname,
            path=self.module.path,
            line=getattr(node, "lineno", 1),
            is_async=is_async,
        )

    # ------------------------------------------------------------------
    # body scanning

    def _scan_body(
        self,
        info: FunctionInfo,
        body: list[ast.stmt],
        class_name: str | None,
        skip_defs: bool,
    ) -> None:
        set_vars: set[str] = set()
        has_replace = False
        for stmt in body:
            for node in _walk_skipping_defs(stmt) if skip_defs else ast.walk(stmt):
                self._scan_node(info, node, class_name, set_vars)
                if isinstance(node, ast.Call):
                    dotted = self.table.resolve(node.func)
                    if dotted == "os.replace":
                        has_replace = True
        if has_replace:
            info.facts.append(BodyFact("os-replace", info.line, 0))

    def _scan_node(
        self,
        info: FunctionInfo,
        node: ast.AST,
        class_name: str | None,
        set_vars: set[str],
    ) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._track_assign(info, node, set_vars)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_set_iter(info, node.iter, set_vars, context="for loop")
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._check_set_iter(info, gen.iter, set_vars, context="comprehension")
        if isinstance(node, ast.Call):
            self._scan_call(info, node, class_name, set_vars)

    def _track_assign(self, info: FunctionInfo, node: ast.stmt, set_vars: set[str]) -> None:
        targets: list[ast.expr]
        value: ast.expr | None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            assert isinstance(node, ast.AugAssign)
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Attribute):
                info.attr_stores.add(target.attr)
            if isinstance(target, ast.Name) and value is not None:
                if self._is_set_expr(value, set_vars):
                    set_vars.add(target.id)
                else:
                    set_vars.discard(target.id)

    def _is_set_expr(self, expr: ast.expr, set_vars: set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name) and expr.id in set_vars:
            return True
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in _SET_BUILTINS:
                return True
            if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            ):
                return self._is_set_expr(expr.func.value, set_vars)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(expr.left, set_vars) or self._is_set_expr(
                expr.right, set_vars
            )
        return False

    def _check_set_iter(
        self, info: FunctionInfo, iter_expr: ast.expr, set_vars: set[str], context: str
    ) -> None:
        if self._is_set_expr(iter_expr, set_vars):
            info.facts.append(
                BodyFact(
                    "set-iteration",
                    iter_expr.lineno,
                    iter_expr.col_offset,
                    detail=f"unordered set iterated in a {context}",
                )
            )

    def _scan_call(
        self,
        info: FunctionInfo,
        node: ast.Call,
        class_name: str | None,
        set_vars: set[str],
    ) -> None:
        nargs = len(node.args) + len(node.keywords)
        dotted = self.table.resolve(node.func)
        func = node.func

        # self.method() resolves within the enclosing class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and class_name is not None
        ):
            qual = f"{class_name}.{func.attr}"
            key = f"{self.module.name}:{qual}"
            info.internal_calls.append(
                CallSite(key, node.lineno, node.col_offset, nargs)
            )
            self._scan_order_leak(info, node, set_vars)
            self._record_submissions(info, node, func.attr)
            return

        if dotted is not None:
            key = _dotted_to_key(dotted, self.module_names)
            if key is None and "." not in dotted and dotted in self.local_defs:
                key = f"{self.module.name}:{self.local_defs[dotted]}"
            if (
                key is None
                and isinstance(func, ast.Attribute)
                and not self.table.rooted_in_import(func)
            ):
                # ``table.popitem()`` where ``table`` is a local: the
                # dotted name is a guess from a variable name, not a
                # module path — fall through to the ``*.attr`` pattern.
                dotted = None
        if dotted is not None:
            if key is not None:
                info.internal_calls.append(
                    CallSite(key, node.lineno, node.col_offset, nargs)
                )
            else:
                info.external_calls.append(
                    CallSite(dotted, node.lineno, node.col_offset, nargs)
                )
                self._record_open(info, node, dotted)
        elif isinstance(func, ast.Attribute):
            # Unresolvable receiver: keep the attribute pattern.
            info.external_calls.append(
                CallSite(f"*.{func.attr}", node.lineno, node.col_offset, nargs)
            )
            if func.attr == "pop" and not node.args and not node.keywords:
                if isinstance(func.value, ast.Name) and func.value.id in set_vars:
                    info.facts.append(
                        BodyFact(
                            "set-pop",
                            node.lineno,
                            node.col_offset,
                            detail=f"set.pop() removes an arbitrary element "
                            f"({func.value.id})",
                        )
                    )
            if func.attr in ("write_text", "write_bytes"):
                info.facts.append(
                    BodyFact("open-write", node.lineno, node.col_offset, detail="w")
                )

        self._scan_order_leak(info, node, set_vars)
        if isinstance(func, ast.Attribute):
            self._record_submissions(info, node, func.attr)
        self._record_env_read(info, node, dotted)

    def _scan_order_leak(
        self, info: FunctionInfo, node: ast.Call, set_vars: set[str]
    ) -> None:
        """``list(a_set)`` / ``",".join(a_set)`` leak set order."""
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_LEAKING
            and node.args
            and self._is_set_expr(node.args[0], set_vars)
        ):
            info.facts.append(
                BodyFact(
                    "set-iteration",
                    node.lineno,
                    node.col_offset,
                    detail=f"{func.id}() materializes unordered set order",
                )
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self._is_set_expr(node.args[0], set_vars)
        ):
            info.facts.append(
                BodyFact(
                    "set-iteration",
                    node.lineno,
                    node.col_offset,
                    detail="str.join() over an unordered set",
                )
            )

    def _record_open(self, info: FunctionInfo, node: ast.Call, dotted: str) -> None:
        if dotted not in ("open", "io.open", "os.fdopen"):
            if dotted == "os.open":
                flags = node.args[1] if len(node.args) > 1 else None
                flag_text = ast.dump(flags) if flags is not None else ""
                if "O_APPEND" not in flag_text and (
                    "O_WRONLY" in flag_text or "O_RDWR" in flag_text
                ):
                    info.facts.append(
                        BodyFact(
                            "open-write", node.lineno, node.col_offset, detail="os.open"
                        )
                    )
            return
        mode = "r"
        mode_index = 1
        for idx, arg in enumerate(node.args):
            if idx == mode_index and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                mode = arg.value
        for kw in node.keywords:
            if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                mode = str(kw.value.value)
        if "a" in mode:
            info.facts.append(
                BodyFact("open-append", node.lineno, node.col_offset, detail=mode)
            )
        elif any(ch in mode for ch in "wx+"):
            info.facts.append(
                BodyFact("open-write", node.lineno, node.col_offset, detail=mode)
            )

    def _record_env_read(
        self, info: FunctionInfo, node: ast.Call, dotted: str | None
    ) -> None:
        if dotted in ("os.getenv", "os.environ.get"):
            detail = ""
            if node.args and isinstance(node.args[0], ast.Constant):
                detail = str(node.args[0].value)
            info.facts.append(
                BodyFact("env-read", node.lineno, node.col_offset, detail=detail)
            )

    def _record_submissions(self, info: FunctionInfo, node: ast.Call, attr: str) -> None:
        """Function refs passed to pool ``submit``/``map``/
        ``run_in_executor`` seed the fork-worker zone."""
        ref_args: list[ast.expr] = []
        if attr in ("submit", "map") and node.args:
            ref_args = [node.args[0]]
        elif attr == "run_in_executor" and len(node.args) >= 2:
            ref_args = [node.args[1]]
        for arg in ref_args:
            dotted = self.table.resolve(arg)
            if dotted is None:
                continue
            key = _dotted_to_key(dotted, self.module_names)
            if key is None and "." not in dotted and dotted in self.local_defs:
                key = f"{self.module.name}:{self.local_defs[dotted]}"
            if key is not None:
                info.submitted.append(key)


def _walk_skipping_defs(stmt: ast.stmt):
    """``ast.walk`` that does not descend into nested function/class
    definitions (they are scanned as their own functions)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    yield stmt
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _walk_subtree(child)


def _walk_subtree(node: ast.AST):
    yield node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield from _walk_subtree(child)


def _resolve_local_calls(info: FunctionInfo, graph: CallGraph) -> None:
    """Second pass: external calls that are actually bare names of
    same-module definitions become internal edges (handles forward
    references and decorator-order effects)."""
    remaining: list[CallSite] = []
    for call in info.external_calls:
        if "." not in call.name and not call.name.startswith("*"):
            # Try a nested definition of this function first, then a
            # module-level one.
            nested_key = f"{info.module}:{info.qualname}.{call.name}"
            key = nested_key if nested_key in graph.functions else f"{info.module}:{call.name}"
            if key in graph.functions:
                info.internal_calls.append(
                    CallSite(key, call.line, call.col, call.nargs)
                )
                continue
            # A bare class name: instantiation calls __init__.
            init_key = f"{info.module}:{call.name}.__init__"
            if init_key in graph.functions:
                info.internal_calls.append(
                    CallSite(init_key, call.line, call.col, call.nargs)
                )
                continue
        remaining.append(call)
    info.external_calls = remaining
