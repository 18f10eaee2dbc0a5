"""The project-specific lint rules (CHR001–CHR006).

Each rule proves one invariant that previous PRs enforced by hand:

========  ====================================================================
CHR001    Backend-protocol purity: no concrete-engine imports outside the
          storage/backends layers (PR 2's layering rule).
CHR002    Lock discipline: a class that owns a ``threading.Lock``/``RLock``
          only mutates its ``self._*`` shared state inside ``with self.<lock>:``
          (or in ``__init__`` / a ``*_locked`` helper called under the lock).
CHR003    Counter discipline: no ``+=`` on :class:`OperationCounter` tallies —
          deltas go through ``add()``/``merge()`` (PR 3's thread-safety rule).
CHR004    Version-keyed caching: every ``ResultCache`` ``get``/``peek``/``put``/
          ``get_or_compute`` call site passes ``version=`` (PR 5's rule).
CHR005    Wire sync: error codes unique and explicit, codec encoder/decoder
          tables symmetric, op table == service handlers == client calls.
CHR006    Codec determinism: no iteration over bare sets or ``dict.keys()``
          without ``sorted()`` inside the codec module.
========  ====================================================================

Rules read their defaults from ``[tool.charles-lint.rules.<ID>]`` options,
which is also how the fixture tests retarget the cross-file rules at
synthetic modules.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.findings import Finding
from repro.analysis.framework import (
    ModuleSource,
    ProjectRule,
    Rule,
    attribute_chain,
    register,
)

__all__ = [
    "BackendPurityRule",
    "CodecDeterminismRule",
    "CounterDisciplineRule",
    "LockDisciplineRule",
    "VersionedCacheRule",
    "WireSyncRule",
]


def _terminal_name(node: ast.AST) -> Optional[str]:
    """``"Lock"`` for ``threading.Lock`` / ``Lock``; ``None`` otherwise."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


# -- CHR001: backend-protocol purity ------------------------------------------


@register
class BackendPurityRule(Rule):
    """Only the storage/backends layers may import concrete engines.

    Everything else (``core/``, ``service/``, ``viz/``, ``api/``, ...)
    must program against :class:`repro.backends.base.ExecutionBackend`,
    so engines stay pluggable (the PR 2 layering invariant).
    """

    rule_id = "CHR001"
    summary = "backend-protocol purity (no concrete engine imports)"
    hint = (
        "import repro.backends.base.ExecutionBackend (or open_backend) instead; "
        "only repro.storage/* and repro.backends/* may touch concrete engines"
    )

    DEFAULT_FORBIDDEN_MODULES = ("repro.storage.engine", "repro.backends.sqlite")
    DEFAULT_FORBIDDEN_NAMES = ("QueryEngine", "SQLiteBackend")
    DEFAULT_ALLOWED_PACKAGES = ("repro.storage", "repro.backends")
    #: Exact modules (not packages) with a blanket exemption: the top-level
    #: facade re-exports the public API, concrete engines included.
    DEFAULT_ALLOWED_MODULES = ("repro",)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        forbidden_modules = tuple(
            self.option("forbidden_modules", self.DEFAULT_FORBIDDEN_MODULES)
        )
        forbidden_names = set(self.option("forbidden_names", self.DEFAULT_FORBIDDEN_NAMES))
        allowed = tuple(self.option("allowed_packages", self.DEFAULT_ALLOWED_PACKAGES))
        if module.module in tuple(self.option("allowed_modules", self.DEFAULT_ALLOWED_MODULES)):
            return
        if any(module.module == pkg or module.module.startswith(pkg + ".") for pkg in allowed):
            return

        def forbidden(target: str) -> bool:
            return any(
                target == mod or target.startswith(mod + ".") for mod in forbidden_modules
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if forbidden(alias.name):
                        yield self.finding(
                            module,
                            node,
                            f"import of concrete backend module {alias.name!r} "
                            f"outside the storage/backends layers",
                        )
            elif isinstance(node, ast.ImportFrom):
                source = self._resolve(module, node)
                if forbidden(source):
                    yield self.finding(
                        module,
                        node,
                        f"import from concrete backend module {source!r} "
                        f"outside the storage/backends layers",
                    )
                    continue
                for alias in node.names:
                    if alias.name in forbidden_names:
                        yield self.finding(
                            module,
                            node,
                            f"import of concrete backend class {alias.name!r} "
                            f"outside the storage/backends layers",
                        )
                    elif forbidden(f"{source}.{alias.name}"):
                        yield self.finding(
                            module,
                            node,
                            f"import of concrete backend module "
                            f"{source}.{alias.name!r} outside the "
                            f"storage/backends layers",
                        )

    @staticmethod
    def _resolve(module: ModuleSource, node: ast.ImportFrom) -> str:
        """Best-effort absolute form of an ``ImportFrom`` source."""
        if not node.level:
            return node.module or ""
        package = module.module.split(".")
        package = package[: len(package) - node.level]
        if node.module:
            package.append(node.module)
        return ".".join(package)


# -- CHR002: lock discipline ---------------------------------------------------

#: Method names whose call mutates the receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "clear",
        "update",
        "setdefault",
        "discard",
        "move_to_end",
    }
)

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})


def _creates_lock(value: ast.AST) -> bool:
    """Whether an assigned value expression constructs/references a lock.

    Covers ``threading.Lock()``, ``from threading import RLock; RLock()``,
    ``dataclasses.field(default_factory=threading.Lock)`` and conditional
    forms like ``lock if lock is not None else threading.Lock()``.
    """
    for node in ast.walk(value):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if _terminal_name(node) in _LOCK_FACTORIES:
                return True
    return False


@register
class LockDisciplineRule(Rule):
    """Classes that own a lock must mutate shared ``self._*`` state under it.

    A mutation is an assignment (plain, augmented, annotated, subscript or
    attribute), a ``del``, or an in-place mutator call
    (``.append``/``.pop``/``.update``/...) whose receiver is a
    ``self._``-prefixed attribute.  Exempt: ``__init__``/``__new__``/
    ``__del__`` (no concurrent aliases yet) and methods named ``*_locked``
    — the project convention for helpers whose contract is "caller holds
    the lock".  Deliberate lock-free patterns (atomic reference swaps)
    carry an explicit ``# lint: ignore[CHR002]`` with a justification.
    """

    rule_id = "CHR002"
    summary = "lock discipline (guarded mutation of self._* shared state)"
    hint = (
        "wrap the mutation in 'with self.<lock>:', move it into a *_locked "
        "helper called under the lock, or annotate a deliberate atomic "
        "pattern with '# lint: ignore[CHR002] <why>'"
    )

    DEFAULT_EXEMPT_METHODS = ("__init__", "__new__", "__del__", "__post_init__")

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        exempt = tuple(self.option("exempt_methods", self.DEFAULT_EXEMPT_METHODS))
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node, exempt)

    def _check_class(
        self, module: ModuleSource, class_node: ast.ClassDef, exempt: Tuple[str, ...]
    ) -> Iterator[Finding]:
        locks = self._lock_attributes(class_node)
        if not locks:
            return
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in exempt or item.name.endswith("_locked"):
                continue
            for statement in item.body:
                yield from self._scan(
                    module, class_node.name, item.name, locks, statement, locked=False
                )

    @staticmethod
    def _lock_attributes(class_node: ast.ClassDef) -> Set[str]:
        """Names of ``self.<attr>`` attributes holding a lock."""
        locks: Set[str] = set()
        for item in class_node.body:
            # Class-level: _lock = threading.RLock()  /  dataclass field().
            if isinstance(item, ast.Assign) and item.value is not None:
                for target in item.targets:
                    if isinstance(target, ast.Name) and _creates_lock(item.value):
                        locks.add(target.id)
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                if isinstance(item.target, ast.Name) and _creates_lock(item.value):
                    locks.add(item.target.id)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name not in ("__init__", "__post_init__"):
                    continue
                for node in ast.walk(item):
                    if not isinstance(node, ast.Assign) or not _creates_lock(node.value):
                        continue
                    for target in node.targets:
                        chain = attribute_chain(target)
                        if chain is not None and len(chain) == 2 and chain[0] == "self":
                            locks.add(chain[1])
        return locks

    def _scan(
        self,
        module: ModuleSource,
        class_name: str,
        method_name: str,
        locks: Set[str],
        node: ast.AST,
        locked: bool,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            holds = locked or any(
                (chain := attribute_chain(item.context_expr)) is not None
                and len(chain) == 2
                and chain[0] == "self"
                and chain[1] in locks
                for item in node.items
            )
            for item in node.items:
                yield from self._scan(
                    module, class_name, method_name, locks, item.context_expr, locked
                )
            for statement in node.body:
                yield from self._scan(
                    module, class_name, method_name, locks, statement, holds
                )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested function may run after the enclosing with-block has
            # released the lock, so its body is treated as unguarded.
            body = node.body if isinstance(node.body, list) else [node.body]
            for statement in body:
                yield from self._scan(
                    module, class_name, method_name, locks, statement, locked=False
                )
            return
        if isinstance(node, ast.ClassDef):
            return  # a nested class has its own self

        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
        elif isinstance(node, ast.Delete):
            targets.extend(node.targets)
        for target in targets:
            for leaf in self._flatten(target):
                yield from self._flag(
                    module, class_name, method_name, locks, leaf, locked
                )

        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS and not locked:
                chain = attribute_chain(node.func.value)
                if (
                    chain is not None
                    and len(chain) >= 2
                    and chain[0] == "self"
                    and chain[1].startswith("_")
                    and chain[1] not in locks
                ):
                    yield self.finding(
                        module,
                        node,
                        f"unlocked in-place mutation "
                        f"'self.{'.'.join(chain[1:])}.{node.func.attr}(...)' in "
                        f"{class_name}.{method_name} (class owns lock(s) "
                        f"{', '.join(sorted(locks))})",
                    )

        for child in ast.iter_child_nodes(node):
            yield from self._scan(module, class_name, method_name, locks, child, locked)

    @staticmethod
    def _flatten(target: ast.AST) -> Iterator[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from LockDisciplineRule._flatten(element)
        elif isinstance(target, ast.Starred):
            yield from LockDisciplineRule._flatten(target.value)
        else:
            yield target

    def _flag(
        self,
        module: ModuleSource,
        class_name: str,
        method_name: str,
        locks: Set[str],
        target: ast.AST,
        locked: bool,
    ) -> Iterator[Finding]:
        if locked or not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        chain = attribute_chain(target)
        if (
            chain is None
            or len(chain) < 2
            or chain[0] != "self"
            or not chain[1].startswith("_")
        ):
            return
        yield self.finding(
            module,
            target,
            f"unlocked mutation of 'self.{'.'.join(chain[1:])}' in "
            f"{class_name}.{method_name} (class owns lock(s) "
            f"{', '.join(sorted(locks))})",
        )


# -- CHR003: counter discipline ------------------------------------------------


@register
class CounterDisciplineRule(Rule):
    """``counter.evaluations += 1`` races; deltas go through ``add()``.

    Flags augmented assignment on any :class:`OperationCounter` tally
    attribute, and on *any* attribute of a receiver named ``counter`` /
    ``_counter`` (so new tallies cannot dodge the rule by renaming).
    """

    rule_id = "CHR003"
    summary = "counter discipline (no += on OperationCounter tallies)"
    hint = "use counter.add(field=delta) or counter.merge(other) — += drops counts under concurrency"

    DEFAULT_FIELDS = (
        "evaluations",
        "cache_hits",
        "aggregate_hits",
        "count_calls",
        "median_calls",
        "frequency_calls",
        "minmax_calls",
        "batch_calls",
        "skipped_partitions",
    )
    DEFAULT_RECEIVERS = ("counter", "_counter")

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        fields = set(self.option("fields", self.DEFAULT_FIELDS))
        receivers = set(self.option("receivers", self.DEFAULT_RECEIVERS))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.AugAssign):
                continue
            target = node.target
            if not isinstance(target, ast.Attribute):
                continue
            receiver = _terminal_name(target.value)
            if target.attr in fields or receiver in receivers:
                yield self.finding(
                    module,
                    node,
                    f"augmented assignment on counter tally "
                    f"'{receiver or '?'}.{target.attr}' bypasses the "
                    f"OperationCounter lock",
                )


# -- CHR004: version-keyed caching ---------------------------------------------


@register
class VersionedCacheRule(Rule):
    """Every ``ResultCache`` access carries the data version it targets.

    An unversioned ``get``/``peek``/``put`` on a live table can serve a
    stale answer across a mutation (PR 5's invariant).  The rule matches
    call sites whose receiver name matches one of the configured
    ``receivers`` patterns (default: ``cache`` / ``*_cache``) — except
    receivers statically annotated as plain dicts (the memoisation
    dictionaries in ``core/`` are not version-keyed caches).
    """

    rule_id = "CHR004"
    summary = "version-keyed caching (ResultCache calls pass version=)"
    hint = "pass version=<engine data version> (or version=None explicitly for a static table)"

    #: method -> number of positional args that implies version was passed
    #: positionally (key[, value/compute], version).
    DEFAULT_METHODS: Dict[str, int] = {
        "get": 2,
        "peek": 2,
        "put": 3,
        "get_or_compute": 3,
    }
    #: ``fnmatch``-style receiver-name patterns the rule covers.
    DEFAULT_RECEIVERS: Tuple[str, ...] = ("cache", "*_cache")
    _DICT_ANNOTATIONS = ("Dict", "dict", "Mapping", "MutableMapping", "OrderedDict")

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        methods = dict(self.option("methods", self.DEFAULT_METHODS))
        self._receivers = tuple(self.option("receivers", self.DEFAULT_RECEIVERS))
        yield from self._scan(module, module.tree, methods, annotations={})

    def _scan(
        self,
        module: ModuleSource,
        node: ast.AST,
        methods: Dict[str, int],
        annotations: Dict[str, str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = dict(annotations)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is not None:
                    scope[arg.arg] = ast.dump(arg.annotation)
            for child in ast.iter_child_nodes(node):
                yield from self._scan(module, child, methods, scope)
            return
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotations[node.target.id] = ast.dump(node.annotation)
        if isinstance(node, ast.Call):
            yield from self._check_call(module, node, methods, annotations)
        for child in ast.iter_child_nodes(node):
            yield from self._scan(module, child, methods, annotations)

    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        methods: Dict[str, int],
        annotations: Dict[str, str],
    ) -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in methods:
            return
        receiver = func.value
        name = _terminal_name(receiver)
        if name is None or not any(
            fnmatch.fnmatchcase(name, pattern) for pattern in self._receivers
        ):
            return
        if isinstance(receiver, ast.Name) and self._is_plain_dict(
            annotations.get(receiver.id)
        ):
            return
        if any(keyword.arg is None for keyword in node.keywords):
            return  # **kwargs may carry version; cannot prove otherwise
        if any(keyword.arg == "version" for keyword in node.keywords):
            return
        if len(node.args) >= methods[func.attr]:
            return  # version passed positionally
        yield self.finding(
            module,
            node,
            f"cache access '{name}.{func.attr}(...)' does not pass version=",
        )

    def _is_plain_dict(self, annotation_dump: Optional[str]) -> bool:
        if annotation_dump is None:
            return False
        return any(f"'{marker}'" in annotation_dump for marker in self._DICT_ANNOTATIONS)


# -- CHR005: wire sync ---------------------------------------------------------


@register
class WireSyncRule(ProjectRule):
    """The wire protocol's parallel tables cannot drift apart.

    Cross-file checks (each skipped when its module is not in the linted
    set, so partial runs and fixture suites stay meaningful):

    * every subclass of ``CharlesError`` declares its own unique ``code``
      (the registry the error envelopes are rebuilt from);
    * the codec's ``_OBJECT_ENCODERS`` tags and ``_OBJECT_DECODERS`` tags
      are the same set — nothing encodes that cannot decode, and vice
      versa;
    * every declared envelope extension (``ENVELOPE_EXTENSIONS`` — the
      optional cross-cutting envelope fields, e.g. ``trace``) is carried
      by both envelope classes: present in their ``__slots__`` and named
      in both ``to_wire`` and ``from_wire``, so an extension can never be
      silently dropped on one side of the wire.

    The op table needs no rule: ``repro.api.protocol.OPERATIONS`` is the
    only statement of each operation (validation and routing read it),
    and ``tests/api/test_op_table.py`` holds handlers, client and docs
    to it at run time.
    """

    rule_id = "CHR005"
    summary = "wire sync (error codes, codec tables, envelope extensions)"
    hint = "keep the parallel wire tables in lock-step; see docs/analysis.md#chr005"

    DEFAULTS = {
        "errors_module": "repro.errors",
        "base_error": "CharlesError",
        "codec_module": "repro.api.codec",
        "encoders_name": "_OBJECT_ENCODERS",
        "decoders_name": "_OBJECT_DECODERS",
        "protocol_module": "repro.api.protocol",
        "extensions_name": "ENVELOPE_EXTENSIONS",
        "envelope_classes": ("Request", "Response"),
    }

    def _opt(self, name: str) -> str:
        return str(self.option(name, self.DEFAULTS[name]))

    def check_project(self, modules: Mapping[str, ModuleSource]) -> Iterator[Finding]:
        yield from self._check_error_codes(modules)
        yield from self._check_codec_tables(modules)
        yield from self._check_envelope_extensions(modules)

    # -- error codes ---------------------------------------------------------

    def _check_error_codes(
        self, modules: Mapping[str, ModuleSource]
    ) -> Iterator[Finding]:
        errors = modules.get(self._opt("errors_module"))
        if errors is None:
            return
        base = self._opt("base_error")
        class_nodes: Dict[str, ast.ClassDef] = {}
        bases: Dict[str, Set[str]] = {}
        for node in errors.tree.body:
            if isinstance(node, ast.ClassDef):
                class_nodes[node.name] = node
                bases[node.name] = {
                    name
                    for name in (_terminal_name(b) for b in node.bases)
                    if name is not None
                }
        family: Set[str] = {base}
        changed = True
        while changed:
            changed = False
            for name, parents in bases.items():
                if name not in family and parents & family:
                    family.add(name)
                    changed = True
        members: List[Tuple[ModuleSource, ast.ClassDef]] = [
            (errors, class_nodes[name]) for name in family if name in class_nodes
        ]
        # Error subclasses declared outside the errors module (none today,
        # but the registry is hierarchy-wide so the rule is too).
        for module in modules.values():
            if module is errors:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and any(
                    _terminal_name(b) in family for b in node.bases
                ):
                    members.append((module, node))

        codes: Dict[str, str] = {}
        for module, node in sorted(members, key=lambda pair: pair[1].name):
            code = self._class_code(node)
            if code is None:
                yield self.finding(
                    module,
                    node,
                    f"error class {node.name!r} does not declare its own stable "
                    f"'code' (wire envelopes would report its parent's)",
                    hint="add a unique class-level code = \"...\" string",
                )
            elif code in codes:
                yield self.finding(
                    module,
                    node,
                    f"error class {node.name!r} re-uses wire code {code!r} "
                    f"(already owned by {codes[code]})",
                    hint="wire codes are API surface; pick a fresh one",
                )
            else:
                codes[code] = node.name

    @staticmethod
    def _class_code(node: ast.ClassDef) -> Optional[str]:
        for item in node.body:
            value: Optional[ast.expr] = None
            if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "code" for t in item.targets
            ):
                value = item.value
            elif (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == "code"
            ):
                value = item.value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                return value.value
        return None

    # -- codec encoder/decoder symmetry --------------------------------------

    def _check_codec_tables(
        self, modules: Mapping[str, ModuleSource]
    ) -> Iterator[Finding]:
        codec = modules.get(self._opt("codec_module"))
        if codec is None:
            return
        functions: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in ast.walk(codec.tree)
            if isinstance(node, ast.FunctionDef)
        }
        encoders = self._module_dict(codec, self._opt("encoders_name"))
        decoders = self._module_dict(codec, self._opt("decoders_name"))
        if encoders is None or decoders is None:
            return

        encoder_tags: Dict[str, ast.AST] = {}
        for value in encoders.values:
            encoder_name = _terminal_name(value)
            function = functions.get(encoder_name or "")
            if function is None:
                continue
            tag = self._emitted_tag(function)
            if tag is None:
                yield self.finding(
                    codec,
                    function,
                    f"encoder {function.name!r} is registered but emits no "
                    f"'$type' tag, so its output can never decode",
                    hint="emit {'$type': '<tag>', ...} and register a decoder for the tag",
                )
            else:
                encoder_tags[tag] = function

        decoder_tags: Dict[str, ast.AST] = {}
        for key in decoders.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                decoder_tags[key.value] = key

        for tag, node in sorted(encoder_tags.items()):
            if tag not in decoder_tags:
                yield self.finding(
                    codec,
                    node,
                    f"wire tag {tag!r} has an encoder but no decoder branch",
                    hint=f"register a _decode function for {tag!r} in "
                    f"{self._opt('decoders_name')}",
                )
        for tag, node in sorted(decoder_tags.items()):
            if tag not in encoder_tags:
                yield self.finding(
                    codec,
                    node,
                    f"wire tag {tag!r} has a decoder but no registered encoder",
                    hint=f"register the encoder emitting {tag!r} in "
                    f"{self._opt('encoders_name')}",
                )

    @staticmethod
    def _module_value(module: ModuleSource, name: str) -> Optional[ast.expr]:
        """The value of the module-level assignment ``name = ...``, if any."""
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if _terminal_name(node.targets[0]) == name:
                    return node.value
            elif isinstance(node, ast.AnnAssign) and _terminal_name(node.target) == name:
                return node.value
        return None

    def _module_dict(self, module: ModuleSource, name: str) -> Optional[ast.Dict]:
        value = self._module_value(module, name)
        return value if isinstance(value, ast.Dict) else None

    @staticmethod
    def _emitted_tag(function: ast.FunctionDef) -> Optional[str]:
        for node in ast.walk(function):
            if not isinstance(node, ast.Dict):
                continue
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "$type"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    return value.value
        return None

    def _module_string_set(
        self, module: ModuleSource, name: str
    ) -> Optional[Dict[str, ast.AST]]:
        """A module-level ``NAME = ("a", ...)`` literal as string → node
        (non-string members are ignored)."""
        value = self._module_value(module, name)
        if not isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            return None
        return {
            element.value: element
            for element in value.elts
            if isinstance(element, ast.Constant) and isinstance(element.value, str)
        }

    # -- envelope extensions ---------------------------------------------------

    def _check_envelope_extensions(
        self, modules: Mapping[str, ModuleSource]
    ) -> Iterator[Finding]:
        """Declared envelope extensions must ride both envelope codecs.

        Stands down when the protocol module declares no
        ``ENVELOPE_EXTENSIONS`` table (older protocol layouts).
        """
        protocol = modules.get(self._opt("protocol_module"))
        if protocol is None:
            return
        extensions = self._module_string_set(protocol, self._opt("extensions_name"))
        if extensions is None:
            return
        class_names = [
            str(name)
            for name in self.option(
                "envelope_classes", self.DEFAULTS["envelope_classes"]
            )
        ]
        for class_name in class_names:
            class_node = next(
                (
                    node
                    for node in protocol.tree.body
                    if isinstance(node, ast.ClassDef) and node.name == class_name
                ),
                None,
            )
            if class_node is None:
                continue
            slots = self._class_string_slots(class_node)
            methods: Dict[str, ast.AST] = {
                item.name: item
                for item in class_node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for extension, node in sorted(extensions.items()):
                if slots is not None and extension not in slots:
                    yield self.finding(
                        protocol,
                        class_node,
                        f"envelope extension {extension!r} is declared but "
                        f"{class_name} has no {extension!r} slot",
                        hint=f"add {extension!r} to {class_name}.__slots__ "
                        f"and carry it through the codec",
                    )
                for method_name in ("to_wire", "from_wire"):
                    method = methods.get(method_name)
                    if method is None:
                        continue
                    if not self._mentions_string(method, extension):
                        yield self.finding(
                            protocol,
                            method,
                            f"envelope extension {extension!r} is declared but "
                            f"{class_name}.{method_name} never names it — the "
                            f"field would be dropped on this side of the wire",
                            hint=f"emit/read the {extension!r} key in "
                            f"{method_name}",
                        )

    @staticmethod
    def _class_string_slots(node: ast.ClassDef) -> Optional[Set[str]]:
        """The class's ``__slots__`` string members, ``None`` if undeclared."""
        for item in node.body:
            value: Optional[ast.expr] = None
            if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
            ):
                value = item.value
            elif (
                isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id == "__slots__"
            ):
                value = item.value
            if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                return {
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                }
        return None

    @staticmethod
    def _mentions_string(node: ast.AST, text: str) -> bool:
        return any(
            isinstance(child, ast.Constant) and child.value == text
            for child in ast.walk(node)
        )


# -- CHR006: codec determinism -------------------------------------------------


@register
class CodecDeterminismRule(Rule):
    """The codec module may not iterate unordered collections bare.

    ``for v in some_set`` / ``for k in mapping.keys()`` inside the codec
    makes wire bytes depend on hash seeds and insertion history; equal
    objects must serialise byte-identically (the parity suites diff wire
    text).  Wrap the iterable in ``sorted(...)``.
    """

    rule_id = "CHR006"
    summary = "codec determinism (no bare set/keys() iteration in the codec)"
    hint = "iterate sorted(...) (with an explicit key for mixed types, e.g. _SET_ORDER)"

    DEFAULT_MODULE = "repro.api.codec"

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        if module.module != str(self.option("module", self.DEFAULT_MODULE)):
            return
        for node in ast.walk(module.tree):
            iterables: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables.extend(generator.iter for generator in node.generators)
            for iterable in iterables:
                reason = self._nondeterministic(iterable)
                if reason is not None:
                    yield self.finding(
                        module,
                        iterable,
                        f"iteration over {reason} has no deterministic order "
                        f"on the wire",
                    )

    @staticmethod
    def _nondeterministic(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if isinstance(node.func, ast.Name) and name in ("set", "frozenset"):
                return f"a bare {name}(...)"
            if isinstance(node.func, ast.Attribute) and name == "keys":
                return "bare dict.keys()"
        return None
