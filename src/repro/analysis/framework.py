"""The lint framework: sources, rules, configuration and the driver.

The moving parts, smallest first:

* :class:`ModuleSource` — one parsed Python file: path, dotted module
  name (derived from the package layout), source text, AST, and the
  ``# lint: ignore[...]`` suppressions found in it.
* :class:`Rule` — base class.  A rule either inspects one module at a
  time (override :meth:`Rule.check_module`) or needs the whole project
  at once (override :meth:`Rule.check_project` — used by cross-file
  rules like CHR005 that compare the error hierarchy's wire codes
  across modules).
* :func:`register` — decorator adding a rule class to the global
  registry keyed by rule id.
* :class:`LintConfig` — enable/ignore lists, path excludes and
  per-rule options; loaded from ``[tool.charles-lint]`` in
  ``pyproject.toml`` when a ``tomllib`` is available (Python >= 3.11),
  defaults otherwise.
* :func:`lint_paths` — the driver: collect files, parse, run rules,
  drop suppressed findings, return a sorted, de-duplicated list.

Suppression syntax (same line as the finding)::

    self._fast_path = value  # lint: ignore[CHR002] benign: atomic swap
    import anything          # lint: ignore

``# lint: ignore`` without a bracket silences every rule on that line;
with a bracket, only the listed (comma-separated) rule ids.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    ClassVar,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.analysis.findings import Finding

__all__ = [
    "LintConfig",
    "ModuleSource",
    "ProjectRule",
    "Rule",
    "all_rules",
    "attribute_chain",
    "collect_files",
    "get_rule",
    "iter_python_files",
    "lint_paths",
    "load_config",
    "register",
]

#: ``# lint: ignore`` or ``# lint: ignore[CHR001, CHR002]``
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*ignore(?:\[\s*(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\s*\])?"
)

#: Rule id used for files the parser rejects (not suppressible).
PARSE_ERROR_RULE = "CHR000"


def _module_name(path: Path) -> str:
    """Dotted module name of ``path``, derived from ``__init__.py`` markers.

    ``src/repro/api/codec.py`` maps to ``repro.api.codec`` because
    ``src/repro/api`` and ``src/repro`` are packages and ``src`` is not.
    A loose file (test fixtures in a tmp dir) maps to its stem.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        if parent == parent.parent:  # pragma: no cover - filesystem root
            break
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _parse_suppressions(text: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line number -> suppressed rule ids (``None`` = every rule)."""
    suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" not in line or "lint" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = None
        else:
            listed = frozenset(r.strip() for r in rules.split(","))
            previous = suppressions.get(lineno)
            if previous is None and lineno in suppressions:
                continue  # an unconditional ignore already covers the line
            suppressions[lineno] = listed | (previous or frozenset())
    return suppressions


@dataclass
class ModuleSource:
    """One parsed Python file, ready for rules to inspect."""

    path: Path
    display_path: str
    module: str
    text: str
    tree: ast.Module
    suppressions: Dict[int, Optional[FrozenSet[str]]]

    @classmethod
    def parse(cls, path: Union[str, Path], display_path: Optional[str] = None) -> "ModuleSource":
        resolved = Path(path)
        text = resolved.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(resolved))
        return cls(
            path=resolved,
            display_path=display_path if display_path is not None else str(path),
            module=_module_name(resolved.resolve()),
            text=text,
            tree=tree,
            suppressions=_parse_suppressions(text),
        )

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether a ``# lint: ignore`` on ``line`` covers ``rule_id``."""
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule_id in rules


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`summary` and :attr:`hint`
    and override :meth:`check_module`.  ``options`` carries the rule's
    table from ``[tool.charles-lint.rules.<ID>]`` — rules read it with
    :meth:`option` so tests can retarget them at fixture modules.
    """

    rule_id: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    hint: ClassVar[str] = ""

    def __init__(self, options: Optional[Mapping[str, Any]] = None):
        self.options: Dict[str, Any] = dict(options or {})

    def option(self, name: str, default: Any) -> Any:
        return self.options.get(name, default)

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        return ()

    def finding(
        self,
        module: ModuleSource,
        node: Union[ast.AST, int],
        message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.rule_id,
            path=module.display_path,
            line=line,
            col=col,
            message=message,
            hint=self.hint if hint is None else hint,
        )


class ProjectRule(Rule):
    """A rule that inspects all modules together (cross-file invariants)."""

    def check_project(self, modules: Mapping[str, ModuleSource]) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    rule_id = rule_class.rule_id
    if not rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_id in _REGISTRY and _REGISTRY[rule_id] is not rule_class:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """The registry (import-triggered: pulls in the built-in rules)."""
    import repro.analysis.rules  # noqa: F401  (registers on import)

    return dict(_REGISTRY)


def get_rule(rule_id: str) -> Type[Rule]:
    rules = all_rules()
    if rule_id not in rules:
        known = ", ".join(sorted(rules))
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})")
    return rules[rule_id]


# -- configuration -------------------------------------------------------------


@dataclass
class LintConfig:
    """Resolved lint configuration (defaults == the shipped pyproject)."""

    enable: Optional[Tuple[str, ...]] = None  # None = every registered rule
    ignore: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ("tests/analysis/fixtures",)
    rule_options: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def selected_rules(self) -> List[Rule]:
        rules = all_rules()
        ids = list(self.enable) if self.enable is not None else sorted(rules)
        unknown = [rule_id for rule_id in ids if rule_id not in rules]
        if unknown:
            raise KeyError(f"unknown rule ids in config: {unknown}")
        return [
            rules[rule_id](self.rule_options.get(rule_id))
            for rule_id in ids
            if rule_id not in self.ignore
        ]

    def is_excluded(self, path: Union[str, Path]) -> bool:
        text = str(path).replace("\\", "/")
        return any(pattern in text for pattern in self.exclude)


def _load_toml(path: Path) -> Optional[Dict[str, Any]]:
    try:
        import tomllib
    except ImportError:  # Python < 3.11: fall back to defaults
        return None
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except (OSError, ValueError):
        return None


def load_config(start: Optional[Union[str, Path]] = None) -> LintConfig:
    """Locate ``pyproject.toml`` upward from ``start`` and read
    ``[tool.charles-lint]``; defaults when missing or unreadable."""
    origin = Path(start) if start is not None else Path.cwd()
    if origin.is_file():
        candidates = [origin]
    else:
        candidates = [parent / "pyproject.toml" for parent in (origin, *origin.resolve().parents)]
    for candidate in candidates:
        if not candidate.is_file():
            continue
        data = _load_toml(candidate)
        if data is None:
            break
        table = data.get("tool", {}).get("charles-lint", {})
        if not isinstance(table, dict):
            break
        config = LintConfig()
        if "enable" in table:
            config.enable = tuple(str(r) for r in table["enable"])
        if "ignore" in table:
            config.ignore = tuple(str(r) for r in table["ignore"])
        if "exclude" in table:
            config.exclude = tuple(str(p) for p in table["exclude"])
        rules_table = table.get("rules", {})
        if isinstance(rules_table, dict):
            config.rule_options = {
                str(rule_id): dict(options)
                for rule_id, options in rules_table.items()
                if isinstance(options, dict)
            }
        return config
    return LintConfig()


# -- driver --------------------------------------------------------------------


def iter_python_files(root: Union[str, Path]) -> Iterator[Path]:
    root_path = Path(root)
    if root_path.is_file():
        yield root_path
        return
    yield from sorted(root_path.rglob("*.py"))


def collect_files(
    paths: Sequence[Union[str, Path]], config: Optional[LintConfig] = None
) -> List[Path]:
    config = config or LintConfig()
    seen: Dict[Path, None] = {}
    for path in paths:
        for candidate in iter_python_files(path):
            if config.is_excluded(candidate):
                continue
            seen.setdefault(candidate, None)
    return list(seen)


def parse_modules(files: Iterable[Path]) -> Tuple[Dict[str, ModuleSource], List[Finding]]:
    """Parse every file; unparseable ones become CHR000 findings."""
    modules: Dict[str, ModuleSource] = {}
    errors: List[Finding] = []
    for file_path in files:
        try:
            source = ModuleSource.parse(file_path)
        except SyntaxError as exc:
            errors.append(
                Finding(
                    rule_id=PARSE_ERROR_RULE,
                    path=str(file_path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                    hint="fix the syntax error; lint cannot analyse this file",
                )
            )
            continue
        modules[source.module] = source
    return modules, errors


def lint_paths(
    paths: Sequence[Union[str, Path]],
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run the configured rules over ``paths``; sorted, suppression-filtered."""
    config = config or LintConfig()
    active = list(rules) if rules is not None else config.selected_rules()
    files = collect_files(paths, config)
    modules, findings = parse_modules(files)

    for rule in active:
        for module in modules.values():
            for found in rule.check_module(module):
                if not module.is_suppressed(found.rule_id, found.line):
                    findings.append(found)
        if isinstance(rule, ProjectRule):
            for found in rule.check_project(modules):
                owner = next(
                    (m for m in modules.values() if m.display_path == found.path), None
                )
                if owner is None or not owner.is_suppressed(found.rule_id, found.line):
                    findings.append(found)

    unique = {f.sort_key() + (f.message,): f for f in findings}
    return sorted(unique.values(), key=Finding.sort_key)


# -- shared AST helpers --------------------------------------------------------


def attribute_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("self", "_lock")`` for ``self._lock``; ``None`` for non-name chains.

    Subscripts are transparent (``self._entries[key]`` yields the chain
    of ``self._entries``) so mutation checks see through item access.
    """
    parts: List[str] = []
    current = node
    while True:
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            return tuple(reversed(parts))
        else:
            return None
