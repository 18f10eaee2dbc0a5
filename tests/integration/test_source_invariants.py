"""Invariants of ``src/repro`` that no run-time test can see.

Each check is a function over one source text, so a test can feed it a
planted violation as a string; another test runs it over the modules
under ``src/repro``.  What each one guards:

* the layer boundary: only ``storage/`` and ``backends/`` import the
  concrete engines, everything else programs against ``ExecutionBackend``;
* protocol width: every ``ExecutionBackend`` member is used somewhere
  above ``storage/`` and ``backends/``, or it is not in the protocol;
* public width: every ``__all__`` name of a module is used outside it (in
  ``src/repro``, the examples, ``bench/``, benchmarks E1–E9 or the probes
  in ``scripts/``), or it leaves ``__all__``; every package ``__init__`` is
  a lazy facade whose ``_EXPORTS`` table re-exports only such names;
* one level down: every public function, and every public method or
  property of a public class, is referenced, and every defaulted parameter of a public function or
  method — and every field of a config object — is passed by some caller
  there, or it goes (an allow-list names each exception and its reason);
* lock discipline: a class that owns a ``Lock``/``RLock`` mutates its
  ``self._*`` state only under ``with self.<lock>:`` (``__init__``,
  ``__post_init__`` and ``*_locked`` helpers excepted);
* counter discipline: ``OperationCounter`` tallies change through
  ``add()``/``merge()``, never ``+=``, which drops counts under threads;
* wire sync and determinism: every ``"$type"`` the codec emits decodes,
  and the codec never iterates an unordered collection;
* things that stay deleted: a pattern no line may match, with its reason;
* the strict-typing gate: every ``def`` mypy checks is fully annotated,
  with no bare generic, so the gate holds where mypy is not installed.

An unversioned ``ResultCache`` call needs no check here: ``version`` is
a required keyword argument, so such a call is a ``TypeError``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.api.codec import _OBJECT_DECODERS
from repro.backends.base import ExecutionBackend
from repro.storage.engine import OperationCounter

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


@lru_cache(maxsize=None)
def _sources() -> Dict[str, str]:
    """Every module under ``src/repro``: dotted name → source text."""
    return {
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts): path.read_text(
            encoding="utf-8"
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def _chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("self", "_entries")`` for ``self._entries[key]``; ``None`` if not a name chain."""
    parts: List[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
        node = node.value
    return (node.id, *reversed(parts)) if isinstance(node, ast.Name) else None


def _terminal(node: ast.AST) -> Optional[str]:
    """The last name of a dotted name: ``"Lock"`` for ``threading.Lock`` or ``Lock``."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


# -- the layer boundary -----------------------------------------------------------

_ENGINE_MODULES = ("repro.storage.engine", "repro.backends.sqlite")
_ENGINE_CLASSES = {"QueryEngine", "SQLiteBackend"}


def concrete_engine_imports(module: str, source: str) -> List[int]:
    """Lines of ``module`` that import a concrete engine outside its layers."""
    if module.startswith(("repro.storage.", "repro.backends.")):
        return []

    def engine(name: str) -> bool:
        return name in _ENGINE_CLASSES or any(
            name == m or name.startswith(m + ".") for m in _ENGINE_MODULES
        )

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
            for alias in node.names:
                names += [alias.name, f"{node.module}.{alias.name}"]
        else:
            continue
        if any(engine(name) for name in names):
            lines.append(node.lineno)
    return lines


#: Every top-level package or module of ``repro`` outside the engine layers.
_LAYERS = sorted({module.split(".")[1] for module in _sources()} - {"storage", "backends"})


class TestLayerBoundary:
    @pytest.mark.parametrize("layer", _LAYERS)
    def test_no_concrete_engine_imports(self, layer):
        sources = {m: s for m, s in _sources().items() if m.split(".")[1] == layer}
        assert sources
        offenders = {m: concrete_engine_imports(m, s) for m, s in sources.items()}
        assert {m: lines for m, lines in offenders.items() if lines} == {}, (
            "program against ExecutionBackend, not the concrete engines"
        )

    def test_rule_catches_a_planted_violation(self):
        planted = "from repro.storage.engine import QueryEngine\nimport repro.backends.sqlite\n"
        assert concrete_engine_imports("repro.core.offender", planted) == [1, 2]
        planted = "from repro.storage import QueryEngine\nfrom repro.storage import engine\n"
        assert concrete_engine_imports("repro.service.offender", planted) == [1, 2]
        assert concrete_engine_imports("repro.storage.partition", planted) == []

    @pytest.mark.parametrize("module, source, lines", [
        pytest.param("repro.core.x", "import repro.storage.engine as engine\n", [1], id="aliased-module"),
        pytest.param("repro.live.x", "from repro.backends.sqlite import SQLiteBackend\n", [1], id="sqlite-class"),
        pytest.param("repro.cli", "def run():\n    from repro.storage.engine import QueryEngine\n", [2], id="lazy-import"),
        pytest.param("repro.api.x", "import os\nfrom repro.backends import SQLiteBackend\n", [2], id="re-exported-sqlite"),
        pytest.param(
            "repro.core.x",
            "from repro.backends.base import ExecutionBackend\nfrom repro.backends.registry import open_backend\n",
            [], id="protocol-only",
        ),
        pytest.param("repro.core.x", "from repro.storage.table import Table\nfrom repro.storage import cache\n", [], id="other-storage-modules"),
        pytest.param("repro.backends.parallel", "import repro.backends.sqlite\n", [], id="backends-are-exempt"),
    ])
    def test_import_shapes(self, module, source, lines):
        assert concrete_engine_imports(module, source) == lines


# -- the protocol is as wide as its callers -----------------------------------------


def protocol_call_pattern(member: str) -> str:
    """How a use of an ``ExecutionBackend`` member reads in source: a property
    is ``.member``; a method is called, and one with no parameters besides
    ``self`` is called with no arguments (so ``ContextVar.reset(token)`` is
    no use of ``reset()``)."""
    declared = inspect.getattr_static(ExecutionBackend, member)
    if isinstance(declared, property):
        return rf"\.{member}\b"
    if len(inspect.signature(declared).parameters) == 1:
        return rf"\.{member}\(\)"
    return rf"\.{member}\("


def uncalled_members(members: List[str], sources: Dict[str, str]) -> List[str]:
    """The members no source outside ``storage/`` and ``backends/`` uses."""
    callers = [
        source for module, source in sources.items()
        if not module.startswith(("repro.storage.", "repro.backends."))
    ]
    return [
        member for member in members
        if not any(re.search(protocol_call_pattern(member), source) for source in callers)
    ]


_PROTOCOL_MEMBERS = sorted(name for name in vars(ExecutionBackend) if not name.startswith("_"))


def test_every_backend_protocol_member_has_a_caller_above_the_backends():
    assert len(_PROTOCOL_MEMBERS) == 15
    assert uncalled_members(_PROTOCOL_MEMBERS, _sources()) == []


@pytest.mark.parametrize("member, source, uncalled", [
    pytest.param("count", "n = engine.count(query)\n", [], id="method-call"),
    pytest.param("num_rows", "total = backend.num_rows\n", [], id="property"),
    pytest.param("stats", "token = _ACTIVE.stats\n", ["stats"], id="method-not-called"),
    pytest.param("count", "def count(self, q): ...\n", ["count"], id="a-definition-is-no-call"),
])
def test_protocol_use_shapes(member, source, uncalled):
    assert uncalled_members([member], {"repro.core.x": source}) == uncalled
    assert uncalled_members([member], {"repro.storage.x": source}) == [member]


# -- every public name has a caller -----------------------------------------------


def referenced_names(source: str) -> Set[str]:
    """The identifiers a source uses: names, attributes, imported names and
    the words of its string literals (a wrap target ``"module:Class.method"``
    names what it wraps).  A docstring or a comment is prose, not a use."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(re.findall(r"\w+", node.value))
    return names


def public_names(source: str) -> Optional[List[str]]:
    """A module's ``__all__`` when it is a literal list, else ``None``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            try:
                return list(ast.literal_eval(node.value))
            except ValueError:
                return None
    return None


def uncalled_public_names(sources: Dict[str, str], callers: Dict[str, str]) -> List[str]:
    """``module.name`` for each ``__all__`` name of a module that no other
    module and no caller file uses.  A package ``__init__`` only re-exports,
    so it neither declares names here nor counts as a use."""
    modules = {module: source for module, source in sources.items() if not module.endswith("__init__")}
    used = {module: referenced_names(source) for module, source in {**modules, **callers}.items()}
    return sorted(
        f"{module}.{name}"
        for module, source in modules.items()
        for name in public_names(source) or []
        if not any(name in names for other, names in used.items() if other != module)
    )


def _callers() -> Dict[str, str]:
    """Where a caller outside ``src/repro`` may live: the examples, the gating
    benchmark (its own tests excluded), the paper's experiments E1–E9 and
    the committed probes (``scripts/``)."""
    paths = [
        *sorted((ROOT / "examples").rglob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
        *sorted(
            path for path in (ROOT / "benchmarks").glob("bench_e*_*.py")
            if 1 <= int(path.name.split("_")[1][1:]) <= 9
        ),
        *sorted((ROOT / "scripts").glob("*.py")),
    ]
    return {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8") for path in paths}


#: Public names with no caller in reach, with the reason each stays public.
_UNCALLED_BY_DESIGN = {
    "repro.api.client.RemoteSession": "the session type RemoteAdvisor.open_session returns, "
    "exported at the top level beside ServiceSession so local and remote scripts name the "
    "same pair",
    "repro.core.dependence.contingency_table": "the K × L table as an array, which the "
    "Proposition 1 goldens pin; HB-cuts' chi-square rule reads the crosstab its INDEP pass "
    "already holds instead of asking for it again",
    "repro.workloads.synthetic.make_gaussian_table": "E10 (the §5.2 quantile-cut "
    "experiment) isolates the middle third of this Gaussian table",
    "repro.workloads.synthetic.make_zipf_table": "E10 (the §5.2 quantile-cut experiment) "
    "cuts this Zipf-skewed table",
}


def test_every_public_name_has_a_caller():
    assert uncalled_public_names(_sources(), _callers()) == sorted(_UNCALLED_BY_DESIGN)


#: A module whose one public name only the module itself calls.
_PUBLIC_F = '__all__ = ["f"]\n\n\ndef f():\n    """f."""\n\n\ndef _g():\n    return f()\n'


@pytest.mark.parametrize("sources, uncalled", [
    pytest.param({"repro.b.y": "from repro.a.x import f\nf()\n"}, [], id="imported-and-called"),
    pytest.param({"repro.b.y": "from repro.a import x\nx.f()\n"}, [], id="attribute"),
    pytest.param({"examples/z.py": "print(f)\n"}, [], id="a-caller-file"),
    pytest.param({"bench/spans.py": 'Target("repro.a.x:f", "a.ms")\n'}, [], id="wrap-target"),
    pytest.param({}, ["repro.a.x.f"], id="only-its-own-module"),
    pytest.param({"repro.b.y": '"""Calls :func:`f`."""\n'}, ["repro.a.x.f"], id="docstring"),
    pytest.param({"repro.b.y": "# f() is elsewhere\n"}, ["repro.a.x.f"], id="comment"),
    pytest.param(
        {"repro.a.__init__": 'from repro.a.x import f\n__all__ = ["f"]\n'},
        ["repro.a.x.f"], id="a-re-export-is-no-use",
    ),
])
def test_public_name_use_shapes(sources, uncalled):
    modules = {"repro.a.x": _PUBLIC_F}
    callers = {}
    for where, source in sources.items():
        (modules if where.startswith("repro.") else callers)[where] = source
    assert uncalled_public_names(modules, callers) == uncalled


def facade_strays(source: str, homes: Dict[str, Optional[List[str]]]) -> List[str]:
    """The names a package ``__init__`` re-exports (lists in its own
    ``__all__``) from a module of the tree (``homes``: module → its literal
    ``__all__``) that the module does not declare public."""
    exported = public_names(source) or []
    return sorted(
        f"{node.module}.{alias.name}"
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and homes.get(node.module) is not None
        for alias in node.names
        if alias.name in exported and alias.name not in homes[node.module]
    )


def test_facades_re_export_only_public_names():
    sources = _sources()
    homes = {module.removesuffix(".__init__"): public_names(source) for module, source in sources.items()}
    strays = [
        stray for facade, source in sources.items() if facade.endswith("__init__")
        for stray in facade_strays(source, homes)
    ]
    packages = [module.removesuffix(".__init__") for module in sources if module.endswith("__init__")]
    assert len(packages) == 12
    for package in packages:  # every one a lazy facade: ``_EXPORTS`` is name → home
        for name, home in importlib.import_module(package)._EXPORTS.items():
            if name not in getattr(importlib.import_module(home), "__all__", [name]):
                strays.append(f"{home}.{name}")
    assert strays == []


@pytest.mark.parametrize("source, strays", [
    pytest.param('from repro.a.x import f\n__all__ = ["f"]\n', [], id="public"),
    pytest.param('from repro.a.x import f, h\n__all__ = ["f", "h"]\n', ["repro.a.x.h"], id="not-in-all"),
    pytest.param("from repro.a.x import f, h\n__all__ = ['f']\n", [], id="used-not-re-exported"),
    pytest.param('from numpy import ndarray\n__all__ = ["ndarray"]\n', [], id="outside-the-tree"),
    pytest.param('from repro.a.y import g\n__all__ = ["g"]\n', [], id="home-without-a-literal-all"),
])
def test_facade_shapes(source, strays):
    assert facade_strays(source, {"repro.a.x": ["f"], "repro.a.y": None}) == strays


# -- every method and every option has a caller -----------------------------------

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_classes(tree: ast.Module) -> List[ast.ClassDef]:
    return [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
    ]


def unreferenced_methods(sources: Dict[str, str], callers: Dict[str, str]) -> List[str]:
    """``module.Class.method`` for each public method or property of a
    public class, and ``module.function`` for each public function, whose
    name no module (its own included) and no caller file uses.  A
    definition is no use, and neither is prose."""
    used: Set[str] = set()
    for source in {**sources, **callers}.values():
        used |= referenced_names(source)
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        owners = [(module, tree), *((f"{module}.{cls.name}", cls) for cls in _public_classes(tree))]
        found += [
            f"{owner}.{node.name}"
            for owner, scope in owners
            for node in scope.body
            if isinstance(node, _DEFS) and not node.name.startswith("_") and node.name not in used
        ]
    return sorted(found)


def _defaulted(function: ast.AST, method: bool) -> List[Tuple[str, Optional[int]]]:
    """``(name, position)`` of each defaulted parameter: the index a
    positional argument fills it at (``self``/``cls`` not counted), ``None``
    for a keyword-only one."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    static = any(_terminal(decorator) == "staticmethod" for decorator in function.decorator_list)
    bound = 1 if method and not static else 0
    first = len(positional) - len(arguments.defaults)
    return [
        (argument.arg, index - bound)
        for index, argument in enumerate(positional) if index >= first
    ] + [
        (argument.arg, None)
        for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
        if default is not None
    ]


def _is_config(cls: ast.ClassDef) -> bool:
    """A config object: a dataclass named ``*Config``, or a ranker."""
    dataclass = any(
        _terminal(decorator.func if isinstance(decorator, ast.Call) else decorator) == "dataclass"
        for decorator in cls.decorator_list
    )
    ranker = any(_terminal(base) == "Ranker" for base in cls.bases)
    return dataclass and (cls.name.endswith("Config") or ranker)


def _signatures(
    module: str, source: str
) -> Iterator[Tuple[str, str, List[Tuple[str, Optional[int]]]]]:
    """``(label, the name a call uses, defaulted parameters)`` of each
    public function, each public method or constructor of a public class,
    and each config object's fields."""
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, _defaulted(node, method=False)
    for cls in _public_classes(tree):
        if _is_config(cls):
            fields = [
                (node.target.id, None) for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.value is not None
            ]
            yield f"{module}.{cls.name}", cls.name, fields
        for node in cls.body:
            if isinstance(node, _DEFS) and (node.name == "__init__" or not node.name.startswith("_")):
                called = cls.name if node.name == "__init__" else node.name
                yield f"{module}.{cls.name}.{node.name}", called, _defaulted(node, method=True)


def _calls(source: str) -> Iterator[Tuple[Optional[str], Set[str], float]]:
    """``(name, keywords, positional count)`` of each call in a source.  The
    name is the callee's last part with an ``import … as`` alias undone, and
    ``cls(...)`` inside a class calls that class; ``**mapping`` passes every
    keyword (``"**"``) and ``*sequence`` every position."""
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.asname
    }

    def visit(node: ast.AST, cls: Optional[str]) -> Iterator[Tuple[Optional[str], Set[str], float]]:
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            name = _terminal(node.func)
            name = cls if name == "cls" and cls else aliases.get(name, name)
            keywords = {keyword.arg or "**" for keyword in node.keywords}
            starred = any(isinstance(argument, ast.Starred) for argument in node.args)
            yield name, keywords, float("inf") if starred else len(node.args)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, cls)

    return visit(tree, None)


def unpassed_parameters(sources: Dict[str, str], callers: Dict[str, str]) -> List[str]:
    """``label(parameter)`` for each defaulted parameter no call of its
    name passes: by keyword, by position, or through ``cls(...)``."""
    passed: Dict[Optional[str], List[Tuple[Set[str], float]]] = {}
    for source in {**sources, **callers}.values():
        for name, keywords, positions in _calls(source):
            passed.setdefault(name, []).append((keywords, positions))
    return sorted(
        f"{label}({parameter})"
        for module, source in sources.items()
        for label, name, parameters in _signatures(module, source)
        for parameter, position in parameters
        if not any(
            parameter in keywords or "**" in keywords
            or (position is not None and positions > position)
            for keywords, positions in passed.get(name, [])
        )
    )


#: Why a storage/sketches.py or SkippingIndexes entry stays as it is.
_BENCH_NAMED = (
    "bench/spans.py wraps this class's methods as span targets; storage/sketches.py "
    "goes whole (ROADMAP 1a) once the benchmark stops naming it"
)
_ZONEMAP_SPAN = "bench/spans.py wraps SkippingIndexes.query_mask/count as the zone-map layer's span"
_E10 = "E10 (the §5.2 extensions experiment) sets it"

#: Public methods and properties no caller reaches, with the reason each stays.
_UNREFERENCED_BY_DESIGN = {
    "repro.core.lazy.LazyAdvisor.first_answer": "E10 measures the lazy advisor's latency "
    "to its first answer with it",
    "repro.core.metrics.SegmentationScores.as_dict": "the E1–E4 goldens are written from "
    "it (tests/core/golden, which stay as they are)",
    "repro.sdl.query.SDLQuery.matches_row": "the row-at-a-time reference the vectorised "
    "masks are checked against",
    "repro.storage.engine.QueryEngine.index_features": "the differential suite, which "
    "stays as it is, asserts the planner's access path through it",
    "repro.storage.engine.QueryEngine.partitioned_table": "the differential suite, which "
    "stays as it is, counts skipped shards through it",
    "repro.storage.sketches.TableSketches.is_nominal": _BENCH_NAMED,
    "repro.storage.sketches.TableSketches.merged_nominal": _BENCH_NAMED,
    "repro.storage.sketches.TableSketches.merged_quantile": _BENCH_NAMED,
    "repro.storage.sketches.TableSketches.merged_stats": _BENCH_NAMED,
}

#: Defaulted parameters no caller passes, with the reason each stays.
_UNPASSED_BY_DESIGN = {
    "repro.api.server.HTTPFrontServer.__init__(host)": "an address; both fronts pass it "
    "on through super().__init__, which the rule does not follow",
    "repro.api.server.HTTPFrontServer.__init__(port)": "an address; both fronts pass it "
    "on through super().__init__, which the rule does not follow",
    "repro.core.interestingness.SurpriseRanker(surprise_weight)": "E11 (the surprise "
    "ranking experiment) weighs the bonus with it",
    "repro.service.batching.BatchCoordinator.__init__(timeout_seconds)": "bench/spans.py "
    "wraps BatchCoordinator.counts as the batching layer's span",
    "repro.storage.sketches.NominalCountSketch.from_counts(cap)": _BENCH_NAMED,
    "repro.storage.sketches.TableSketches.__init__(budget)": _BENCH_NAMED,
    "repro.storage.zonemap.SkippingIndexes.count(zonemaps)": _ZONEMAP_SPAN,
    "repro.storage.zonemap.SkippingIndexes.query_mask(zonemaps)": _ZONEMAP_SPAN,
    **{
        f"repro.workloads.synthetic.{table}({parameter})": _E10
        for table, parameters in (
            ("make_gaussian_table", ("mean", "name", "rows", "seed", "std")),
            ("make_zipf_table", ("categories", "exponent", "name", "rows", "seed")),
        )
        for parameter in parameters
    },
}


def test_every_public_method_has_a_caller():
    assert unreferenced_methods(_sources(), _callers()) == sorted(_UNREFERENCED_BY_DESIGN)


def test_every_option_has_a_caller():
    assert unpassed_parameters(_sources(), _callers()) == sorted(_UNPASSED_BY_DESIGN)


def test_no_allow_list_entry_rests_on_a_test():
    reasons = {**_UNCALLED_BY_DESIGN, **_UNREFERENCED_BY_DESIGN, **_UNPASSED_BY_DESIGN}
    assert all(reason and not re.search(r"\btests? (use|call|pass)", reason) for reason in reasons.values())


_CLASS_C = (
    "def g():\n    return C()\n\n\n"
    "class C:\n"
    "    def m(self, a, b=1):\n        return self._h()\n\n"
    "    @property\n    def p(self):\n        return 0\n\n"
    "    def _h(self):\n        return 1\n\n\n"
    "class _D:\n    def n(self):\n        return 2\n"
)


@pytest.mark.parametrize("sources, unreferenced", [
    pytest.param({"repro.b.y": "g().m(1)\ng().p\n"}, [], id="called-and-read"),
    pytest.param({"examples/z.py": "c = g()\nc.m(1, 2)\nprint(c.p)\n"}, [], id="a-caller-file"),
    pytest.param({"repro.b.y": "g().m(1)\n"}, ["repro.a.x.C.p"], id="an-unread-property"),
    pytest.param({"repro.b.y": "C().m(1)\nC().p\n"}, ["repro.a.x.g"], id="an-uncalled-function"),
    pytest.param({}, ["repro.a.x.C.m", "repro.a.x.C.p", "repro.a.x.g"], id="never-used"),
    pytest.param(
        {"repro.b.y": '"""Calls :meth:`C.m`."""\ng().p\n'}, ["repro.a.x.C.m"], id="docstring",
    ),
])
def test_method_use_shapes(sources, unreferenced):
    modules = {"repro.a.x": _CLASS_C}
    callers = {}
    for where, source in sources.items():
        (modules if where.startswith("repro.") else callers)[where] = source
    assert unreferenced_methods(modules, callers) == unreferenced


_DEFINITIONS = (
    "from dataclasses import dataclass\n\n\n"
    "def f(a, b=1, *, c=2):\n    return a\n\n\n"
    "class C:\n"
    "    def __init__(self, size=4):\n        self.size = size\n\n"
    "    @classmethod\n    def small(cls):\n        return cls(size=1)\n\n"
    "    def m(self, a, b=1):\n        return a\n\n\n"
    "@dataclass\nclass FooConfig:\n    alpha: float = 0.01\n"
)
_UNPASSED_AT_FIRST = ["repro.a.x.C.m(b)", "repro.a.x.FooConfig(alpha)", "repro.a.x.f(b)", "repro.a.x.f(c)"]


@pytest.mark.parametrize("caller, unpassed", [
    pytest.param("", _UNPASSED_AT_FIRST, id="nothing-passes"),
    pytest.param("f(0, b=2, c=3)\n", ["repro.a.x.C.m(b)", "repro.a.x.FooConfig(alpha)"], id="keywords"),
    pytest.param("f(0, 2)\nC().m(0, 2)\n", ["repro.a.x.FooConfig(alpha)", "repro.a.x.f(c)"], id="positions"),
    pytest.param("f(*args, **options)\n", ["repro.a.x.C.m(b)", "repro.a.x.FooConfig(alpha)"], id="splats"),
    pytest.param(
        "from repro.a.x import f as g\ng(0, b=2)\n",
        ["repro.a.x.C.m(b)", "repro.a.x.FooConfig(alpha)", "repro.a.x.f(c)"], id="an-alias",
    ),
    pytest.param("FooConfig(alpha=0.05)\n", ["repro.a.x.C.m(b)", "repro.a.x.f(b)", "repro.a.x.f(c)"], id="a-config-field"),
    pytest.param("h(0, b=2)\n", _UNPASSED_AT_FIRST, id="another-name"),
    pytest.param("f(0)\nC().m(0)\n", _UNPASSED_AT_FIRST, id="defaults-only"),
])
def test_parameter_use_shapes(caller, unpassed):
    # ``C(size=…)`` is passed by the classmethod's ``cls(...)``.
    assert unpassed_parameters({"repro.a.x": _DEFINITIONS}, {"examples/z.py": caller}) == unpassed


# -- lock discipline --------------------------------------------------------------

_MUTATORS = {
    "append", "appendleft", "clear", "discard", "extend", "insert", "move_to_end",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
}

#: Unlocked mutations that are safe by design, with the reason.
_UNLOCKED_BY_DESIGN: Dict[str, str] = {}


def _owned_locks(cls: ast.ClassDef) -> Set[str]:
    """Attributes of ``cls`` that hold a lock (class level or set in ``__init__``)."""
    def creates_lock(value: ast.AST) -> bool:
        return any(_terminal(node) in ("Lock", "RLock") for node in ast.walk(value))

    locks = set()
    for item in cls.body:
        if isinstance(item, (ast.Assign, ast.AnnAssign)) and item.value and creates_lock(item.value):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            locks |= {target.id for target in targets if isinstance(target, ast.Name)}
        elif isinstance(item, ast.FunctionDef) and item.name in ("__init__", "__post_init__"):
            for node in ast.walk(item):
                if isinstance(node, ast.Assign) and creates_lock(node.value):
                    chains = [_chain(target) for target in node.targets]
                    locks |= {c[1] for c in chains if c and len(c) == 2 and c[0] == "self"}
    return locks


def _mutated(node: ast.AST, locks: Set[str]) -> Iterator[str]:
    """The ``self._*`` state ``node`` itself mutates (not its children)."""
    targets: List[ast.AST] = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and _terminal(node.func) in _MUTATORS:
        targets = [node.func.value] if isinstance(node.func, ast.Attribute) else []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            targets.extend(target.elts if not isinstance(target, ast.Starred) else [target.value])
            continue
        chain = _chain(target)
        if chain and len(chain) > 1 and chain[0] == "self" and chain[1].startswith("_"):
            if not (isinstance(node, ast.Call) and chain[1] in locks):
                yield ".".join(chain[1:])


def _unlocked(node: ast.AST, locks: Set[str], locked: bool) -> Iterator[Tuple[int, str]]:
    if isinstance(node, ast.ClassDef):
        return  # a nested class has its own self
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        locked = False  # a nested def may run after the lock is released
    if isinstance(node, (ast.With, ast.AsyncWith)):
        guards = {_chain(item.context_expr) for item in node.items}
        locked = locked or any(("self", lock) in guards for lock in locks)
        for statement in node.body:
            yield from _unlocked(statement, locks, locked)
        return
    if not locked:
        yield from ((node.lineno, f"self.{name}") for name in _mutated(node, locks))
    for child in ast.iter_child_nodes(node):
        yield from _unlocked(child, locks, locked)


def unlocked_mutations(source: str) -> List[str]:
    """``"Class.method:line self._x"`` per unlocked mutation in a lock-owning class."""
    found = []
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        locks = _owned_locks(cls)
        if not locks:
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__post_init__") or method.name.endswith("_locked"):
                continue
            for statement in method.body:
                for line, what in _unlocked(statement, locks, locked=False):
                    found.append(f"{cls.name}.{method.name}:{line} {what}")
    return found


def test_src_mutates_shared_state_under_its_locks():
    found = {m: unlocked_mutations(s) for m, s in _sources().items()}
    methods = {f.split(":")[0] for mutations in found.values() for f in mutations}
    unexplained = {
        m: [f for f in mutations if f.split(":")[0] not in _UNLOCKED_BY_DESIGN]
        for m, mutations in found.items()
    }
    assert {m: mutations for m, mutations in unexplained.items() if mutations} == {}
    assert set(_UNLOCKED_BY_DESIGN) <= methods, "an allow-list entry no longer applies"


PLANTED_RACE = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0
        self._entries = {}

    def record(self, counter, key):
        self._hits += 1
        counter.evaluations += 1
        self._entries.pop(key, None)
        with self._lock:
            self._entries[key] = 1
            def later():
                self._hits = 0
            self._drop_locked(key)

    def _drop_locked(self, key):
        del self._entries[key]
"""


def test_a_planted_unlocked_mutation_is_caught():
    assert unlocked_mutations(PLANTED_RACE) == [
        "Cache.record:11 self._hits",
        "Cache.record:13 self._entries",
        "Cache.record:17 self._hits",
    ]
    assert unlocked_mutations(PLANTED_RACE.replace("self._lock = threading.Lock()", "pass")) == []


def _method_of_a_locked_class(method: str) -> str:
    body = "\n".join("    " + line for line in method.strip("\n").splitlines())
    return (
        "import threading\n\nclass C:\n    def __init__(self):\n"
        "        self._lock = threading.Lock()\n        self._hits = 0\n"
        f"        self._entries = {{}}\n\n{body}\n"
    )


def _without_lines(found: List[str]) -> List[str]:
    return sorted(re.sub(r":\d+", "", f) for f in found)


@pytest.mark.parametrize("method, found", [
    pytest.param("def m(self):\n    with self._lock:\n        self._hits += 1\n", [], id="guarded"),
    pytest.param("def m(self):\n    with self._lock:\n        return dict(self._entries)\n", [], id="read-under-lock"),
    pytest.param("def _drop_locked(self, key):\n    self._entries.pop(key, None)\n", [], id="locked-helper"),
    pytest.param("def m(self):\n    self.hits = 1\n", [], id="public-attribute"),
    pytest.param("def m(self, other):\n    other._hits += 1\n    seen = []\n    seen.append(1)\n", [], id="not-self"),
    pytest.param(
        "def m(self):\n    class Inner:\n        def f(self):\n            self._x = 1\n    return Inner\n",
        [], id="nested-class-has-its-own-self",
    ),
    pytest.param("def m(self):\n    self._hits += 1\n", ["C.m self._hits"], id="augmented-assignment"),
    pytest.param("def m(self, k, v):\n    self._entries[k] = v\n", ["C.m self._entries"], id="subscript-store"),
    pytest.param("def m(self, k):\n    self._entries.pop(k, None)\n", ["C.m self._entries"], id="mutator-call"),
    pytest.param("def m(self, k):\n    del self._entries[k]\n", ["C.m self._entries"], id="delete"),
    pytest.param(
        "def m(self):\n    self._hits, self._entries = 0, {}\n",
        ["C.m self._entries", "C.m self._hits"], id="tuple-unpacking",
    ),
    pytest.param(
        "def m(self):\n    with self._lock:\n        def later():\n            self._hits = 0\n        return later\n",
        ["C.m self._hits"], id="nested-def-under-lock",
    ),
    pytest.param(
        "def m(self):\n    with self._lock:\n        return lambda: self._entries.clear()\n",
        ["C.m self._entries"], id="lambda-under-lock",
    ),
    pytest.param("def m(self, other):\n    with other._lock:\n        self._hits += 1\n", ["C.m self._hits"], id="someone-elses-lock"),
    pytest.param("def m(self):\n    with self._lock:\n        pass\n    self._hits += 1\n", ["C.m self._hits"], id="after-the-with"),
])
def test_lock_discipline_shapes(method, found):
    assert _without_lines(unlocked_mutations(_method_of_a_locked_class(method))) == found


@pytest.mark.parametrize("declare, guard, found", [
    pytest.param("    def __init__(self):\n        self._lock = threading.RLock()", "_lock", ["C.m self._hits"], id="rlock"),
    pytest.param("    _lock = threading.Lock()", "_lock", ["C.m self._hits"], id="class-attribute"),
    pytest.param("    _lock: threading.Lock = threading.Lock()", "_lock", ["C.m self._hits"], id="annotated-class-attribute"),
    pytest.param("    def __init__(self):\n        self._mu = Lock()", "_mu", ["C.m self._hits"], id="imported-name"),
    pytest.param("    def __post_init__(self):\n        self._lock = threading.Lock()", "_lock", ["C.m self._hits"], id="post-init"),
    pytest.param("    def __init__(self):\n        self._hits = 0", "_lock", [], id="lock-free-class"),
])
def test_lock_owners_are_recognised(declare, guard, found):
    source = (
        f"import threading\nfrom threading import Lock\n\nclass C:\n{declare}\n\n"
        f"    def m(self):\n        self._hits += 1\n        with self.{guard}:\n            self._hits += 1\n"
    )
    assert _without_lines(unlocked_mutations(source)) == found


# -- counter discipline -----------------------------------------------------------


def counter_increments(source: str) -> List[int]:
    """Lines that ``+=`` a tally instead of going through ``OperationCounter.add``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and (
            node.target.attr in OperationCounter._FIELDS
            or _terminal(node.target.value) in ("counter", "_counter")
        )
    ]


def test_src_changes_counters_through_add():
    offenders = {m: counter_increments(s) for m, s in _sources().items()}
    assert {m: lines for m, lines in offenders.items() if lines} == {}


def test_a_planted_counter_increment_is_caught():
    assert counter_increments(PLANTED_RACE) == [12]
    assert counter_increments("self._counter.anything += 1\nstats.count_calls += 2\n") == [1, 2]


@pytest.mark.parametrize("source, lines", [
    pytest.param("counter.count_calls += 1\n", [1], id="tally-field"),
    pytest.param("engine.counter.whatever += 2\n", [1], id="counter-receiver"),
    pytest.param("stats.evaluations -= 1\n", [1], id="any-augmented-operator"),
    pytest.param("counter.add(count_calls=1, cache_hits=2)\ncounter.merge(other)\n", [], id="add-and-merge"),
    pytest.param("trace.pair_cache_rounds += 1\n", [], id="unrelated-attribute"),
    pytest.param("total = 0\ntotal += 1\n", [], id="local-name"),
])
def test_counter_discipline_shapes(source, lines):
    assert counter_increments(source) == lines


# -- the codec: every tag decodes, and the bytes do not depend on hash order -------


def emitted_tags(source: str) -> Set[str]:
    """The literal ``"$type"`` tags a codec source writes into dicts."""
    return {
        value.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "$type" and isinstance(value, ast.Constant)
    }


def unordered_iterations(source: str) -> List[int]:
    """Lines that iterate a set, a ``set(...)``/``frozenset(...)`` or ``.keys()``."""
    iterables: List[ast.expr] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iterables.extend(generator.iter for generator in node.generators)
    return sorted(
        it.lineno
        for it in iterables
        if isinstance(it, (ast.Set, ast.SetComp))
        or isinstance(it, ast.Call)
        and (
            isinstance(it.func, ast.Name) and it.func.id in ("set", "frozenset")
            or isinstance(it.func, ast.Attribute) and it.func.attr == "keys"
        )
    )


def test_codec_emits_exactly_the_tags_it_decodes():
    assert emitted_tags(_sources()["repro.api.codec"]) == set(_OBJECT_DECODERS)


def test_codec_iterates_nothing_unordered():
    assert unordered_iterations(_sources()["repro.api.codec"]) == []


def test_a_planted_unordered_iteration_is_caught():
    planted = "for tag in {'b', 'a'}:\n    pass\nx = [k for k in d.keys()]\ny = [v for v in sorted(s)]\n"
    assert unordered_iterations(planted) == [1, 3]
    assert emitted_tags("def f(x):\n    return {'$type': 'ghost'}\n") - set(_OBJECT_DECODERS)


@pytest.mark.parametrize("source, lines", [
    pytest.param("out = [v for v in set(values)]\n", [1], id="set-call"),
    pytest.param("out = [v for v in frozenset(values)]\n", [1], id="frozenset-call"),
    pytest.param("for key in mapping.keys():\n    pass\n", [1], id="keys"),
    pytest.param("out = list(k for k in mapping.keys())\n", [1], id="keys-in-generator"),
    pytest.param("out = {k: 1 for k in {x for x in xs}}\n", [1], id="set-comprehension"),
    pytest.param("for key in sorted(mapping.keys()):\n    pass\n", [], id="sorted-keys"),
    pytest.param("out = [v for v in sorted(values, key=str)]\n", [], id="sorted-values"),
    pytest.param("for key, value in mapping.items():\n    pass\n", [], id="insertion-ordered-items"),
])
def test_codec_ordering_shapes(source, lines):
    assert unordered_iterations(source) == lines


@pytest.mark.parametrize("source, tags", [
    pytest.param("def f(v):\n    return {'$type': 'span', 'lo': v.lo}\n", {"span"}, id="one-tag"),
    pytest.param("x = {'$type': 'mark', 'at': {'$type': 'point'}}\n", {"mark", "point"}, id="nested-tags"),
    pytest.param("x = {'bytes': [], '$set': [1]}\n", set(), id="untagged"),
])
def test_emitted_tag_shapes(source, tags):
    assert emitted_tags(source) == tags


# -- things that stay deleted -----------------------------------------------------

#: Every tree a user reads or copies from.
_USER_FACING = ("src", "docs", "README.md", "examples", "benchmarks")

#: The top-level text of a call's arguments on one line: a nested call
#: (``generate_voc(seed=7)``) or a string literal (a spec's ``workers=2``)
#: is consumed whole, so only the call's own keywords can follow it.
_CALL_ARGS = r"""(?:[^()"']|\([^()]*\)|"[^"]*"|'[^']*')*"""

#: (why, a pattern no line may match, where to look, files allowed to match it)
_FORBIDDEN = [
    pytest.param(
        "the INDEP strategy knobs stay deleted",
        r"batch_indep|parallel_rounds|no[-_]batching", ("src", "docs", "README.md"), (),
        id="indep-knobs",
    ),
    pytest.param(
        "there is one approximate view",
        r"approx=|SampledEngine", ("src", "docs", "README.md"), (),
        id="one-approximate-view",
    ),
    pytest.param(
        "memory is freed by ownership, never by the collector: a superseded version or a "
        "closed session must die by reference count (docs/architecture.md, Memory "
        "lifetime); a collector call or a finalizer would hide a cycle instead of removing it",
        r"gc\.collect\(|gc\.freeze\(|def __del__", ("src",), (),
        id="no-collector",
    ),
    pytest.param(
        "one HTTP transport, and it keeps its connections: RemoteAdvisor frames HTTP/1.1 "
        "itself over persistent connections (docs/api.md, Connections); urlopen is a "
        "connection per request",
        r"urlopen", ("src",), (),
        id="one-http-transport",
    ),
    pytest.param(
        "the server and the client frame HTTP/1.1 themselves: the standard library's HTTP "
        "stack loads email and ssl into every serving process (docs/architecture.md, What "
        "the front door imports)",
        r"http\.server|http\.client", ("src",), (),
        id="own-http-framing",
    ),
    pytest.param(
        "shards are for skipping, not for threads: the engine evaluates every shard "
        "inline and keeps no pool or CPU-sized shard rule; the only executor replays "
        "serve --simulate's users (docs/architecture.md, Shards)",
        r"ShardPool|shared_pool|available_cpus|shard_count\(|FANOUT_MIN_ROWS_PER_SHARD"
        r"|Executor\(",
        ("src",), ("src/repro/workloads/concurrent.py",),
        id="no-engine-threads",
    ),
    pytest.param(
        "the engine starts no thread: no spec key, service option, node option or flag sets "
        "a worker count (docs/architecture.md, Shards)",
        rf"[?&]workers=|\bAdvisorService\({_CALL_ARGS}\bworkers=|[\"']workers[\"']"
        r"|cluster serve.*--workers",
        _USER_FACING, (),
        id="no-workers-knob",
    ),
    pytest.param(
        "only servers and the health monitor start threads: a request runs on the thread "
        "that submitted it; refine is one exact advise through the advice cache, not a "
        "background thread (docs/architecture.md, Approximate-first advise)",
        r"threading\.Thread\(", ("src",),
        ("src/repro/api/server.py", "src/repro/cluster/health.py", "src/repro/cluster/node_main.py"),
        id="few-thread-starters",
    ),
    pytest.param(
        "cluster nodes are plain subprocesses: multiprocessing brings a resource-tracker "
        "process and re-imports the parent's __main__ in every node (docs/architecture.md)",
        r"^(import|from) multiprocessing", ("src/repro/cluster", "src/repro/api"), (),
        id="no-multiprocessing",
    ),
    pytest.param(
        "an operation's captured LiveState, or any reference to an immutable snapshot, "
        "isolates a reader; nothing pins a version (docs/architecture.md, Memory lifetime)",
        r"VersionPin|retained_versions|\.pin\(", ("src", "docs", "README.md"), (),
        id="no-version-pins",
    ),
    pytest.param(
        "charles profile rescans through profile_backend; no statistics are maintained per "
        "ingest",
        r"IncrementalTableProfile", ("src", "docs", "README.md"), (),
        id="no-incremental-profile",
    ),
    pytest.param(
        "open_backend knows memory and sqlite; any other engine is passed as an "
        "ExecutionBackend instance (docs/architecture.md, Backends)",
        r"BackendRegistry|register_backend|default_registry", ("src", "docs", "README.md"), (),
        id="no-backend-registry",
    ),
    pytest.param(
        "HB-cuts asks for one median at a time; a batched median had no caller",
        r"median_batch", ("src", "docs", "README.md"), (),
        id="no-median-batch",
    ),
    pytest.param(
        "sampled default data is spelled once, as the spec's sample=f&seed=s "
        "(docs/architecture.md, Approximate-first advise)",
        r"sample_fraction", _USER_FACING, (),
        id="one-sampling-spelling",
    ),
    pytest.param(
        "serve --workers sizes only --simulate's user threads; shards are the spec's "
        "partitions=N",
        r"--engine-workers", _USER_FACING, (),
        id="no-engine-workers",
    ),
    pytest.param(
        "Charles takes table, config, ranker and backend: shards, cache size and sampling "
        "are the backend spec's, and the engine starts no thread (docs/architecture.md, "
        "Shards)",
        rf"Charles\({_CALL_ARGS}\b(workers|partitions|pool|cache_size|seed)=",
        _USER_FACING, (),
        id="charles-takes-a-spec",
    ),
    pytest.param(
        "a table's shard count is its spec's partitions=N, reported under its backend stats",
        rf"AdvisorService\({_CALL_ARGS}\bpartitions=", _USER_FACING, (),
        id="service-shards-in-the-spec",
    ),
    pytest.param(
        "heterogeneous segmentations (§5.2) had no caller but tests and half of E11; the "
        "Figure 4 loop cuts every piece on the same attribute",
        r"heterogeneous", ("src", "examples", "benchmarks"), (),
        id="no-heterogeneous-cuts",
    ),
    pytest.param(
        "the multi-level pie had no caller but its tests; advice renders as pie charts, "
        "tree maps and reports",
        r"multilevel|hierarchy_of", ("src", "examples", "benchmarks"), (),
        id="no-multilevel-pie",
    ),
    pytest.param(
        "one profiler: Charles.profile runs profile_backend on the exact engine, so every "
        "backend is profiled through the same aggregates",
        r"profile_table|profile_column", _USER_FACING, (),
        id="one-profiler",
    ),
    pytest.param(
        "a query carries its own cache key (SDLQuery.key), and mask reuse finds a parent "
        "only by relaxing one predicate to attr: and peeking that key",
        r"hint_parent|refinement_delta|predicate_implies|query_signature",
        ("src", "examples", "benchmarks"), (),
        id="query-carries-its-key",
    ),
    pytest.param(
        "a nominal set or exclusion is one lookup-table pass over the column's codes; "
        "the per-value bitmap tier is deleted",
        r"BitmapIndex|bitmap_lookup|repro\.storage\.index",
        ("src", "examples", "benchmarks"), (),
        id="one-set-kernel",
    ),
    pytest.param(
        "a zone map is each shard's numeric min and max; distinct sets and the set and "
        "exclusion pruning they fed are deleted",
        r"class ZoneMap\b|DEFAULT_DISTINCT_CAP|distinct_cap", ("src",), (),
        id="zone-maps-are-min-max",
    ),
    pytest.param(
        "a query binds to its table once: repro.storage.expression.bind gives each literal "
        "its column's type and raises every query error before a row is touched, so no "
        "column, backend or zone map encodes literals or probes for errors (docs/sdl.md, "
        "Binding)",
        r"_encode_bound|_encode_literal|_encode_predicate|def _probe", ("src",), (),
        id="one-literal-rule",
    ),
    pytest.param(
        "the front half of every aggregate (tally, bind, key, aggregate cache, batch "
        "deduplication, latency) is AggregateFrontEnd's alone; a backend supplies only "
        "uncached primitives (docs/architecture.md, Backends)",
        r"deduplicated_count_batch|def _aggregate_(get|put)\b", ("src",),
        ("src/repro/storage/engine.py",),
        id="one-aggregate-front-end",
    ),
    pytest.param(
        "every backend has an int data_version, a sibling() and set_metrics_sink "
        "(ExecutionBackend, AggregateFrontEnd, BackendWrapper): a fallback stands for a "
        "backend that cannot exist",
        r"getattr\([^)]*[\"'](data_version|set_metrics_sink)[\"'],\s*None\)"
        r"|hasattr\([^)]*[\"']sibling[\"']\)",
        ("src",), (),
        id="backend-members-are-required",
    ),
    pytest.param(
        "a cache entry is one record with an int data version: get, peek, put and "
        "get_or_compute require it, and no entry is unversioned (docs/analysis.md)",
        r"\bversion=None\b", ("src",), (),
        id="no-unversioned-entry",
    ),
    pytest.param(
        "empty pieces are dropped (Definition 3: they add nothing); only product() keeps "
        "Figure 2's empty cells on request (docs/sdl.md, Cutting)",
        r"drop_empty=", ("src",), ("src/repro/core/product.py",),
        id="empty-pieces-dropped",
    ),
    pytest.param(
        "a nominal attribute of fewer than 12 distinct values is ordered by frequency, "
        "alphabetically otherwise, and a piece that cannot be cut is kept whole: neither "
        "is a parameter (docs/sdl.md, Cutting)",
        r"low_cardinality_threshold|\bstrict=", ("src/repro/core",), (),
        id="cut-rules-fixed",
    ),
    pytest.param(
        "a string column's dictionary is NumPy arrays looked up through a hash index, with "
        "no Python object per text: no dict from text to code (docs/architecture.md, "
        "Process start-up and footprint)",
        r"_index_of", ("src",), (),
        id="no-text-to-code-dict",
    ),
]


def _lines(where: Tuple[str, ...]) -> Iterator[Tuple[str, int, str]]:
    for name in where:
        root = ROOT / name
        for path in [root] if root.is_file() else sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                text = path.read_text(encoding="utf-8", errors="replace")
                for number, line in enumerate(text.splitlines(), start=1):
                    yield path.relative_to(ROOT).as_posix(), number, line


@pytest.mark.parametrize("why, pattern, where, allowed", _FORBIDDEN)
def test_stays_deleted(why, pattern, where, allowed):
    hits = [
        f"{path}:{number}: {line.strip()}"
        for path, number, line in _lines(where)
        if path not in allowed and re.search(pattern, line)
    ]
    assert hits == [], why


#: A line each pattern of ``_FORBIDDEN`` exists to catch.
_PLANTED_LINES = {
    "indep-knobs": "config = HBCutsConfig(batch_indep=True)",
    "one-approximate-view": "advisor = Charles(table, approx=0.1)",
    "no-collector": "    def __del__(self):",
    "one-http-transport": "    with urllib.request.urlopen(url) as response:",
    "own-http-framing": "from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer",
    "no-engine-threads": "        return shared_pool().map",
    "no-workers-knob": 'backend = open_backend("memory?partitions=4&workers=2", table)',
    "few-thread-starters": "threading.Thread(target=refine, daemon=True).start()",
    "no-multiprocessing": "from multiprocessing import Process",
    "no-version-pins": "        with source.pin() as pin:",
    "no-incremental-profile": "from repro.live.profile import IncrementalTableProfile",
    "no-backend-registry": 'register_backend("duckdb", factory)',
    "no-median-batch": '    medians = engine.median_batch("tonnage", queries)',
    "one-sampling-spelling": "advisor = Charles(table, sample_fraction=0.1, seed=7)",
    "no-engine-workers": "charles serve --simulate --workers 4 --engine-workers 4",
    "charles-takes-a-spec": "advisor = Charles(generate_voc(rows=500), workers=4, partitions=4)",
    "service-shards-in-the-spec": "service = AdvisorService(table, workers=2, partitions=4)",
    "no-heterogeneous-cuts": "from repro.core.heterogeneous import greedy_heterogeneous",
    "no-multilevel-pie": "print(multilevel_pie(hierarchy_of(segmentation)))",
    "one-profiler": "    return profile_table(self.table, context=resolved, engine=self.engine)",
    "query-carries-its-key": '        key = "mask:" + query_signature(query)',
    "one-set-kernel": "from repro.storage.index import BitmapIndex",
    "zone-maps-are-min-max": "zone = ZoneMap(shard.column(attribute), distinct_cap=256)",
    "one-literal-rule": "        low = column._encode_bound(predicate.low)",
    "one-aggregate-front-end": "    def _aggregate_get(self, key: str) -> Optional[Any]:",
    "backend-members-are-required": '        return getattr(self.engine, "data_version", None)',
    "no-unversioned-entry": "        self._cache.put(key, value, version=None)",
    "empty-pieces-dropped": "            result = cut_segmentation(engine, result, attribute, drop_empty=False)",
    "cut-rules-fixed": "    ordered = nominal_value_order(frequencies, low_cardinality_threshold=20)",
    "no-text-to-code-dict": "            code = self._index_of.get(text)",
}


@pytest.mark.parametrize("pattern, planted", [
    pytest.param(param.values[1], _PLANTED_LINES[param.id], id=param.id) for param in _FORBIDDEN
])
def test_a_planted_line_is_caught(pattern, planted):
    assert re.search(pattern, planted)


def _forbidden(case: str) -> Tuple[str, str, Tuple[str, ...], Tuple[str, ...]]:
    """``(why, pattern, where, allowed)`` of the ``_FORBIDDEN`` case ``case``."""
    return next(param.values for param in _FORBIDDEN if param.id == case)


#: One line per name of the deleted thread fan-out tier, and per executor.
_ENGINE_THREAD_LINES = [
    "_POOL = ShardPool(2)",
    "from repro.storage.partition import shared_pool",
    "        workers = min(available_cpus(), MAX_WORKERS)",
    "        shards = shard_count(table.num_rows, available_cpus())",
    "FANOUT_MIN_ROWS_PER_SHARD = 2_000_000",
    "        self._executor = ThreadPoolExecutor(max_workers=workers)",
    "    with ProcessPoolExecutor(max_workers=2) as executor:",
]


@pytest.mark.parametrize("planted", _ENGINE_THREAD_LINES)
def test_every_name_of_the_fan_out_tier_is_caught(planted):
    _, pattern, _, _ = _forbidden("no-engine-threads")
    assert re.search(pattern, planted)


def test_the_one_executor_allowance_is_still_used():
    # The allowance is no blanket: the simulated users' executor is there.
    _, pattern, where, allowed = _forbidden("no-engine-threads")
    hits = {path for path, _, line in _lines(where) if re.search(pattern, line)}
    assert hits == set(allowed)


# -- the strict-typing gate -------------------------------------------------------

#: Generic types mypy --strict rejects without parameters.
_GENERICS = {
    "tuple", "list", "dict", "set", "frozenset", "deque", "defaultdict", "Tuple", "List",
    "Dict", "Set", "FrozenSet", "Deque", "DefaultDict", "OrderedDict", "Type", "Callable",
    "Iterable", "Iterator", "Generator", "Sequence", "Mapping", "MutableMapping",
    "AbstractSet", "Collection", "ndarray", "dtype",
}


def annotation_gaps(source: str) -> List[str]:
    """``"line what"`` per unannotated parameter or return, and per bare generic."""
    gaps, annotations = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        params = [p for p in params if p is not None]
        if params and params[0].arg in ("self", "cls") and params[0].annotation is None:
            params = params[1:]
        gaps += [f"{node.lineno} {node.name}({p.arg}) unannotated" for p in params if not p.annotation]
        if node.returns is None:
            gaps.append(f"{node.lineno} {node.name} has no return annotation")
        annotations += [p.annotation for p in params if p.annotation] + [node.returns]
    for annotation in filter(None, annotations):
        tree: ast.AST = annotation
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            tree = ast.parse(annotation.value, mode="eval")
        parametrised = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Subscript)}
        gaps += [
            f"{annotation.lineno} bare {_terminal(n)}"
            for n in ast.walk(tree)
            if _terminal(n) in _GENERICS and id(n) not in parametrised
        ]
    return gaps


def _strictly_typed() -> Dict[str, str]:
    """The modules of ``[tool.mypy] files``: dotted name → source text."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as handle:
        files = tomllib.load(handle)["tool"]["mypy"]["files"]
    prefixes = [".".join(Path(f).relative_to("src").with_suffix("").parts) for f in files]
    return {
        module: source
        for module, source in _sources().items()
        if any(module == p or module.startswith(p + ".") for p in prefixes)
    }


def test_strictly_typed_modules_are_fully_annotated():
    typed = {m: annotation_gaps(s) for m, s in _strictly_typed().items()}
    assert "repro.api.codec" in typed and "repro.errors" in typed
    assert {m: gaps for m, gaps in typed.items() if gaps} == {}


def test_planted_annotation_gaps_are_caught():
    planted = (
        "def f(x, y: int) -> tuple:\n"
        "    z: 'Dict[str, List]' = {}\n"
        "class C:\n"
        "    def m(self, *args: np.ndarray) -> Optional[FrozenSet[int]]: ...\n"
    )
    assert sorted(annotation_gaps(planted)) == [
        "1 bare tuple",
        "1 f(x) unannotated",
        "2 bare List",
        "4 bare ndarray",
    ]


@pytest.mark.parametrize("source, gaps", [
    pytest.param("def f(x: int) -> int: ...\n", [], id="annotated"),
    pytest.param("def f(x: int): ...\n", ["1 f has no return annotation"], id="no-return"),
    pytest.param("def f(*args, **kwargs) -> None: ...\n", ["1 f(args) unannotated", "1 f(kwargs) unannotated"], id="star-args"),
    pytest.param("def f(*, key) -> None: ...\n", ["1 f(key) unannotated"], id="keyword-only"),
    pytest.param("async def f() -> dict: ...\n", ["1 bare dict"], id="async-bare-return"),
    pytest.param(
        "class C:\n    def m(self) -> None: ...\n    @classmethod\n    def k(cls) -> None: ...\n",
        [], id="self-and-cls",
    ),
    pytest.param("def f() -> Dict[str, Tuple[int, ...]]: ...\n", [], id="nested-parameters"),
    pytest.param("def f(g: Callable[[int], str]) -> Callable: ...\n", ["1 bare Callable"], id="bare-callable"),
    pytest.param("def f(x: 'Optional[list]') -> None: ...\n", ["1 bare list"], id="bare-inside-string"),
    pytest.param("x: set = set()\n", ["1 bare set"], id="variable-annotation"),
])
def test_annotation_gap_shapes(source, gaps):
    assert sorted(annotation_gaps(source)) == gaps


def test_mypy_strict_gate_passes():
    """Runs only where mypy is installed (the CI static-analysis job)."""
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy"], cwd=ROOT, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
