"""Static import graph over the ``repro`` package.

The layering and determinism rules of :mod:`repro.lint` need to answer
two questions without running any code:

* which modules does ``import repro.api`` pull in *at import time*
  (function-level imports are lazy and do not count)?
* which modules can :func:`repro.campaign.runner.execute_cell` possibly
  reach at *run* time (here lazy imports count — a worker executes them)?

* which modules can *anything* reach — an artifact, :mod:`repro.api` or
  a command-line entry point (:meth:`ImportGraph.live`, CARD-L03)?

All reduce to reachability over one graph: every module of the package
is a node, every ``import``/``from … import`` statement an edge tagged
with whether it executes at import time (``deferred=False``) or only
when the enclosing function runs (``deferred=True``).  Imports guarded
by ``typing.TYPE_CHECKING`` never execute and are recorded as deferred.

Python semantics matter for closures: importing ``repro.campaign.store``
also executes ``repro/__init__.py`` and ``repro/campaign/__init__.py``,
so the closure always includes every ancestor package of a reached
module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["ImportEdge", "ImportGraph", "build_graph"]


@dataclass(frozen=True)
class ImportEdge:
    """One ``import`` statement, resolved to an internal module."""

    src: str
    dst: str
    lineno: int
    #: True when the import only executes if some function is called
    #: (function body or ``TYPE_CHECKING`` guard).
    deferred: bool
    #: ``from dst import a, b as c``: the names taken from ``dst``
    #: (``("a", "b")``) and the local names bound (``("a", "c")``);
    #: submodules are edges of their own.  ``None`` for ``import dst``,
    #: which binds the whole module.
    names: Optional[Tuple[str, ...]] = None
    binds: Tuple[str, ...] = ()


@dataclass
class ImportGraph:
    """Modules of one package and the import edges between them."""

    #: package name the graph was built for (``"repro"``)
    root: str
    #: dotted module name -> source file
    modules: Dict[str, Path] = field(default_factory=dict)
    #: dotted module name -> outgoing edges
    edges: Dict[str, List[ImportEdge]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def ancestors(self, module: str) -> List[str]:
        """Known package modules that importing ``module`` also executes."""
        parts = module.split(".")
        out = []
        for i in range(1, len(parts)):
            pkg = ".".join(parts[:i])
            if pkg in self.modules:
                out.append(pkg)
        return out

    def imports_of(self, module: str, *, include_deferred: bool) -> List[ImportEdge]:
        return [
            e
            for e in self.edges.get(module, ())
            if include_deferred or not e.deferred
        ]

    # ------------------------------------------------------------------
    def closure(
        self,
        roots: Sequence[str],
        *,
        include_deferred: bool,
        follow_ancestors: bool = True,
    ) -> Set[str]:
        """Every known module reachable from ``roots`` (roots included).

        ``follow_ancestors=True`` models real import semantics: reaching
        ``a.b.c`` also executes packages ``a`` and ``a.b`` — and follows
        whatever *they* import.  Layering checks pass ``False``: an edge
        into a module's own ancestor package (the root facade) is a
        re-export artifact, not a dependency, and following the facade
        would make every layer "reach" every other.
        """
        return set(
            self._walk(
                roots,
                include_deferred=include_deferred,
                follow_ancestors=follow_ancestors,
            )
        )

    def chain(
        self,
        roots: Sequence[str],
        target: str,
        *,
        include_deferred: bool,
        follow_ancestors: bool = True,
    ) -> Optional[List[str]]:
        """A shortest root → … → ``target`` import chain, or ``None``."""
        parents = self._walk(
            roots,
            include_deferred=include_deferred,
            follow_ancestors=follow_ancestors,
        )
        if target not in parents:
            return None
        path = [target]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        return list(reversed(path))

    def _walk(
        self,
        roots: Sequence[str],
        *,
        include_deferred: bool,
        follow_ancestors: bool,
    ) -> Dict[str, Optional[str]]:
        """BFS; returns reached module -> parent (None for roots)."""
        parents: Dict[str, Optional[str]] = {}
        queue: List[str] = []

        def reach(module: str, parent: Optional[str]) -> None:
            if module in parents or module not in self.modules:
                return
            parents[module] = parent
            queue.append(module)
            if follow_ancestors:
                # importing a module executes its ancestor packages too
                for pkg in self.ancestors(module):
                    reach(pkg, module)

        for root in roots:
            reach(root, None)
        while queue:
            current = queue.pop(0)
            for edge in self.imports_of(
                current, include_deferred=include_deferred
            ):
                if not follow_ancestors and current.startswith(
                    edge.dst + "."
                ):
                    # `from repro import x` inside repro.y.z — the root
                    # package already ran before this module could exist
                    continue
                reach(edge.dst, current)
        return parents

    def is_package(self, module: str) -> bool:
        """True when ``module`` is a package (its file is ``__init__.py``)."""
        path = self.modules.get(module)
        return path is not None and path.name == "__init__.py"

    def live(self, roots: Sequence[str]) -> Set[str]:
        """Modules whose code some root can execute (CARD-L03).

        The walk is :meth:`closure` with deferred imports and without
        ancestor re-exports, plus the ancestor packages of every reached
        module, refined for package re-exports: ``from pkg import name``
        into a package that is not a root follows only the
        ``pkg/__init__`` imports that bind ``name``.  A module re-exported
        by a package ``__init__`` is therefore live only when a live
        module imports it, directly or by name through the package.
        """
        whole: Set[str] = set()  # modules walked in full
        taken: Dict[str, Set[str]] = {}  # package -> names resolved
        queue: List[Tuple[str, Optional[Tuple[str, ...]]]] = [
            (r, None) for r in roots if r in self.modules
        ]
        while queue:
            module, names = queue.pop()
            if module in whole:
                continue
            if (
                names is not None
                and "*" not in names
                and self.is_package(module)
            ):
                seen = taken.setdefault(module, set())
                wanted = set(names) - seen
                seen |= wanted
                exports = [
                    e
                    for e in self.imports_of(module, include_deferred=True)
                    if wanted & set(e.binds)
                ]
                if wanted <= {b for e in exports for b in e.binds}:
                    queue.extend((e.dst, e.names) for e in exports)
                    continue
                # a name the package defines itself: its code runs
            whole.add(module)
            for edge in self.imports_of(module, include_deferred=True):
                if not module.startswith(edge.dst + "."):
                    queue.append((edge.dst, edge.names))
        reached = (whole | set(taken)) & set(self.modules)
        return reached.union(*(self.ancestors(m) for m in reached))

    # ------------------------------------------------------------------
    def toplevel_cycles(self) -> List[List[str]]:
        """Module-level import cycles (each a list of dotted names).

        A non-trivial strongly-connected component over the
        ``deferred=False`` edges means a fresh ``import`` of any member
        can hit a partially-initialised module, depending on which side
        is imported first.  Returns ``[]`` for a sound layering.
        """
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(node: str) -> None:
            # iterative Tarjan (the graph is small but recursion depth
            # should not depend on package size)
            work = [(node, iter(self._toplevel_neighbors(node)))]
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, neighbors = work[-1]
                advanced = False
                for nxt in neighbors:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(self._toplevel_neighbors(nxt))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[current] = min(low[current], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[current])
                if low[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for module in sorted(self.modules):
            if module not in index:
                strongconnect(module)
        return sccs

    def _toplevel_neighbors(self, module: str) -> List[str]:
        """Module bodies an import in ``module`` can cause to execute.

        Edges into ``module``'s own ancestor packages are skipped — those
        packages are necessarily already in ``sys.modules`` (partially
        initialised at worst) when ``module``'s body runs, so they cannot
        re-execute.  The same holds for a destination's ancestors that
        ``module`` shares: only packages that first execute *because of*
        this edge count toward a cycle.
        """
        own = set(self.ancestors(module))
        seen: Set[str] = set()
        out: List[str] = []
        for edge in self.imports_of(module, include_deferred=False):
            if edge.dst in own:
                continue
            for dst in [edge.dst, *self.ancestors(edge.dst)]:
                if dst in own or dst == module:
                    continue
                if dst not in seen and dst in self.modules:
                    seen.add(dst)
                    out.append(dst)
        return out


# ----------------------------------------------------------------------
def _module_name(root: str, package_root: Path, path: Path) -> Optional[str]:
    rel = path.relative_to(package_root)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root, *parts]) if parts else root


def _is_type_checking_guard(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING":
            return True
    return False


class _ImportCollector(ast.NodeVisitor):
    """Collect internal import edges of one module."""

    def __init__(self, graph: ImportGraph, module: str) -> None:
        self.graph = graph
        self.module = module
        self.edges: List[ImportEdge] = []
        self._depth = 0  # function nesting ⇒ deferred
        self._guarded = 0  # TYPE_CHECKING nesting ⇒ deferred

    # -- deferral context ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_guard(node.test):
            self._guarded += 1
            for child in node.body:
                self.visit(child)
            self._guarded -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    @property
    def _deferred(self) -> bool:
        return self._depth > 0 or self._guarded > 0

    # -- import statements ---------------------------------------------
    def _add(
        self,
        dst: str,
        lineno: int,
        names: Optional[Tuple[str, ...]] = None,
        binds: Tuple[str, ...] = (),
    ) -> None:
        root = self.graph.root
        if dst == root or dst.startswith(root + "."):
            self.edges.append(
                ImportEdge(
                    self.module, dst, lineno, self._deferred, names, binds
                )
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node.lineno)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # resolve `from .x import y` against this module's package
            parts = self.module.split(".")
            # a package module (its file is __init__.py) is its own package
            is_package = self.graph.is_package(self.module)
            cut = len(parts) - node.level + (1 if is_package else 0)
            if cut < 1:
                return
            base = ".".join(
                parts[:cut] + ([node.module] if node.module else [])
            )
        else:
            base = node.module or ""
        if not base:
            return
        taken = [
            alias
            for alias in node.names
            if f"{base}.{alias.name}" not in self.graph.modules
        ]
        self._add(
            base,
            node.lineno,
            tuple(a.name for a in taken),
            tuple(a.asname or a.name for a in taken),
        )
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            if candidate in self.graph.modules:
                self._add(candidate, node.lineno)


def build_graph(package_root: Path, *, root: Optional[str] = None) -> ImportGraph:
    """Parse every module under ``package_root`` into an :class:`ImportGraph`.

    ``package_root`` is the package directory itself (``…/src/repro``);
    ``root`` defaults to its name.  Files that fail to parse are skipped
    — the lint engine reports syntax errors separately.
    """
    package_root = Path(package_root)
    graph = ImportGraph(root=root or package_root.name)
    files: List[Tuple[str, Path]] = []
    for path in sorted(package_root.rglob("*.py")):
        name = _module_name(graph.root, package_root, path)
        if name is not None:
            graph.modules[name] = path
            files.append((name, path))
    for name, path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        collector = _ImportCollector(graph, name)
        collector.visit(tree)
        graph.edges[name] = collector.edges
    return graph
