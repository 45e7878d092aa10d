"""Package indexing for the simulatability analyzer.

Parses every module of a package into an AST once and builds the symbol
tables the call-graph layer needs: per-module import aliases (resolved to
fully-qualified dotted names), module-level functions, classes with their
methods, and the ``# simulatability:`` pragma lines of each file.

The index is purely syntactic — nothing is imported or executed — so it can
analyse a source tree that is not installed (the CLI's ``--package-dir``)
and tests can analyse modified sources via ``source_overrides``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: ``# simulatability: violation -- reason`` (reason optional).  Legacy
#: syntax; covers the SIM rule family only.
PRAGMA_RE = re.compile(
    r"#\s*simulatability:\s*violation\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)

#: ``# audit: DET001 -- reason`` / ``# audit: WAL001,BUD001 -- reason``.
#: Rule tokens may be full IDs (``DET003``) or family prefixes (``DET``).
AUDIT_PRAGMA_RE = re.compile(
    r"#\s*audit:\s*(?P<rules>[A-Z]{2,4}\d*(?:\s*,\s*[A-Z]{2,4}\d*)*)"
    r"\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Pragma:
    """One documented-violation pragma line.

    ``rules`` is None for the legacy ``# simulatability: violation`` form
    (which covers the SIM family); otherwise the explicit rule IDs or
    family prefixes of an ``# audit:`` pragma.
    """

    reason: str
    rules: Optional[frozenset] = None

    def covers(self, rule: str) -> bool:
        if self.rules is None:
            return rule.startswith("SIM")
        return any(rule == token or rule.startswith(token)
                   for token in self.rules)


@dataclass
class ClassInfo:
    """One class definition and what the analyzer knows about it."""

    name: str
    module: str                                  #: dotted module name
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)   #: raw base expressions
    methods: Dict[str, FunctionNode] = field(default_factory=dict)
    #: instance attribute -> qualified class name (from ``self.x = Cls(...)``
    #: assignments and annotations); filled in by the call-graph layer.
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """One parsed module of the package."""

    name: str                                    #: dotted module name
    path: Path
    tree: ast.Module
    #: local alias -> fully-qualified dotted target.  ``from ..sdb.aggregates
    #: import true_answer`` maps ``true_answer`` to
    #: ``repro.sdb.aggregates.true_answer``; ``import numpy as np`` maps
    #: ``np`` to ``numpy``.
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionNode] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: 1-based line numbers carrying a violation pragma.
    pragmas: Dict[int, Pragma] = field(default_factory=dict)
    #: how often each name is bound anywhere in the module (assignment
    #: targets, parameters, imports, defs, classes; every scope)
    bindings: Dict[str, int] = field(default_factory=dict)
    #: module-level ``NAME = "literal"`` names bound nowhere else
    string_constants: Set[str] = field(default_factory=set)


class PackageIndex:
    """All modules of one package, parsed and cross-indexed."""

    def __init__(self, package: str, root: Path,
                 modules: Dict[str, ModuleInfo]) -> None:
        self.package = package
        self.root = root              #: directory *containing* the package
        self.modules = modules
        # classes by qualified name for hierarchy resolution
        self.classes: Dict[str, ClassInfo] = {}
        for mod in modules.values():
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------

    def resolve_dotted(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Split a fully-qualified name into ``(module, symbol)``.

        Returns None when the prefix is not a module of this package (e.g.
        numpy names).  A bare module name resolves to ``(module, "")``.
        """
        if dotted in self.modules:
            return dotted, ""
        head, _, tail = dotted.rpartition(".")
        while head:
            if head in self.modules:
                return head, tail
            head, _, more = head.rpartition(".")
            tail = f"{more}.{tail}"
        return None

    def lookup_class(self, module: str, name: str) -> Optional[ClassInfo]:
        """Resolve ``name`` as written inside ``module`` to a ClassInfo."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        if name in mod.classes:
            return mod.classes[name]
        target = mod.imports.get(name)
        if target is None:
            return None
        resolved = self.resolve_dotted(target)
        if resolved is None:
            return None
        target_mod, symbol = resolved
        if not symbol:
            return None
        return self.modules[target_mod].classes.get(symbol)

    def lookup_function(self, module: str,
                        name: str) -> Optional[Tuple[str, FunctionNode]]:
        """Resolve a bare function name used inside ``module``.

        Returns ``(defining_module, node)`` or None.
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        if name in mod.functions:
            return module, mod.functions[name]
        target = mod.imports.get(name)
        if target is None:
            return None
        resolved = self.resolve_dotted(target)
        if resolved is None:
            return None
        target_mod, symbol = resolved
        if not symbol:
            return None
        node = self.modules[target_mod].functions.get(symbol)
        if node is None:
            return None
        return target_mod, node

    def is_string_constant(self, module: str, name: str) -> bool:
        """Does ``name`` as written in ``module`` (directly or through an
        import) denote a module-level string constant?"""
        mod = self.modules.get(module)
        if mod is None or mod.bindings.get(name) != 1:
            return False
        if name in mod.string_constants:
            return True
        target = mod.imports.get(name)
        resolved = self.resolve_dotted(target) if target else None
        return (resolved is not None
                and resolved[1] in self.modules[resolved[0]].string_constants)

    def qualify(self, module: str, name: str) -> Optional[str]:
        """The fully-qualified dotted target a name refers to, if imported."""
        mod = self.modules.get(module)
        if mod is None:
            return None
        if name in mod.functions or name in mod.classes:
            return f"{module}.{name}"
        return mod.imports.get(name)

    def pragma_for(self, module: str, rule: str,
                   *lines: int) -> Optional[str]:
        """The pragma reason covering ``rule`` at any of ``lines``.

        A pragma documents the statement on its own line; a pragma written
        as a standalone comment documents the statement on the next line, so
        each queried line also checks the two lines directly above it.
        """
        mod = self.modules.get(module)
        if mod is None or not mod.pragmas:
            return None
        for line in lines:
            for probe in (line, line - 1, line - 2):
                pragma = mod.pragmas.get(probe)
                if pragma is not None and pragma.covers(rule):
                    return pragma.reason or "(no reason given)"
        return None

    def pragma_reason(self, module: str, *lines: int) -> Optional[str]:
        """Legacy SIM-family lookup (kept for API compatibility)."""
        return self.pragma_for(module, "SIM", *lines)

    def relpath(self, module: str) -> str:
        """Module path relative to the analysis root (for findings)."""
        mod = self.modules[module]
        try:
            return str(mod.path.relative_to(self.root))
        except ValueError:
            return str(mod.path)


# ----------------------------------------------------------------------
# Building the index
# ----------------------------------------------------------------------

def _module_name(package: str, package_dir: Path, path: Path) -> str:
    rel = path.relative_to(package_dir)
    parts = list(rel.parts)
    parts[-1] = parts[-1][:-3]  # strip .py
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package] + parts)


def _collect_bindings(tree: ast.Module) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, ast.alias):
            name = (node.asname or node.name).split(".")[0]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.ExceptHandler) and node.name:
            name = node.name
        else:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def _collect_string_constants(tree: ast.Module,
                              bindings: Dict[str, int]) -> Set[str]:
    return {node.targets[0].id for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and bindings[node.targets[0].id] == 1
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)}


def _collect_imports(module: str, tree: ast.Module,
                     is_package: bool) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Relative import: drop ``level`` trailing components from
                # the importing module's package path.
                parts = module.split(".")
                if not is_package:
                    parts = parts[:-1]
                anchor = parts[:len(parts) - (node.level - 1)] if node.level > 1 else parts
                base = ".".join(anchor)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def _collect_pragmas(source: str) -> Dict[int, Pragma]:
    pragmas: Dict[int, Pragma] = {}
    lines = source.splitlines()
    for lineno, line in enumerate(lines, start=1):
        rules: Optional[frozenset] = None
        match = PRAGMA_RE.search(line)
        if not match:
            match = AUDIT_PRAGMA_RE.search(line)
            if not match:
                continue
            rules = frozenset(token.strip() for token in
                              match.group("rules").split(","))
        reason = (match.group("reason") or "").strip()
        # A pragma reason may wrap onto following pure-comment lines.
        probe = lineno  # 0-based index of the next line
        while probe < len(lines):
            stripped = lines[probe].strip()
            if (not stripped.startswith("#")
                    or PRAGMA_RE.search(stripped)
                    or AUDIT_PRAGMA_RE.search(stripped)):
                break
            reason = f"{reason} {stripped.lstrip('#').strip()}".strip()
            probe += 1
        pragmas[lineno] = Pragma(reason=reason, rules=rules)
    return pragmas


def _collect_classes(module: str, tree: ast.Module) -> Dict[str, ClassInfo]:
    classes: Dict[str, ClassInfo] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassInfo(name=node.name, module=module, node=node)
        for base in node.bases:
            try:
                info.bases.append(ast.unparse(base))
            except Exception:  # pragma: no cover - exotic base expressions
                continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = item
            elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name):
                # class-level annotation: ``attr: SomeClass``
                try:
                    info.attr_types[item.target.id] = ast.unparse(
                        item.annotation)
                except Exception:  # pragma: no cover
                    pass
        classes[node.name] = info
    return classes


def build_index(package_dir: Union[str, Path],
                package: Optional[str] = None,
                source_overrides: Optional[Dict[str, str]] = None,
                extra_modules: Optional[Iterable[Tuple[str, Path]]] = None,
                ) -> PackageIndex:
    """Parse every ``.py`` file under ``package_dir`` into a PackageIndex.

    Parameters
    ----------
    package_dir:
        Directory of the package itself (the one holding ``__init__.py``).
    package:
        Dotted package name; defaults to the directory name.
    source_overrides:
        ``{relative/or/absolute path: replacement source}`` — lets tests
        analyse edited sources (e.g. a pragma stripped) without touching
        the tree.
    extra_modules:
        Extra ``(dotted_name, path)`` modules indexed alongside the package
        (used by tests to inject fixture auditors).
    """
    package_dir = Path(package_dir).resolve()
    if not package_dir.is_dir():
        raise FileNotFoundError(f"package directory not found: {package_dir}")
    package = package or package_dir.name
    overrides: Dict[str, str] = {}
    for key, text in (source_overrides or {}).items():
        overrides[str(Path(key))] = text

    def read_source(path: Path) -> str:
        for candidate in (str(path),
                          str(path.relative_to(package_dir.parent))
                          if str(path).startswith(str(package_dir.parent))
                          else str(path)):
            if candidate in overrides:
                return overrides[candidate]
        return path.read_text(encoding="utf-8")

    modules: Dict[str, ModuleInfo] = {}

    def index_one(name: str, path: Path, is_package: bool) -> None:
        source = read_source(path)
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return  # unparsable files simply stay out of the call graph
        info = ModuleInfo(name=name, path=path, tree=tree)
        info.imports = _collect_imports(name, tree, is_package)
        info.pragmas = _collect_pragmas(source)
        info.bindings = _collect_bindings(tree)
        info.string_constants = _collect_string_constants(tree,
                                                          info.bindings)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = node
        info.classes = _collect_classes(name, tree)
        modules[name] = info

    for path in sorted(package_dir.rglob("*.py")):
        name = _module_name(package, package_dir, path)
        index_one(name, path, is_package=path.name == "__init__.py")
    for name, path in (extra_modules or ()):
        index_one(name, Path(path), is_package=False)

    return PackageIndex(package, package_dir.parent, modules)
