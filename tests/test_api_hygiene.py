"""Meta-tests: documentation and API hygiene across the whole package.

Deliverable-level checks: every module, public class, and public function
in ``repro`` carries a docstring, the package imports cleanly with no
circular-import landmines, no constructor or public function accepts
a parameter it never reads, no class keeps an attribute nothing reads and
no module imports a name it never uses.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

EXEMPT_FUNCTIONS = {
    # dunder/protocol methods don't need docstrings
}


def walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return out


ALL_MODULES = walk_modules()


def test_every_module_imports():
    for name in ALL_MODULES:
        importlib.import_module(name)


def test_every_module_has_a_docstring():
    missing = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            missing.append(name)
    assert not missing, missing


def test_every_public_class_has_a_docstring():
    missing = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        for attr_name, obj in vars(module).items():
            if attr_name.startswith("_") or not inspect.isclass(obj):
                continue
            if obj.__module__ != name:
                continue  # re-export
            if not (obj.__doc__ or "").strip():
                missing.append(f"{name}.{attr_name}")
    assert not missing, missing


def test_every_public_function_has_a_docstring():
    missing = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        for attr_name, obj in vars(module).items():
            if attr_name.startswith("_"):
                continue
            if not (inspect.isfunction(obj)):
                continue
            if obj.__module__ != name:
                continue
            if not (obj.__doc__ or "").strip():
                missing.append(f"{name}.{attr_name}")
    assert not missing, missing


def test_public_methods_of_core_classes_documented():
    """The key user-facing classes document every public method."""
    from repro.core.path import Path, Stage
    from repro.core.lifecycle import PathManager
    from repro.kernel.kernel import Kernel
    from repro.net.tcp import TCPEngine
    from repro.experiments.harness import Testbed

    missing = []
    for cls in (Path, Stage, PathManager, Kernel, TCPEngine, Testbed):
        for attr_name, obj in vars(cls).items():
            if attr_name.startswith("_"):
                continue
            if not (inspect.isfunction(obj) or isinstance(obj, classmethod)):
                continue
            fn = obj.__func__ if isinstance(obj, classmethod) else obj
            if not (fn.__doc__ or "").strip():
                missing.append(f"{cls.__name__}.{attr_name}")
    assert not missing, missing


def test_exports_resolve():
    """Every name in every __all__ actually exists."""
    broken = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        for exported in getattr(module, "__all__", []):
            if not hasattr(module, exported):
                broken.append(f"{name}.{exported}")
    assert not broken, broken


#: Callbacks whose signature a protocol fixes: they must accept the
#: argument even when they do not need it.
UNREAD_PARAMETER_EXEMPT = {
    # A CGI script factory is called with its stage; the runaway loop
    # ignores it.
    "repro.workload.cgi_attacker.runaway_cgi(stage)",
}


def _unread_parameters(func: ast.FunctionDef, label: str):
    """``label(param)`` for each parameter ``func``'s body never reads."""
    args = func.args
    params = [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {node.id for stmt in func.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{label}({p})" for p in params
            if p not in ("self", "cls") and p not in read]


def test_every_parameter_is_read():
    """An option a constructor or public function accepts and then
    ignores looks configurable but is not: every parameter of every
    ``__init__`` of a class defined in ``repro``, and of every public
    module-level function, is read in its body."""
    unread = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        tree = ast.parse(inspect.getsource(module))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                unread += _unread_parameters(node, f"{name}.{node.name}")
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    unread += _unread_parameters(
                        item, f"{name}.{cls.name}.__init__")
    assert sorted(set(unread) - UNREAD_PARAMETER_EXEMPT) == []


#: Attributes a class keeps although no code reads them.
WRITE_ONLY_EXEMPT = {
    # ARP's wire format (RFC 826) carries the target hardware address;
    # the packet class mirrors every field of it.
    "repro.net.packet.ArpPacket.target_mac",
}

#: The repository's code: an attribute loaded anywhere here is read.
REPO_ROOT = Path(repro.__file__).resolve().parents[2]
CODE_DIRS = ("src", "tests", "examples", "benchmarks", "perfbench")


def _self_attributes(cls: ast.ClassDef):
    """Names ``cls``'s methods assign on ``self``."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) \
                        and isinstance(sub.value, ast.Name) \
                        and sub.value.id == "self":
                    yield sub.attr


def _loaded_attributes():
    """Every attribute name the repository's code loads, directly or as
    a ``getattr``/``hasattr`` string."""
    loaded = set()
    for top in CODE_DIRS:
        for path in (REPO_ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id in ("getattr", "hasattr") \
                        and len(node.args) >= 2 \
                        and isinstance(node.args[1], ast.Constant):
                    loaded.add(node.args[1].value)
    return loaded


def test_no_write_only_attributes():
    """A counter that is assigned and never read costs every run its
    updates and shows nothing: every attribute a class in ``repro``
    assigns on ``self`` is loaded somewhere in the repository's code
    (``+=`` is a store, not a read)."""
    loaded = _loaded_attributes()
    write_only = set()
    for name in ALL_MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                write_only |= {f"{name}.{cls.name}.{attr}"
                               for attr in _self_attributes(cls)
                               if attr not in loaded}
    assert sorted(write_only - WRITE_ONLY_EXEMPT) == []


def _names_in_string_annotations(tree):
    """Names used inside quoted annotations (``-> "Kernel"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) \
                    and isinstance(const.value, str):
                names |= {n.id for n in ast.walk(
                    ast.parse(const.value, mode="eval"))
                    if isinstance(n, ast.Name)}
    return names


def test_no_unused_imports():
    """Every name a module in ``repro`` imports is used in it.  A name
    listed in ``__all__`` or used in a quoted annotation counts as used;
    a package's ``__init__`` re-exports, so it is not checked."""
    unused = []
    for name in ALL_MODULES:
        module = importlib.import_module(name)
        if Path(module.__file__).name == "__init__.py":
            continue
        tree = ast.parse(inspect.getsource(module))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname
                             or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        used |= _names_in_string_annotations(tree)
        unused += [f"{name}:{line} {imp}" for imp, line in imported.items()
                   if imp not in used]
    assert sorted(unused) == []
