"""Meta-tests: documentation and API hygiene across the whole package.

Deliverable-level checks: every module, public class, and public function
in ``repro`` carries a docstring, the package imports cleanly with no
circular-import landmines, and no constructor or public function accepts
a parameter it never reads.
"""

import ast
import importlib
import inspect
import pkgutil

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
