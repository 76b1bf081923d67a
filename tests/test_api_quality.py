"""Library-wide API quality gates: docstrings, exports, mutable globals.

Every public module, class, function and method in ``repro`` must carry
a docstring — the documentation deliverable, enforced.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


def _public_members(module):
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module.__name__:
            continue  # re-exports are documented at their home
        if inspect.isclass(member) or inspect.isfunction(member):
            yield name, member


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_members_documented(module):
    undocumented = []
    for name, member in _public_members(module):
        if not (member.__doc__ and member.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(member):
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if method.__doc__ and method.__doc__.strip():
                    continue
                # Overrides inherit the base method's documentation.
                inherited = any(
                    getattr(base, method_name, None) is not None
                    and getattr(getattr(base, method_name), "__doc__", None)
                    for base in member.__mro__[1:]
                )
                if not inherited:
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, f"{module.__name__}: {undocumented}"


def test_all_exports_resolve():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name}"


#: The module-level mutable defaults the library may rebind, with why.
GLOBAL_ALLOWLIST = {
    "perf/cost_cache.py": (
        "_ACTIVE: the benchmark installs a fresh CostCache per run through "
        "set_cost_cache and reads its hit/miss counts; the cache is a pure "
        "memo keyed on every input it prices"
    ),
}


def test_only_allowlisted_modules_rebind_globals():
    """No process-wide mutable default beyond the allowlist.

    Observers (tracers, windowed registries) reach instrumented code
    only through the platform they watch; a ``global`` statement is how
    a process-wide default would creep back in.
    """
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append((path.relative_to(root).as_posix(), tuple(node.names)))
    assert found == [("perf/cost_cache.py", ("_ACTIVE",))], (
        f"global statements {found}; allowed only: {GLOBAL_ALLOWLIST}"
    )
