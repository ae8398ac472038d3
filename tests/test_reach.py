"""Reach guard: every function of every module of the package is run by
some command.

Each subcommand runs in-process on every shipped instance file, in text
and in JSON format, under `sys.setprofile`, which records the code object
of every Python call.  A few more runs reach what those cannot: `generate`
(it reads no file), a k = 2 builder instance, explicit --max-r and
--max-size values, and `lfun-check` on a file with an explicit duality
table.  A function or method that no run calls is reachable from the
tests only: delete it, move it to the tests, or name it in `UNREACHED`
with the reason it stays.  The modules are found with `pkgutil`, so a new
module is guarded as soon as it exists.

Beside it, an import guard parses every such module with `ast`: a name an
import binds (other than `__future__`'s) that the module never reads is
left over from deleted code, and fails the test.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import iwaheights
from iwaheights.cli import main
from tests.test_cli import edited_instance, faithful_table, set_table

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "instances").glob("*.json"))
FILE_COMMANDS = ["invariants", "heights", "lfun-check", "oracle"]
MODULES = [iwaheights] + [importlib.import_module(f"iwaheights.{i.name}") for i in pkgutil.iter_modules(iwaheights.__path__)]

# a key starting with "__" exempts that method name in every class; any
# other key exempts a function, or a class with all its methods
UNREACHED = {
    "__eq__": "value types keep Python's equality contract (ROADMAP north star)",
    "__hash__": "equal values hash alike, the other half of that contract",
    "__repr__": "pytest prints repr in its assertion messages",
    "heights.TablePairing": "no instance record builds it yet (ROADMAP item 5), and "
    "perfbench's tracer counts heights.TablePairing.value",
}


def _functions(module):
    """(name, code object) of every function and method written in the
    module's source.  Dataclass-generated dunders are compiled from a
    string, not from the module's file, and are left out."""
    prefix = module.__name__.split(".")[-1]
    out = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            members = [(f"{prefix}.{name}.{attr}", m) for attr, m in vars(obj).items()]
        else:
            members = [(f"{prefix}.{name}", obj)]
        for qual, member in members:
            if isinstance(member, property):
                member = member.fget
            member = getattr(member, "func", member)  # functools.cached_property
            member = getattr(member, "__func__", member)  # classmethod, staticmethod
            member = inspect.unwrap(member)  # functools.cache, lru_cache
            if inspect.isfunction(member) and member.__code__.co_filename == module.__file__:
                out.append((qual, member.__code__))
    return out


def _exempt(name, key):
    if key.startswith("__"):
        return name.rsplit(".", 1)[-1] == key
    return name == key or name.startswith(key + ".")


def _runs(tmp_path):
    runs = []
    for path in CORPUS:
        for cmd in FILE_COMMANDS:
            runs.append([cmd, "--input", str(path)])
            runs.append([cmd, "--input", str(path), "--format", "json"])
    table_file = edited_instance(tmp_path, "lfun_seed0_ord1.json", set_table(faithful_table()))
    return runs + [
        ["generate"],
        ["lfun-check", "--k", "2", "--ord", "2"],
        ["heights", "--input", str(ROOT / "instances" / "two_block_mixed_f3.json"), "--max-r", "2", "--max-size", "729"],
        ["lfun-check", "--input", str(table_file)],
    ]


def test_every_function_is_reached(tmp_path, capsys):
    runs = _runs(tmp_path)
    functions = [f for module in MODULES for f in _functions(module)]
    # a cached function runs its code only on a miss, so start every cache empty
    for module in MODULES:
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_clear"):
                obj.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    unreached = [
        name for name, code in functions if code not in called and not any(_exempt(name, key) for key in UNREACHED)
    ]
    assert unreached == []
    # an exemption that exempts nothing is stale and must go, and so is one
    # for a function or class as soon as a command reaches any of it
    hits = {key: [code in called for name, code in functions if _exempt(name, key)] for key in UNREACHED}
    stale = [key for key, hit in hits.items() if all(hit) or (not key.startswith("__") and any(hit))]
    assert stale == []


def _unused_imports(module):
    """The names the module's imports bind that no `ast.Name` in it reads."""
    tree = ast.parse(Path(module.__file__).read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_import_is_used():
    unused = {module.__name__: names for module in MODULES if (names := _unused_imports(module))}
    assert unused == {}
