"""Reach guard: every function of `heights` and `lfun` is run by some command.

Each subcommand runs in-process on every shipped instance file (`generate`
reads no file and runs once) under `sys.setprofile`, which records the code
object of every Python call.  A function or method of the two modules that
no run calls is reachable from the tests only: delete it, move it to the
tests, or name it in `UNREACHED` with the reason it stays.
"""

import inspect
import sys
from pathlib import Path

from iwaheights import heights, lfun
from iwaheights.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "instances").glob("*.json"))
FILE_COMMANDS = ["invariants", "heights", "lfun-check", "oracle", "scenario"]

UNREACHED = {
    "heights.TablePairing": "no instance record builds it yet (ROADMAP item 5), and "
    "perfbench's tracer counts heights.TablePairing.value",
    "lfun.TableDuality": "no shipped instance file has a duality table",
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
            if inspect.isfunction(member) and member.__code__.co_filename == module.__file__:
                out.append((qual, member.__code__))
    return out


def _exempt(name, key):
    return name == key or name.startswith(key + ".")


def test_every_function_is_reached(capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    runs = [[cmd, "--input", str(path)] for path in CORPUS for cmd in FILE_COMMANDS] + [["generate"]]
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert set(codes) <= {0, 1, 2, 3}
    functions = _functions(heights) + _functions(lfun)
    unreached = [
        name for name, code in functions if code not in called and not any(_exempt(name, key) for key in UNREACHED)
    ]
    assert unreached == []
    # an exemption that a command now reaches is stale and must go
    stale = [key for key in UNREACHED if any(_exempt(name, key) and code in called for name, code in functions)]
    assert stale == []
