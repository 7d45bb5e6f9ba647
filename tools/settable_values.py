"""Count the settable values of the dpdsolve package: the parameters of
its public API and the options of its command line.

API: every public callable that `import dpdsolve` exports, other than a
module or an exception class. A function counts its parameters, less
*args and **kwargs. A class counts its constructor's parameters (none
for a typing.Protocol), and the parameters, less self and cls, of each
public function, staticmethod and classmethod it defines itself;
properties and inherited members do not count.

CLI: every option of every subcommand but --help. An option with
choices counts once per choice.

Usage: python tools/settable_values.py [PACKAGE_DIR]  (default src/dpdsolve)
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import types
import typing
from pathlib import Path

_VARIADIC = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


def _parameters(fn, skip=()) -> int:
    params = inspect.signature(fn).parameters.values()
    return sum(p.kind not in _VARIADIC and p.name not in skip for p in params)


def _class_values(cls) -> int:
    count = 0 if typing.Protocol in cls.__mro__ else _parameters(cls)
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        elif not inspect.isfunction(member):
            continue
        count += _parameters(member, skip=("self", "cls"))
    return count


def api_values(package) -> int:
    """The settable values of the callables `package` exports."""
    count = 0
    for name in dir(package):
        obj = getattr(package, name)
        if name.startswith("_") or not callable(obj) or isinstance(obj, types.ModuleType):
            continue
        if inspect.isclass(obj):
            if not issubclass(obj, BaseException):
                count += _class_values(obj)
        else:
            count += _parameters(obj)
    return count


def cli_values(parser: argparse.ArgumentParser) -> dict[str, int]:
    """The settable values of each subcommand of `parser`."""
    counts = {}
    for action in parser._subparsers._group_actions:
        for command, sub in action.choices.items():
            counts[command] = sum(
                len(a.choices) if a.choices else 1 for a in sub._actions
                if a.option_strings and not isinstance(a, argparse._HelpAction))
    return counts


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package_dir = Path(args[0] if args else Path(__file__).resolve().parents[1]
                       / "src" / "dpdsolve").resolve()
    sys.path.insert(0, str(package_dir.parent))
    package = importlib.import_module(package_dir.name)
    cli = importlib.import_module(f"{package_dir.name}.cli")
    api = api_values(package)
    commands = cli_values(cli.build_parser())
    for command, n in commands.items():
        print(f"{'cli ' + command:18s}{n:10d}")
    print(f"{'api':18s}{api:10d}")
    print(f"{'total':18s}{api + sum(commands.values()):10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
