"""Print every independently settable value of momext, with a total per kind.

Three kinds: `parameter`, each defaulted parameter of a public function or
method under src/momext (names without a leading underscore, methods of
public classes, nested functions left out); `field`, each field of
`Tolerances` and `SolveOptions`; `option`, each argument of each
`momext` subcommand that `cli.build_parser()` makes (`-h` left out). One
line per value, then one total line per kind and one for all of them.
Run: python3 tools/options.py"""

import argparse
import ast
import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "momext")
sys.path.insert(0, os.path.join(ROOT, "src"))

from momext.cli import build_parser  # noqa: E402
from momext.extraction import Tolerances  # noqa: E402
from momext.sdp import SolveOptions  # noqa: E402


def defaulted(func):
    """Names of the parameters of a def that have a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):] if args.defaults else []
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in named]


def parameters():
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as fh:
            tree = ast.parse(fh.read())
        module = f"momext.{name[:-3]}"
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef)]
            else:
                continue
            for qualified, func in defs:
                if any(part.startswith("_") for part in qualified.split(".")):
                    continue
                for param in defaulted(func):
                    yield f"{module}.{qualified}", param


def options():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                yield f"momext {command}", (action.option_strings or [action.dest])[0]


def main():
    rows = [("parameter", where, what) for where, what in parameters()]
    rows += [("field", cls.__name__, f.name)
             for cls in (Tolerances, SolveOptions) for f in dataclasses.fields(cls)]
    rows += [("option", where, what) for where, what in options()]
    for kind, where, what in rows:
        print(f"{kind}  {where}  {what}")
    for kind in ("parameter", "field", "option"):
        print(f"total {kind} {sum(row[0] == kind for row in rows)}")
    print(f"total all {len(rows)}")


if __name__ == "__main__":
    main()
