"""Print each definition under src/momext with the files that use its name.

Definitions are the functions, classes and constants of a module and the
methods and fields of its classes (dunders left out). Uses are reads of a
name or attribute, keyword arguments and imports in src, tools, perfbench
and tests; tests are files under tests or named test_*.py or conftest.py.
Names match as strings and uses through strings (getattr) are not seen, so
grep a candidate before deleting it. Run: python3 tools/callers.py"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def defined(body):
    """(name, node) of each definition in a module or class body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        yield from ((name, node) for name in names if not name.startswith("__"))


def used(tree):
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            yield getattr(node, "id", None) or getattr(node, "attr", None)
        elif isinstance(node, (ast.keyword, ast.alias)):
            yield getattr(node, "arg", None) or getattr(node, "name", None)


def main():
    trees = {}
    for top in ("src", "tools", "perfbench", "tests"):
        for base, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for path in sorted(os.path.join(base, f) for f in files if f.endswith(".py")):
                with open(path) as fh:
                    trees[os.path.relpath(path, ROOT)] = ast.parse(fh.read())
    users = {}
    for path, tree in trees.items():
        for name in set(used(tree)):
            users.setdefault(name, []).append(path)
    for path, tree in trees.items():
        if os.path.dirname(path) == os.path.join("src", "momext"):
            for name, node in defined(tree.body):
                members = defined(node.body) if isinstance(node, ast.ClassDef) else ()
                for qualified, bare in [(name, name)] + [(f"{name}.{m}", m) for m, _ in members]:
                    paths = users.get(bare, [])
                    tests = [p for p in paths if p.startswith("tests") or
                             os.path.basename(p).startswith(("test_", "conftest"))]
                    program = [p for p in paths if p not in tests]
                    print(f"{path[4:-3].replace(os.sep, '.')}.{qualified}  program: "
                          f"{' '.join(program) or '-'}  tests: {' '.join(tests) or '-'}")


if __name__ == "__main__":
    main()
