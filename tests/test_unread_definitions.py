"""Every top-level function, class and constant of a foldylax module is read
by the program: by code in src/foldylax or in perfbench/, not only by the tests.

A read counts only where Python resolves the name to the definition: a
loaded name f in its own module, outside any function, lambda, class body or
comprehension that binds f itself, or in a module that binds f by
`from ...X import f`; an attribute m.f where an import binds m to module X.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "foldylax"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
SCANNED = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# module.name -> why it stays although only the tests read it
ALLOWED = {}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = FUNCTIONS + COMPREHENSIONS + (ast.ClassDef,)


def _parts(node):
    """(the children node evaluates in its enclosing scope, the children that
    make up its own scope), for a node that opens a scope."""
    if isinstance(node, ast.ClassDef):
        return node.decorator_list + node.bases + node.keywords, node.body
    if isinstance(node, COMPREHENSIONS):
        first, *rest = node.generators
        elements = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        return [first.iter], elements + [first.target, *first.ifs] + rest
    args = node.args
    every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    every = [a for a in every if a is not None]
    outer = args.defaults + [d for d in args.kw_defaults if d is not None]
    if isinstance(node, ast.Lambda):
        return outer, every + [node.body]
    annotations = [a.annotation for a in every if a.annotation is not None]
    returns = [node.returns] if node.returns is not None else []
    return node.decorator_list + outer + annotations + returns, every + node.body


def _own_nodes(roots):
    """The nodes under roots that belong to the same scope as roots: a nested
    scope is yielded, with the parts it evaluates outside itself, but not entered."""
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SCOPES):
            stack.extend(_parts(node)[0])
        elif not isinstance(node, ast.arg):  # its annotation is the enclosing scope's
            stack.extend(ast.iter_child_nodes(node))


def _module_of(level: int, dotted: str | None):
    """The module an import names: 'X' for foldylax.X, or .X inside the
    package; '' for the package itself; None for any other module."""
    if level:
        dotted = "foldylax" + ("." + dotted if dotted else "")
    if dotted == "foldylax":
        return ""
    if dotted and dotted.startswith("foldylax."):
        return dotted[len("foldylax."):]
    return None


def _bindings(roots, modules) -> dict:
    """name -> what the scope made of roots binds it to: ("module", X) for an
    import of module X, ("def", X, f) for `from X import f`, else ("local",)."""
    bound, declared = {}, set()
    for node in _own_nodes(roots):
        name, how = None, ("local",)
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.ExceptHandler):
            name = node.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                target = _module_of(0, alias.name)
                if alias.asname and target:
                    bound[alias.asname] = ("module", target)
                else:
                    bound.setdefault(alias.asname or alias.name.split(".")[0], how)
        elif isinstance(node, ast.ImportFrom):
            source = _module_of(node.level, node.module)
            for alias in node.names:
                if source == "" and alias.name in modules:
                    bound[alias.asname or alias.name] = ("module", alias.name)
                elif source:
                    bound[alias.asname or alias.name] = ("def", source, alias.name)
                else:
                    bound.setdefault(alias.asname or alias.name, how)
        if name:
            bound.setdefault(name, how)
    return {name: how for name, how in bound.items() if name not in declared}


def _reads(module: str, tree: ast.Module, modules) -> list:
    """(X, f, top-level statement of tree) for each read of module X's name f."""
    top = {name: ("def", module, name) if how == ("local",) else how
           for name, how in _bindings(tree.body, modules).items()}
    reads = []

    def visit(roots, chain, statement):
        """chain: the (bindings, is a class body) of the enclosing scopes,
        innermost first; a class body is seen only by the loads directly in it."""
        for node in _own_nodes(roots):
            if isinstance(node, SCOPES):
                inner = _parts(node)[1]
                outer = [scope for scope in chain if not scope[1]]
                scope = (_bindings(inner, modules), isinstance(node, ast.ClassDef))
                visit(inner, [scope] + outer, statement)
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name, attribute = node.id, None
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                name, attribute = node.value.id, node.attr
            else:
                continue
            how = next((bound[name] for bound, _ in chain if name in bound), top.get(name))
            if how and how[0] == ("module" if attribute else "def"):
                reads.append((how[1], attribute or how[2], statement))

    for statement in tree.body:
        visit([statement], [], statement)
    return reads


def _definitions(tree: ast.Module):
    """(name, statement) of each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unread_definitions(sources: dict, scanned) -> list[str]:
    """module.name of each top-level function, class or constant of the
    scanned modules that no module in sources reads, its own definition
    aside. sources maps a module name to its code: a package module by its
    stem, the package's __init__ as "__init__"."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    modules = {module for module in sources if "." not in module}
    readers = {}
    for module, tree in trees.items():
        for x, f, statement in _reads(module, tree, modules):
            readers.setdefault((x, f), []).append(statement)
    return [f"{module}.{name}" for module in scanned
            for name, statement in _definitions(trees[module])
            if not any(s is not statement for s in readers.get((module, name), []))]


def test_the_scan_finds_an_unread_definition():
    sources = {"a": "def used():\n    pass\n\n\ndef dummy():\n    return dummy()\n\n\n"
                    "class Annotated:\n    pass\n\n\nclass Unread:\n    pass\n",
               "b": "from . import a\nfrom .a import Annotated\n\n\n"
                    "def run(x: Annotated):\n    return a.used()\n"}
    assert unread_definitions(sources, ["a"]) == ["a.dummy", "a.Unread"]


def test_a_local_of_the_same_name_is_not_a_read():
    """A top-level f that is read elsewhere only as a local variable, a
    parameter, a lambda's or a comprehension's own name, or as an attribute
    of something that is not its module, is unread; so is a constant."""
    sources = {"a": "LIMIT = 1\n\n\ndef f():\n    pass\n\n\ndef g(f):\n    return f()\n\n\n"
                    "def h():\n    f = g\n    return f(None)\n\n\n"
                    "k = [f for f in range(LIMIT)]\n\n\nclass C:\n    f = 1\n    j = f\n",
               "b": "from . import a as m\n\n\n"
                    "def run(x):\n    return (lambda f: f)(x.f), m.g, m.h, m.C\n"}
    assert unread_definitions(sources, ["a"]) == ["a.f", "a.k"]


def test_a_read_resolves_through_its_scopes():
    """A function's default and decorator are read in the enclosing scope, a
    nested function sees its module past a class body, and a global
    declaration makes an assignment the module's."""
    sources = {"a": "A = B = C = D = 1\n\n\ndef deco(x):\n    return x\n\n\n"
                    "@deco\ndef f(A=A):\n    global B\n    B = 2\n    return A, B\n\n\n"
                    "class K:\n    C = 2\n\n    def m(self):\n        return C\n\n\n"
                    "def g():\n    D = 0\n    return [D for _ in range(D)]\n"}
    assert unread_definitions(sources, ["a"]) == ["a.D", "a.f", "a.K", "a.g"]


def test_the_program_reads_every_definition():
    sources = {p.stem if p.parent == PACKAGE else f"perfbench.{p.stem}": p.read_text()
               for p in PROGRAM}
    assert sorted(unread_definitions(sources, SCANNED)) == sorted(ALLOWED)
