"""The package's public surface: every exported function, class and method
resolves its type hints.  Annotations are strings under postponed
evaluation, so a name used in one but never imported shows only here.
And the converse: no module imports a name it never reads, and no private
helper goes unread.  Last, the guards at the entry points refuse what they
must, with their own error type and message."""

import ast
import inspect
from collections import Counter
import typing
from pathlib import Path

import pytest

import derivcover
from derivcover import cosets, cover, poly
from derivcover.errors import ContextMismatchError, ExactDivisionError
from derivcover.jets import JetContext, Operator
from derivcover.poly import MPoly, RatFunc, VarRegistry


def _exported():
    for name in dir(derivcover):
        obj = getattr(derivcover, name)
        if not getattr(obj, "__module__", "").startswith("derivcover"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_exported_type_hints_resolve():
    names = []
    for name, obj in _exported():
        typing.get_type_hints(obj)
        names.append(name)
    assert {"is_in_dn", "MPoly.__mul__", "Operator.from_terms"} <= set(names)


def _unread_imports(source: str) -> list[str]:
    """Names that source imports but never reads; __future__ imports aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    assert _unread_imports("import os, a.b as c\nfrom x import y, z\nz(os)") == ["c", "y"]
    modules = sorted(Path(derivcover.__file__).parent.glob("*.py"))
    unread = {
        path.name: names
        for path in modules
        if path.name != "__init__.py"
        and (names := _unread_imports(path.read_text(encoding="utf-8")))
    }
    assert len(modules) > 5 and not unread


def _private_helpers_without_caller(sources: dict[str, str]) -> list[str]:
    """Functions, methods and classes whose name starts with one underscore
    that no code in sources reads outside their own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}

    def reads(node: ast.AST) -> list[str]:
        return [
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        ]

    everywhere = Counter(name for tree in trees.values() for name in reads(tree))
    unread = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and everywhere[node.name] == reads(node).count(node.name)
            ):
                unread.append(f"{module}:{node.name}")
    return unread


def test_every_private_helper_has_a_caller():
    sample = "def _used(): pass\ndef _alone(): _alone()\nclass A:\n    def _m(self): pass\n_used()"
    assert _private_helpers_without_caller({"m.py": sample}) == ["m.py:_alone", "m.py:_m"]
    modules = sorted(Path(derivcover.__file__).parent.glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in modules}
    assert len(sources) > 5 and _private_helpers_without_caller(sources) == []


def _t() -> RatFunc:
    """The variable t of a fresh plain registry."""
    reg = VarRegistry()
    return RatFunc.var(reg, reg.add_generator("t"))


def _point() -> cover.CoverPoint:
    x = JetContext(1, 1, 1).gen()
    return cover.CoverPoint(x, x)


def _twice_t() -> None:
    reg = VarRegistry()
    reg.add_generator("t")
    reg.add_generator("t")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: cosets.affine_relation([_t(), _t()]), ContextMismatchError,
         "functions belong to different registries"),
        (lambda: cosets.coset_free_powers(0), ValueError, "need n >= 1"),
        (lambda: cover.star(_t(), _point()), ContextMismatchError,
         "field element and point contexts differ"),
        (lambda: cover.otimes_power(_point(), 0), ValueError, "otimes_power needs k >= 1"),
        (lambda: cover.sigma(Operator.word((0,)), cover.CoverPoint(_t(), _t())),
         ContextMismatchError, "point does not live in a jet context"),
        (lambda: JetContext(0), ValueError, "need at least one generator"),
        (lambda: JetContext(1, -1), ValueError,
         "alphabet size and word length must be nonnegative"),
        (lambda: JetContext(1, 1, 1).jet(0, ()), ValueError,
         "no jet symbol for generator 0 and word ()"),
        (lambda: JetContext(1, 1, 1).jet(1, (0,)), ValueError,
         "no jet symbol for generator 1 and word (0,)"),
        (_twice_t, ValueError, "variable 't' already allocated"),
        (lambda: MPoly.var(VarRegistry(), 0), ValueError, "variable index 0 is not allocated"),
        (lambda: RatFunc.make((t := _t()).den, t.num).as_poly(), ValueError,
         "rational function has a nontrivial denominator"),
        (lambda: poly._int_quo(7, 2), ExactDivisionError, "division is not exact"),
    ],
    ids=[
        "affine-relation-two-registries", "coset-free-powers-0", "star-other-context",
        "otimes-power-0", "sigma-plain-registry", "jet-context-no-generator",
        "jet-context-negative-alphabet", "jet-empty-word", "jet-generator-out-of-range",
        "add-generator-twice", "var-unallocated", "as-poly-fraction", "int-quo-inexact",
    ],
)
def test_entry_point_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message
