"""The package's public surface: every exported function, class and method
resolves its type hints.  Annotations are strings under postponed
evaluation, so a name used in one but never imported shows only here."""

import inspect
import typing

import derivcover


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
