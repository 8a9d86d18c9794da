"""Lazy package exports: the one mechanism every package ``__init__`` uses.

A package declares its public surface as a table ``{module: names}`` and
hands it to :func:`export`, which installs a module ``__getattr__`` and
``__dir__`` and returns the names for ``__all__``.  Importing the package
imports none of its modules; the first access to a name imports the module
that defines it and caches the value in the package's globals, so every
later access is a plain global lookup that never reaches ``__getattr__``.

Module keys starting with ``.`` are relative to the package.  A name equal
to its module's last component exports the submodule itself (``"trace"``
from ``".trace"``), as ``from . import trace`` would.  The resolved
name → module table stays on the package as ``_LAZY_EXPORTS``.
"""

from importlib import import_module


def export(namespace: dict, table: dict) -> list:
    """Serve ``table``'s names lazily from the package whose globals are
    ``namespace``; return the names, in table order, for ``__all__``."""
    package = namespace["__name__"]
    origin = {}
    for module, names in table.items():
        if module.startswith("."):
            module = package + module
        for name in names:
            origin[name] = module

    def __getattr__(name):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = import_module(module)
        if module.rpartition(".")[2] != name:
            value = getattr(value, name)
        namespace[name] = value  # cache: the next access skips __getattr__
        return value

    def __dir__():
        return sorted(set(namespace) | set(origin))

    namespace["_LAZY_EXPORTS"] = origin
    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(origin)
