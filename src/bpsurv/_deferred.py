"""Functions of modules that load on the first call, not at import.

Importing scipy.special or scipy.linalg takes about as long as the rest of a
`bpsurv fit --dry-run`, which calls neither.  The modules that need them bind
deferred() stand-ins at import, so scipy loads when a fit, diagnose or
simulate first calls one of its functions.
"""

from importlib import import_module


def deferred(module, name, namespace):
    """A stand-in for module.name, to be bound under that name in namespace
    (a module's globals()).  Its first call imports module and puts the
    function itself in the stand-in's place, so later calls cost what a call
    of the function costs.  A name rebound meanwhile, such as a test's
    wrapper around the stand-in, is left as it is."""
    def call(*args, **kwargs):
        function = getattr(import_module(module), name)
        if namespace.get(name) is call:
            namespace[name] = function
        return function(*args, **kwargs)

    return call
