"""scipy.special, imported on first use.

This is the one module of pmean that imports ``scipy.special``; the others
call ``sf.ndtr(...)``, ``sf.gammaln(...)`` and so on through it.  Importing
``scipy.special`` costs about as much as the rest of ``import pmean``, numpy
included (its array-API layer loads ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``), and a command that calls no special function (``version``,
``schur2-check``, a ``simulate`` at a Monte Carlo critical value) never pays
it.

Each name is the ``scipy.special`` object itself, cached in this module's
globals at its first lookup (PEP 562), so later lookups are plain module
attribute reads.
"""


def __getattr__(name):
    import scipy.special
    try:
        value = getattr(scipy.special, name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value
