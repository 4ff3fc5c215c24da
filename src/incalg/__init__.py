"""Exact incidence algebras over finite posets, their idealization rings,
and the classification of ring involutions on the idealization.

The names in ``__all__`` are loaded from their home modules on first use
(a PEP 562 module ``__getattr__``), so importing one module, such as
``incalg.posets``, does not import the others."""

from importlib import import_module

_HOMES = {
    "IncalgError": "errors",
    "IncFn": "fia", "IncidenceAlgebra": "fia",
    "QQ": "fields", "PrimeField": "fields", "RationalField": "fields",
    "SquareClass": "fields", "parse_field": "fields",
    "DElem": "idealization", "DLinearMap": "idealization",
    "d_anti_isomorphic": "idealization",
    "InvolutionSpec": "involutions", "base_involution": "involutions",
    "build": "involutions", "classify": "involutions",
    "equivalent": "involutions", "equivalent_inner": "involutions",
    "recognize": "involutions", "rho_eps": "involutions",
    "sigma_lambda": "involutions", "symmetric_decompose": "involutions",
    "LambdaDecomposition": "posets", "Poset": "posets", "PosetMap": "posets",
    "lambda_decomposition": "posets",
    "check_hypotheses": "snf",
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    # not cached, so a name always reads its home module's current binding
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
