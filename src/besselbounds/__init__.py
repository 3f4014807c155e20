"""Certified modified-Bessel evaluation and a verified catalog of Turan-type bounds."""

from .core import (
    DEFAULT_TARGET_REL_ERR,
    SUPPORTED_NU,
    SUPPORTED_X,
    AccuracyError,
    CrossCheckError,
    DomainError,
    EvalContext,
    QuantityKind,
    ValueWithError,
    eval_I,
    eval_K,
    numeric_derivative,
    quantity,
    ratio_I,
    ratio_K,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_TARGET_REL_ERR",
    "SUPPORTED_NU",
    "SUPPORTED_X",
    "AccuracyError",
    "CrossCheckError",
    "DomainError",
    "EvalContext",
    "QuantityKind",
    "ValueWithError",
    "eval_I",
    "eval_K",
    "numeric_derivative",
    "quantity",
    "ratio_I",
    "ratio_K",
]
