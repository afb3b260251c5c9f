"""Exact Horadam-style sequences, generalized binomial triangles, and their
Pascal-like recurrences, with independent combinatorial cross-checks."""

from .ring import (ONE, X, ZERO, ExtensionMismatchError, IrrationalResidueError,
                   QuadExt, Scalar)
from .sequences import (AdditionReport, BinetSpec, DegenerateRootsError,
                        HoradamSpec, SeriesReport, addition_check, binet_term,
                        char_roots, explicit_term, ogf, preset, series_verify,
                        term, to_binet)
from .binomials import (BinomialTable, MultinomialCheck, QstarReport,
                        ZeroTermError, fbinomial, ffactorial, fmultinomial,
                        integrality_scan, multinomial_product_check,
                        qstar_transfer, table_for)
from .recurrences import (CellCheck, CoeffFamily, CoeffPair, PascalReport,
                          SingularCoefficientError, coeffs_alternating,
                          coeffs_binet, family_coeffs, family_sequence,
                          verify_pascal, vweighted_verify)
from .report import ENGINE_VERSION, CheckRecord, Report

__version__ = ENGINE_VERSION

__all__ = [
    "Scalar", "QuadExt", "ZERO", "ONE", "X",
    "ExtensionMismatchError", "IrrationalResidueError",
    "HoradamSpec", "BinetSpec", "DegenerateRootsError",
    "term", "char_roots", "to_binet", "binet_term", "explicit_term",
    "ogf", "series_verify", "SeriesReport", "addition_check", "AdditionReport",
    "preset",
    "BinomialTable", "table_for", "ffactorial", "fbinomial", "fmultinomial",
    "ZeroTermError", "MultinomialCheck", "multinomial_product_check",
    "integrality_scan", "QstarReport", "qstar_transfer",
    "CoeffPair", "CoeffFamily", "SingularCoefficientError",
    "coeffs_binet", "coeffs_alternating", "family_coeffs", "family_sequence",
    "CellCheck", "PascalReport", "verify_pascal", "vweighted_verify",
    "Report", "CheckRecord", "ENGINE_VERSION",
]
