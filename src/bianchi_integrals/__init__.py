"""Exact detection and verification of polynomial first integrals of the
Bianchi class A cosmological systems."""

from .coefficients import KPoly
from .multipoly import MultiPoly
from .vectorfields import (
    BianchiModel,
    VectorField,
    WeightedPowerIntegral,
    build_F,
    build_bianchi,
    hamiltonian_integral,
    lie_derivative,
    polynomial_integrals,
    verify_weighted_power_integral,
)
from .engine import (
    IntegrabilityReport,
    NullspaceBasis,
    degree_sweep,
    enumerate_monomials,
    independence_rank,
    kernel_basis,
    lemma_dificil_solve,
    lemma_estrella_solve,
    sn_recursion_check,
)

__all__ = [
    "BianchiModel",
    "IntegrabilityReport",
    "KPoly",
    "MultiPoly",
    "NullspaceBasis",
    "VectorField",
    "WeightedPowerIntegral",
    "build_F",
    "build_bianchi",
    "degree_sweep",
    "enumerate_monomials",
    "hamiltonian_integral",
    "independence_rank",
    "kernel_basis",
    "lemma_dificil_solve",
    "lemma_estrella_solve",
    "lie_derivative",
    "polynomial_integrals",
    "sn_recursion_check",
    "verify_weighted_power_integral",
]

__version__ = "0.1.0"
