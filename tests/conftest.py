import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bianchi_integrals.engine import assemble_system
from bianchi_integrals.multipoly import MultiPoly, unpack
from bianchi_integrals.nullspace import _trees, sparse_kernel_basis
from bianchi_integrals.vectorfields import BianchiModel


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_rational(rng, bits=16):
    num = rng.randint(-(1 << bits), 1 << bits)
    den = rng.randint(1, 1 << bits)
    return Fraction(num, den)


def random_poly(rng, nvars, max_degree=3, max_terms=6, bits=8):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nvars)] += 1
        coeff = random_rational(rng, bits)
        if coeff:
            terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + coeff
    return MultiPoly(nvars, {m: c for m, c in terms.items() if c})


def connected_blocks(rows, ncols):
    """The connected blocks of the rows' row/column graph as (columns, rows) pairs."""
    return _trees(list(range(ncols)), rows)


def exponent_terms(p):
    """The terms of p keyed by exponent tuple, decoded from its keys."""
    return {unpack(key, p.nvars): coeff for key, coeff in p.terms.items()}


def homogeneous_parts(p):
    """p split by degree: {degree: the terms of p of that degree}."""
    parts = {}
    for mono, coeff in exponent_terms(p).items():
        parts.setdefault(sum(mono), {})[mono] = coeff
    return {d: MultiPoly(p.nvars, terms) for d, terms in parts.items()}


def model_fields(tag, k):
    """The fields a model is built at: one at a fixed k, two at symbolic k (None)."""
    return BianchiModel(tag, k).fields


def kernel_vectors(fields, m):
    """The canonical degree-m kernel vectors that engine.kernel_basis turns into polynomials."""
    system = assemble_system(fields, m)
    return [list(v) for v in sparse_kernel_basis(system.rows, system.ncols, system.levels)[0]]


def drift_entry(report, name):
    """The entry of a dynamics.drift_report dict for the invariant called name."""
    (entry,) = [e for e in report["invariants"] if e["name"] == name]
    return entry
