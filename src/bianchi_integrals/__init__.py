"""Exact detection and verification of polynomial first integrals of the
Bianchi class A cosmological systems."""
