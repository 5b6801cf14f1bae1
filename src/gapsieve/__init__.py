"""gapsieve: covering systems of residue classes for long composite runs.

Select one residue class per prime so the classes jointly cover an integer
interval; by the Chinese remainder theorem such a cover pins down a run of
consecutive composites of the same length.  The package provides exhaustive
oracles for small prime bounds, a staged randomized construction for larger
ones, a reweighted semi-random covering engine, and multidimensional sieve
weights to steer it.
"""

__version__ = "0.1.0"

from .oracle import exact_Y, jacobsthal
from .pipeline import StagedConfig, run_pipeline
from .primes import primes_up_to, primorial
from .residues import ResidueSystem, assemble_gap, covered_prefix_length, sift

__all__ = [
    "__version__",
    "exact_Y",
    "jacobsthal",
    "StagedConfig",
    "run_pipeline",
    "primes_up_to",
    "primorial",
    "ResidueSystem",
    "assemble_gap",
    "covered_prefix_length",
    "sift",
]
