"""Exact analysis and seeded simulation of a self-reinforcing parity die.

A standard six-sided die keeps an odd and an even face on each of its three
axes.  If every roll rewrites the hidden face opposite the rolled one, the
die's parity make-up becomes a Markov chain with absorbing states, and the
long-run behaviour of a single history parts ways with the across-histories
average.  This package enumerates that process exactly, classifies its
chain, simulates it reproducibly, and carries the fairness-testing
arithmetic (binomial moments, z-scores, run probabilities, sequential
testing) used to reason about observed toss streams.
"""

from . import chain, core, enumeration, montecarlo, stats
from .chain import *
from .core import *
from .enumeration import *
from .montecarlo import *
from .stats import *

__version__ = "0.1.0"

# Each module lists its own public names; the package re-exports them all.
__all__ = [
    *chain.__all__, *core.__all__, *enumeration.__all__, *montecarlo.__all__, *stats.__all__
]
