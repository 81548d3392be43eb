"""Decision procedures for one-relator groups.

Exact free-group word algebra, the Magnus hierarchy breakdown, a word
problem / Magnus subgroup membership solver, and independent oracles for
cross-checking the solver against small faithful representations.
"""

from .errors import (
    EmptyRelator,
    OneRelatorError,
    PreconditionViolated,
    ResourceExhausted,
    UnknownGenerator,
    WordSyntaxError,
)
from .presentations import OneRelatorPresentation, make_presentation
from .solver import MembershipVerdict, Solver, SolverLimits, Verdict
from .textio import parse_presentation, parse_word, print_presentation, print_word
from .words import Alphabet

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "EmptyRelator",
    "MembershipVerdict",
    "OneRelatorError",
    "OneRelatorPresentation",
    "PreconditionViolated",
    "ResourceExhausted",
    "Solver",
    "SolverLimits",
    "UnknownGenerator",
    "Verdict",
    "WordSyntaxError",
    "make_presentation",
    "parse_presentation",
    "parse_word",
    "print_presentation",
    "print_word",
]
