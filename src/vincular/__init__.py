"""Generating tree and counting toolkit for 1-32-4 avoiding permutations.

The package namespace holds the names of the README's Library section plus
the two level enumerations; everything else is imported from its module.
"""

from .blocks import PATTERN
from .brute import brute_avoiders
from .counting import count_avoiders
from .eco import expand, reduce
from .gentree import generate_level
from .perms import avoids, label

__version__ = "0.1.0"

__all__ = [
    "PATTERN",
    "avoids",
    "brute_avoiders",
    "count_avoiders",
    "expand",
    "generate_level",
    "label",
    "reduce",
]
