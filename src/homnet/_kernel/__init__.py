"""The elimination kernel: the fraction-free Bareiss echelon in ``pure``.

``_speedups.c`` beside this file is not part of the package; it is the
input of the benchmark's kernel replay (``perfbench/replay.py``).
"""

from .pure import BACKEND, echelon
