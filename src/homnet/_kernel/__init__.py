"""The elimination kernel: the fraction-free Bareiss echelon in ``pure``.

It takes and returns dense row lists and eliminates sparse rows, the
sparsest candidate row pivoting.  The echelon rows depend on the order of
the input rows, but every answer read from them (rank, pivot columns,
nullspace, solutions, H1 chords, torsion) does not.

``_speedups.c`` beside this file is not part of the package; it is the
input of the benchmark's kernel replay (``perfbench/replay.py``).  It
still takes the first nonzero row as the pivot row, so its echelon rows
differ from these where its pivot columns agree.
"""

from .pure import BACKEND, echelon
