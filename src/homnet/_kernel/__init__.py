"""The elimination kernel: the fraction-free echelon with primitive rows in
``pure``.

It takes dense row lists and returns the dense echelon rows and the pivot
columns; it eliminates sparse rows, the sparsest candidate row pivoting.
Each row is plus or minus the primitive part of the Bareiss row, so an
entry is in general not a minor of the input.  The echelon rows depend on
the order of the input rows, but every answer read from them (rank, pivot
columns, nullspace, solutions, H1 chords) does not.

``_speedups.c`` beside this file is not part of the package; it is the
input of the benchmark's kernel replay (``perfbench/replay.py``).  It
still keeps Bareiss entries and takes the first nonzero row as the pivot
row, so its echelon rows can differ from these while its pivot columns
agree.
"""

from .pure import BACKEND, echelon
