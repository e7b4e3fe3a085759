"""Replay captured elimination-kernel inputs through both kernels.

The compiled twin is built with the local ``gcc`` from the shipped
``_speedups.c`` into ``.bench_build/`` of the checkout (never into the
package), once per source hash.  The package's own backend choice is left
alone: the replay loads the built module under its own name.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import subprocess
import sysconfig
import time
from pathlib import Path

SOURCE = Path("src", "homnet", "_kernel", "_speedups.c")


def build_compiled(root):
    """Compile the shipped C kernel (cached by source hash) and load it."""
    source = Path(root, SOURCE)
    digest = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    out_dir = Path(root, ".bench_build", f"kernel-{digest}")
    target = out_dir / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not target.exists():
        out_dir.mkdir(parents=True, exist_ok=True)
        partial = out_dir / "partial.so"
        cmd = [
            "gcc", "-O3", "-shared", "-fPIC", "-pipe", "-fno-strict-aliasing",
            "-DNDEBUG", "-I" + sysconfig.get_paths()["include"],
            str(source), "-o", str(partial),
        ]
        # -pipe keeps intermediates in memory; TMPDIR keeps anything else
        # gcc writes inside the checkout
        env = dict(os.environ, TMPDIR=str(out_dir))
        subprocess.run(cmd, check=True, env=env, timeout=600)
        os.replace(partial, target)
    loader = importlib.machinery.ExtensionFileLoader(
        "homnet._kernel._speedups", str(target)
    )
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(loader.name, loader)
    )
    loader.exec_module(module)
    return module


def _max_bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def replay(matrices, pure, compiled):
    """Run every captured (rows, ncols) through the pure kernel and through
    the production path of the compiled one (compiled attempt, pure retry
    on OverflowError).  Both consume fresh copies; only kernel calls are
    timed."""
    pure_s = 0.0
    compiled_s = 0.0
    fallbacks = 0
    mismatches = 0
    bits = 0
    clock = time.perf_counter
    for rows, ncols in matrices:
        work = [list(r) for r in rows]
        t0 = clock()
        want = pure.echelon(work, ncols)
        pure_s += clock() - t0
        bits = max(bits, _max_bits(want[0]))

        work = [list(r) for r in rows]
        t0 = clock()
        try:
            got = compiled.echelon(work, ncols)
        except OverflowError:
            fallbacks += 1
            got = pure.echelon(work, ncols)
        compiled_s += clock() - t0
        if (list(map(list, got[0])), list(got[1])) != (want[0], want[1]):
            mismatches += 1
    return {
        "kernel.replay_matrices": len(matrices),
        "kernel.replay_pure_s": pure_s,
        "kernel.replay_compiled_s": compiled_s,
        "kernel.replay_mismatches": mismatches,
        "kernel.overflow_fallbacks": fallbacks,
        "kernel.max_entry_bits": bits,
    }
