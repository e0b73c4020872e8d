"""A fixed reference piece of work, timed to track the machine's speed.

On a shared virtual machine the CPU itself can run slower for minutes
or hours at a time, and the program's jobs then slow by more than a
tight loop does.  So the reference work is of the kinds the program
does, written here and calling nothing of the program:

- scalar arithmetic in a prime field through log/exp tables held in
  Python lists, as the field's scalar operations are;
- vector products by gathers from the same tables held in numpy arrays,
  as the field's vector operations are;
- Gaussian elimination of a small matrix modulo a prime, as RREF is.

A job timed between two calibrations is scaled by CAL_REF_S over their
mean (see ``scaled``), so that its time reads as at the reference speed.
"""

from __future__ import annotations

import functools
import time

PRIME = 65521        # field of the table arithmetic; 17 generates it
ROW_PRIME = 251      # field of the elimination
SCALAR_OPS = 6000
VECTOR_LEN = 50_000
VECTOR_REPS = 3
MATRIX_SHAPE = (40, 120)
# CPU seconds of one calibration at the reference speed: the median seen
# on the 2-core virtual machine the benchmark's bounds were set on, in
# its slow state.
CAL_REF_S = 0.0185


@functools.cache
def _tables():
    import numpy as np  # not at import: BLAS threads are capped first

    exp = np.empty(2 * (PRIME - 1), dtype=np.int64)
    x = 1
    for i in range(PRIME - 1):
        exp[i] = x
        x = x * 17 % PRIME
    exp[PRIME - 1:] = exp[:PRIME - 1]
    log = np.zeros(PRIME, dtype=np.int64)
    log[exp[:PRIME - 1]] = np.arange(PRIME - 1)
    rng = np.random.default_rng(0)
    return (exp, log, exp.tolist(), log.tolist(),
            rng.integers(1, PRIME, size=(2, VECTOR_LEN)),
            rng.integers(0, ROW_PRIME, size=MATRIX_SHAPE, dtype=np.int64))


def calibrate() -> float:
    """CPU seconds of the reference work, done once."""
    import numpy as np

    exp, log, exp_list, log_list, vectors, matrix = _tables()
    start = time.process_time()
    acc = 1
    for i in range(1, SCALAR_OPS):
        acc = exp_list[log_list[acc] + log_list[i * 7 % (PRIME - 1) + 1]]
    for _ in range(VECTOR_REPS):
        exp[log[vectors[0]] + log[vectors[1]]]
    m, row, others = matrix.copy(), 0, np.ones(len(matrix), dtype=bool)
    for col in range(m.shape[1]):
        nonzero = np.nonzero(m[row:, col])[0]
        if not len(nonzero):
            continue
        pivot = row + nonzero[0]
        m[[row, pivot]] = m[[pivot, row]]
        m[row] = m[row] * pow(int(m[row, col]), -1, ROW_PRIME) % ROW_PRIME
        others[row] = False
        m[others] = (m[others] - np.outer(m[others, col], m[row])) % ROW_PRIME
        others[row] = True
        row += 1
        if row == len(m):
            break
    return time.process_time() - start


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """``seconds`` as at the reference speed, from the calibrations
    timed just before and just after it."""
    return seconds * 2 * CAL_REF_S / (cal_before + cal_after)
