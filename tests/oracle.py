"""Independent 40-digit reference for the exact flow.

The final sample of an orbit comes from the Van Loan augmented exponential
(Van Loan 1978, IEEE TAC 23(3)) evaluated once, at the final time, with
``mpmath``: the top-left block of ``expm(t [[K, I], [0, 0]])`` propagates the
momentum and the top-right block is the integral of ``expm(s K)`` over
``[0, t]``.  Nothing here uses ncyclo, and no iteration or float64 product
enters the result before the final rounding.
"""

import mpmath as mp
import numpy as np

DIGITS = 40


def van_loan_final(field, metric, mass, charge, light_speed, x0, p0, dt, steps):
    """Final ``(x, p)`` of the orbit at ``t = steps * dt``, rounded to float64."""
    n = len(x0)
    with mp.workdps(DIGITS):
        ginv = mp.matrix(np.asarray(metric, dtype=float).tolist()) ** -1
        factor = mp.mpf(charge) / (mp.mpf(mass) * mp.mpf(light_speed))
        k = factor * mp.matrix(np.asarray(field, dtype=float).tolist()) * ginv
        t = mp.mpf(dt) * steps
        aug = mp.zeros(2 * n)
        for i in range(n):
            for j in range(n):
                aug[i, j] = t * k[i, j]
            aug[i, n + i] = t
        full = mp.expm(aug)
        p0 = mp.matrix([float(v) for v in p0])
        p = full[:n, :n] * p0
        x = mp.matrix([float(v) for v in x0]) + (ginv / mp.mpf(mass)) * (full[:n, n:] * p0)
        return (np.array([float(v) for v in x]), np.array([float(v) for v in p]))
