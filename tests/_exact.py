"""Test-only exact-arithmetic references on mpmath (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 2002).

The feature maps phi_q and phi_k are transcribed straight from their
definitions, with no rescale, half-angle identity or blocking, and run at
DIGITS decimal digits.  Inputs are float64 values, which mpmath holds
exactly; results come back as float64 arrays, rounded once.
"""

import numpy as np
from mpmath import mp, mpf

#: Working precision, in decimal digits.
DIGITS = 50


def _phi(x, lam, query):
    """[m cos a; m sin a] of one row x (mpf entries), as a list of 2d mpf values."""
    n = mp.sqrt(mp.fsum(v * v for v in x))
    u = [v / n for v in x]
    if query:
        p = lam * (mpf("0.5") + mp.tanh(n))
        m = [abs(ui) ** p for ui in u]
    else:
        m = [abs(v) ** lam for v in x]
    a = [mp.pi / 4 * mp.tanh(ui) for ui in u]
    return [mi * mp.cos(ai) for mi, ai in zip(m, a)] + [mi * mp.sin(ai) for mi, ai in zip(m, a)]


def jacobian(x, lam, query, step="1e-20"):
    """The (2d, d) Jacobian of phi at x by a central difference of the exact map.

    With step h, the truncation error is O(h^2) and the rounding error
    O(10^-DIGITS / h), both far below float64's resolution at the defaults.
    """
    with mp.workdps(DIGITS):
        pts, lam, h = [mpf(v) for v in x], mpf(lam), mpf(step)
        cols = []
        for j in range(len(pts)):
            plus, minus = list(pts), list(pts)
            plus[j] += h
            minus[j] -= h
            hi, lo = _phi(plus, lam, query), _phi(minus, lam, query)
            cols.append([float((a - b) / (2 * h)) for a, b in zip(hi, lo)])
    return np.array(cols).T
