"""The hot numeric kernels: batched Gauss-Kronrod 7/15 panels and one
exactly rounded sum.

Callers reach both kernels as ``kernels.gk15_batch`` and
``kernels.neumaier_sum`` attribute lookups, so a wrapper installed on this
module (as the benchmark's tracer does) sees every call.
"""

import math

import numpy as np

_EPS = np.finfo(np.float64).eps

# Kronrod-15 nodes on [-1, 1], ascending.  The embedded Gauss-7 rule uses
# the odd indices (1, 3, ..., 13).
GK15_NODES = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)

# 15-point Kronrod weights, ordered to match ascending nodes; the embedded
# 7-point Gauss rule sits on nodes 1, 3, 5, 7, 9, 11, 13.
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)

_WG7 = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)


def neumaier_sum(values):
    """Exactly rounded sum of a 1-d float array, by :func:`math.fsum`.

    The result does not depend on the order of the terms.  The name stays
    because callers and ``perfbench/tracer.py`` look the function up by it.
    """
    return math.fsum(np.asarray(values, dtype=np.float64).tolist())


def gk15_batch(fvals, halfwidths):
    """Apply the Gauss-Kronrod 7/15 pair to a batch of panels.

    ``fvals`` has shape (m, 15): integrand values at ``GK15_NODES`` for each
    panel.  ``halfwidths`` has shape (m,).  Returns ``(values, errors)``
    where ``values[i]`` approximates the panel integral and ``errors[i]`` is
    the QUADPACK-style error estimate.
    """
    fvals = np.asarray(fvals, dtype=np.float64)
    halfwidths = np.asarray(halfwidths, dtype=np.float64)

    resk = fvals @ _WGK
    resg = fvals[:, 1::2] @ _WG7
    resabs = np.abs(fvals) @ _WGK
    resasc = np.abs(fvals - 0.5 * resk[:, None]) @ _WGK

    ah = np.abs(halfwidths)
    values = resk * halfwidths
    errors = np.abs(resk - resg) * ah
    sasc = resasc * ah

    mask = (sasc != 0.0) & (errors != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = sasc[mask] * np.minimum(
            1.0, (200.0 * errors[mask] / sasc[mask]) ** 1.5
        )
    errors[mask] = scaled
    floor = 50.0 * _EPS * resabs * ah
    np.maximum(errors, floor, out=errors)
    return values, errors
