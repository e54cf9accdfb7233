"""One fused, in-place Adam step over contiguous parameter blocks.

Shared by the normalizing-flow trainer, which passes its whole parameter
vector as one flat block, and the neural network trainer, which passes
one block per unfrozen parameter tensor.  The caller owns the state: the
first and second moment blocks and the step count.  Every update runs as
in-place ufunc calls with ``out=``, in the per-element operation order of
the textbook expression, so training runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np


def adam_update(
    params, grads, m, v, step: int, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8
) -> None:
    """Adam step number ``step`` (1-based), with bias correction.

    ``params``, ``grads``, ``m`` and ``v`` are equal-length sequences of
    float64 blocks; block ``i`` of ``params`` and of the moments ``m`` and
    ``v`` is updated in place from block ``i`` of ``grads``.  The gradients
    are consumed: each is overwritten as scratch.  Per element the result
    equals ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)`` bit for bit.
    """
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    for i, (p, g, mi, vi) in enumerate(zip(params, grads, m, v)):
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for block {i}")
        s = np.empty_like(p)
        mi *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        mi += s
        vi *= beta2
        np.multiply(g, 1.0 - beta2, out=s)
        s *= g
        vi += s
        np.divide(vi, bc2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(mi, bc1, out=g)
        g *= learning_rate
        g /= s
        p -= g
