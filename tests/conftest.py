"""Shared reference implementations the tests compare against.

These are deliberately written with different formulations than the
package (log-sum-exp instead of max-shifted exponentials, the expanded
HSIC trace instead of explicit centering) so agreement actually means
something.
"""

import numpy as np
from scipy.special import logsumexp


def ref_softmax_loss(x, w, labels):
    """Plain softmax cross-entropy via log-sum-exp: (loss, grad_w, grad_x)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    z = x @ w
    lse = logsumexp(z, axis=1)
    loss = float(np.mean(lse - z[np.arange(n), labels]))
    probs = np.exp(z - lse[:, None])
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    return loss, x.T @ delta, delta @ w.T


def ref_hsic(k1, k2):
    """Empirical HSIC via the expanded trace (no centering matrix).

    tr(K1 H K2 H) = tr(K1 K2) - (2/n) 1'K1K2 1 + (1'K1 1)(1'K2 1)/n^2
    for symmetric K1, K2.
    """
    k1 = np.asarray(k1, dtype=np.float64)
    k2 = np.asarray(k2, dtype=np.float64)
    n = k1.shape[0]
    ones = np.ones(n)
    prod = k1 @ k2
    tr = np.trace(prod) - 2.0 / n * (ones @ prod @ ones) + (
        (ones @ k1 @ ones) * (ones @ k2 @ ones)
    ) / n**2
    return tr / (n - 1) ** 2


def ref_diversity_kernel(bank, v):
    """Kv = sum over heads u != v of H Wu_hat^T Wu_hat H, one head at a time.

    Each head is normalized on the spot and the Grams are added to a zero
    matrix in ascending u, the order the package uses, so tests may
    compare against it with ``==``.
    """
    k = np.asarray(bank[0]).shape[1]
    h = np.eye(k) - np.full((k, k), 1.0 / k)
    kv = np.zeros((k, k))
    for u, w in enumerate(bank):
        if u == v:
            continue
        w = np.asarray(w, dtype=np.float64)
        w_hat = w / np.sqrt(np.sum(w * w, axis=0))
        kv += h @ (w_hat.T @ w_hat) @ h
    return kv


def central_diff(f, x, step=1e-6):
    """Entrywise central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        up = f(x)
        flat[j] = orig - step
        down = f(x)
        flat[j] = orig
        gflat[j] = (up - down) / (2 * step)
    return grad
