"""Gauss-Legendre quadrature over panel decompositions of an interval."""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Nodes and weights on [-1, 1], cached per order."""
    return np.polynomial.legendre.leggauss(n)


def panel_nodes(edges, nodes_per_panel: int = 64):
    """All quadrature nodes and weights for the panels defined by `edges`.

    `edges` must be strictly increasing along its last axis; each row of a
    2-D `edges` is one run of adjacent panels.  Returns flat (x, w) arrays,
    panel after panel in row order; the rule is exact for polynomials of
    degree < 2*nodes_per_panel on each panel.
    """
    edges = np.asarray(edges, dtype=float)
    u, wu = gauss_legendre(nodes_per_panel)
    a = edges[..., :-1]
    half = 0.5 * np.diff(edges)
    x = (a + half)[..., None] + half[..., None] * u
    w = half[..., None] * wu
    return x.ravel(), w.ravel()


# 32-node panels per batched call of the integrand in integrate_adaptive
_BATCH_PANELS = 512
_NODES = 32


def _panel_integrals(f, runs) -> np.ndarray:
    """32-node integral of f over each panel of each row of `runs`.

    `runs` has shape (k, e): k runs of e - 1 adjacent panels.  f is called
    once per _BATCH_PANELS panels.  One stacked np.matmul takes the weighted
    sum of every panel in the batch; numpy computes each (1, 32) @ (32, 1)
    product with the dot that np.dot(w, fx) uses on one panel, so a panel's
    value does not depend on the batch it was evaluated in.
    """
    per_run = runs.shape[1] - 1
    step = max(1, _BATCH_PANELS // per_run)
    out = np.empty((len(runs), per_run))
    for start in range(0, len(runs), step):
        x, w = panel_nodes(runs[start:start + step], _NODES)
        fx = np.asarray(f(x), dtype=float).reshape(-1, _NODES)
        w = w.reshape(-1, 1, _NODES)
        out[start:start + step] = np.matmul(w, fx[:, :, None]).reshape(-1, per_run)
    return out


def integrate_adaptive(f, edges, tol: float = 1e-10, max_depth: int = 24) -> float:
    """Panel-wise adaptive Gauss-Legendre.

    Each panel is accepted when the 32-node estimate agrees with the sum of
    the two half-panel estimates within its share of `tol`; otherwise the
    panel is bisected.  Suited to integrands with isolated kinks (absolute
    differences of densities) whose breakpoints are not all known up front.

    The panels are refined level by level: the halves of every open panel
    of one depth go to f in batched calls of up to 512 panels.  The accepted
    panels are summed one after another from the right end of the interval
    to the left, the order of a depth-first bisection that visits right
    halves first, so the result does not depend on the batching.
    """
    edges = np.asarray(edges, dtype=float)
    span = float(edges[-1] - edges[0])
    a, b = edges[:-1], edges[1:]
    coarse = _panel_integrals(f, np.column_stack([a, b]))[:, 0]
    accepted = []
    depth = 0
    while len(a):
        mid = 0.5 * (a + b)
        halves = _panel_integrals(f, np.column_stack([a, mid, b]))
        left, right = halves[:, 0], halves[:, 1]
        fine = left + right
        done = np.abs(fine - coarse) <= tol * np.maximum((b - a) / span, 1e-12)
        if depth >= max_depth:
            done[:] = True
        accepted.append((a[done], b[done], fine[done]))
        split = ~done
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
        coarse = np.concatenate([left[split], right[split]])
        depth += 1
    if not accepted:
        return 0.0
    a, b, fine = (np.concatenate(parts) for parts in zip(*accepted))
    total = 0.0
    for value in fine[np.lexsort((-b, -a))].tolist():
        total += value
    return total
