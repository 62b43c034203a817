import numpy as np
import pytest

from betadens import KERNELS, ProcessKind, ProcessSpec, gaussian, generate, kernel_estimate
from betadens import lp_distance, silverman_bandwidth
from betadens.quadrature import integrate_adaptive, panel_nodes


def _adaptive_oracle(f, edges, tol=1e-10, max_depth=24, depths=None):
    # the per-panel stack that integrate_adaptive replaced: one f call per
    # panel, right halves popped first; `depths` collects accepted depths
    edges = np.asarray(edges, dtype=float)

    def one(a, b):
        x, w = panel_nodes((a, b), 32)
        return float(np.dot(w, f(x)))

    total = 0.0
    stack = [(float(a), float(b), one(a, b), 0)
             for a, b in zip(edges[:-1], edges[1:])]
    span = float(edges[-1] - edges[0])
    while stack:
        a, b, coarse, depth = stack.pop()
        mid = 0.5 * (a + b)
        left, right = one(a, mid), one(mid, b)
        fine = left + right
        if depth >= max_depth or abs(fine - coarse) <= tol * max((b - a) / span, 1e-12):
            total += fine
            if depths is not None:
                depths.append(depth)
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
    return total


class _Counted:
    """An integrand that records the size of each call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(len(x))
        return self.f(x)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_minus_gaussian_matches_oracle(kernel, p):
    sample = generate(ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=300, seed=7,
                                  mu=10.0, sigma2=2.0))
    est = kernel_estimate(sample, KERNELS[kernel], silverman_bandwidth(sample))
    ref = gaussian(10.0, 2.0)
    lo, hi = ref.support
    eb = est.breakpoints()
    edges = np.unique(np.concatenate([[lo, hi], eb[(eb > lo) & (eb < hi)]]))
    f = _Counted(lambda x: np.abs(est.evaluate(x) - ref.pdf(x)) ** p)
    value = integrate_adaptive(f, edges, tol=1e-8)
    assert value == _adaptive_oracle(f, edges, tol=1e-8)
    assert value == lp_distance(est, ref, p)
    # batched: at most 128 panels of 32 nodes per call
    assert max(f.sizes[:-1]) <= 4096


def test_unlisted_kink_matches_oracle():
    f = lambda x: np.abs(x - 1.0 / np.pi)
    edges = np.linspace(0.0, 1.0, 4)
    depths = []
    value = integrate_adaptive(f, edges)
    assert value == _adaptive_oracle(f, edges, depths=depths)
    assert max(depths) > 1
    exact = 0.5 * ((1.0 / np.pi) ** 2 + (1.0 - 1.0 / np.pi) ** 2)
    assert value == pytest.approx(exact, abs=1e-12)


def test_single_panel_matches_oracle():
    edges = (0.0, 2.0)
    value = integrate_adaptive(np.sqrt, edges)
    assert value == _adaptive_oracle(np.sqrt, edges)
    assert value == pytest.approx(2.0 ** 1.5 / 1.5, abs=1e-9)


@pytest.mark.parametrize("max_depth", [0, 1, 9])
def test_max_depth_matches_oracle(max_depth):
    # a jump no panel edge meets: the panel holding it is bisected until
    # max_depth stops it
    f = lambda x: (x > 0.3).astype(float) + x * x
    edges = np.array([0.0, 0.5, 1.0])
    depths = []
    value = integrate_adaptive(f, edges, tol=1e-14, max_depth=max_depth)
    assert value == _adaptive_oracle(f, edges, tol=1e-14, max_depth=max_depth,
                                     depths=depths)
    assert max(depths) == max_depth


def test_no_panels_integrate_to_zero():
    assert integrate_adaptive(np.exp, [1.0]) == 0.0
