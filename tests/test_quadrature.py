import numpy as np
import pytest

from betadens import KERNELS, KernelDensity, ProcessKind, ProcessSpec, gaussian, generate
from betadens import lp_distance, silverman_bandwidth
from betadens import quadrature
from betadens.quadrature import _BATCH_PANELS, _NODES, integrate_adaptive, panel_nodes


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
    y = generate(ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=300, seed=7,
                             mu=10.0, sigma2=2.0))
    est = KernelDensity(y, KERNELS[kernel], silverman_bandwidth(y))
    ref = gaussian(10.0, 2.0)
    lo, hi = ref.support
    eb = est.breakpoints()
    edges = np.unique(np.concatenate([[lo, hi], eb[(eb > lo) & (eb < hi)]]))
    f = _Counted(lambda x: np.abs(est.evaluate(x) - ref.pdf(x)) ** p)
    value = integrate_adaptive(f, edges, tol=1e-8)
    assert value == _adaptive_oracle(f, edges, tol=1e-8)
    assert value == lp_distance(est, ref, p)
    # batched: at most _BATCH_PANELS panels of _NODES nodes per call
    assert max(f.sizes[:-1]) <= _BATCH_PANELS * _NODES


def test_stacked_matmul_is_the_per_panel_dot():
    # _panel_integrals takes one stacked matmul per batch in place of one
    # np.dot per panel; the bits must not depend on the batch size
    rng = np.random.default_rng(11)
    for k in range(1, 601):
        _, w = panel_nodes(np.sort(rng.uniform(-1.0, 1.0, k + 1)), _NODES)
        w = w.reshape(k, _NODES)
        fx = rng.standard_normal((k, _NODES)) * 10.0 ** rng.uniform(-300, 300, (k, 1))
        got = np.matmul(w[:, None, :], fx[:, :, None]).ravel()
        want = np.array([np.dot(wi, fi) for wi, fi in zip(w, fx)])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_batch_size_does_not_change_a_bit(kernel, monkeypatch):
    y = generate(ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=300, seed=7,
                             mu=10.0, sigma2=2.0))
    est = KernelDensity(y, KERNELS[kernel], silverman_bandwidth(y))
    ref = gaussian(10.0, 2.0)
    edges = np.unique(np.concatenate([ref.support, est.breakpoints()]))
    edges = edges[(edges >= ref.support[0]) & (edges <= ref.support[1])]
    f = lambda x: np.abs(est.evaluate(x) - ref.pdf(x))
    values = []
    for panels in (1, 7, 128, 512):
        monkeypatch.setattr(quadrature, "_BATCH_PANELS", panels)
        values.append(integrate_adaptive(f, edges, tol=1e-8))
    assert values[0].hex() == values[1].hex() == values[2].hex() == values[3].hex()
    assert values[0] == _adaptive_oracle(f, edges, tol=1e-8)


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
