import functools
import math

import numpy as np
import pytest

from betadens import DomainError, ProcessKind, ProcessSpec, norm_cdf, norm_ppf, uniform01
from betadens import normal
from betadens.normal import _A, _B, _C, _D, _LOG_SQRT_2PI, _P_LOW, norm_ppf_array
from betadens.processes import _chain_registers, register_values


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _acklam_scalar(p: float) -> float:
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def norm_ppf_scalar(p: float) -> float:
    # the quantile on one Python float, step by step: the operation sequence
    # that norm_ppf_array runs on whole arrays
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -norm_ppf_scalar(1.0 - p)
    x = _acklam_scalar(p)
    log_p = math.log(p)
    for _ in range(2):
        phi_cdf = _cdf(x)
        if phi_cdf <= 0.0:
            break
        log_cdf = math.log(phi_cdf)
        ratio = math.exp(log_cdf + 0.5 * x * x + _LOG_SQRT_2PI)
        x -= (log_cdf - log_p) * ratio
    return x


def _clipped_chain_uniforms(n: int, seed: int) -> np.ndarray:
    # the values that generate sends through the Gaussian quantile
    spec = ProcessSpec(ProcessKind.AR1_GAUSSIAN, n=n, seed=seed, mu=0.0, sigma2=1.0)
    u = register_values(uniform01(), *_chain_registers(spec))
    return np.clip(u, 2.0**-64, 1.0 - 2.0**-53)


@functools.cache
def _byte_inputs():
    rng = np.random.default_rng(2024)
    lower = np.exp(rng.uniform(math.log(1e-10), math.log(_P_LOW), 20_000))
    upper = 1.0 - np.exp(rng.uniform(math.log(1e-12), math.log(_P_LOW), 20_000))
    specials = [2.0**-64, 1.0 - 2.0**-53, 0.5,
                math.nextafter(_P_LOW, 0.0), _P_LOW, math.nextafter(_P_LOW, 1.0)]
    return {"uniform": rng.random(200_000), "lower tail": lower,
            "upper tail": upper, "specials": np.array(specials),
            "chain 5000": _clipped_chain_uniforms(5_000, 105),
            "chain 110000": _clipped_chain_uniforms(110_000, 105)}


@pytest.mark.parametrize("name", ["uniform", "lower tail", "upper tail", "specials",
                                  "chain 5000", "chain 110000"])
def test_array_quantile_has_the_bytes_of_the_scalar_one(name):
    p = _byte_inputs()[name]
    want = np.array([norm_ppf_scalar(v) for v in p.tolist()])
    got = norm_ppf_array(p)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("chunk", [1, 7, 4096, 10**6])
def test_chunk_size_does_not_change_a_bit(chunk, monkeypatch):
    p = np.concatenate([_byte_inputs()["specials"], _byte_inputs()["chain 5000"]])
    want = norm_ppf_array(p)
    monkeypatch.setattr(normal, "_CHUNK", chunk)
    assert norm_ppf_array(p).tobytes() == want.tobytes()


def test_scalar_quantile_is_the_one_element_case():
    for p in (2.0**-64, 1e-300, 0.01, _P_LOW, 0.3, 0.5, 0.7, 1.0 - 2.0**-53):
        assert norm_ppf(p).hex() == norm_ppf_scalar(p).hex()
        assert type(norm_ppf(p)) is float


def test_array_quantile_keeps_the_shape():
    p = np.random.default_rng(5).random(12)
    flat = norm_ppf_array(p)
    zero_d = norm_ppf_array(np.float64(p[3]))
    assert zero_d.shape == () and zero_d.tobytes() == flat[3:4].tobytes()
    grid = norm_ppf_array(p.reshape(3, 4))
    assert grid.shape == (3, 4) and grid.tobytes() == flat.tobytes()


def test_an_entry_whose_cdf_is_zero_takes_no_further_step(monkeypatch):
    # on (0, 1) the CDF of the fit and of its first step is never 0; an erfc
    # that gives 0 on about a third of its arguments stops entries at the
    # first step and at the second, as the scalar break does
    erfc = math.erfc
    stopped = []

    def stopping_erfc(v):
        if hash(v) % 3 == 0:
            stopped.append(v)
            return 0.0
        return erfc(v)

    monkeypatch.setattr(math, "erfc", stopping_erfc)
    p = np.random.default_rng(8).random(3000)
    want = np.array([norm_ppf_scalar(v) for v in p.tolist()])
    assert 1000 < len(stopped) < 4000
    monkeypatch.setattr(normal, "_ERFC", np.frompyfunc(stopping_erfc, 1, 1))
    assert norm_ppf_array(p).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [0.0, 1.0, math.nan])
@pytest.mark.parametrize("position", [0, 7, -1])
def test_array_quantile_checks_every_entry_first(bad, position, monkeypatch):
    calls = []

    def counting(func):
        def call(v):
            calls.append(v)
            return func(v)
        return np.frompyfunc(call, 1, 1)

    for name, func in (("_ERFC", math.erfc), ("_LOG", math.log), ("_EXP", math.exp)):
        monkeypatch.setattr(normal, name, counting(func))
    p = np.full(20, 0.3)
    p[position] = bad
    with pytest.raises(DomainError, match="needs p in"):
        norm_ppf_array(p)
    assert calls == []
    norm_ppf_array(np.full(20, 0.3))
    assert calls


def _ppf_bisection(p: float, lo: float = -40.0, hi: float = 0.0) -> float:
    # independent high-precision oracle: bisection on the erfc-based CDF.
    # The upper tail reduces to the lower one through the exact symmetry
    # PPF(1 - u) = -PPF(u); evaluating erfc near 2 would lose ~8 digits.
    if p > 0.5:
        return -_ppf_bisection(1.0 - p)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ORACLE_GRID = [1e-300, 1e-200, 1e-100, 1e-30, 1e-9, 1e-4, 0.02425, 0.025,
               0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 1.0 - 1e-4, 1.0 - 1e-9,
               1.0 - 1e-12, 1.0 - 1e-16]


@pytest.mark.parametrize("p", ORACLE_GRID)
def test_quantile_against_bisection_oracle(p):
    assert abs(norm_ppf(p) - _ppf_bisection(p)) < 1e-9


def test_median_and_tail_examples():
    assert norm_ppf(0.5) == 0.0
    assert norm_ppf(0.975) == pytest.approx(1.959964, abs=1e-5)
    assert norm_ppf(0.025) == pytest.approx(-1.959964, abs=1e-5)


def test_symmetry():
    for u in (0.01, 0.2, 0.4999, 0.25):
        assert norm_ppf(1.0 - u) == pytest.approx(-norm_ppf(u), abs=1e-13)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.25, 1.5, 2.0])
def test_rejects_out_of_domain(p):
    with pytest.raises(DomainError):
        norm_ppf(p)


def test_monotone_on_grid():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    xs = [norm_ppf(p) for p in ps]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_cdf_ppf_roundtrip():
    for p in (1e-12, 1e-6, 0.01, 0.37, 0.5, 0.88, 1.0 - 1e-7):
        assert norm_cdf(norm_ppf(p)) == pytest.approx(p, rel=1e-12)


def test_pdf_matches_cdf_derivative():
    for x in (-3.0, -1.0, 0.0, 0.5, 2.5):
        h = 1e-6
        numeric = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert pdf == pytest.approx(numeric, rel=1e-8)
