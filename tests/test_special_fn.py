import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from nfradar import fresnel, fresnel_conj
from nfradar.special_fn import (NODE_TOL, chebyshev_basis,
                                chebyshev_node_count, chebyshev_nodes, cis,
                                gauss_legendre, phase_node_count)

from oracles import fresnel_reference

ROOT = Path(__file__).resolve().parents[1]
# where fresnel switches form: Taylor series, then auxiliary functions
# in 1/x, then in (4/x)^4
SPLITS = (1.6, 4.0)


def scipy_fresnel(x):
    s, c = scipy.special.fresnel(x)  # scipy returns (S, C)
    return c + 1j * s

# frozen from the composite Gauss-Legendre oracle (tests/oracles.py),
# cross-checked against adaptive quadrature at 1e-15
F_OF_ONE = 0.779893400376823 + 0.438259147390355j


def test_zero():
    assert fresnel(0.0) == 0.0


def test_value_at_one():
    assert fresnel(1.0) == pytest.approx(F_OF_ONE, abs=1e-12)


def test_oddness_exact():
    # exact, not approximate: both components flip sign bit for bit
    for x in (0.3, 1.0, 2.5, 7.9):
        assert fresnel(-x) == -fresnel(x)


def test_large_argument_limit():
    assert abs(fresnel(50.0) - (0.5 + 0.5j)) <= 2e-2
    # the envelope of the spiral around the limit tightens as 1/x
    d10 = abs(fresnel(10.0) - (0.5 + 0.5j))
    d20 = abs(fresnel(20.0) - (0.5 + 0.5j))
    d50 = abs(fresnel(50.0) - (0.5 + 0.5j))
    assert d10 > d20 > d50


def test_against_quadrature_oracle(rng):
    x = rng.uniform(-10.0, 10.0, 1000)
    assert np.max(np.abs(fresnel(x) - fresnel_reference(x))) <= 1e-10


def test_array_and_scalar_forms():
    x = np.array([0.0, 0.5, -0.5, 2.0])
    arr = fresnel(x)
    assert arr.shape == x.shape
    assert arr.dtype == np.complex128
    for xi, v in zip(x, arr):
        scalar = fresnel(float(xi))
        assert isinstance(scalar, complex)
        assert scalar == v


def test_conjugate_variant():
    x = np.array([0.3, 1.0, 4.2])
    assert np.array_equal(fresnel_conj(x), np.conj(fresnel(x)))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        fresnel(float("nan"))
    with pytest.raises(ValueError):
        fresnel(np.array([1.0, float("inf")]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-12.0, max_value=12.0, allow_nan=False))
def test_oddness_property(x):
    assert fresnel(-x) == -fresnel(x)


def test_against_scipy(rng):
    # scipy's cephes evaluation is the oracle; the contract is 1e-10
    x = rng.uniform(-40.0, 40.0, 1_000_000)
    assert np.max(np.abs(fresnel(x) - scipy_fresnel(x))) <= 1e-13


def test_continuous_across_splits():
    # one ulp either side of each split, and the split itself
    for split in SPLITS:
        x = np.array([np.nextafter(split, 0.0), split,
                      np.nextafter(split, np.inf)])
        x = np.concatenate([x, -x])
        got = fresnel(x)
        assert np.max(np.abs(got - scipy_fresnel(x))) <= 1e-13
        # F' = exp(j pi x^2/2) has modulus 1: one ulp moves F by 1e-15
        assert np.max(np.abs(np.diff(got[:3]))) <= 1e-14


def test_huge_arguments_finite():
    # x^2 would overflow; the result rounds to the limit (1 + j)/2
    x = np.array([1e20, 1e200, np.finfo(float).max])
    assert np.array_equal(fresnel(x), np.full(3, 0.5 + 0.5j))
    assert np.array_equal(fresnel(-x), np.full(3, -0.5 - 0.5j))


def mp_cis_error(theta):
    """Largest |cis(theta) - e^{j theta}| against mpmath at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    got = cis(theta)
    with mpmath.workdps(50):
        return max(float(abs(mpmath.mpc(g) - mpmath.expj(mpmath.mpf(t))))
                   for t, g in zip(theta.tolist(), got.tolist()))


@pytest.mark.filterwarnings("error")
def test_cis_against_mpmath(rng):
    # phases up to 3e4 rad: the closed form's carrier phase 2 k r_s
    # reaches 2.6e4 at 8 m and 77 GHz. np.exp(1j theta) is within 1.1e-16
    # here, cis within 3.6e-16
    assert mp_cis_error(rng.uniform(-3e4, 3e4, 2000)) <= 5e-16


@pytest.mark.filterwarnings("error")
def test_cis_near_quarter_turns():
    # around k pi/2 one part of the phasor is near 0 and tan(theta/2) near
    # 0, 1 or a pole
    k = np.arange(-16, 17) * (np.pi / 2.0)
    near = np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9])
    assert mp_cis_error((k[:, None] + near).ravel()) <= 5e-16


@pytest.mark.filterwarnings("error")
def test_cis_zero_exact():
    one = cis(0.0)
    assert one == 1.0 and one.real == 1.0 and one.imag == 0.0
    assert not np.signbit(one.imag)


@pytest.mark.filterwarnings("error")
def test_cis_conjugate_symmetry_bitwise(rng):
    theta = np.concatenate([rng.uniform(-3e4, 3e4, 50_000),
                            rng.uniform(-4.0, 4.0, 50_000)])
    assert np.array_equal(cis(-theta).view(np.uint64),
                          np.conj(cis(theta)).view(np.uint64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [0.75, np.array(0.75),
                                   np.linspace(-7.0, 7.0, 6).reshape(2, 3)],
                         ids=["float", "0-d", "2x3"])
def test_cis_shape(theta):
    # the shape of theta, as a ufunc gives: a complex scalar for a float
    # or a 0-d array
    got = cis(theta)
    assert np.shape(got) == np.shape(theta)
    assert np.asarray(got).dtype == np.complex128
    if np.ndim(theta) == 0:
        assert isinstance(got, complex)
    flat = np.ravel(theta)
    assert np.array_equal(np.ravel(got), cis(flat))
    assert np.max(np.abs(np.ravel(got) - np.exp(1j * flat))) <= 5e-16


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test oracle only: importing the CLI and running a tiny
    # experiment must not load it
    code = (
        "import sys\n"
        "import nfradar.cli\n"
        "nfradar.cli.main(['validate-spa', '--set', 'scenario.n_antennas=1',"
        f" '--out', {str(tmp_path / 'out.csv')!r}])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[]"


def test_exact_backend_imports_no_numpy_polynomial(tmp_path):
    # the exact backend's Gauss-Legendre rules are gauss_legendre's:
    # validate-spa and exact sinc synthesis at 10 GHz must not load
    # numpy.polynomial (its leggauss added 0.41 MB of peak RSS)
    code = (
        "import sys\n"
        "import nfradar.cli\n"
        "from nfradar import reference_scenario, synthesize\n"
        "nfradar.cli.main(['validate-spa', '--out', "
        f"{str(tmp_path / 'out.csv')!r}])\n"
        "synthesize(reference_scenario(carrier_freq=1e10), "
        "backend='exact')\n"
        "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False"


def test_coefficients_match_fresh_fit():
    # the committed literals are what the generator writes today
    pytest.importorskip("mpmath")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fresnel_coefficients.py"),
         "--check"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def ellipse_log_bound(s, k):
    """ln of phase_node_count's bound 4 M rho^(1-k) / (rho - 1) at its
    rho, or inf where that rho does not exceed 1."""
    c = 2.0 * (k - 1) / s
    if c <= 1.0:
        return np.inf
    a = np.arccosh(c)
    return np.log(4.0) + s / 2.0 * np.sinh(a) - (k - 1) * a \
        - np.log(np.expm1(a))


@pytest.mark.parametrize("s", [0.5, 4.2, 69.0, 531.5])
def test_phase_node_count(s):
    # the smallest K whose bound is below NODE_TOL, and e^{j s x/2}
    # interpolated at K first-kind points is within rounding of itself;
    # for large s it is far below the Lagrange bound's count
    k = phase_node_count(s)
    assert ellipse_log_bound(s, k) <= np.log(NODE_TOL) \
        < ellipse_log_bound(s, k - 1)
    f = lambda x: np.exp(0.5j * s * x)
    x, to_coef = chebyshev_nodes(k)
    grid = np.linspace(-1.0, 1.0, 2001)
    err = np.abs(chebyshev_basis(grid, k).T @ (to_coef @ f(x)) - f(grid))
    assert err.max() <= 1e-15 * max(k, 10)
    assert k <= chebyshev_node_count(s)
    if s > 50:
        assert k < 0.7 * chebyshev_node_count(s)
    assert phase_node_count(0.0) == 1



@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_chebyshev_basis_shape(shape):
    # T_j on a new first axis for any x, each T_j one contiguous array
    x = np.random.default_rng(2).uniform(-1.0, 1.0, shape)
    basis = chebyshev_basis(x, 6)
    assert basis.shape == (6,) + shape
    assert basis.flags.c_contiguous
    assert np.all(basis[0] == 1.0) and np.array_equal(basis[1], x)


def test_chebyshev_basis_rows_of_2d_x():
    # the objective's (groups, hypotheses) x: each group's slice carries
    # the bits of a 1-D call on that group's row
    x = np.random.default_rng(3).uniform(-1.0, 1.0, (13, 512))
    basis = chebyshev_basis(x, 12)
    for u in range(x.shape[0]):
        assert chebyshev_basis(x[u], 12).tobytes() == basis[:, u].tobytes()


@pytest.mark.parametrize("k", [1, 2, 12, 17])
def test_chebyshev_basis_is_cos_j_arccos(k):
    x = np.concatenate((np.linspace(-1.0, 1.0, 2001),
                        np.random.default_rng(4).uniform(-1.0, 1.0, 2000)))
    j = np.arange(k)[:, None]
    err = np.abs(chebyshev_basis(x, k) - np.cos(j * np.arccos(x)))
    assert err.max() <= 1e-14

def mp_legendre_rule(n, nodes):
    """The roots of P_n nearest the float nodes, each refined by two
    Newton steps on the three-term recurrence at 40 digits, and their
    weights 2 / ((1 - x^2) P_n'(x)^2), as floats."""
    mpmath = pytest.importorskip("mpmath")
    x_out, w_out = [], []
    with mpmath.workdps(40):
        for x0 in nodes:
            x = mpmath.mpf(float(x0))
            for _ in range(2):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            x_out.append(float(x))
            w_out.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(x_out), np.array(w_out)


@pytest.mark.parametrize("n", [1, 2, 3, 13, 26, 51, 52, 103, 299, 597])
def test_gauss_legendre_against_mpmath(n):
    # the nodes within 5e-16 and the weights within 2e-13 relative of the
    # 40-digit roots (leggauss's end weights are 4.4e-12 off at n = 103
    # and 1.4e-9 at n = 597); every node of the upper half up to 103,
    # beyond it every eighth and the eight nearest the end, where the
    # first guess is worst and the weights smallest
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0.0)
    upper = np.arange(n // 2, n)
    if n > 103:
        upper = np.union1d(upper[::8], upper[-8:])
    want_x, want_w = mp_legendre_rule(n, x[upper])
    assert np.max(np.abs(x[upper] - want_x)) <= 5e-16
    assert np.max(np.abs(w[upper] / want_w - 1.0)) <= 2e-13


@pytest.mark.parametrize("n", [1, 2, 3, 13, 26, 51, 52, 103, 299, 597])
def test_gauss_legendre_symmetric_and_exact(n):
    # the rule is bitwise mirror-symmetric with the middle node of an odd
    # rule exactly 0, and integrates x^(2p) exactly for 2p <= 2n - 2: the
    # moments are sums of positive terms, so weights within 2e-13 and
    # nodes within 5e-16 keep them within 1e-12 (leggauss: 4.4e-11 at
    # n = 597)
    x, w = gauss_legendre(n)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    p = np.arange(n)
    moments = (x[:, None] ** (2 * p)).T @ w
    assert np.max(np.abs(moments * (2 * p + 1) / 2.0 - 1.0)) <= 1e-12


def test_gauss_legendre_at_axis_budget():
    # the exact backend's largest rule, 2,048 nodes on a plate axis: the
    # end node, its neighbour, one node mid-way and the node nearest 0
    n = 2048
    x, w = gauss_legendre(n)
    at = np.array([n - 1, n - 2, 3 * n // 4, n // 2])
    want_x, want_w = mp_legendre_rule(n, x[at])
    assert np.max(np.abs(x[at] - want_x)) <= 5e-16
    assert np.max(np.abs(w[at] / want_w - 1.0)) <= 2e-13
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_gauss_legendre_temporaries():
    # the 2,048-node rule holds at most two (1,024 x 1,025) matrices at
    # once, a Newton step's phase and its cosine (16.2 MiB traced): the
    # weights are built in the last step's phase matrix
    gauss_legendre(2048)
    tracemalloc.start()
    try:
        gauss_legendre(2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 17 << 20


def test_gauss_legendre_rejects_empty_rule():
    with pytest.raises(ValueError, match="n >= 1"):
        gauss_legendre(0)
