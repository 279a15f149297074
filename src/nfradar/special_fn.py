"""Complex Fresnel integral under the pi/2 kernel, the Chebyshev
interpolation toolkit of the delay-space objectives and of the exact
backend's node counts, and the exact backend's Gauss-Legendre rules.

F(x) = integral of exp(j*pi*t^2/2) dt from 0 to x, i.e. F = C + jS with the
classic cosine and sine Fresnel integrals. This normalization is the one
convention used across the package; nothing else is accepted at interfaces.

The evaluation is numpy only, in three ranges of |x|: the Taylor series of
C/x and S/x^3 in x^4 below 1.6, and above it the auxiliary functions f, g
of F = (1 + j)/2 - (g + jf) exp(j pi x^2/2), as polynomials in 1/x up to 4
and in (4/x)^4 beyond. tools/fresnel_coefficients.py fits the coefficients
against mpmath and writes them below.

Chebyshev interpolation (Trefethen, Approximation Theory and Approximation
Practice, 2013, ch. 7-8): a smooth f on [-1, 1] is taken at the K
first-kind points x_i = cos(pi (i + 1/2) / K) (chebyshev_nodes), its
coefficients are C = to_coef f(x), and f(x) = T(x) C with the basis rows
T_j(x), j < K (chebyshev_basis); chebyshev_node_count sets K from a
bound on the K-th derivative, phase_node_count from a Bernstein ellipse.

Gauss-Legendre rules (gauss_legendre) come from Newton's method on the
finite cosine series of P_n(cos theta), with no eigenproblem and no
recurrence loop.
"""

from __future__ import annotations

import math

import numpy as np

# --- begin generated coefficients ---
_NEAR = 1.6
_FAR = 4.0
_MID_A = 5.333333333333333
_MID_B = 2.3333333333333335
_BELOW_FAR = np.array((
    # C/x + j S/x^3 in x^4
    (0j,
     0j,
     0j,
     (-4.727226384742681e-29-2.3192836677213777e-30j),
     (1.7837783103437512e-26+9.334382689020993e-28j),
     (-5.877896118036892e-24-3.295271477907068e-25j),
     (1.6748476126215183e-21+1.011069642466722e-22j),
     (-4.079981449233878e-19-2.6678713628413992e-20j),
     (8.384729705118554e-17+5.980053239210405e-18j),
     (-1.4309189731715198e-14-1.1223244787983955e-15j),
     (1.989685792418022e-12+1.7334102088874846e-13j),
     (-2.2022769254454663e-10-2.1574306805843444e-11j),
     (1.8843499115272686e-08+2.1082121933214546e-09j),
     (-1.2000972558600288e-06-1.564714450092211e-07j),
     (5.4074133814083916e-05+8.444272883545254e-06j),
     (-0.0016048831356425355-0.0003121169423545792j),
     (0.028185500877894225+0.007244784204197004j),
     (-0.24674011002723398-0.09228058535803518j),
     (1+0.5235987755982989j)),
    # pi^2 x^3 g + j pi x f in _MID_A/x - _MID_B
    ((-6.870988173588537e-10-1.8984003116961402e-11j),
     (1.4175426786178356e-09+1.239324948641321e-10j),
     (4.039318416961133e-09-1.3316954518019233e-10j),
     (-1.9407752094536726e-08-9.062340916608042e-10j),
     (2.066031537228683e-08+3.655101951095959e-09j),
     (8.245659310587671e-08-2.6313548353553123e-09j),
     (-3.9207614806281533e-07-2.4198377256333194e-08j),
     (4.3141195911599754e-07+9.240633423840122e-08j),
     (2.0776119700851686e-06-2.6624938446883405e-08j),
     (-8.958046404111258e-06-8.33675339277218e-07j),
     (3.4726829399343153e-06+2.331050536671041e-06j),
     (7.348386614725848e-05+3.7463638109381903e-06j),
     (-0.00018703451387850026-3.5460721308374076e-05j),
     (-0.00037125549601399086+2.086576734970742e-05j),
     (0.002495180858098332+0.00045034937982216087j),
     (0.0012674906770446736-0.0007339425503530132j),
     (-0.028963804226671636-0.007942068791325472j),
     (-0.06839943724890586-0.015668224778025736j),
     (0.9534158955099388+0.9899750866586642j)),
)).T[:, :, None]
_ABOVE_FAR = np.array((
    # pi^2 x^3 g + j pi x f in (_FAR/x)^4
    ((-2.781500479859657e-09-1.0907917273183221e-10j),
     (2.263269766051516e-08+9.549413252378585e-10j),
     (-1.2795413953502808e-07-6.168049813983449e-09j),
     (8.4318884254231e-07+4.9657244655379425e-08j),
     (-8.377590566626138e-06-6.444541352516399e-07j),
     (0.00014803083412354145+1.6447875678032026e-05j),
     (-0.00593678810088069-0.001187357620698124j),
     (0.9999999999999758+0.9999999999999991j)),
)).T[:, :, None]
# --- end generated coefficients ---

# beyond this the correction to (1 + j)/2 is below 3e-19, under half an
# ulp of 1/2; clamping there keeps x^2 finite
_HUGE = 2.0 ** 60


def _horner(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise complex polynomials at real v held as complex: table
    (degree + 1, rows, 1), highest degree first; v (n,) or (rows, n); the
    result is (rows, n). A complex product with a zero imaginary part
    rounds each part as the real product would."""
    acc = table[0] * v
    acc += table[1]
    for coeff in table[2:]:
        acc *= v
        acc += coeff
    return acc


def _from_auxiliary(x: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """F(x) for x > 0 from scaled = pi^2 x^3 g + j pi x f, overwritten:
    (1 + j)/2 - (g + jf) exp(j pi x^2/2)."""
    h = (1.0 / np.pi) / x
    np.multiply(scaled.real, h * h / x, out=scaled.real)
    np.multiply(scaled.imag, h, out=scaled.imag)
    phase = np.empty(x.shape, dtype=complex)
    theta = (np.pi / 2.0) * (x * x)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    scaled *= phase
    return np.subtract(0.5 + 0.5j, scaled, out=scaled)


def _below_far(x: np.ndarray) -> np.ndarray:
    """F(x) for 0 <= x < _FAR. Both forms run on every element, as one
    two-row polynomial evaluation (the elements are few, so the number of
    numpy calls is what costs), and each element keeps the form of its
    range."""
    mid_x = np.maximum(x, _NEAR)
    v = np.empty((2, x.size), dtype=complex)
    v[0] = x * x
    v[0] *= v[0]
    v[1] = _MID_A / mid_x - _MID_B
    near, mid = _horner(_BELOW_FAR, v)
    np.multiply(near.real, x, out=near.real)
    np.multiply(near.imag, x * x * x, out=near.imag)
    return np.where(x < _NEAR, near, _from_auxiliary(mid_x, mid))


def fresnel(x):
    """F(x) for real x, scalar or array, complex result.

    The absolute error is below 5e-15 for |x| <= 40 (scipy's cephes
    evaluation: 2e-15). Beyond that it grows like 1e-16 |x|, from the
    rounding of pi x^2/2, as in cephes. F is odd exactly: every form runs
    on |x|, and the result is negated where x < 0. Re and Im are each
    bounded by about 0.9.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    ax = np.abs(flat)
    # NaN fails the comparison too
    if not ax.max(initial=0.0) < np.inf:
        raise ValueError("fresnel requires finite arguments")
    # the far form everywhere, clamped to its range; the few elements
    # below _FAR are then overwritten
    far_x = np.minimum(np.maximum(ax, _FAR), _HUGE)
    w = _FAR / far_x
    w *= w
    w *= w
    out = _from_auxiliary(far_x, _horner(_ABOVE_FAR, w.astype(complex))[0])
    below = np.flatnonzero(ax < _FAR)
    if below.size:
        out[below] = _below_far(ax[below])
    np.negative(out, out=out, where=flat < 0.0)
    if np.isscalar(x) or arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def fresnel_conj(x):
    """Conjugate Fresnel integral F*(x), the form the pair coefficients use."""
    return np.conj(fresnel(x))


# bound on the Chebyshev interpolation error of chebyshev_node_count, per
# unit of the interpolated function's magnitude
NODE_TOL = 1e-17


def chebyshev_node_count(s: float) -> int:
    """Smallest K >= 1 with 2 (s/2)^K / (K+1)! <= NODE_TOL.

    The Lagrange remainder of interpolation on [-1, 1] at K first-kind
    points is at most max|f^(K)| / (2^(K-1) K!), so this K suffices for
    any f with max|f^(K)| <= s^K / (K+1) and |f| <= 1. That holds for the
    band-limited sinc(B (t - tau)) in tau over [mid - h, mid + h] with
    s = pi B h, and for e^{j phi(x)} with a linear phase spanning s over
    [-1, 1] (there max|f^(K)| = (s/2)^K, a tighter bound). The bound is
    carried as a mantissa and a power of two, so that it cannot overflow
    where s is large; the scaling is exact."""
    k, bound, shift = 1, s / 2.0, 0
    while bound > math.ldexp(NODE_TOL, -shift):
        k += 1
        bound, exponent = math.frexp(bound * (s / (2.0 * (k + 1))))
        shift += exponent
    return k


def phase_node_count(s: float) -> int:
    """Smallest K >= 2 (1 for s = 0) at which the Bernstein-ellipse bound
    holds the error of interpolating e^{j s x / 2}, a linear phase spanning
    s over [-1, 1], at K first-kind Chebyshev points below NODE_TOL.

    The function is entire, of modulus at most M = e^{s (rho - 1/rho) / 4}
    on the ellipse with foci -1, 1 and radius rho > 1, so its Chebyshev
    coefficients are at most 2 M rho^-j and the interpolant is within
    4 M rho^(1-K) / (rho - 1) (Trefethen, Approximation Theory and
    Approximation Practice, 2013, Thm 8.2; the aliasing argument gives the
    same for first-kind points). Each K takes ln rho = arccosh(2 (K-1) / s),
    where the exponent s sinh(ln rho) / 2 - (K-1) ln rho is least. That
    is about s/2 + 10 s^(1/3) points (77 at s = 69, 347 at 531), where
    chebyshev_node_count's Lagrange bound takes about e s / 2 (122, 751)."""
    if s <= 0.0:
        return 1
    limit = math.log(NODE_TOL / 4.0)
    k = max(int(s / 2.0), 1)
    while True:
        k += 1
        c = 2.0 * (k - 1) / s
        if c > 1.0:
            a = math.acosh(c)
            if s / 2.0 * math.sinh(a) - (k - 1) * a \
                    - math.log(math.expm1(a)) <= limit:
                return k


def chebyshev_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, to_coef): the k first-kind Chebyshev points
    x_i = cos(pi (i + 1/2) / k) on [-1, 1], and the (k, k) matrix taking
    values at them to coefficients, C_j = (2/k) sum_i T_j(x_i) f(x_i) with
    C_0 halved."""
    theta = np.pi * (np.arange(k) + 0.5) / k
    to_coef = np.cos(np.outer(np.arange(k), theta)) * (2.0 / k)
    to_coef[0] /= 2.0
    return np.cos(theta), to_coef


def chebyshev_basis(x: np.ndarray, k: int) -> np.ndarray:
    """T_j(x) for j < k by the three-term recurrence, on a new axis
    before the last: x of shape (..., m) gives (..., k, m)."""
    basis = np.empty(x.shape[:-1] + (k, x.shape[-1]))
    basis[..., 0, :] = 1.0
    if k > 1:
        basis[..., 1, :] = x
    x = 2.0 * x
    for j in range(2, k):
        np.multiply(x, basis[..., j - 1, :], out=basis[..., j, :])
        basis[..., j, :] -= basis[..., j - 2, :]
    return basis


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, w): the n-point Gauss-Legendre rule on [-1, 1], nodes ascending,
    x and w bitwise mirror-symmetric, and the middle node of an odd rule
    exactly 0.

    The nodes are the roots of P_n(cos theta), found by Newton's method in
    theta on its finite cosine series (Swarztrauber, On computing the
    points and weights for Gauss-Legendre quadrature, SIAM J. Sci. Comput.
    24, 2002)

        P_n(cos theta) = sum_k a_k a_{n-k} cos((n - 2k) theta),
        a_k = (2k - 1)!! / (2k)!!,

    whose coefficients are all positive and sum to P_n(1) = 1, so its
    rounding stays at the eps level. Only the nodes in [0, 1) are found,
    each Newton step one (ceil(n/2), n//2 + 1) cos and sin matrix times a
    vector, and the rest are their mirror images. From Tricomi's first
    guess x ~ (1 - (n-1)/(8 n^3)) cos(pi (4i - 1)/(4n + 2)), three steps
    reach double precision (Hale & Townsend, Fast and accurate
    computation of Gauss-Legendre and Gauss-Jacobi quadrature nodes and
    weights, SIAM J. Sci. Comput. 35, 2013), and w = 2 / (dP_n/dtheta)^2
    at the converged theta. Up to n = 597 the nodes are within 3.4e-16
    and the weights within 9e-14 relative of 40-digit roots (numpy's
    eigenvalue-based leggauss: 1.4e-9 at the end weights of n = 597).
    n = 2,048 takes 0.13 s and 25 MB of temporaries on one core of a
    2-core Xeon VM. n < 1 is refused with a ValueError.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1 nodes, got {n}")
    j = np.arange(1, n + 1)
    a = np.cumprod(np.concatenate(([1.0], (2 * j - 1) / (2 * j))))
    # the terms k and n - k share the frequency n - 2k: fold them, with
    # the term at frequency 0 (even n) once
    half = n // 2 + 1
    freq = n - 2 * np.arange(half)
    coef = 2.0 * a[:half] * a[::-1][:half]
    if n % 2 == 0:
        coef[-1] /= 2.0
    slope = freq * coef  # dP_n/dtheta = -sum slope sin(freq theta)
    i = np.arange((n + 1) // 2, 0, -1)
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3))
                      * np.cos(np.pi * (4 * i - 1) / (4 * n + 2)))
    for _ in range(3):
        phase = np.multiply.outer(theta, freq)
        theta += (np.cos(phase) @ coef) / (np.sin(phase) @ slope)
    x = np.cos(theta)
    w = 2.0 / (np.sin(np.multiply.outer(theta, freq)) @ slope) ** 2
    if n % 2:
        x[0] = 0.0  # the middle node, a root by symmetry
    return (np.concatenate((-x[n % 2:][::-1], x)),
            np.concatenate((w[n % 2:][::-1], w)))
