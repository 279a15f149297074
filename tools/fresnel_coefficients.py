"""Writes the polynomial coefficients of nfradar.special_fn.fresnel.

    python tools/fresnel_coefficients.py           # rewrite the block
    python tools/fresnel_coefficients.py --check   # exit 1 if it is stale

The coefficients sit in src/nfradar/special_fn.py between the two marker
lines below, as literals, so importing the package computes nothing. They
come from mpmath at 40 digits, which is the only dependency here (the
package itself needs numpy alone):

- |x| < NEAR: the Taylor series of C(x)/x and S(x)/x^3 in u = x^4,
  16 terms each, from their closed-form terms;
- NEAR <= |x| < FAR: the auxiliary functions f, g of
  C = 1/2 + f sin(pi x^2/2) - g cos(pi x^2/2),
  S = 1/2 - f cos(pi x^2/2) - g sin(pi x^2/2), scaled to pi x f and
  pi^2 x^3 g (both tend to 1), as polynomials of degree MID_DEGREE in
  t = A/x - B, which maps [NEAR, FAR] onto [-1, 1];
- |x| >= FAR: the same scaled f and g as polynomials of degree FAR_DEGREE
  in w = (FAR/x)^4, which maps [FAR, inf) onto (0, 1].

Each polynomial is the degree-d truncation of a Chebyshev interpolant on
64 nodes, expanded into monomials in 40-digit arithmetic and rounded to
the nearest double once. The degrees keep each dropped tail below about
1e-16 absolute in F, under the rounding of the evaluation: f enters F
scaled by 1/(pi x) and g by 1/(pi^2 x^3).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

TARGET = Path(__file__).resolve().parents[1] / "src" / "nfradar" / \
    "special_fn.py"
BEGIN = "# --- begin generated coefficients ---"
END = "# --- end generated coefficients ---"

NEAR, FAR = "1.6", "4.0"
NEAR_TERMS = 16
MID_DEGREE = 18
FAR_DEGREE = 7
NODES = 64


def _auxiliary(x):
    """(pi x f(x), pi^2 x^3 g(x)) from mpmath's Fresnel integrals."""
    c, s = mp.fresnelc(x), mp.fresnels(x)
    theta = mp.pi * x * x / 2
    a, b = mp.mpf(1) / 2 - c, mp.mpf(1) / 2 - s
    f = b * mp.cos(theta) - a * mp.sin(theta)
    g = a * mp.cos(theta) + b * mp.sin(theta)
    return mp.pi * x * f, mp.pi ** 2 * x ** 3 * g


def _chebyshev(values, degree):
    """Coefficients c_0..c_degree of the interpolant through values at the
    first-kind Chebyshev nodes cos(pi (j + 1/2) / NODES)."""
    out = []
    for k in range(degree + 1):
        total = mp.fsum(v * mp.cos(mp.pi * k * (j + mp.mpf(1) / 2) / NODES)
                        for j, v in enumerate(values))
        out.append(total * (1 if k == 0 else 2) / NODES)
    return out


def _monomials(cheb, scale, shift):
    """Coefficients in u, lowest first, of sum c_k T_k(scale u + shift)."""
    n = len(cheb)
    prev = [mp.mpf(1)] + [mp.mpf(0)] * (n - 1)
    cur = [mp.mpf(shift), mp.mpf(scale)] + [mp.mpf(0)] * (n - 2)
    out = [cheb[0] * p for p in prev]
    if n > 1:
        out = [o + cheb[1] * c for o, c in zip(out, cur)]
    for k in range(2, n):
        nxt = [2 * shift * c - p for c, p in zip(cur, prev)]
        for i in range(n - 1):
            nxt[i + 1] += 2 * scale * cur[i]
        prev, cur = cur, nxt
        out = [o + cheb[k] * c for o, c in zip(out, cur)]
    return out


def _fit(to_x, degree, scale, shift):
    """Monomial coefficients (lowest first) of pi x f and pi^2 x^3 g, each
    interpolated in s in [-1, 1] with x = to_x(s) and expanded in the
    variable u with s = scale u + shift."""
    nodes = [mp.cos(mp.pi * (j + mp.mpf(1) / 2) / NODES)
             for j in range(NODES)]
    values = [_auxiliary(to_x(s)) for s in nodes]
    return [_monomials(_chebyshev([v[i] for v in values], degree),
                       scale, shift) for i in (0, 1)]


def coefficients():
    """(near, mid, far, (A, B)): coefficient lists, lowest degree first,
    and the mid variable's t = A/x - B."""
    mp.mp.dps = 40
    near, far = mp.mpf(NEAR), mp.mpf(FAR)
    half_pi = mp.pi / 2
    taylor_c = [(-1) ** n * half_pi ** (2 * n)
                / (mp.factorial(2 * n) * (4 * n + 1))
                for n in range(NEAR_TERMS)]
    taylor_s = [(-1) ** n * half_pi ** (2 * n + 1)
                / (mp.factorial(2 * n + 1) * (4 * n + 3))
                for n in range(NEAR_TERMS)]
    # t = A/x - B is linear in 1/x: -1 at FAR, +1 at NEAR
    a = 2 / (1 / near - 1 / far)
    b = (1 / near + 1 / far) / (1 / near - 1 / far)
    mid = _fit(lambda s: a / (s + b), MID_DEGREE, 1, 0)
    # w = (FAR/x)^4 in (0, 1] is the Chebyshev variable s = 2w - 1
    far_fit = _fit(lambda s: far / ((s + 1) / 2) ** mp.mpf("0.25"),
                   FAR_DEGREE, 2, -1)
    return [taylor_c, taylor_s], mid, far_fit, (a, b)


def _table(name, columns):
    """A numpy array literal of shape (degree + 1, len(columns), 1): one
    complex tuple per (label, real part, imaginary part) column, highest
    degree first, padded with leading zeros."""
    rows = max(len(re) for _, re, _ in columns)
    lines = [f"{name} = np.array(("]
    for label, re, im in columns:
        pad = [mp.mpf(0)] * (rows - len(re))
        cells = [repr(complex(float(a), float(b))) for a, b in
                 zip(pad + re[::-1], pad + im[::-1])]
        lines.append(f"    # {label}")
        lines.append(f"    ({cells[0]},")
        lines.extend(f"     {cell}," for cell in cells[1:-1])
        lines.append(f"     {cells[-1]}),")
    lines.append(")).T[:, :, None]")
    return lines


def block() -> str:
    (near_c, near_s), (mid_f, mid_g), (far_f, far_g), (a, b) = \
        coefficients()
    mid = "_MID_A/x - _MID_B"
    lines = [
        BEGIN,
        f"_NEAR = {float(NEAR)!r}",
        f"_FAR = {float(FAR)!r}",
        f"_MID_A = {float(a)!r}",
        f"_MID_B = {float(b)!r}",
        *_table("_BELOW_FAR", [
            ("C/x + j S/x^3 in x^4", near_c, near_s),
            (f"pi^2 x^3 g + j pi x f in {mid}", mid_g, mid_f)]),
        *_table("_ABOVE_FAR", [
            ("pi^2 x^3 g + j pi x f in (_FAR/x)^4", far_g, far_f)]),
        END,
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed block instead of "
                             "writing it")
    args = parser.parse_args(argv)
    text = TARGET.read_text(encoding="utf-8")
    start = text.index(BEGIN)
    stop = text.index(END) + len(END) + 1
    fresh = block()
    if args.check:
        if text[start:stop] != fresh:
            print(f"{TARGET}: coefficients differ from a fresh fit; rerun "
                  "tools/fresnel_coefficients.py", file=sys.stderr)
            return 1
        print("coefficients match a fresh fit")
        return 0
    TARGET.write_text(text[:start] + fresh + text[stop:], encoding="utf-8")
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
