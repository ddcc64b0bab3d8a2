"""Regenerate parabolic_control/_exp_table.py.

Computes near-best type (n, n) rational approximations of exp(x) on
(-inf, 0] by the Caratheodory-Fejer method applied to the Moebius
transplant exp(9(s-1)/(s+1)) on [-1, 1]: high-precision Chebyshev
coefficients, Hankel SVD, poles from the disc roots of the singular
vector, residues by Lawson-reweighted least squares on the package's
training grid rational._TRAIN.  One-time offline step; needs mpmath.

Usage, through a new file, since the package it imports reads the table:
    PYTHONPATH=src python scripts/gen_exp_table.py > new.py &&
    mv new.py src/parabolic_control/_exp_table.py
"""

import sys

import numpy as np
from mpmath import mp, cos, exp, mpf, pi, matrix, svd_r

from parabolic_control.rational import _TRAIN, moebius

ORDERS = (4, 6, 8, 10, 12, 14)
K_COEFF = 140
N_QUAD = 560
DPS = 45


def cheb_coeffs():
    mp.dps = DPS
    th = [pi * mpf(j) / N_QUAD for j in range(N_QUAD + 1)]
    vals = []
    for t in th:
        s = cos(t)
        vals.append(mpf(0) if s == -1 else exp(9 * (s - 1) / (s + 1)))
    coeffs = []
    for k in range(K_COEFF):
        tot = vals[0] / 2 + vals[N_QUAD] * (-1) ** k / 2
        for j in range(1, N_QUAD):
            tot += vals[j] * cos(k * th[j])
        coeffs.append(2 * tot / N_QUAD)
    return coeffs


def hankel_vectors(coeffs):
    kh = K_COEFF - 1
    H = matrix(kh, kh)
    for i in range(kh):
        for j in range(kh):
            if i + j + 1 < K_COEFF:
                H[i, j] = coeffs[i + j + 1]
    _, S, V = svd_r(H)
    out = {}
    for n in ORDERS:
        v = np.array([float(V[n, j]) for j in range(kh)])
        out[n] = (float(S[n]), v)
    return out


def poles_from_vector(v):
    nz = np.flatnonzero(np.abs(v) > 1e-30 * np.max(np.abs(v)))
    roots = np.roots(v[: nz[-1] + 1][::-1])
    zin = roots[np.abs(roots) < 1.0]
    s = (zin + 1.0 / zin) / 2.0
    lam = moebius(s)
    dist = np.where(lam.real <= 0, np.abs(lam.imag), np.abs(lam))
    return lam[dist > 1e-6 * (1.0 + np.abs(lam))]


def residues_lsq(poles, grid):
    F = np.exp(grid)
    pos = poles[poles.imag > 1e-13]
    realp = np.sort(poles[np.abs(poles.imag) <= 1e-13].real)

    def design(lams):
        cols = [np.ones_like(lams)]
        for p in realp:
            cols.append(1.0 / (lams - p))
        for p in pos:
            q = 1.0 / (lams - p)
            cols.append(2 * q.real)
            cols.append(-2 * q.imag)
        return np.stack(cols, axis=1)

    A = design(grid)
    cn = np.linalg.norm(A, axis=0)
    An = A / cn
    wts = np.ones(len(grid))
    best = None
    for _ in range(15):
        sw = np.sqrt(wts / wts.sum())
        c, *_ = np.linalg.lstsq(An * sw[:, None], F * sw, rcond=None)
        err = float(np.max(np.abs(An @ c - F)))
        if best is None or err < best[0]:
            best = (err, c.copy())
        wts = np.maximum(wts * np.abs(An @ c - F), 1e-300)
        wts /= wts.max()
    err, c = best
    coef = c / cn
    r0 = coef[0]
    pole_list, res_list = [], []
    i = 1
    for p in realp:
        pole_list.append(complex(p))
        res_list.append(complex(coef[i]))
        i += 1
    for p in pos:
        a, b = coef[i], coef[i + 1]
        i += 2
        pole_list.append(p)
        res_list.append(a + 1j * b)
        pole_list.append(np.conj(p))
        res_list.append(a - 1j * b)
    return r0, pole_list, res_list, err


def main():
    coeffs = cheb_coeffs()
    vectors = hankel_vectors(coeffs)
    print('"""Near-best partial-fraction approximations of exp(x) on (-inf, 0].')
    print()
    print("Generated by scripts/gen_exp_table.py (Caratheodory-Fejer via Hankel")
    print('SVD on the Moebius transplant); do not edit by hand."""')
    print()
    print("EXP_TABLE = {")
    for n in ORDERS:
        sigma, v = vectors[n]
        poles = poles_from_vector(v)
        r0, pl, rl, err = residues_lsq(poles, _TRAIN)
        print(f"    # n={n}: sigma_n={sigma:.3e}, sup error on grid {err:.3e}")
        print(f"    {n}: ({float(r0)!r}, [")
        for p, r in zip(pl, rl):
            print(f"        ({complex(p)!r}, {complex(r)!r}),")
        print("    ]),")
    print("}")


if __name__ == "__main__":
    sys.exit(main())
