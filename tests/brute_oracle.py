"""Brute-force references for the closed forms and array scans of the package.

Each function computes its answer from the definition by plain enumeration
and shares no code with ``qperm``:

* ``brute_force_classical_haar`` and ``classical_zero`` enumerate all of S_n;
  ``classical_scan`` runs ``classical_zero`` over every word of length m;
* ``fix_moment_literal`` sums the Haar values of all n^k diagonal words,
  taken from the noncrossing-partition integrator in ``nc_oracle``;
* ``noncommutativity_violations`` loops over every quadruple (i, j, k, l);
* ``flat_scan`` multiplies Gram magnitudes along all n^(2m) words of
  length m, one leading pair at a time;
* ``fourier_basis_loop`` builds the root-of-unity grid one coordinate at a
  time, each from its own ``cmath.exp``;
* ``gram_einsum`` sums the n coordinate products of every inner product by
  ``np.einsum``, with no matrix product.
"""

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

import nc_oracle


@lru_cache(maxsize=None)
def _permutations(n):
    """All of S_n as rows sigma with sigma[j-1] = sigma(j)."""
    return np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)


def brute_force_classical_haar(n, mono):
    """Fraction of the permutations sigma of 1..n with sigma(j) = i for
    every factor (i, j) of the word."""
    perms = _permutations(n)
    mask = np.ones(len(perms), dtype=bool)
    for i, j in mono:
        mask &= perms[:, j - 1] == i
    return Fraction(int(mask.sum()), math.factorial(n))


def classical_zero(n, mono):
    """True iff no permutation satisfies all the constraints of the word."""
    return brute_force_classical_haar(n, mono) == 0


def _adjacent_clash(word):
    return any((i1 == i2) != (j1 == j2)
               for (i1, j1), (i2, j2) in zip(word, word[1:]))


def classical_scan(n, m, max_violations=32):
    """(passed, violations) of the classical free-orbital scan: the words
    that vanish on S_n without an adjacent row/column clash, in
    ``itertools.product`` order, the first ``max_violations`` of them."""
    passed = True
    violations = []
    for word in itertools.product(
            itertools.product(range(1, n + 1), repeat=2), repeat=m):
        if classical_zero(n, word) != _adjacent_clash(word):
            passed = False
            if len(violations) < max_violations:
                violations.append(word)
    return passed, violations


def fix_moment_literal(n, k):
    """h(fix^k) as the sum of h(u_(t1,t1)...u_(tk,tk)) over all n^k tuples."""
    return sum((nc_oracle.haar_value(tuple((t, t) for t in tup), n)
                for tup in itertools.product(range(1, n + 1), repeat=k)),
               Fraction(0))


def noncommutativity_violations(G, n, fourier, tol_strict=1e-9, tol_construct=1e-12):
    """Violations (a, b, value, reason) of 0 < |G| < 1 off the row/column
    orbit, and for ``fourier`` grids of the resonant and generic windows,
    over 1-based quadruples in lexicographic order."""
    out = []
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        if i == k or j == l:
            continue
        g = complex(G[i - 1, j - 1, k - 1, l - 1])
        mag = abs(g)
        reason = None
        if not (tol_strict < mag < 1.0 - tol_strict):
            reason = "magnitude not strictly inside (0,1)"
        elif fourier and ((k - i) + (j - l)) % n == 0:
            if abs(g.imag) > tol_construct or not (
                    1.0 - 4.0 / n - tol_construct <= g.real < 1.0):
                reason = "resonant value outside [1-4/n, 1)"
        elif fourier and not (0.0 < mag <= 4.0 / n + tol_construct):
            reason = "generic magnitude outside (0, 4/n]"
        if reason is not None:
            out.append(((i, j), (k, l), g, reason))
    return out


def flat_scan(M, n, m, tol_zero, tol_nonzero, max_violations):
    """(passed, min_nonzero, max_zero, violations) of the flat free-orbital
    scan over every word of length m >= 2, M being the (n^2, n^2) table of
    Gram magnitudes over row-major pairs.  Each word's product is taken left
    to right; the extremes run over all words, and the first
    ``max_violations`` violations are listed in lexicographic order."""
    n2 = n * n
    pairs = np.arange(n2)
    rows, cols = pairs // n, pairs % n
    clash = (rows[:, None] == rows[None, :]) ^ (cols[:, None] == cols[None, :])

    min_nonzero = math.inf
    max_zero = 0.0
    any_violation = False
    violations = []
    for lead in range(n2):
        # last axis = current endpoint pair, so the word can be extended
        prod = M[lead][None, :].copy()
        triv = clash[lead][None, :].copy()
        for _ in range(m - 2):
            prod = (prod[:, :, None] * M[None, :, :]).reshape(-1, n2)
            triv = (triv[:, :, None] | clash[None, :, :]).reshape(-1, n2)
        prod = prod.reshape(-1)
        triv = triv.reshape(-1)

        nz = prod[~triv]
        if nz.size:
            min_nonzero = min(min_nonzero, float(nz.min()))
        z = prod[triv]
        if z.size:
            max_zero = max(max_zero, float(z.max()))

        bad = np.flatnonzero((~triv & (prod <= tol_zero)) | (triv & (prod > tol_zero)))
        any_violation = any_violation or bad.size > 0
        for flat in bad[:max(0, max_violations - len(violations))]:
            digits = np.unravel_index(int(flat), (n2,) * (m - 1))
            violations.append(tuple((int(d) // n + 1, int(d) % n + 1)
                                    for d in (lead, *digits)))

    passed = not any_violation and min_nonzero > tol_nonzero and max_zero <= tol_zero
    return passed, min_nonzero, max_zero, violations


def fourier_basis_loop(n):
    """The (n, n, n) coordinate array of the root-of-unity grid, cell by cell:
    w^(1-j), w^(i-1) or w^(p(i-j)) over sqrt(n) for p = 1, p = n or else."""
    root = 1.0 / math.sqrt(n)
    xi = np.empty((n, n, n), dtype=complex)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for p in range(1, n + 1):
                if p == 1:
                    k = (1 - j) % n
                elif p == n:
                    k = (i - 1) % n
                else:
                    k = (p * (i - j)) % n
                xi[i - 1, j - 1, p - 1] = root * cmath.exp(2j * math.pi * k / n)
    return xi


def gram_einsum(xi):
    """The (n, n, n, n) table of <xi_ij, xi_kl> from the (n, n, n) grid xi."""
    return np.einsum("ijp,klp->ijkl", xi.conj(), xi)
