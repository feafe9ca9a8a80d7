"""
How fast does the alternating word lose embeddability?
======================================================

The probability a_n that 0101... (n letters) M-embeds into a fair random
word of length Mn obeys a two-term linear recursion.  This script prints
the exact values, checks each one against the exact embedding automaton,
and compares the tail decay with the dominant root of the characteristic
polynomial.
"""

import sys
from fractions import Fraction

from clairvoyant import (
    RngSpec,
    alternating_word,
    char_roots,
    embed_prob_exact,
    embed_prob_mc,
    recursion_params,
    vn_recursion,
)

M = 2

# the recursion coefficients are simple functions of M
par = recursion_params(M)
print("M = %d   v_{n+1} = b v_n - c v_{n-1}" % M)
print("alpha = %s  beta = %s  b = %s  c = %s" % (par.alpha, par.beta, par.b, par.c))
print()

# exact values by recursion, cross-checked by the automaton over all targets
values = vn_recursion(M, 12)
print(" n   recursion          automaton")
for n in range(0, 13):
    exact = embed_prob_exact(alternating_word(n), M)
    if exact != values[n]:
        sys.exit("automaton and recursion disagree at n = %d" % n)
    print("%2d   %-16s   %s" % (n, values[n], exact))
print()

# a Monte Carlo estimate, one block of replicas at a time, lands within
# 4 standard errors of the exact value
est = embed_prob_mc(alternating_word(12), M, 200_000, RngSpec(1))
print("Monte Carlo, %d replicas: v_12 ~ %.5f +- %.5f (exact %.5f)" %
      (est.replicas, est.mean, est.stderr, float(values[12])))
if not est.agrees(values[12], k=4):
    sys.exit("Monte Carlo estimate is over 4 stderr from v_12")
print()

# the tail is governed by the larger root of x^2 - b x + c
roots = char_roots(M)
print("roots: %.12f and %.12f" % (roots.r_small, roots.r_large))
ratio = values[12] / values[11]
print("v_12 / v_11 = %s ~ %.12f" % (ratio, float(ratio)))
print("so each extra letter costs a factor close to r_large")
print()

# per-letter survival: the n-th root of v_n climbs toward r_large
for n in (4, 8, 12):
    print("v_%d^(1/%d) = %.6f" % (n, n, float(values[n]) ** (1 / n)))
print()

# for large M the dominant root approaches 1 like 4^{-M}; the "health"
# diagnostic rescales the gap so healthy values sit near 1 for every M
print(" M   r_large             health")
for m in range(2, 13):
    r = char_roots(m)
    print("%2d   %.15f   %.4f" % (m, r.r_large, r.health))
