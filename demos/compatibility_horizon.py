# Compatibility of two random 0/1 words.
#
# x and y are compatible when 0s can be deleted from each so that the
# remaining letters never put a 1 in both words at the same position.
# For Bernoulli(p) letters, psi(p, n) = P(length-n prefixes compatible)
# is believed to tend to a positive limit for small p and to 0 for large
# p; where the transition sits is open.

import sys

from clairvoyant import (
    RngSpec,
    Word,
    compatible,
    compatible_prefix,
    majority_certificate,
    psi_curve_mc,
    validate_deletion,
)

# a small pair, decided by the row sweep and walked back to a witness
x = Word.from_string("0100101")
y = Word.from_string("0010011")
print("x = %s, y = %s" % (x, y))
print("compatible:", compatible(x, y))
wit = compatible_prefix(x, y)
sub_x = "".join(str(x[i - 1]) for i in wit.kept_x)
sub_y = "".join(str(y[i - 1]) for i in wit.kept_y)
print("witness keeps x -> %s and y -> %s" % (sub_x, sub_y))
if not validate_deletion(wit, x, y):
    sys.exit("the witness is not a valid deletion")
print()

# dense words collide: strict 1-majorities in both length-N prefixes force
# a simultaneous (1, 1) no matter which 0s are deleted
a = Word.from_string("0111011")
b = Word.from_string("1011101")
cert = majority_certificate(a, b)
print("x = %s, y = %s: incompatible by majority at N = %d" % (a, b, cert.N))
if compatible(a, b):
    sys.exit("the DP calls a majority-certified pair compatible")
print()

# psi along n for a few densities, every n from one sweep per p; replicas
# are coupled across both p and n (shared uniforms), so each column
# decreases and rows decrease too
ns = [10, 25, 50, 100, 200]
print("   p    " + "".join("  n=%-5d" % n for n in ns))
for p in (0.3, 0.5, 0.7):
    row = psi_curve_mc(p, ns, replicas=4000, rng=RngSpec(1))
    print("%5.2f   " % p + "".join("  %-7.4f" % e.mean for e in row))
print()
print("p = 0.3 barely moves, p = 0.7 is dead by n = 50; whether the")
print("p = 0.5 column converges to 0 or to a positive limit is unknown")
