"""
Scheduling two random walks so they never collide
=================================================

Two tokens take uniform steps on the complete graph K_M.  A clairvoyant
scheduler who sees both walks in advance must advance one token per step
without ever putting them on the same vertex.  Success to depth d is a
monotone open path in the grid where vertex (i, j) is open iff x_i != y_j.
"""

from clairvoyant import (
    RngSpec,
    coupling_check,
    directed_survival,
    kwise_joint,
    kwise_test,
    sample_grid,
    survival_curve_mc,
)

# one concrete grid, with an explicit scheduling witness when it survives
grid = sample_grid(M=4, depth=12, rng=RngSpec(7))
print("x walk:", ",".join(map(str, grid.x)))
print("y walk:", ",".join(map(str, grid.y)))
witness = directed_survival(grid, 12)
if witness is None:
    print("no schedule reaches depth 12")
else:
    print("schedule found:", " ".join("(%d,%d)" % s for s in witness.steps))
print()

# survival frequency by depth: M = 3 appears to die out while M = 4..6
# flatten, matching the believed phase transition between M = 3 and 4
depths = [5, 10, 20, 40, 80, 200, 1000]
print("depth    " + "".join("%8d" % d for d in depths))
for M in (3, 4, 5, 6):
    curve = survival_curve_mc(M, depths, replicas=1000, rng=RngSpec(0))
    print("M = %d  " % M + "".join("%8.4f" % e.mean for e in curve))
print("(1000 replicas each; one sample serves every depth, so each row is")
print(" monotone sample by sample)")
print()

# monotonicity in M via coupling: reduce walks on {1..2M} mod M and check
# the reduced grid never survives without the bigger one surviving too
rep = coupling_check(M=3, k=2, depth=40, samples=400, rng=RngSpec(1))
print("coupling M=3 vs 6: reduced survived %d / %d, big survived %d / %d" %
      (rep.reduced_survivals, rep.samples, rep.big_survivals, rep.samples))
print()

# the openness indicators are 3-wise independent but not 4-wise: a 2 x 2
# rectangle of grid vertices exposes the dependence, at small M and at
# large M alike (the law is summed over which walk letters are equal, so
# M = 10^6 costs no more than M = 4)
square = [(1, 1), (1, 2), (2, 1), (2, 2)]
for M in (4, 10**6):
    print("M = %d:" % M)
    pmf = kwise_joint(square, M=M)
    for k in (1, 2, 3, 4):
        res = kwise_test(pmf, k)
        if res.independent:
            print("  %d-wise independent" % k)
        else:
            v = res.worst
            print("  %d-wise fails at outcome %s: joint %s vs product %s" %
                  (k, "".join(map(str, v.outcome)), v.joint, v.expected))
