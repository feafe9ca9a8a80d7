# Percolation in a columnar random environment.
#
# Each column of an n x n box first draws its own density from a finite
# distribution mu, then opens its cells independently at that density.
# Whether crossings survive the occasional bad column, for mu straddling
# the critical point, is the third open problem; here we just watch the
# crossing frequency respond to how much mass mu puts below criticality.

from clairvoyant import (
    FiniteDistribution,
    RngSpec,
    column_percolation_mc,
    sample_environment,
)

# a constant environment is ordinary site percolation: the point mass at
# 1 crosses every time
always = FiniteDistribution.point_mass(1)
est = column_percolation_mc(always, n=20, replicas=200, rng=RngSpec(0))
print("point mass at 1, 20 x 20:", est.mean)
print()

# mix a supercritical density with a small share of sparse columns and
# thin the sparse share: frequencies respond monotonically because point
# masses reuse the same uniforms (coupled sample by sample)
n = 40
for bad in ("0.30", "0.45", "0.60"):
    mu = FiniteDistribution.parse("%s:0.2,0.85:0.8" % bad)
    est = column_percolation_mc(mu, n, replicas=600, rng=RngSpec(2))
    print("mu = 20%% at %s + 80%% at 0.85: crossing %.3f +- %.3f" %
          (bad, est.mean, est.stderr))
print()

# peek at one sampled environment: bad columns show up as vertical gaps
env = sample_environment(FiniteDistribution.parse("0.2:0.25,0.9:0.75"),
                         12, RngSpec(5))
print("per-column densities:", " ".join("%.1f" % d for d in env.densities))
for j in range(11, -1, -1):
    print("   " + "".join("#" if env.config[i, j] else "." for i in range(12)))
