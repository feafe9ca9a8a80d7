# Which length-n words are easiest and hardest to M-embed?
#
# For small n we can go through every source word v and count, exactly, the
# target words y of length Mn it embeds into.  The scan below
# confirms the expected ranking: the alternating word wins, the constant
# words lose, and complements tie.

import sys

from clairvoyant import Word, embed_prob_exact, extremal_scan, moment_report

n, M = 8, 2
report = extremal_scan(n, M)

print("all %d words of length %d, M = %d" % (len(report.table), n, M))
print()
print("best  %s  with probability %s" %
      (" ".join(str(w) for w in report.best_words), report.best_probability))
print("worst %s  with probability %s" %
      (" ".join(str(w) for w in report.worst_words), report.worst_probability))
print()

# top and bottom of the full ranking (complement pairs share a row)
ranked = sorted(report.table, key=lambda t: t[1], reverse=True)
print("rank  word      probability")
for i, (w, prob) in enumerate(ranked[:5]):
    print("%4d  %s  %-12s ~ %.6f" % (i + 1, w, prob, float(prob)))
print(" ...")
for i, (w, prob) in enumerate(ranked[-5:], start=len(ranked) - 4):
    print("%4d  %s  %-12s ~ %.6f" % (i, w, prob, float(prob)))
print()

# every word ties with its complement: swapping 0s and 1s everywhere is a
# bijection on the target space.  The scan holds this by construction:
# it runs the automaton only on words starting with 0 and copies each
# count to the complement, so check a few copied rows on their own
by_word = dict(report.table)
for bits in (1, 0b10101011, 0b11111111):
    w = Word(bits, n)
    if by_word[w] != embed_prob_exact(w, M):
        sys.exit("mirrored row %s disagrees with its own automaton" % w)
print("complement symmetry holds by construction; mirrored rows check out")
print()

# averaged over a random source word the embedding count has mean (M/2)^n,
# and the second moment ratio E[Z^2]/E[Z]^2 grows geometrically, which is
# why a plain second-moment argument cannot settle the M = 2 case
print(" n   mean       E[Z^2]/E[Z]^2")
for k in range(1, 9):
    mom = moment_report(k, M)
    print("%2d   %-8s   %s ~ %.4f" % (k, mom.mean, mom.second_moment_ratio,
                                      float(mom.second_moment_ratio)))
