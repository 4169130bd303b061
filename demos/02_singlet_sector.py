"""Build the singlet element psi and see what it enforces.

Run with:  python demos/02_singlet_sector.py
"""

from eprkit import E, Element, build_singlet, element_matrix

s = build_singlet()

# psi is the product of the three commuting factors (E_kk - 1)/2.
print("psi       =", s.psi)
print("psi*psi   =", s.psi * s.psi, "   (equals -psi: anti-idempotent)")
print("projector =", s.projector, "   (this one is idempotent)")

# The pair correlators all take the definite value -1 on psi.
for k in (1, 2, 3):
    print(f"E{k}{k}*psi =", E(k, k) * s.psi)

# As an exact matrix, -psi is the rank-one projector onto the singlet
# direction: it squares to itself, and the trace of a projector is its rank.
p = element_matrix(s.projector)
print("\n-psi as a matrix: P*P == P is", p * p == p, "  trace(P) =", p.trace()[0])

# Mod-psi equality: equal after right-multiplication by psi.  The one-side
# words are anticorrelated on the sector but NOT equal as elements.
print("\nE01 = -E10 mod psi?", s.equal_mod_psi(E(0, 1), -E(1, 0)))
print("E01 + E10 as an element:", E(0, 1) + E(1, 0), "  (nonzero!)")

# Exact expectations and both probability conventions.
print("\nexact expectations on the singlet:")
for name, el in [("E11", E(1, 1)), ("E03", E(0, 3)), ("E12", E(1, 2)),
                 ("I", Element.one(2))]:
    print(f"  <{name}> = {s.expectation(el)}")

p_plus, p_minus = s.outcome_probabilities(E(1, 1))
h_plus, h_minus = s.half_plus_mean_probabilities(E(1, 1))
print(f"\nE11 outcome probabilities, born rule:       ({p_plus}, {p_minus})")
print(f"E11 outcome pair, half-plus-mean rule:      ({h_plus}, {h_minus})"
      "   <- leaves [0, 1]")
