"""The classical-value contradiction, the fallacy, and its resolution.

Run with:  python demos/04_contradiction_and_resolution.py
"""

from eprkit import (
    E,
    build_singlet,
    classical_assignment_search,
    constraint_flags,
    fallacy_trace,
    run_full_report,
)

s = build_singlet()

# On the singlet, each one-side pair is anticorrelated and the two cross
# products are anticorrelated too.  Try to give all four words definite
# +1/-1 values respecting that: sweep all 16 sign tables.
print("scanning all 16 classical sign tables...")
solutions = classical_assignment_search()
print(f"tables satisfying every constraint: {len(solutions)}")

relaxed = classical_assignment_search(("opposite_x", "opposite_y"))
print(f"tables satisfying only the pair constraints: {len(relaxed)}")
for table in relaxed:
    product_ok = constraint_flags(table)["opposite_products"]
    values = {word.name: value for word, value in table.items()}
    print(f"  {values}  opposite products: {product_ok}")

# The fallacy: promoting sector-only equalities to strict ones.
print("\nreplaying the substitution argument:")
trace = fallacy_trace(s)
for step in trace.steps:
    verdict = "ok" if step.legitimate else "INVALID"
    print(f"  [{verdict:7}] {step.description}  ({step.check.status})")
print(f"clashes with the verified identity: {trace.clash_with}")

# The resolution keeps the noncommuting factors explicit; both sector
# values land on opposite multiples of E03.
print("\nresolved forms:")
print("  E12 =", E(1, 2), " and on the sector E12*psi =", E(1, 2) * s.psi)
print("  E21 =", E(2, 1), " and on the sector E21*psi =", E(2, 1) * s.psi)

# One call runs everything and cross-checks against the matrix route.
report = run_full_report()
print(f"\nfull verification: {len(report.checks)} checks, overall "
      f"{report.overall.upper()}")
