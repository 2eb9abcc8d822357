"""Central numerical tolerances.

Three tiers: structural checks (exact algebra, basis construction),
spectral checks (anything that went through an eigensolver), and physics
assertions (entanglement inequalities, where eigensolver error accumulates).
"""

STRUCTURAL_TOL = 1e-12
SPECTRAL_TOL = 1e-10
PHYSICS_TOL = 1e-9

# Conditional states with outcome probability below this are reported as
# absent instead of being normalized out of rounding noise.
DEGENERATE_OUTCOME_PROB = 1e-14
