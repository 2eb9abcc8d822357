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

# Largest ||H_total||_F * |t| at which rounding t to a float (relative spacing
# 2**-52) moves every phase w t, |w| <= ||H_total||_F, by at most PHYSICS_TOL.
MAX_PHASE = PHYSICS_TOL / 2**-52  # about 4.5e6
