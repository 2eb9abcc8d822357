"""Central numerical tolerances.

Three tiers: structural checks (exact algebra, basis construction),
spectral checks (anything that went through an eigensolver), and physics
assertions (entanglement inequalities, where eigensolver error accumulates).
"""

import math

STRUCTURAL_TOL = 1e-12
SPECTRAL_TOL = 1e-10
PHYSICS_TOL = 1e-9

# Conditional states with outcome probability below this are reported as
# absent instead of being normalized out of rounding noise.
DEGENERATE_OUTCOME_PROB = 1e-14

# Largest ||H_total||_F * |t| at which rounding t to a float (relative spacing
# 2**-52) moves every phase w t, |w| <= ||H_total||_F, by at most PHYSICS_TOL.
MAX_PHASE = PHYSICS_TOL / 2**-52  # about 4.5e6

# Largest sqrt(k^2 + l^2) that the periodicity check accepts at strength ratio k/l. Its coupling
# strengths s13 and s23 = s13 l / k give ||H_coupling||_F t* = sqrt(8) (pi/2) sqrt(k^2 + l^2) at
# the return time t* = k pi / (2 s13); the residual tangle, of degree 4 in the amplitudes, amplifies
# the phase error, so that phase is held to MAX_PHASE / 4.
MAX_PERIODICITY_NORM = MAX_PHASE / 4 / (math.sqrt(8) * math.pi / 2)  # about 2.53e5
