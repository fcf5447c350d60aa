"""Shared numerical tolerances.

All residual thresholds are relative to the magnitude of the inputs unless a
function documents otherwise.  They are deliberately centralized so that the
tests and the library agree on one set of constants.
"""

# residual threshold for algebraic identities (Leibniz, homomorphism, ...)
TAU_RES = 1e-9

# singular-value cutoff for rank / nullspace decisions
TAU_RANK = 1e-9

# distance below which two numeric roots are considered the same point
TAU_DEDUP = 1e-6

# entrywise bound a change-of-basis certificate must meet
TAU_CERT = 1e-8

# geometric degeneracy guard (velocity, osculating plane)
TAU_GEO = 1e-12

# integrator: the tolerance on the last two terms of each Taylor step,
# relative to max(1, |x|); the step floor; the blow-up guard on |x|
INT_RTOL = 1e-10
INT_H_MIN = 1e-14
BLOWUP_GUARD = 1e8

# ceiling on |q(m)| / q(gamma), the condition estimate of the one spectral
# projector (derivations.real_semisimple_part, behind jordan_chevalley and
# the SSND search), before it raises IllConditioned
ILL_CONDITIONED_LIMIT = 1e12
