"""Shared numerical tolerances.

Every residual of the classification (certificates, Leibniz and
automorphism residuals, structural identities, idempotents) is judged on the
normalized table, whose largest constant lies in (1/2, 1]
(``Algebra.normalized``), so these thresholds need no scale guard there; a
check in another frame, such as the integrator's or verify's, documents its
own.  They are deliberately centralized so that the tests and the library
agree on one set of constants.
"""

# residual threshold for algebraic identities (Leibniz, homomorphism, ...)
TAU_RES = 1e-9

# singular-value cutoff for rank / nullspace decisions
TAU_RANK = 1e-9

# distance, relative to max(1, |v|), below which two numeric roots are one
# point: a root of multiplicity m is located only to about (eps cond)^(1/m),
# and the copies of a quadruple idempotent spread up to 4.8e-3 under
# condition-10 conjugations, while distinct idempotents of 1200 random
# tensors were never closer than 3.7e-2
TAU_DEDUP = 1e-2

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
