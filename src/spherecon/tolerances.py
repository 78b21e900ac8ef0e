"""Every numerical threshold of the package, each with one line on its value.
"Inherited from the seed, not derived" marks a value kept from the first
version of the code without a derivation."""

# ||f(x) - x||_2 at which a trajectory stops as converged; inherited from the seed, not derived
FP_TOL = 1e-12
# relative margin of the lockstep kernel's squared-step screen: far above the 2 * L * eps by which
# two summation orders of the same L non-negative terms can differ
STEP_FILTER_MARGIN = 1e-9
# a row or row-image norm this small is zero: about 45 ulp of a unit row, only cancellation hits it
MIN_ROW_NORM = 1e-14
# relative singular-value cutoff of ranks: about sqrt(eps), far above round-off; not derived
RANK_TOL = 1e-8
# rank cutoff at trajectory limits, looser than RANK_TOL because a limit stopped at FP_TOL lies
# up to FP_TOL / (1 - contraction rate) off its fixed point; inherited from the seed, not derived
LIMIT_RANK_TOL = 1e-6
# consensus iff every pairwise row dot product is >= 1 - CONSENSUS_TOL; inherited, not derived
CONSENSUS_TOL = 1e-9
# a spectral radius this close to 1 is neutral, never certified; inherited from the seed, not derived
CLASS_TOL = 1e-7
# residual an instability certificate demands: what the audit and the benchmark pass; not derived
CERTIFICATE_FP_TOL = 1e-8
# residual under A that makes a point a fixed point of A in the analyses; inherited, not derived
A_RESIDUAL_TOL = 1e-9
# |rho - 1| of a spectrally neutral fixed point; inherited from the seed, not derived
NEUTRAL_TOL = 1e-9
# relative gap |lhs - rhs| / (1 + |rhs|) of the collapsed-trace identity; inherited, not derived
TRACE_TOL = 1e-10
# how far a consensus direction's norm may be from 1; inherited from the seed, not derived
UNIT_NORM_TOL = 1e-9
# distance to e_1 below which pinning skips its (then undefined) reflection; inherited, not derived
PIN_TOL = 1e-14
# norm of the audit's tangent perturbation: far above FP_TOL, small enough to stay linear; not derived
AUDIT_PERTURBATION = 1e-6
# how far a trial that stops as rotating rigidly may lie from its rotation, estimated from its
# Procrustes fit ||XQ - F(X)||: below the fits of 1.1e-9 to 1.9e-8 of collapses that mimic one
RE_FIT_TOL = 1e-10
# smallest step of a trial that stops as rotating rigidly: far above FP_TOL, so a trial still
# creeping onto a fixed point (steps of 2e-9 to 2e-8 seen) is never taken for a rotation
RE_STEP_FLOOR = 1e-6
# a rotating trial stops only if every eigenvalue off its orbit has modulus <= 1 - RE_ORBIT_MARGIN,
# that is, if the rotation is linearly stable; not derived
RE_ORBIT_MARGIN = 1e-3
# a trial's shape, its agents' angles relative to the first, must move this far from where its
# window starts before a return counts: ten times QP_RETURN_TOL, so a loop is never a jitter
QP_EXCURSION = 0.1
# distance of a shape's return to its start, modulo 2 pi per angle, that closes a loop: above the
# best returns (median 7.4e-4 in 2000 steps) of orbits on a circle, small enough to close it
QP_RETURN_TOL = 1e-2
# smallest shape step through a turn: far below the smallest step (1.5e-3) seen on a turn of a
# non-converging trial, so an orbit creeping along its curve is never certified on round-off
QP_STEP_FLOOR = 1e-4
# the rotation and curve exponents of a turn lie within this of 0: above the 2.5e-4 that 99% of
# the loops of non-converging trials reach; not derived
QP_NEUTRAL_BAND = 3e-4
# every other exponent of a turn is at most -QP_EXPONENT_MARGIN: twice QP_NEUTRAL_BAND, so that a
# spiral onto a focus, whose curve and next exponents are equal, never passes both tests
QP_EXPONENT_MARGIN = 6e-4
