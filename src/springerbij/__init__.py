"""Four families counted by the Springer numbers, the explicit bijections
linking them, and independent counting oracles that cross-check everything
by exhaustion at desk scale.
"""

from .bijections import (
    fz,
    fz_inverse,
    lbp_to_rcalt,
    lbp_to_snake,
    phi,
    phi_inverse,
    phi_inverse_trace,
    phi_step1,
    phi_step1_inverse,
    psi,
    psi_inverse,
    rcalt_to_lbp,
    snake_to_lbp,
)
from .families import (
    FAMILIES,
    ThreeWIP,
    enumerate_alternating,
    enumerate_laguerre,
    enumerate_lbp,
    enumerate_rcalt,
    enumerate_snakes,
    enumerate_wip3,
    euler_sequence,
    format_wip3,
    is_wip3,
    parse_wip3,
    springer_dp,
    springer_egf,
    validate_wip3,
)
from .paths import (
    LabeledBallotPath,
    LaguerreHistory,
    count_lbp_dp,
    extend_to_rc_fixed,
    format_path,
    halve_rc_fixed,
    height_profile,
    history_rc,
    parse_labeled_ballot,
    parse_laguerre,
    validate_labeled_ballot,
    validate_laguerre,
    wbar,
)
from .permcore import (
    MarkedPermutation,
    count_pat_2_31_at,
    count_pat_31_2_at,
    cycle_peaks,
    foata,
    foata_inverse,
    format_marked,
    format_perm,
    invert,
    is_alternating,
    is_permutation,
    is_signed_permutation,
    is_snake,
    left_peaks,
    parse_perm,
    parse_signed,
    reverse_complement,
    right_valleys,
)

__version__ = "0.1.0"
