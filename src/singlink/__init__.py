"""singlink: singular pairs and cocycle invariants of singular knots/links."""

from .pairtable import (Biquandle, PairTable, Quandle, check_biquandle,
                        check_yang_baxter, dihedral_quandle, dihedral_switch,
                        flip_switch, i2_switch, make_bialexander,
                        make_quandle_switch, trivial_quandle)
from .pairs import (IsoClass, LrCounts, SingularPair, builtin_pair,
                    check_bialexander_characterization,
                    check_flip_s_condition, check_flip_tau_condition,
                    check_singular_pair, classify_isomorphism,
                    enumerate_left_right_invertible, enumerate_taus,
                    make_tau_a, make_tau_phi, tau_phi_family,
                    tau_phi_iso_count)
from .diagram import (MoveSite, SingularDiagram, apply_move, braid_closure,
                      builtin_diagram, builtin_names, find_move_sites,
                      isomorphic, parse_diagram)
from .coloring import count_colorings, enumerate_colorings
from .presentation import (AbelianizedGroup, FiniteGroup, GroupRingElement,
                           Presentation, abelianize, build_ab_presentation,
                           build_unc_presentation,
                           equivalence_classes_involutive, smith_normal_form)
from .invariant import (CocyclePair, builtin_cocycle, check_ab_cocycle,
                        check_nc_cocycle, derived_cocycle_identities, nc_invariant,
                        render_laurent, state_sum, universal_ab_cocycle,
                        universal_nc_cocycle)

__version__ = "0.1.0"
