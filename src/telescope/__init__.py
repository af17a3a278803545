"""Telescopes of extended finite group actions.

A finitely generated torsion group acting on a tower of finite quotients
is glued, one fresh point and one transposition per quotient, into a
subgroup of a product of symmetric groups.  This package makes every
finite truncation of that construction computable and machine-checks the
facts it rests on: uniform return bounds for traces, torsion bounds,
subdirectness onto full symmetric groups, and the even-signed kernel
projecting onto alternating groups from some component on.
"""

from .perm import Permutation, PermGroup, orbit
from .words import (build_w, format_word, invert_signed, parse_word,
                    reduce_signed, trace)
from .selfsim import (BudgetExceeded, NotContracting, WreathRecursion, grigorchuk,
                      gupta_sidki_3)
from .reports import CheckReport
from .tower import (ExtendedAction, TelescopeGroup, build_telescope,
                    divides_factorial, sweep_case, transitivity_report,
                    verify_fundamental_general, verify_orbit_bound,
                    verify_torsion_bound, verify_trace_lemmas)
from .certify import (alt_cutoff, certificate_bytes, check_perfect, check_subdirect,
                      check_tail_injectivity, component_table,
                      emit_certificate, perfectness_scan, sign_vectors)

__version__ = "0.1.0"

__all__ = [
    "Permutation", "PermGroup", "orbit",
    "build_w", "format_word", "invert_signed", "parse_word", "reduce_signed",
    "trace",
    "BudgetExceeded", "NotContracting", "WreathRecursion", "grigorchuk",
    "gupta_sidki_3",
    "CheckReport",
    "ExtendedAction", "TelescopeGroup", "build_telescope", "divides_factorial",
    "sweep_case", "transitivity_report", "verify_fundamental_general",
    "verify_orbit_bound", "verify_torsion_bound", "verify_trace_lemmas",
    "alt_cutoff", "certificate_bytes", "check_perfect", "check_subdirect",
    "check_tail_injectivity", "component_table", "emit_certificate",
    "perfectness_scan", "sign_vectors",
    "__version__",
]
