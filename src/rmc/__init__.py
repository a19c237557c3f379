"""Regular model checking over word-shaped configurations.

Configurations are finite words, sets of them are automata, and the step
relation is a finite-state transducer over a padded pair alphabet.  The
package bundles the automaton kernel, symbolic and bounded decision
procedures, an explicit-state oracle for cross-checking, plain-text
formats, and a command line front end.
"""

from .abstraction import (
    Interpretation,
    abstract_as_liveness,
    abstract_liveness,
    abstract_safety,
    abstract_sure_termination,
    certify_unreachable,
    constraint_set,
    exists_infinite_potential_run,
    is_inductive,
    separates,
    validate_preach,
)
from .alphabet import (
    PAD,
    Alphabet,
    PairAlphabet,
    PairSymbol,
    Word,
    convolve,
    pair,
    unconvolve,
)
from .errors import (
    AlphabetMismatch,
    BundleValidationError,
    CapExceeded,
    DeterminismViolation,
    MissingRelation,
    NotLengthPreserving,
    PaddingViolation,
    ParseError,
    RmcError,
    StateCapExceeded,
    SuccessorCapExceeded,
    SymbolNotInAlphabet,
)
from .formats import (
    load_automaton,
    load_rts_bundle,
    parse_automaton,
    parse_rts_bundle,
    save_automaton,
    serialize_automaton,
)
from .nfa import (
    DEFAULT_STATE_CAP,
    Nfa,
    constrained_search,
    empty_automaton,
    length_automaton,
    universal_automaton,
    word_automaton,
)
from .oracle import (
    FiniteSlice,
    SimulationConfig,
    SimulationStats,
    build_slice,
    dump_slice,
    oracle_check,
    relation_to_transducer,
    simulate,
    slice_closure,
)
from .procedures import (
    DEFAULT_BOUND,
    PROPERTIES,
    Property,
    check_af_bounded,
    check_agf_bounded,
    check_as_f_bounded,
    check_as_gf,
    check_as_termination,
    check_deadlock_freedom,
    check_ef,
    check_egf,
    check_egf_clique,
    check_egf_loop,
    run_check,
)
from .report import Report, format_word, parse_word
from .rts import CheckResult, Rts, ValidationReport
from .transducer import (
    Transducer,
    diagonal,
    identity,
    identity_on,
    relation_difference_identity,
    universal,
)
from .verdict import Outcome, Verdict, Witness

__all__ = [name for name in dir() if not name.startswith("_")]
