"""Constraint-based abstraction over a supplied potential-reachability relation.

An interpretation reads a constraint word on its top track and produces
the configurations satisfying the constraint on its bottom track, so one
finite word can stand for an infinite set of configurations.  Inductive
constraints are closed under the step relation and therefore certify
non-reachability.  The potential-reachability relation is consumed as
input and validated, never synthesized here.

This is the one module that reads ``preach``.  Each abstract check runs
the decision procedures of :mod:`rmc.procedures` unchanged on the system
with ``preach`` in the place of ``reach``, whose runs are the potential
runs: a step of the system, or a hop of ``preach``.  Since ``preach``
contains every concrete run, what no potential run does no concrete run
does either.  So a Holds of :func:`abstract_safety`,
:func:`abstract_sure_termination` and :func:`abstract_as_liveness`, and a
Fails of :func:`abstract_liveness`, carry over to the concrete system;
the other answers speak of potential runs only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Word
from .errors import DeterminismViolation, MissingRelation
from .nfa import Nfa, constrained_search, universal_automaton, word_automaton
from .procedures import _DRIFT_NOTE, _check_goal, _locate, check_ef, check_egf
from .rts import Rts, ValidationReport, inclusion_checks
from .transducer import Transducer, identity
from .verdict import Verdict, fails, holds, unknown


@dataclass(frozen=True)
class Interpretation:
    """A deterministic transducer from constraint words to configurations."""

    transducer: Transducer

    def __post_init__(self):
        if not self.transducer.is_deterministic():
            raise DeterminismViolation(
                "an interpretation needs a deterministic transducer"
            )
        self.transducer.validate_padding()

    @property
    def constraint_alphabet(self):
        return self.transducer.top

    @property
    def configuration_alphabet(self):
        return self.transducer.bottom


def constraint_set(interp: Interpretation, constraint: Word) -> Nfa:
    """The configurations the constraint word stands for."""
    source = word_automaton(interp.constraint_alphabet, constraint)
    return interp.transducer.post_image(source)


def is_inductive(
    rts: Rts, interp: Interpretation, constraint: Word
) -> tuple[bool, tuple[Word, Word] | None]:
    """Is the constraint's configuration set closed under the step
    relation?  On failure returns a step (c, c') leaving the set."""
    satisfying = constraint_set(interp, constraint)
    escape = constrained_search([rts.delta.lazy_post_image(satisfying)], [satisfying])
    if escape is None:
        return True, None
    leaving = rts.delta.lazy_pre_image(word_automaton(rts.alphabet, escape))
    return False, (constrained_search([leaving, satisfying]), escape)


def separates(
    interp: Interpretation, constraint: Word, config: Word, other: Word
) -> bool:
    """Does the constraint contain ``config`` but not ``other``?"""
    satisfying = constraint_set(interp, constraint)
    return satisfying.accepts(config) and not satisfying.accepts(other)


def certify_unreachable(
    rts: Rts, interp: Interpretation, constraint: Word, config: Word, other: Word
) -> bool:
    """True certifies that ``other`` is unreachable from ``config``: the
    constraint is closed under steps, contains the source, and omits the
    target."""
    inductive, _cex = is_inductive(rts, interp, constraint)
    return inductive and separates(interp, constraint, config, other)


def _potential(rts: Rts) -> Rts:
    """The system with ``preach`` as its reachability relation, or raise."""
    if rts.preach is None:
        raise MissingRelation("this check needs the preach relation")
    return Rts(rts.initial, rts.delta, reach=rts.preach)


def validate_preach(rts: Rts) -> ValidationReport:
    """Check the supplied potential-reachability relation is reflexive,
    transitive, and contains the step relation.  The report is kept on
    ``delta`` by ``preach``, as :meth:`Rts.validate` keeps its own."""
    potential = _potential(rts).relation()
    return rts.delta._derive(("preach-validation", potential), lambda: ValidationReport(
        inclusion_checks(potential, (
            ("identity-within-preach", identity(rts.alphabet)),
            ("delta-within-preach", rts.delta),
            ("preach-transitive", potential.lazy_compose(potential)),
        ))
    ))


def abstract_safety(rts: Rts, unsafe: Nfa) -> Verdict:
    """Is every potentially reachable configuration outside ``unsafe``?
    Holds soundly implies the concrete system never reaches ``unsafe``."""
    _check_goal(rts, unsafe)
    reached = check_ef(_potential(rts), unsafe)
    if reached.fails:
        return holds(note="no unsafe configuration is potentially reachable")
    return fails(witness=reached.witness, note="an unsafe configuration is potentially reachable")


def exists_infinite_potential_run(rts: Rts) -> Verdict:
    """Can the system run forever when steps may be potential hops?"""
    return check_egf(_potential(rts), universal_automaton(rts.alphabet))


def abstract_sure_termination(rts: Rts) -> Verdict:
    """Holds when no infinite potential run exists, which soundly implies
    every concrete run is finite."""
    endless = exists_infinite_potential_run(rts)
    if endless.holds:
        return fails(
            witness=endless.witness,
            note="an infinite potential run exists; the concrete system may "
            "or may not terminate",
        )
    return holds(note="no infinite potential run exists")


def abstract_liveness(rts: Rts, goal: Nfa) -> Verdict:
    """Does some potential run visit the goal infinitely often?"""
    return check_egf(_potential(rts), goal)


def abstract_as_liveness(rts: Rts, goal: Nfa, pre_of_goal: Nfa) -> Verdict:
    """Certify almost-sure repeated reachability through the abstraction.

    ``pre_of_goal`` must hold only configurations that can reach the
    goal, as its exact pre-image does.  It is an input like ``preach``;
    a configuration that cannot reach the goal even through ``preach``
    hops is refused.  Holds proves the concrete property; Fails only
    means the abstraction is inconclusive, and the note says so.  A
    system that is not length-preserving gets Unknown instead of Holds.
    """
    _check_goal(rts, goal)
    potential = _potential(rts)
    domain = rts.delta.lazy_domain()
    found = constrained_search(
        [potential.lazy_reachable_set()],
        [domain, pre_of_goal, potential.relation().lazy_pre_image(goal)],
    )
    if found is not None:
        if domain.accepts(found) and pre_of_goal.accepts(found):
            reason = "cannot reach the goal even through preach hops"
        else:
            reason = "either has no successor or lies outside the supplied goal pre-image"
        return fails(
            witness=_locate(potential, found),
            note=f"abstraction inconclusive: a potentially reachable configuration {reason}; "
            "the concrete property itself may still hold either way",
        )
    note = "every potentially reachable configuration can step and can reach the goal"
    if not rts.length_preserving:
        return unknown(note=f"{note}, but {_DRIFT_NOTE}")
    return holds(
        note=f"{note}, so the concrete system visits the goal infinitely often"
        " almost surely"
    )
