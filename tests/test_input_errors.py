"""Input errors, each with its exact message: exit code 3 on the command
line, or the exception type a library call raises."""

import contextlib
import io
from pathlib import Path

import pytest

from rmc import (
    Alphabet,
    AlphabetMismatch,
    Nfa,
    NotLengthPreserving,
    SimulationConfig,
    Witness,
    build_slice,
    diagonal,
    load_rts_bundle,
    oracle_check,
    pair,
    relation_difference_identity,
    relation_to_transducer,
    simulate,
    universal,
    universal_automaton,
)
from rmc.cli import main
from support import AB, A

TOGGLE = Path(__file__).resolve().parent.parent / "src" / "rmc" / "data" / "toggle"
INIT, DELTA = str(TOGGLE / "init.nfa"), str(TOGGLE / "delta.t")
OTHER = universal_automaton(Alphabet(["x"]))


def exit_and_error(*argv):
    """Exit code and standard error of one command line."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stderr.getvalue()


def raised(call):
    """The type and message of what ``call`` raises, or None."""
    try:
        call()
    except Exception as err:  # each row names the type it expects
        return type(err), str(err)
    return None


def toggle():
    return load_rts_bundle(TOGGLE / "bundle.rts")


def usage(message):
    return 3, f"error: {message}\n"


_ERRORS = [
    pytest.param(
        lambda: exit_and_error("algebra", "union", INIT),
        usage("algebra union takes two automaton files"),
        id="algebra union arity",
    ),
    pytest.param(
        lambda: exit_and_error("algebra", "intersect", INIT, DELTA),
        usage("cannot mix a transducer and a language automaton"),
        id="algebra intersect kinds",
    ),
    pytest.param(
        lambda: exit_and_error("algebra", "complement", INIT, INIT),
        usage("algebra complement takes one automaton file"),
        id="algebra complement arity",
    ),
    pytest.param(
        lambda: exit_and_error("algebra", "compose", DELTA),
        usage("algebra compose takes two transducer files"),
        id="algebra compose arity",
    ),
    pytest.param(
        lambda: exit_and_error("algebra", "image", DELTA),
        usage("algebra image takes a transducer and a language file"),
        id="algebra image arity",
    ),
    pytest.param(
        lambda: exit_and_error("algebra", "image", INIT, DELTA),
        usage(f"{INIT}: image needs a transducer first"),
        id="algebra image kinds",
    ),
    pytest.param(
        lambda: exit_and_error("check", "ef", "--rts", "toggle", "--goal", "nosuch"),
        usage("no automaton file 'nosuch'"),
        id="goal file missing",
    ),
    pytest.param(
        lambda: exit_and_error("check", "ef", "--rts", "toggle", "--goal", DELTA),
        usage(f"{DELTA}: expected a language automaton, found a transducer"),
        id="goal is a transducer",
    ),
    pytest.param(
        lambda: exit_and_error(
            "constraint", "inductive", "--interp", INIT, "--rts", "toggle", "--constraint", "a"
        ),
        usage(f"{INIT}: expected a transducer, found a language automaton"),
        id="interpretation is a language automaton",
    ),
    pytest.param(
        lambda: raised(lambda: Alphabet([""])),
        (ValueError, "alphabet symbol must be a nonempty string, got ''"),
        id="alphabet empty symbol",
    ),
    pytest.param(
        lambda: raised(lambda: Alphabet(["a#"])),
        (ValueError, "illegal character '#' in alphabet symbol 'a#'"),
        id="alphabet padding character",
    ),
    pytest.param(
        lambda: raised(lambda: Alphabet([])),
        (ValueError, "alphabet must be nonempty"),
        id="alphabet empty",
    ),
    pytest.param(
        lambda: raised(lambda: Alphabet(["a", "a"])),
        (ValueError, "duplicate symbols in alphabet ('a', 'a')"),
        id="alphabet duplicate symbols",
    ),
    pytest.param(
        lambda: raised(lambda: pair("#", "#")),
        (ValueError, "pair symbol cannot be padded on both tracks"),
        id="pair padded on both tracks",
    ),
    pytest.param(
        lambda: raised(lambda: Nfa(AB, [0], {(1, "a"): (0,)}, [0], [0])),
        (ValueError, "transition from unknown state 1"),
        id="nfa transition from an unknown state",
    ),
    pytest.param(
        lambda: raised(lambda: Nfa(AB, [0], {(0, "c"): (0,)}, [0], [0])),
        (ValueError, "transition symbol 'c' not in alphabet"),
        id="nfa transition on an unknown symbol",
    ),
    pytest.param(
        lambda: raised(lambda: diagonal(universal(AB, A))),
        (AlphabetMismatch, "diagonal needs equal top and bottom alphabets"),
        id="diagonal of unequal tracks",
    ),
    pytest.param(
        lambda: raised(lambda: relation_difference_identity(universal(AB, A))),
        (AlphabetMismatch, "identity removal needs equal track alphabets"),
        id="identity removal of unequal tracks",
    ),
    pytest.param(
        lambda: raised(lambda: oracle_check(build_slice(toggle(), 1), "EF")),
        (ValueError, "property EF needs a goal language"),
        id="oracle_check without a goal",
    ),
    pytest.param(
        lambda: raised(lambda: oracle_check(build_slice(toggle(), 1), "EF", OTHER)),
        (ValueError, "goal alphabet differs from the slice alphabet"),
        id="oracle_check goal alphabet",
    ),
    pytest.param(
        lambda: raised(lambda: relation_to_transducer(AB, [(("a",), ("a", "b"))])),
        (NotLengthPreserving, "pair lengths differ: 1 vs 2"),
        id="relation_to_transducer lengths",
    ),
    pytest.param(
        lambda: raised(lambda: simulate(toggle(), ("a",), SimulationConfig(), goal=OTHER)),
        (ValueError, "goal alphabet differs from the system alphabet"),
        id="simulate goal alphabet",
    ),
    pytest.param(
        lambda: raised(lambda: Witness("cycle", ())),
        (ValueError, "unknown witness kind 'cycle'"),
        id="witness kind",
    ),
    pytest.param(
        lambda: raised(lambda: Witness("lasso", (("a",),))),
        (ValueError, "lasso witness needs loop_start"),
        id="lasso without a loop start",
    ),
]


@pytest.mark.parametrize("observe, expected", _ERRORS)
def test_each_input_error_names_itself(observe, expected):
    assert observe() == expected


def test_an_input_error_comes_before_an_invalid_state_cap(tmp_path, monkeypatch):
    """A goal file that does not parse is the error, whatever
    ``RMC_STATE_CAP`` holds, on the first command and on a repeated one."""
    goal = tmp_path / "goal.nfa"
    goal.write_text("garbage\n")
    monkeypatch.setenv("RMC_STATE_CAP", "abc")
    for _ in range(2):
        assert exit_and_error("check", "ef", "--rts", "toggle", "--goal", str(goal)) == usage(
            "line 1: expected a 'key: value' line, got 'garbage'"
        )
