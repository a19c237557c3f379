"""The command line against its golden transcript, with and without caps.

``make_cli_transcript.py`` lists the commands and writes the transcript.
"""

import contextlib
import io

import pytest

from make_cli_transcript import MISSING_OPTIONS, TRANSCRIPT, commands, entry, read_entries, run
from rmc.cli import main


def test_outputs_match_the_transcript():
    expected = read_entries(TRANSCRIPT.read_text(encoding="utf-8"))
    argvs = commands()
    assert sorted(expected) == sorted(" ".join(argv) for argv in argvs)
    changed = [
        (expected[" ".join(argv)], got)
        for argv in argvs
        if (got := entry(argv)) != expected[" ".join(argv)]
    ]
    assert not changed, f"{len(changed)} entries differ; the first, as written and now:\n" + (
        "\n".join(changed[0])
    )


def test_reversed_order_gives_the_same_entries():
    """The parser is shared by every call in a process; replaying the
    commands backwards shows that no call leaves state for the next."""
    expected = read_entries(TRANSCRIPT.read_text(encoding="utf-8"))
    changed = [
        " ".join(argv)
        for argv in reversed(commands())
        if entry(argv) != expected[" ".join(argv)]
    ]
    assert not changed, f"{len(changed)} entries differ, the first: {changed[0]}"


def _error(argv) -> tuple[int, str]:
    """Exit code and standard error of one command."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stderr.getvalue()


@pytest.mark.parametrize("cap", ["1", "2", "8"])
def test_a_state_cap_never_makes_an_answer_an_error(monkeypatch, cap):
    """Each command that answers without a cap still answers (perhaps
    Unknown) under a small ``RMC_STATE_CAP``, and each usage or input
    error without a cap, such as a command that leaves out an option it
    needs, is the same error under it."""
    expected = read_entries(TRANSCRIPT.read_text(encoding="utf-8"))
    errors = {
        argv: _error(argv)
        for argv in commands()
        if expected[" ".join(argv)].split("\n")[1] == "exit 3"
    }
    assert set(MISSING_OPTIONS) <= set(errors)
    monkeypatch.setenv("RMC_STATE_CAP", cap)
    for argv in commands():
        if argv in errors:
            assert _error(argv) == errors[argv], argv
        elif argv[-1] != "--json":
            assert run(argv)[0] in (0, 1, 2), argv
