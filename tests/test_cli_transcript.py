"""The command line against its golden transcript, with and without caps.

``make_cli_transcript.py`` lists the commands and writes the transcript.
"""

import pytest

from make_cli_transcript import MISSING_OPTIONS, TRANSCRIPT, commands, entry, read_entries, run


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


@pytest.mark.parametrize("cap", ["1", "2", "8"])
def test_a_state_cap_never_makes_an_answer_an_error(monkeypatch, cap):
    """Each command that answers without a cap still answers (perhaps
    Unknown) under a small ``RMC_STATE_CAP``, and one that leaves out an
    option it needs is still a usage error."""
    expected = read_entries(TRANSCRIPT.read_text(encoding="utf-8"))
    monkeypatch.setenv("RMC_STATE_CAP", cap)
    for argv in commands():
        if argv[-1] == "--json" or expected[" ".join(argv)].split("\n")[1] == "exit 3":
            continue
        assert run(argv)[0] in (0, 1, 2), argv
    for argv in MISSING_OPTIONS:
        assert run(argv)[0] == 3, argv
