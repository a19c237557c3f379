"""The golden command-line transcript: its commands, and a writer for it.

Each entry of ``tests/data/cli_transcript.txt`` is one ``rmc`` command run
in-process through :func:`rmc.cli.main`: the command line, its exit code
and its standard output, with the elapsed time (the ``elapsed:`` line and
the ``elapsed_ms`` key) written as ``_``.  ``test_cli_transcript.py`` runs
the same commands and compares.  When an output changes on purpose,
rewrite the file and check that the diff holds only that change:

    PYTHONPATH=src python tests/make_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from rmc import PROPERTIES
from rmc.cli import _data_root, bundled_examples, main

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.txt"

_ELAPSED = re.compile(r'^(elapsed: |  "elapsed_ms": )\d+', re.MULTILINE)


_TOGGLE = ("--interp", "ident.t", "--rts", "toggle")

# commands that leave out an option they need: each is a usage error
MISSING_OPTIONS = [
    ("check", "ef", "--rts", "toggle"),
    ("abstract", "safety", "--rts", "toggle"),
    ("abstract", "liveness", "--rts", "toggle"),
    ("abstract", "as-liveness", "--rts", "toggle", "--goal", "done"),
    ("abstract", "as-liveness", "--rts", "toggle", "--pre-of-goal", "all"),
    ("oracle", "--rts", "herman-lp", "--length", "3", "--property", "ef"),
    ("oracle", "--rts", "herman-lp", "--length", "20", "--property", "ef"),
    ("constraint", "inductive", "--interp", "ident.t", "--constraint", "a"),
    ("constraint", "certify", *_TOGGLE, "--constraint", "b", "--config", "b"),
    ("constraint", "separates", *_TOGGLE, "--constraint", "b", "--other", "a"),
]


def goals(bundle: str) -> list[str]:
    """The goal languages shipped next to a bundle, by name."""
    found = (_data_root() / bundle).glob("*.nfa")
    return sorted(p.stem for p in found if p.stem != "init")


def _with_goals(prefix: tuple, bundle: str, prop) -> list[tuple]:
    if not prop.needs_goal:
        return [prefix]
    return [(*prefix, "--goal", goal) for goal in goals(bundle)]


def commands() -> list[tuple[str, ...]]:
    """Every command of the transcript, in order."""
    out: list[tuple[str, ...]] = []
    bundles = bundled_examples()
    for bundle in bundles:
        for name, prop in PROPERTIES.items():
            check = ("check", name, "--rts", bundle, "--max-length", "6")
            out += _with_goals(check, bundle, prop)
    for bundle in bundles:
        rts = ("--rts", bundle)
        out += [("abstract", "validate", *rts), ("abstract", "sure-term", *rts)]
        for goal in goals(bundle):
            out += [
                ("abstract", "safety", *rts, "--goal", goal),
                ("abstract", "liveness", *rts, "--goal", goal),
            ]
            out += [
                ("abstract", "as-liveness", *rts, "--goal", goal, "--pre-of-goal", pre)
                for pre in goals(bundle)
            ]
    for bundle in bundles:
        for name, prop in PROPERTIES.items():
            if prop.oracle is not None:
                oracle = ("oracle", "--rts", bundle, "--length", "5", "--property", name)
                out += _with_goals(oracle, bundle, prop)
    out += [
        ("simulate", "--rts", "toggle", "--from", "a", "--runs", "20", "--steps", "5",
         "--goal", "done"),
        ("simulate", "--rts", "herman-lp", "--from", "⟨ • • ◦ ⟩", "--runs", "20",
         "--steps", "30", "--seed", "3", "--goal", "one-token"),
        ("simulate", "--rts", "herman-grow", "--from", "⟨ • • ◦ ⟩", "--runs", "20",
         "--steps", "5", "--seed", "4", "--goal", "one-token"),
        ("simulate", "--rts", "succ-walk", "--from", "a", "--runs", "5", "--steps", "10"),
        ("simulate", "--rts", "toggle", "--from", "c"),
    ]
    out += [
        ("constraint", "inductive", *_TOGGLE, "--constraint", "a"),
        ("constraint", "inductive", *_TOGGLE, "--constraint", "b"),
        ("constraint", "separates", *_TOGGLE, "--constraint", "b", "--config", "b",
         "--other", "a"),
        ("constraint", "separates", *_TOGGLE, "--constraint", "a", "--config", "b",
         "--other", "a"),
        ("constraint", "certify", *_TOGGLE, "--constraint", "b", "--config", "b",
         "--other", "a"),
        ("constraint", "certify", *_TOGGLE, "--constraint", "a", "--config", "a",
         "--other", "b"),
        # words outside the interpretation's alphabets: errors under any cap
        ("constraint", "inductive", *_TOGGLE, "--constraint", "z"),
        ("constraint", "certify", *_TOGGLE, "--constraint", "a", "--config", "z",
         "--other", "b"),
    ]
    out += MISSING_OPTIONS
    # the same reports as JSON, for one bundle's abstract, simulate and
    # constraint commands
    out += [
        (*argv, "--json")
        for argv in list(out)
        if "toggle" in argv and argv[0] in ("abstract", "simulate", "constraint")
    ]
    return out


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and standard output of one command, elapsed time as ``_``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, _ELAPSED.sub(r"\g<1>_", stdout.getvalue())


def entry(argv: tuple[str, ...]) -> str:
    code, out = run(argv)
    return f"$ rmc {' '.join(argv)}\nexit {code}\n{out}"


def read_entries(text: str) -> dict[str, str]:
    """The transcript's entries by command line."""
    chunks = text.split("\n$ rmc ")
    chunks[0] = chunks[0].removeprefix("$ rmc ")
    return {chunk.split("\n", 1)[0]: f"$ rmc {chunk}" for chunk in chunks}


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    text = "\n".join(entry(argv) for argv in commands())
    TRANSCRIPT.write_text(text, encoding="utf-8")
    print(f"wrote {len(commands())} entries to {TRANSCRIPT}")
