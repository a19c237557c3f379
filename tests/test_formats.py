"""Text format round-trips and parse error reporting."""

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rmc import (
    BundleValidationError,
    DeterminismViolation,
    PaddingViolation,
    ParseError,
    load_automaton,
    load_rts_bundle,
    parse_automaton,
    serialize_automaton,
)
from rmc import formats
from rmc.cli import main
from support import AB, random_nfa, random_padded_transducer

DATA = Path(__file__).resolve().parent.parent / "src" / "rmc" / "data"


def test_parse_simple_nfa():
    nfa = parse_automaton(
        """
        type: nfa
        alphabet: a b
        states: p q
        initial: p
        final: q
        transitions:
        p a q   ; the only word is a
        """
    )
    assert nfa.accepts(("a",))
    assert not nfa.accepts(("b",))


def test_roundtrip_random():
    rng = random.Random(13)
    for _ in range(25):
        nfa = random_nfa(rng, AB, max_states=6)
        again = parse_automaton(serialize_automaton(nfa))
        for _ in range(30):
            w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            assert nfa.accepts(w) == again.accepts(w)


def test_roundtrip_transducer():
    rng = random.Random(17)
    for _ in range(15):
        t = random_padded_transducer(rng, AB, AB)
        again = parse_automaton(serialize_automaton(t))
        for _ in range(30):
            x = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            y = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            assert t.accepts_pair(x, y) == again.accepts_pair(x, y)


def test_roundtrip_is_exact():
    """Parsing the text gives back the same language, and serializing
    that gives back the same text."""
    rng = random.Random(13)
    automata = [random_nfa(rng, AB, max_states=6) for _ in range(25)]
    rng = random.Random(17)
    automata += [random_padded_transducer(rng, AB, AB) for _ in range(15)]
    for automaton in automata:
        text = serialize_automaton(automaton)
        again = parse_automaton(text)
        assert automaton.includes(again) == (True, None)
        assert again.includes(automaton) == (True, None)
        assert serialize_automaton(again) == text


def test_serialized_text_does_not_depend_on_the_hash_seed():
    reach = DATA / "toggle" / "reach.t"
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "rmc.cli", "algebra", "inverse", str(reach)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(DATA.parents[1])),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("0", "1", "2")
    ]
    assert "initial: d e\nfinal: d f\n" in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2]


def parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_automaton(text)
    return str(info.value)


def test_parse_errors_carry_line_numbers():
    message = parse_error(
        "type: nfa\nalphabet: a\nstates: p\ninitial: p\nfinal: p\ntransitions:\np a missing\n"
    )
    assert message.startswith("line 7:")
    assert "missing" in message


def test_parse_error_cases():
    assert "type" in parse_error("alphabet: a\n")
    assert "duplicate" in parse_error(
        "type: nfa\nalphabet: a a\nstates: p\ninitial: p\nfinal: p\ntransitions:\n"
    )
    assert "not in the alphabet" in parse_error(
        "type: nfa\nalphabet: a\nstates: p\ninitial: p\nfinal: p\ntransitions:\np z p\n"
    )
    assert "#/#" in parse_error(
        "type: transducer\nalphabet-top: a\nalphabet-bottom: a\n"
        "states: p\ninitial: p\nfinal: p\ntransitions:\np #/# p\n"
    )
    assert "duplicate transition" in parse_error(
        "type: nfa\nalphabet: a\nstates: p\ninitial: p\nfinal: p\ntransitions:\np a p\np a p\n"
    )


_NFA_A = "type: nfa\nalphabet: a\nstates: p\ninitial: p\nfinal: p\ntransitions:\n"
_T_A = (
    "type: transducer\nalphabet-top: a\nalphabet-bottom: a\n"
    "states: p\ninitial: p\nfinal: p\ntransitions:\n"
)
_MEMBERS = {
    "a.nfa": _NFA_A,
    "ab.nfa": _NFA_A.replace("alphabet: a", "alphabet: a b"),
    "a.t": _T_A + "p a/a p\n",
    "ab.t": _T_A.replace(": a\n", ": a b\n") + "p a/a p\np b/b p\n",
}

# (file, its text, the line the error names or None, the message)
_PARSE_ERRORS = [
    ("x.nfa", "type: nfa\nalphabet a\n", 2, "expected a 'key: value' line, got 'alphabet a'"),
    ("x.nfa", "type: nfa\nalphabet: a\n", None, "unexpected end of file, expected 'states:'"),
    ("x.nfa", "type: nfa\n", None, "unexpected end of file, expected 'alphabet:'"),
    ("x.t", "type: transducer\ndeterministic: true\n", None,
     "unexpected end of file, expected 'alphabet-top:'"),
    ("x.nfa", "type: nfa\nalphabet: a$\n", 2, "bad symbol token 'a$'"),
    ("x.nfa", "type: nfa\nalphabet:\n", 2, "alphabet must not be empty"),
    ("x.nfa", "type: nfa\nalphabet: a\nstates: p\ninitial: q\n", 4,
     "initial state 'q' is not in the states list"),
    ("x.nfa", "type: dfa\n", 1, "type must be 'nfa' or 'transducer', got 'dfa'"),
    ("x.nfa", "type: nfa\ndeterministic: yes\n", 2,
     "deterministic must be 'true' or 'false', got 'yes'"),
    ("x.nfa", _NFA_A.replace("transitions:", "transitions: p a p"), 6,
     "transitions: takes no value on its own line"),
    ("x.nfa", _NFA_A + "p a\n", 7, "transition needs 'source symbol target', got 2 tokens"),
    ("x.nfa", _NFA_A + "q a p\n", 7, "unknown source state 'q'"),
    ("x.t", _T_A + "p a p\n", 8, "transducer label must be 'top/bottom', got 'a'"),
    ("x.t", _T_A + "p b/a p\n", 8, "symbol 'b' is not in alphabet-top"),
    ("x.t", _T_A + "p a/b p\n", 8, "symbol 'b' is not in alphabet-bottom"),
    ("bundle.rts", "; a comment alone\n", None, "empty bundle file"),
    ("bundle.rts", "system\n", 1, "bundle must start with 'rts', got 'system'"),
    ("bundle.rts", "rts\nalphabet: a\ninitial: a.nfa\n", 3,
     "initial: must name a member as file:NAME"),
    ("bundle.rts", "rts\nalphabet: a\ninitial: file:\n", 3, "initial: names an empty file"),
    ("bundle.rts", "rts\nalphabet: a\ninitial: file:a.nfa\n", None,
     "bundle is missing the 'delta:' entry"),
    ("bundle.rts", "rts\nalphabet: a\ndelta: file:a.t\n", None,
     "bundle is missing the 'initial:' entry"),
    ("bundle.rts", "rts\nalphabet: a\ninitial: file:a.t\ndelta: file:a.t\n", None,
     "initial: must be an nfa, not a transducer"),
    ("bundle.rts", "rts\nalphabet: a b\ninitial: file:a.nfa\ndelta: file:ab.t\n", None,
     "initial: alphabet differs from the bundle alphabet"),
    ("bundle.rts", "rts\nalphabet: a\ninitial: file:a.nfa\ndelta: file:a.nfa\n", None,
     "delta: must be a transducer"),
    ("bundle.rts", "rts\nalphabet: a b\ninitial: file:ab.nfa\ndelta: file:a.t\n", None,
     "delta: tracks differ from the bundle alphabet"),
]


def test_each_parse_error_names_its_line(tmp_path):
    for name, text in _MEMBERS.items():
        (tmp_path / name).write_text(text)
    for name, text, line, message in _PARSE_ERRORS:
        (tmp_path / name).write_text(text)
        load = load_rts_bundle if name.endswith(".rts") else load_automaton
        with pytest.raises(ParseError) as info:
            load(tmp_path / name)
        assert info.value.line == line, text
        assert str(info.value) == (message if line is None else f"line {line}: {message}")


def test_deterministic_claim_verified():
    with pytest.raises(DeterminismViolation):
        parse_automaton(
            "type: nfa\ndeterministic: true\nalphabet: a\nstates: p q\n"
            "initial: p q\nfinal: q\ntransitions:\n"
        )


def test_padding_violation_rejected_on_load():
    with pytest.raises(Exception) as info:
        parse_automaton(
            "type: transducer\nalphabet-top: a\nalphabet-bottom: a\n"
            "states: p q\ninitial: p\nfinal: q\ntransitions:\np #/a q\nq a/a q\n"
        )
    assert "padding" in str(info.value).lower()


def test_bundle_missing_member_file(tmp_path):
    (tmp_path / "bundle.rts").write_text(
        "rts\nalphabet: a\ninitial: file:nope.nfa\ndelta: file:delta.t\n"
    )
    with pytest.raises(ParseError) as info:
        load_rts_bundle(tmp_path / "bundle.rts")
    assert "nope.nfa" in str(info.value)


def test_bundle_validation_failure(tmp_path):
    # reach misses the identity, so loading must fail validation.
    (tmp_path / "init.nfa").write_text(
        "type: nfa\nalphabet: a\nstates: p\ninitial: p\nfinal: p\ntransitions:\n"
    )
    (tmp_path / "delta.t").write_text(
        "type: transducer\nalphabet-top: a\nalphabet-bottom: a\n"
        "states: p q\ninitial: p\nfinal: q\ntransitions:\np a/a q\n"
    )
    (tmp_path / "bundle.rts").write_text(
        "rts\nalphabet: a\ninitial: file:init.nfa\ndelta: file:delta.t\nreach: file:delta.t\n"
    )
    with pytest.raises(BundleValidationError) as info:
        load_rts_bundle(tmp_path / "bundle.rts")
    assert "identity-within-reach" in str(info.value)


def test_bundle_key_order_enforced(tmp_path):
    (tmp_path / "init.nfa").write_text(
        "type: nfa\nalphabet: a\nstates: p\ninitial: p\nfinal: p\ntransitions:\n"
    )
    (tmp_path / "delta.t").write_text(
        "type: transducer\nalphabet-top: a\nalphabet-bottom: a\n"
        "states: p\ninitial: p\nfinal: p\ntransitions:\np a/a p\n"
    )
    (tmp_path / "bundle.rts").write_text(
        "rts\nalphabet: a\ndelta: file:delta.t\ninitial: file:init.nfa\n"
    )
    with pytest.raises(ParseError):
        load_rts_bundle(tmp_path / "bundle.rts")


@pytest.mark.parametrize("name", ["herman-lp", "herman-grow", "succ-walk", "toggle"])
def test_shipped_bundles_load_and_validate(name):
    rts = load_rts_bundle(DATA / name / "bundle.rts")
    assert rts.validate().ok
    assert rts.length_preserving == (name in ("herman-lp", "toggle"))


_A_ONCE = "type: nfa\nalphabet: a\nstates: p q\ninitial: p\nfinal: q\ntransitions:\np a q\n"
_A_STAR = _NFA_A + "p a p\n"


def test_a_file_is_parsed_once_per_text(tmp_path):
    path = tmp_path / "x.nfa"
    path.write_text(_A_ONCE)
    first = load_automaton(path)
    assert load_automaton(path) is first
    (tmp_path / "copy.nfa").write_text(_A_ONCE)
    assert load_automaton(tmp_path / "copy.nfa") is first
    path.write_text(_A_STAR)
    edited = load_automaton(path)
    assert edited is not first
    assert edited.accepts(("a", "a")) and not first.accepts(("a", "a"))
    path.write_text(_A_ONCE)
    assert load_automaton(path) is first


def test_each_state_cap_parses_afresh(tmp_path, monkeypatch):
    """The raw ``RMC_STATE_CAP`` string is part of the key, so what an
    automaton derives under one cap is never read under another."""
    path = tmp_path / "x.nfa"
    path.write_text(_A_STAR)
    monkeypatch.delenv("RMC_STATE_CAP", raising=False)
    uncapped = load_automaton(path)
    loaded = []
    for cap in ("8", "08", "abc"):
        monkeypatch.setenv("RMC_STATE_CAP", cap)
        loaded.append(load_automaton(path))
        assert load_automaton(path) is loaded[-1]
    assert len({id(automaton) for automaton in (uncapped, *loaded)}) == 4
    assert all(automaton == uncapped for automaton in loaded)


_TRANSDUCER_A = (
    "type: transducer\nalphabet-top: a\nalphabet-bottom: a\nstates: p q\ninitial: p\nfinal: q\n"
    "transitions:\n"
)


@pytest.mark.parametrize("text, error", [
    (_NFA_A + "p a\n", ParseError),
    (
        "type: nfa\ndeterministic: true\nalphabet: a\nstates: p q\ninitial: p q\nfinal: q\n"
        "transitions:\n",
        DeterminismViolation,
    ),
    (_TRANSDUCER_A + "p #/a q\nq a/a q\n", PaddingViolation),
], ids=["parse error", "determinism violation", "padding violation"])
def test_a_load_that_raises_raises_every_time(tmp_path, text, error):
    path = tmp_path / "x.nfa"
    path.write_text(text)
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            load_automaton(path)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]
    assert not any(key[0] == text for key in formats._parsed)


def test_the_memo_keeps_its_bound(tmp_path):
    path = tmp_path / "x.nfa"
    loaded = []
    for i in range(formats._KEPT + 3):
        path.write_text(f"{_A_STAR}; file {i}\n")
        loaded.append(load_automaton(path))
    assert len(formats._parsed) == formats._KEPT
    path.write_text(f"{_A_STAR}; file {formats._KEPT + 2}\n")
    assert load_automaton(path) is loaded[-1]
    path.write_text(f"{_A_STAR}; file 0\n")
    assert load_automaton(path) is not loaded[0]
    assert len(formats._parsed) == formats._KEPT


def test_a_failed_validation_raises_on_every_load(tmp_path):
    """The failed report is kept on delta like a passed one, and every
    load that reads it raises with the same message."""
    shutil.copytree(DATA / "toggle", tmp_path / "toggle")
    bundle = tmp_path / "toggle" / "bundle.rts"
    (tmp_path / "toggle" / "reach.t").write_text((tmp_path / "toggle" / "delta.t").read_text())
    messages = []
    for _ in range(3):
        with pytest.raises(BundleValidationError) as info:
            load_rts_bundle(bundle)
        messages.append(str(info.value))
    assert len(set(messages)) == 1 and "identity-within-reach" in messages[0]
    rts = formats.read_rts_bundle(bundle)
    assert rts.delta._derived["validation", rts.reach, rts.preach] is rts.validate()


def _command(*argv) -> tuple[int, str, str]:
    """Exit code, standard output without its timing line, and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("elapsed:")]
    return code, "\n".join(lines), err.getvalue()


def test_an_edited_bundle_member_is_answered_afresh(tmp_path):
    """A bundle member rewritten between two commands of one process gives
    the answer, or the validation error, a fresh process gives."""
    shutil.copytree(DATA / "toggle", tmp_path / "toggle")
    reach = tmp_path / "toggle" / "reach.t"
    argv = ("check", "ef", "--rts", str(tmp_path / "toggle"), "--goal", "done")
    holds = _command(*argv)
    assert holds[0] == 0 and holds[1].startswith("VERDICT: HOLDS")
    assert _command(*argv) == holds

    exact = reach.read_text()
    reach.write_text((tmp_path / "toggle" / "delta.t").read_text())
    fresh = subprocess.run(
        [sys.executable, "-m", "rmc.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(DATA.parents[1])),
        capture_output=True,
        text=True,
    )
    assert fresh.returncode == 3 and "identity-within-reach" in fresh.stderr
    for _ in range(2):
        assert _command(*argv) == (3, "", fresh.stderr)

    reach.write_text(exact)
    assert _command(*argv) == holds
