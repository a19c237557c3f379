"""End-to-end command line tests driven through ``rmc.cli.main``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rmc import PROPERTIES, CheckResult, Outcome, Report, parse_automaton
from rmc.cli import bundled_examples, main

AB_WORD = """\
type: nfa
alphabet: a b
states: q0 q1
initial: q0
final: q1
transitions:
q0 a q1
"""

AB_OTHER = """\
type: nfa
alphabet: a b
states: q0 q1
initial: q0
final: q1
transitions:
q0 b q1
"""

SWAP = """\
type: transducer
alphabet-top: a b
alphabet-bottom: a b
states: s0 s1
initial: s0
final: s1
transitions:
s0 a/b s1
s0 b/a s1
"""


TEST_DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bundled_examples_present():
    assert {"herman-lp", "herman-grow", "succ-walk", "toggle"} <= set(
        bundled_examples()
    )


def test_check_holds(capsys):
    code, out, _ = run(
        capsys, "check", "as-gf", "--rts", "herman-lp", "--goal", "one-token"
    )
    assert code == 0
    assert out.startswith("VERDICT: HOLDS")


def test_check_fails_with_lasso_json(capsys):
    code, out, _ = run(
        capsys, "check", "af", "--rts", "herman-lp", "--goal", "one-token", "--json"
    )
    assert code == 1
    data = json.loads(out)
    assert data["outcome"] == "FAILS"
    assert data["witness"]["kind"] == "lasso"
    assert data["witness"]["loop_start"] is not None
    assert all(isinstance(c, str) for c in data["witness"]["configurations"])
    assert set(data) == {
        "command",
        "outcome",
        "witness",
        "bound_used",
        "checks",
        "elapsed_ms",
    }


def test_check_unknown_exit(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "as-f",
        "--rts",
        "herman-lp",
        "--goal",
        "one-token",
        "--max-length",
        "6",
    )
    assert code == 2
    assert "UNKNOWN" in out
    assert "bound 6" in out


def test_check_over_slice_cap_is_unknown(capsys):
    # all 4**9 words of length 9 would exceed the slice cap, but only the
    # few configurations reachable from the initial rings count against it
    code, out, _ = run(
        capsys,
        "check", "as-f", "--rts", "herman-lp", "--goal", "one-token", "--max-length", "9",
    )
    assert code == 2
    assert out.startswith("VERDICT: UNKNOWN (bound 9)")
    assert "longer initial configurations exist" in out


def test_check_over_state_cap_is_unknown(capsys, monkeypatch):
    monkeypatch.setenv("RMC_STATE_CAP", "2")
    code, out, _ = run(capsys, "check", "as-gf", "--rts", "toggle", "--goal", "all")
    assert code == 2
    assert out.startswith("VERDICT: UNKNOWN")
    assert "as-gf" in out and "state cap of 2" in out


def test_check_growing_system_clique(capsys):
    code, out, _ = run(capsys, "check", "egf", "--rts", "succ-walk", "--goal", "all")
    assert code == 0
    assert "clique-prefix" in out


# a and b, each from its own initial state; a step copies the word and
# appends a letter, and reach copies it and appends any word
_TWO_STARTS = {
    "init.nfa": "type: nfa\nalphabet: a b\nstates: s1 s2 f\ninitial: s1 s2\nfinal: f\n"
    "transitions:\ns1 a f\ns2 b f\n",
    "delta.t": "type: transducer\nalphabet-top: a b\nalphabet-bottom: a b\nstates: s t\n"
    "initial: s\nfinal: t\ntransitions:\ns a/a s\ns b/b s\ns #/a t\ns #/b t\n",
    "reach.t": "type: transducer\nalphabet-top: a b\nalphabet-bottom: a b\nstates: r p\n"
    "initial: r\nfinal: r p\ntransitions:\nr a/a r\nr b/b r\nr #/a p\nr #/b p\n"
    "p #/a p\np #/b p\n",
    "all.nfa": "type: nfa\nalphabet: a b\nstates: q\ninitial: q\nfinal: q\n"
    "transitions:\nq a q\nq b q\n",
    "bundle.rts": "rts\nalphabet: a b\ninitial: file:init.nfa\ndelta: file:delta.t\n"
    "reach: file:reach.t\npreach: file:reach.t\n",
}


def test_clique_witness_does_not_depend_on_the_hash_seed(tmp_path):
    for name, text in _TWO_STARTS.items():
        (tmp_path / name).write_text(text)
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["check", "egf-clique", "--rts", str(tmp_path / "bundle.rts"), "--goal", "all"]
    witnesses = [
        json.loads(subprocess.run(
            [sys.executable, "-m", "rmc", *argv, "--json"],
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        ).stdout)["witness"]
        for hash_seed in range(8)
    ]
    assert witnesses == [witnesses[0]] * 8
    assert witnesses[0]["configurations"] == ["a", "a a"]


def test_check_missing_goal(capsys):
    code, _, err = run(capsys, "check", "ef", "--rts", "toggle")
    assert code == 3
    assert err.startswith("error:")


def test_unknown_bundle_lists_shipped_names(capsys):
    code, _, err = run(capsys, "check", "ef", "--rts", "nope", "--goal", "all")
    assert code == 3
    assert "herman-lp" in err


def test_oracle_with_dump(tmp_path, capsys):
    dump = tmp_path / "slice.txt"
    code, out, _ = run(
        capsys,
        "oracle",
        "--rts",
        "herman-lp",
        "--length",
        "6",
        "--property",
        "agf",
        "--goal",
        "one-token",
        "--dump-slice",
        str(dump),
    )
    assert code == 1
    assert "length-6 slice" in out
    text = dump.read_text()
    assert text.startswith("length: 6")
    assert f"\n{4**6 - 1}: ⟩ ⟩ ⟩ ⟩ ⟩ ⟩" in text  # every word, reachable or not
    assert "bottom-scc:" in text


def test_oracle_searches_only_reachable_configurations(capsys):
    # 4**12 words of length 12, far above the slice cap; few are reachable
    code, out, _ = run(
        capsys, "oracle", "--rts", "herman-lp", "--length", "12", "--property", "as-gf",
        "--goal", "one-token",
    )
    assert code == 0
    assert out.startswith("VERDICT: HOLDS")


def test_oracle_refuses_too_many_initial_configurations(tmp_path, capsys):
    # about 2**28 initial rings of length 30: counted, not listed, so the
    # cap refuses them at once; a dump of length 12 would hold all 4**12
    # words.  Running out of the cap is Unknown, and nothing is dumped.
    dump = tmp_path / "slice.txt"
    for length, extra, message in (
        ("30", (), "more than the cap of 200000 reachable configurations"),
        ("12", ("--dump-slice", str(dump)), "16777216 configurations, above the cap of 200000"),
    ):
        code, out, _err = run(
            capsys, "oracle", "--rts", "herman-lp", "--length", length, "--property",
            "as-gf", "--goal", "one-token", *extra,
        )
        assert code == 2
        assert out.startswith("VERDICT: UNKNOWN\n")
        assert f"note: the length-{length} slice is too large: " in out
        assert message in out
    assert not dump.exists()


def test_oracle_bad_length(capsys):
    code, _, err = run(
        capsys, "oracle", "--rts", "toggle", "--length", "-1", "--property", "ef",
        "--goal", "done",
    )
    assert code == 3
    assert "error: argument --length: must be a non-negative integer, got '-1'" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("check", "af", "--rts", "herman-lp", "--goal", "one-token"), "--max-length"),
        (("oracle", "--rts", "toggle", "--property", "ef", "--goal", "done"), "--length"),
        (("simulate", "--rts", "toggle", "--from", "a"), "--steps"),
        (("simulate", "--rts", "toggle", "--from", "a"), "--seed"),
    ],
)
@pytest.mark.parametrize("value", ["-1", "two"])
def test_lengths_are_checked_when_parsed(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert code == 3
    assert not out
    assert f"error: argument {flag}: must be a non-negative integer, got {value!r}" in err
    assert "not among states" not in err


def test_simulate_deterministic(capsys):
    args = (
        "simulate", "--rts", "toggle", "--from", "a",
        "--runs", "40", "--steps", "5", "--seed", "9", "--json",
    )
    code, first, _ = run(capsys, *args)
    assert code == 0
    code, second, _ = run(capsys, *args)
    first, second = json.loads(first), json.loads(second)
    first.pop("elapsed_ms"), second.pop("elapsed_ms")
    assert first == second
    data = first
    assert data["stats"]["termination_frequency"] == 1.0
    assert data["stats"]["runs"] == 40


_NUMPY_ON_DEMAND = """
import sys
import rmc, rmc.cli
assert "numpy" not in sys.modules, "import rmc loaded numpy"
assert rmc.cli.main(["check", "ef", "--rts", "toggle", "--goal", "done"]) == 0
assert "numpy" not in sys.modules, "a check loaded numpy"
argv = ["simulate", "--rts", "toggle", "--from", "a", "--runs", "5", "--steps", "3"]
assert rmc.cli.main(argv) == 0
assert "numpy" in sys.modules
"""


def test_only_simulate_loads_numpy():
    """In a fresh interpreter, since pytest's plugins may load numpy here."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_DEMAND],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "termination frequency" in done.stdout


def test_python_m_rmc_is_the_command_line(capsys):
    """``python -m rmc`` exits and reports as ``main`` does."""
    argv = ["check", "ef", "--rts", "toggle", "--goal", "done"]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "rmc", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    code, out, _ = run(capsys, *argv)
    assert done.returncode == code == 0, done.stderr
    elapsed = re.compile(r"^elapsed: \d+ ms$", re.MULTILINE)
    assert elapsed.sub("elapsed: _", done.stdout) == elapsed.sub("elapsed: _", out)
    assert "VERDICT: HOLDS" in out


def test_lengths_without_words_cost_nothing_per_length():
    """``toggle``'s initial words have length 1, so a bounded check to
    length 20,000 slices 19,999 lengths that hold no word.  Counting the
    words of each stops at the first length no word reaches; counting on
    to the end took minutes, well past the timeout."""
    argv = ["check", "af", "--rts", "toggle", "--goal", "done", "--max-length", "20000"]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "rmc", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert "note: all initial configurations have length at most 20000" in done.stdout


@pytest.mark.parametrize("value", ["0", "-1", "many"])
def test_runs_are_checked_when_parsed(capsys, value):
    code, out, err = run(capsys, "simulate", "--rts", "toggle", "--from", "a", "--runs", value)
    assert code == 3
    assert not out
    assert f"error: argument --runs: must be a positive integer, got {value!r}" in err


GROWING_BUNDLE = """\
rts
alphabet: a b
initial: file:init.nfa
delta: file:delta.t
"""

# a keeps its a and then appends any nonempty word: endless successors
APPEND_ANY = """\
type: transducer
alphabet-top: a b
alphabet-bottom: a b
states: s t
initial: s
final: t
transitions:
s a/a t
t #/a t
t #/b t
"""


def test_simulate_over_successor_cap_is_unknown(tmp_path, capsys):
    (tmp_path / "init.nfa").write_text(AB_WORD)
    (tmp_path / "delta.t").write_text(APPEND_ANY)
    bundle = tmp_path / "bundle.rts"
    bundle.write_text(GROWING_BUNDLE)
    argv = ("simulate", "--rts", str(bundle), "--from", "a")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert not err
    assert out.startswith("VERDICT: UNKNOWN")
    assert "configuration a has more successors than the cap of 4096" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 2
    data = json.loads(out)
    assert data["outcome"] == "UNKNOWN"
    assert set(data) == {
        "command",
        "outcome",
        "witness",
        "bound_used",
        "checks",
        "elapsed_ms",
    }


def test_a_cap_never_hides_a_language_over_another_alphabet(tmp_path, capsys, monkeypatch):
    """Checked before the bundle's validation, which a cap of 1 stops."""
    other = tmp_path / "other.nfa"
    other.write_text(AB_WORD.replace("a b", "x y").replace("q0 a q1", "q0 x q1"))
    interp = tmp_path / "other.t"
    interp.write_text(SWAP.replace("a b", "x y").replace("a/b", "x/y").replace("b/a", "y/x"))
    for argv, message in (
        (("check", "ef", "--goal", str(other)), "goal alphabet"),
        (("oracle", "--length", "2", "--property", "ef", "--goal", str(other)), "goal alphabet"),
        (("simulate", "--from", "a", "--goal", str(other)), "goal alphabet"),
        (("abstract", "safety", "--goal", str(other)), "goal alphabet"),
        (("abstract", "as-liveness", "--goal", "done", "--pre-of-goal", str(other)),
         "pre-of-goal alphabet"),
        (("constraint", "inductive", "--interp", str(interp), "--constraint", "x"),
         "interp configuration alphabet"),
    ):
        argv = (*argv, "--rts", "toggle")
        monkeypatch.delenv("RMC_STATE_CAP", raising=False)
        uncapped = run(capsys, *argv)
        assert uncapped[0] == 3 and f"{message} differs from the system alphabet" in uncapped[2]
        monkeypatch.setenv("RMC_STATE_CAP", "1")
        assert run(capsys, *argv) == uncapped, argv


def test_simulate_goal_frequency(capsys):
    code, out, _ = run(
        capsys,
        "simulate", "--rts", "toggle", "--from", "a", "--goal", "done",
        "--runs", "10", "--json",
    )
    assert code == 0
    assert json.loads(out)["stats"]["goal_hit_frequency"] == 1.0


def test_algebra_union_roundtrip(tmp_path, capsys):
    one = tmp_path / "one.nfa"
    two = tmp_path / "two.nfa"
    out_path = tmp_path / "union.nfa"
    one.write_text(AB_WORD)
    two.write_text(AB_OTHER)
    code, _, _ = run(
        capsys, "algebra", "union", str(one), str(two), "--out", str(out_path)
    )
    assert code == 0
    merged = parse_automaton(out_path.read_text())
    assert merged.accepts(("a",))
    assert merged.accepts(("b",))
    assert not merged.accepts(("a", "b"))


def test_algebra_compose_to_stdout(tmp_path, capsys):
    swap = tmp_path / "swap.t"
    swap.write_text(SWAP)
    code, out, _ = run(capsys, "algebra", "compose", str(swap), str(swap))
    assert code == 0
    doubled = parse_automaton(out)
    assert doubled.accepts_pair(("a",), ("a",))
    assert not doubled.accepts_pair(("a",), ("b",))


def test_algebra_image(tmp_path, capsys):
    swap = tmp_path / "swap.t"
    word = tmp_path / "word.nfa"
    swap.write_text(SWAP)
    word.write_text(AB_WORD)
    code, out, _ = run(capsys, "algebra", "image", str(swap), str(word))
    assert code == 0
    assert parse_automaton(out).accepts(("b",))
    code, out, _ = run(
        capsys, "algebra", "image", str(swap), str(word), "--direction", "pre"
    )
    assert code == 0
    assert parse_automaton(out).accepts(("b",))


def test_algebra_kind_mismatch(tmp_path, capsys):
    word = tmp_path / "word.nfa"
    word.write_text(AB_WORD)
    code, _, err = run(capsys, "algebra", "compose", str(word), str(word))
    assert code == 3
    assert err.startswith("error:")


def test_algebra_complement_cap(tmp_path, capsys):
    word = tmp_path / "word.nfa"
    word.write_text(AB_WORD)
    code, _, err = run(
        capsys, "algebra", "complement", str(word), "--cap", "1"
    )
    assert code == 3
    assert "cap" in err
    for value in ("0", "-3"):
        code, out, err = run(capsys, "algebra", "complement", str(word), "--cap", value)
        assert (code, out) == (3, "")
        assert f"argument --cap: must be a positive integer, got {value!r}" in err


_A_TO_B_ONCE = """\
type: transducer
alphabet-top: a b
alphabet-bottom: a b
states: s0 s1
initial: s0
final: s1
transitions:
s0 a/b s1
"""


def test_algebra_project_and_inverse(tmp_path, capsys):
    one = tmp_path / "one.t"
    word = tmp_path / "word.nfa"
    one.write_text(_A_TO_B_ONCE)
    word.write_text(AB_WORD)
    language = "type: nfa\nalphabet: a b\nstates: s0 s1\ninitial: s0\nfinal: s1\ntransitions:\n"
    assert run(capsys, "algebra", "project", str(one)) == (0, language + "s0 a s1\n", "")
    assert run(capsys, "algebra", "project", str(one), "--track", "2") == (
        0, language + "s0 b s1\n", ""
    )
    assert run(capsys, "algebra", "inverse", str(one)) == (
        0, _A_TO_B_ONCE.replace("a/b", "b/a"), ""
    )
    assert run(capsys, "algebra", "project", str(one), str(one)) == (
        3, "", "error: algebra project takes one transducer file\n"
    )
    for op in ("project", "inverse"):
        assert run(capsys, "algebra", op, str(word)) == (
            3, "", f"error: {word}: {op} needs a transducer\n"
        )


def test_constraint_inductive_failure(capsys):
    code, out, _ = run(
        capsys,
        "constraint", "inductive", "--interp", "ident.t", "--rts", "toggle",
        "--constraint", "a",
    )
    assert code == 1
    assert "witness (pair):" in out


def test_constraint_certify(capsys):
    code, out, _ = run(
        capsys,
        "constraint", "certify", "--interp", "ident.t", "--rts", "toggle",
        "--constraint", "b", "--config", "b", "--other", "a",
    )
    assert code == 0
    assert out.startswith("VERDICT: HOLDS")


def test_abstract_validate(capsys):
    code, out, _ = run(capsys, "abstract", "validate", "--rts", "herman-lp", "--json")
    assert code == 0
    data = json.loads(out)
    assert [c["passed"] for c in data["checks"]] == [True, True, True]


def test_abstract_validate_names_the_pair_a_failed_check_lacks(tmp_path, capsys):
    """preach turns at most one a into b, so it is not transitive: the
    report names the least pair of preach;preach outside preach."""
    preach = (
        "type: transducer\nalphabet-top: a b\nalphabet-bottom: a b\nstates: s t\n"
        "initial: s\nfinal: s t\ntransitions:\ns a/a s\ns b/b s\ns a/b t\nt a/a t\nt b/b t\n"
    )
    files = {
        "all.nfa": "type: nfa\nalphabet: a b\nstates: q\ninitial: q\nfinal: q\n"
        "transitions:\nq a q\nq b q\n",
        "id.t": _IDENTITY,
        "preach.t": preach,
        "bundle.rts": "rts\nalphabet: a b\ninitial: file:all.nfa\ndelta: file:id.t\n"
        "reach: file:id.t\npreach: file:preach.t\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run(capsys, "abstract", "validate", "--rts", str(tmp_path / "bundle.rts"))
    assert (code, err) == (1, "")
    assert out.startswith(
        "VERDICT: FAILS\n"
        "check identity-within-preach: ok\n"
        "check delta-within-preach: ok\n"
        "check preach-transitive: FAIL (a a to b b)\n"
    )


def test_a_failed_check_without_a_pair_renders_a_bare_fail():
    report = Report(
        command="abstract validate",
        outcome=Outcome.FAILS,
        checks=(CheckResult("delta-padding", False),),
    )
    assert report.render() == "VERDICT: FAILS\ncheck delta-padding: FAIL\nelapsed: 0 ms\n"


def test_abstract_safety(capsys):
    code, out, _ = run(
        capsys, "abstract", "safety", "--rts", "toggle", "--goal", "empty"
    )
    assert code == 0
    assert out.startswith("VERDICT: HOLDS")


def test_abstract_as_liveness(capsys):
    code, out, _ = run(
        capsys,
        "abstract", "as-liveness", "--rts", "herman-lp",
        "--goal", "one-token", "--pre-of-goal", "tokens.nfa",
    )
    assert code == 0
    assert out.startswith("VERDICT: HOLDS")


def test_abstract_as_liveness_reads_the_goal(capsys):
    """No configuration can reach the empty goal, whatever the supplied
    pre-image says; the oracle finds the property false at length 5."""
    argv = ("--rts", "herman-lp", "--goal", "empty")
    for pre in ("all", "tokens"):
        code, out, _ = run(capsys, "abstract", "as-liveness", *argv, "--pre-of-goal", pre)
        assert code == 1
        assert "cannot reach the goal even through preach hops" in out
    assert run(capsys, "oracle", *argv, "--length", "5", "--property", "as-gf")[0] == 1


_CAPPED = [
    ("abstract", "validate", "--rts", "herman-lp"),
    ("abstract", "safety", "--rts", "herman-lp", "--goal", "one-token"),
    ("abstract", "liveness", "--rts", "herman-lp", "--goal", "one-token"),
    ("abstract", "sure-term", "--rts", "herman-lp"),
    ("abstract", "as-liveness", "--rts", "herman-lp", "--goal", "one-token",
     "--pre-of-goal", "tokens"),
    ("check", "ef", "--rts", "toggle", "--goal", "done"),
    # the bundle validates under cap 1; the check itself meets the cap
    ("check", "as-gf", "--rts", str(TEST_DATA / "fourth-from-end"), "--goal", "short-or-goal"),
    ("constraint", "inductive", "--interp", "ident.t", "--rts", "toggle", "--constraint", "a"),
]


@pytest.mark.parametrize("argv", _CAPPED, ids=[" ".join(argv[:2]) for argv in _CAPPED])
def test_a_cap_anywhere_is_unknown_naming_the_command(capsys, monkeypatch, argv):
    """From cap 1 up to the first cap that lets the command answer, it
    answers Unknown and names itself and the cap, whether the cap stops
    the bundle's validation or the command's own work."""
    command = " ".join(argv[:2])
    for cap in range(1, 65):
        monkeypatch.setenv("RMC_STATE_CAP", str(cap))
        code, out, err = run(capsys, *argv)
        if code != 2:
            break
        assert not err
        assert out.startswith(f"VERDICT: UNKNOWN\nnote: {command} stopped at a cap: ")
        assert f"state cap of {cap}" in out
    assert code in (0, 1) and cap > 1


def test_validate_over_state_cap_after_loading_is_unknown(capsys, monkeypatch):
    # herman-lp loads at cap 8; checking its preach needs more
    monkeypatch.setenv("RMC_STATE_CAP", "8")
    code, out, err = run(capsys, "abstract", "validate", "--rts", "herman-lp", "--json")
    assert (code, err) == (2, "")
    assert json.loads(out)["outcome"] == "UNKNOWN"


def test_missing_options_are_usage_errors_at_any_length(capsys):
    # the slice of length 20 is over its cap; the goal is missing first
    for length in ("3", "20"):
        code, out, err = run(
            capsys, "oracle", "--rts", "herman-lp", "--length", length, "--property", "ef"
        )
        assert (code, out) == (3, "")
        assert err == "error: oracle ef needs --goal\n"


def test_bad_arguments_exit_three(capsys):
    assert main(["check"]) == 3
    assert main([]) == 3
    assert main(["--help"]) == 0
    capsys.readouterr()


def _letter(symbol):
    return (
        f"type: nfa\nalphabet: a b\nstates: q0 q1\ninitial: q0\nfinal: q1\n"
        f"transitions:\nq0 {symbol} q1\n"
    )


_SAME = "type: transducer\nalphabet-top: a b\nalphabet-bottom: a b\nstates: s\ninitial: s\nfinal: s\n"
_IDENTITY = _SAME + "transitions:\ns a/a s\ns b/b s\n"
# turn some a's into b's: reflexive, transitive, and no step of the system
_A_TO_B = _SAME + "transitions:\ns a/a s\ns b/b s\ns a/b s\n"
_ONLY_A = (
    "type: transducer\nalphabet-top: a b\nalphabet-bottom: a b\nstates: s t\n"
    "initial: s\nfinal: t\ntransitions:\ns a/a t\n"
)


@pytest.mark.parametrize("delta", [_IDENTITY, _ONLY_A], ids=["identity", "a-to-a"])
def test_check_ignores_a_coarser_preach(tmp_path, capsys, delta):
    """preach lets a become b, which no run does; every check answers
    as the length-1 oracle does."""
    files = {
        "init.nfa": _letter("a"), "a.nfa": _letter("a"), "b.nfa": _letter("b"),
        "delta.t": delta, "reach.t": _IDENTITY, "preach.t": _A_TO_B,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    bundle = tmp_path / "bundle.rts"
    bundle.write_text(
        "rts\nalphabet: a b\ninitial: file:init.nfa\ndelta: file:delta.t\n"
        "reach: file:reach.t\npreach: file:preach.t\n"
    )
    assert run(capsys, "abstract", "validate", "--rts", str(bundle))[0] == 0
    compared = 0
    for name, prop in PROPERTIES.items():
        if prop.oracle is None:
            continue
        for goal in ("a.nfa", "b.nfa") if prop.needs_goal else (None,):
            extra = ("--goal", goal) if goal else ()
            checked = run(capsys, "check", name, "--rts", str(bundle), *extra)[0]
            oracle = run(
                capsys, "oracle", "--property", name, "--length", "1",
                "--rts", str(bundle), *extra,
            )[0]
            assert checked == oracle, (name, goal)
            compared += 1
    assert compared == 14
    assert run(capsys, "check", "ef", "--rts", str(bundle), "--goal", "b.nfa",
               "--basis", "potential")[0] == 3
