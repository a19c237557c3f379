"""Plain-text formats for automata, transducers, and system bundles.

An automaton file lists its sections in a fixed order, one per line, with
``;`` starting a comment anywhere:

    type: nfa
    alphabet: a b
    states: q0 q1
    initial: q0
    final: q1
    transitions:
    q0 a q1
    q1 b q1

Transducers use ``type: transducer`` with ``alphabet-top:`` and
``alphabet-bottom:`` sections, and label transitions ``top/bottom`` where
either side (not both) may be the padding mark ``#``.  An optional
``deterministic: true`` line directly after ``type:`` asserts determinism
and is verified on load.

A bundle file names the pieces of a transition system, with member files
resolved relative to the bundle's own directory:

    rts
    alphabet: a b
    initial: file:init.nfa
    delta: file:delta.t
    reach: file:reach.t
    preach: file:preach.t

``reach:`` and ``preach:`` are optional.  Loading a bundle parses it and
then validates it, raising BundleValidationError when any structural
check fails; a caller can check its own inputs in between.

A process keeps two things: the last automata it parsed, by file text
and raw ``RMC_STATE_CAP`` (:func:`load_automaton`), and what each
automaton derives (:meth:`~rmc.nfa.Nfa._derive`), the validation report
of a bundle's relations included.  Files are read on every load, and a
parse or a validation that raises keeps nothing.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict, deque
from pathlib import Path

from .alphabet import PAD, Alphabet, pair
from .errors import BundleValidationError, DeterminismViolation, ParseError
from .nfa import Nfa
from .rts import Rts
from .transducer import Transducer

_TOKEN_RE = re.compile(r"^[A-Za-z0-9_<>⟨⟩•◦()-]+$")


def _lines(text: str) -> deque[tuple[int, str]]:
    """Comment-stripped, non-empty lines with their original numbers."""
    stripped = enumerate((raw.split(";", 1)[0].strip() for raw in text.splitlines()), start=1)
    return deque((number, content) for number, content in stripped if content)


def _split_key(line: str, number: int) -> tuple[str, str]:
    if ":" not in line:
        raise ParseError(f"expected a 'key: value' line, got {line!r}", number)
    key, value = line.split(":", 1)
    return key.strip(), value.strip()


def _expect_key(lines: deque, key: str) -> tuple[int, str]:
    if not lines:
        raise ParseError(f"unexpected end of file, expected '{key}:'")
    number, line = lines.popleft()
    got, value = _split_key(line, number)
    if got != key:
        raise ParseError(f"expected '{key}:', found '{got}:'", number)
    return number, value


def _tokens(value: str, number: int, what: str) -> list[str]:
    out = []
    for token in value.split():
        if not _TOKEN_RE.match(token):
            raise ParseError(f"bad {what} token {token!r}", number)
        out.append(token)
    return out


def _unique(tokens: list[str], number: int, what: str) -> list[str]:
    seen = set()
    for token in tokens:
        if token in seen:
            raise ParseError(f"duplicate {what} {token!r}", number)
        seen.add(token)
    return tokens


def _alphabet(value: str, number: int) -> Alphabet:
    symbols = _unique(_tokens(value, number, "symbol"), number, "symbol")
    if not symbols:
        raise ParseError("alphabet must not be empty", number)
    return Alphabet(symbols)


def _state_refs(value: str, number: int, known: set[str], what: str) -> list[str]:
    names = _unique(_tokens(value, number, "state"), number, f"{what} state")
    for name in names:
        if name not in known:
            raise ParseError(f"{what} state {name!r} is not in the states list", number)
    return names


def parse_automaton(text: str) -> Nfa | Transducer:
    """Parse the text format; the ``type:`` line picks the result class."""
    lines = _lines(text)
    number, value = _expect_key(lines, "type")
    if value not in ("nfa", "transducer"):
        raise ParseError(f"type must be 'nfa' or 'transducer', got {value!r}", number)
    is_transducer = value == "transducer"

    deterministic = False
    if lines:
        peek_number, peek_line = lines[0]
        key, det_value = _split_key(peek_line, peek_number) if ":" in peek_line else ("", "")
        if key == "deterministic":
            lines.popleft()
            if det_value not in ("true", "false"):
                raise ParseError(
                    f"deterministic must be 'true' or 'false', got {det_value!r}", peek_number
                )
            deterministic = det_value == "true"

    if is_transducer:
        number, value = _expect_key(lines, "alphabet-top")
        top = _alphabet(value, number)
        number, value = _expect_key(lines, "alphabet-bottom")
        bottom = _alphabet(value, number)
    else:
        number, value = _expect_key(lines, "alphabet")
        alphabet = _alphabet(value, number)

    number, value = _expect_key(lines, "states")
    states = _unique(_tokens(value, number, "state"), number, "state")
    known = set(states)
    number, value = _expect_key(lines, "initial")
    initial = _state_refs(value, number, known, "initial")
    number, value = _expect_key(lines, "final")
    final = _state_refs(value, number, known, "final")

    number, value = _expect_key(lines, "transitions")
    if value:
        raise ParseError("transitions: takes no value on its own line", number)

    transitions: dict = {}
    seen_triples = set()
    while lines:
        number, line = lines.popleft()
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                f"transition needs 'source symbol target', got {len(parts)} tokens", number
            )
        src, label, dst = parts
        if src not in known:
            raise ParseError(f"unknown source state {src!r}", number)
        if dst not in known:
            raise ParseError(f"unknown target state {dst!r}", number)
        if is_transducer:
            if label.count("/") != 1:
                raise ParseError(
                    f"transducer label must be 'top/bottom', got {label!r}", number
                )
            top_sym, bottom_sym = label.split("/")
            if top_sym == PAD and bottom_sym == PAD:
                raise ParseError("label '#/#' is not allowed", number)
            if top_sym != PAD and top_sym not in top:
                raise ParseError(f"symbol {top_sym!r} is not in alphabet-top", number)
            if bottom_sym != PAD and bottom_sym not in bottom:
                raise ParseError(f"symbol {bottom_sym!r} is not in alphabet-bottom", number)
            sym = pair(top_sym, bottom_sym)
        else:
            if label not in alphabet:
                raise ParseError(f"symbol {label!r} is not in the alphabet", number)
            sym = label
        triple = (src, sym, dst)
        if triple in seen_triples:
            raise ParseError(f"duplicate transition {src} {label} {dst}", number)
        seen_triples.add(triple)
        transitions.setdefault((src, sym), []).append(dst)

    transitions = {k: tuple(v) for k, v in transitions.items()}
    if is_transducer:
        result: Nfa | Transducer = Transducer(
            top, bottom, states, transitions, initial, final
        )
        result.validate_padding()
    else:
        result = Nfa(alphabet, states, transitions, initial, final)
    if deterministic and not result.is_deterministic():
        raise DeterminismViolation(
            "file says 'deterministic: true' but the automaton is not deterministic"
        )
    return result


# how many parsed automata a process keeps, the last asked for
_KEPT = 64
_parsed: OrderedDict = OrderedDict()


def load_automaton(path: str | Path) -> Nfa | Transducer:
    """The automaton a file holds, parsed once per text and state cap.  The
    key holds the raw ``RMC_STATE_CAP``, so what an automaton derives under
    one cap is never read under another, and an invalid cap still raises
    where a search reads it, after any input error."""
    text = Path(path).read_text(encoding="utf-8")
    key = (text, os.environ.get("RMC_STATE_CAP"))
    if key in _parsed:
        _parsed.move_to_end(key)
    else:
        _parsed[key] = parse_automaton(text)
        if len(_parsed) > _KEPT:
            _parsed.popitem(last=False)
    return _parsed[key]


def _name_states(automaton: Nfa) -> dict:
    names = [s if isinstance(s, str) else None for s in automaton.states]
    if all(n is not None and _TOKEN_RE.match(n) for n in names):
        return {s: s for s in automaton.states}
    return {s: f"q{i}" for i, s in enumerate(automaton.states)}


def serialize_automaton(automaton: Nfa) -> str:
    """Render the text format.

    States whose repr does not fit the token syntax (tuples from product
    constructions, frozensets from determinization) are renamed q0, q1,
    ... in state order.  Initial and final states are listed in state
    order too, so the text does not depend on set iteration order.
    """
    names = _name_states(automaton)
    out = []
    if isinstance(automaton, Transducer):
        out.append("type: transducer")
        out.append("alphabet-top: " + " ".join(automaton.top.symbols))
        out.append("alphabet-bottom: " + " ".join(automaton.bottom.symbols))
    else:
        out.append("type: nfa")
        out.append("alphabet: " + " ".join(automaton.alphabet.symbols))
    out.append("states: " + " ".join(names[s] for s in automaton.states))
    for key, marked in (("initial", automaton.initial), ("final", automaton.final)):
        out.append(f"{key}: " + " ".join(names[s] for s in automaton.states if s in marked))
    out.append("transitions:")
    lines = []
    for (src, sym), dsts in automaton.transitions.items():
        for dst in dsts:
            lines.append((
                automaton._pos[src],
                automaton.alphabet.index(sym),
                automaton._pos[dst],
                f"{names[src]} {sym} {names[dst]}",
            ))
    lines.sort()
    out.extend(line for *_key, line in lines)
    return "\n".join(out) + "\n"


def save_automaton(automaton: Nfa, path: str | Path) -> None:
    Path(path).write_text(serialize_automaton(automaton), encoding="utf-8")


_BUNDLE_KEYS = ("initial", "delta", "reach", "preach")


def require_valid(rts: Rts) -> Rts:
    """``rts`` itself when every check of :meth:`Rts.validate` passes;
    else raise BundleValidationError with the report, on every call."""
    report = rts.validate()
    if not report.ok:
        raise BundleValidationError(report)
    return rts


def read_rts_bundle(path: str | Path) -> Rts:
    """The system a bundle file names, parsed but not validated, for a
    caller that checks its own inputs before :func:`require_valid`, whose
    inclusion checks build subsets and may stop at a state cap."""
    base = Path(path).parent
    lines = _lines(Path(path).read_text(encoding="utf-8"))
    if not lines:
        raise ParseError("empty bundle file")
    number, header = lines.popleft()
    if header != "rts":
        raise ParseError(f"bundle must start with 'rts', got {header!r}", number)

    number, value = _expect_key(lines, "alphabet")
    alphabet = _alphabet(value, number)

    loaded: dict[str, Nfa | Transducer] = {}
    expected = iter(_BUNDLE_KEYS)
    while lines:
        number, line = lines.popleft()
        key, value = _split_key(line, number)
        for candidate in expected:
            if candidate == key:
                break
        else:
            raise ParseError(f"unknown or out-of-order bundle key {key!r}", number)
        if not value.startswith("file:"):
            raise ParseError(f"{key}: must name a member as file:NAME", number)
        member = value[len("file:"):].strip()
        if not member:
            raise ParseError(f"{key}: names an empty file", number)
        try:
            loaded[key] = load_automaton(base / member)
        except FileNotFoundError:
            raise ParseError(f"{key}: member file {member!r} not found", number) from None

    for required in ("initial", "delta"):
        if required not in loaded:
            raise ParseError(f"bundle is missing the '{required}:' entry")

    def expect_nfa(key: str) -> Nfa:
        got = loaded[key]
        if isinstance(got, Transducer):
            raise ParseError(f"{key}: must be an nfa, not a transducer")
        if got.alphabet != alphabet:
            raise ParseError(f"{key}: alphabet differs from the bundle alphabet")
        return got

    def expect_transducer(key: str) -> Transducer:
        got = loaded[key]
        if not isinstance(got, Transducer):
            raise ParseError(f"{key}: must be a transducer")
        if got.top != alphabet or got.bottom != alphabet:
            raise ParseError(f"{key}: tracks differ from the bundle alphabet")
        return got

    return Rts(
        expect_nfa("initial"),
        expect_transducer("delta"),
        reach=expect_transducer("reach") if "reach" in loaded else None,
        preach=expect_transducer("preach") if "preach" in loaded else None,
    )


def load_rts_bundle(path: str | Path) -> Rts:
    """The validated system a bundle file names."""
    return require_valid(read_rts_bundle(path))
