"""Command line front end.

Each verdict command returns a :class:`~rmc.report.Report`, which
:func:`main` alone times and prints.  The options a property or mode
needs come from tables and are checked before anything loads.  A cap
reached anywhere, bundle validation included, answers Unknown and names
the command and the cap.  ``algebra`` prints an automaton instead, and a
cap there is an error.

Exit codes: 0 when the answer is Holds (or true) and for simulation
statistics, 1 for Fails (or false), 2 for Unknown, and 3 for usage or
input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import report as report_mod
from .abstraction import (
    Interpretation,
    abstract_as_liveness,
    abstract_liveness,
    abstract_safety,
    abstract_sure_termination,
    certify_unreachable,
    is_inductive,
    separates,
    validate_preach,
)
from .errors import CapExceeded, ParseError, RmcError
from .formats import load_automaton, load_rts_bundle, save_automaton, serialize_automaton
from .nfa import Nfa
from .oracle import SimulationConfig, build_slice, dump_slice, oracle_check, simulate
from .procedures import DEFAULT_BOUND, PROPERTIES, run_check
from .report import Report, parse_word
from .rts import Rts
from .transducer import Transducer
from .verdict import Outcome, Verdict, Witness, unknown


def _data_root() -> Path:
    return Path(__file__).resolve().parent / "data"


def bundled_examples() -> list[str]:
    """Names of the example systems shipped with the package."""
    root = _data_root()
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if (p / "bundle.rts").is_file())


def _resolve_bundle(name: str) -> Path:
    p = Path(name)
    if p.is_file():
        return p
    if p.is_dir() and (p / "bundle.rts").is_file():
        return p / "bundle.rts"
    shipped = _data_root() / name / "bundle.rts"
    if shipped.is_file():
        return shipped
    known = ", ".join(bundled_examples()) or "none"
    raise ParseError(f"no bundle {name!r}; not a file, and shipped bundles are: {known}")


def _resolve_language(name: str, bundle_dir: Path | None) -> Path:
    p = Path(name)
    if p.is_file():
        return p
    if bundle_dir is not None:
        for candidate in (bundle_dir / name, bundle_dir / f"{name}.nfa"):
            if candidate.is_file():
                return candidate
    raise ParseError(f"no automaton file {name!r}")


def _load_language(path: Path) -> Nfa:
    auto = load_automaton(path)
    if isinstance(auto, Transducer):
        raise ParseError(f"{path}: expected a language automaton, found a transducer")
    return auto


def _load_transducer(path: Path) -> Transducer:
    auto = load_automaton(path)
    if not isinstance(auto, Transducer):
        raise ParseError(f"{path}: expected a transducer, found a language automaton")
    return auto


class _Loaded:
    """A bundle plus the directory its goal names resolve against."""

    def __init__(self, arg: str):
        path = _resolve_bundle(arg)
        self.rts: Rts = load_rts_bundle(path)
        self.directory = path.parent

    def language(self, name: str) -> Nfa:
        return _load_language(_resolve_language(name, self.directory))


def _cmd_check(args, command: str) -> Report:
    loaded = _Loaded(args.rts)
    goal = loaded.language(args.goal) if args.goal else None
    verdict = run_check(loaded.rts, args.property, goal=goal, bound=args.max_length)
    return report_mod.from_verdict(command, verdict)


# abstract mode -> (the options it needs, the check it runs on the system
# and, in that order, their languages); validate reports its checks instead
_ABSTRACT = {
    "safety": (("goal",), abstract_safety),
    "liveness": (("goal",), abstract_liveness),
    "sure-term": ((), abstract_sure_termination),
    "as-liveness": (("goal", "pre_of_goal"), abstract_as_liveness),
    "validate": ((), None),
}


def _cmd_abstract(args, command: str) -> Report:
    loaded = _Loaded(args.rts)
    if args.mode == "validate":
        validation = validate_preach(loaded.rts)
        outcome = Outcome.HOLDS if validation.ok else Outcome.FAILS
        return Report(command=command, outcome=outcome, checks=validation.checks)
    needs, check = _ABSTRACT[args.mode]
    languages = (loaded.language(getattr(args, option)) for option in needs)
    return report_mod.from_verdict(command, check(loaded.rts, *languages))


def _cmd_oracle(args, command: str) -> Report:
    loaded = _Loaded(args.rts)
    goal = loaded.language(args.goal) if args.goal else None
    try:
        # a dump shows the whole slice; the answer only needs its reachable part
        slice_ = build_slice(loaded.rts, args.length, reachable=not args.dump_slice)
    except CapExceeded as err:
        verdict = unknown(note=f"the length-{args.length} slice is too large: {err}")
    else:
        if args.dump_slice:
            Path(args.dump_slice).write_text(dump_slice(slice_), encoding="utf-8")
        answer, witness = oracle_check(slice_, PROPERTIES[args.property].oracle, goal)
        verdict = Verdict(
            Outcome.HOLDS if answer else Outcome.FAILS,
            witness=witness,
            note=f"decided by explicit search over the length-{args.length} slice",
        )
    return report_mod.from_verdict(command, verdict)


def _cmd_simulate(args, command: str) -> Report:
    loaded = _Loaded(args.rts)
    goal = loaded.language(args.goal) if args.goal else None
    config = SimulationConfig(runs=args.runs, max_steps=args.steps, seed=args.seed)
    stats = simulate(loaded.rts, parse_word(args.start), config, goal=goal)
    return Report(command=command, outcome=None, stats=stats)


def _algebra_result(args) -> Nfa:
    op = args.op
    first = load_automaton(Path(args.inputs[0]))
    if op in ("union", "intersect"):
        if len(args.inputs) != 2:
            raise ParseError(f"algebra {op} takes two automaton files")
        second = load_automaton(Path(args.inputs[1]))
        if isinstance(first, Transducer) != isinstance(second, Transducer):
            raise ParseError("cannot mix a transducer and a language automaton")
        return first.union(second) if op == "union" else first.intersect(second)
    if op == "complement":
        if len(args.inputs) != 1:
            raise ParseError("algebra complement takes one automaton file")
        return first.complement(cap=args.cap)
    if op == "compose":
        if len(args.inputs) != 2:
            raise ParseError("algebra compose takes two transducer files")
        if not isinstance(first, Transducer):
            raise ParseError(f"{args.inputs[0]}: compose needs transducers")
        return first.compose(_load_transducer(Path(args.inputs[1])))
    if op == "image":
        if len(args.inputs) != 2:
            raise ParseError("algebra image takes a transducer and a language file")
        if not isinstance(first, Transducer):
            raise ParseError(f"{args.inputs[0]}: image needs a transducer first")
        language = _load_language(Path(args.inputs[1]))
        if args.direction == "post":
            return first.post_image(language)
        return first.pre_image(language)
    if len(args.inputs) != 1:
        raise ParseError(f"algebra {op} takes one transducer file")
    if not isinstance(first, Transducer):
        raise ParseError(f"{args.inputs[0]}: {op} needs a transducer")
    if op == "project":
        return first.project(args.track)
    return first.inverse()


def _cmd_algebra(args) -> int:
    result = _algebra_result(args)
    if args.out:
        save_automaton(result, Path(args.out))
    else:
        print(serialize_automaton(result), end="")
    return 0


# constraint mode -> the options it needs
_CONSTRAINT = {
    "inductive": ("rts",),
    "separates": ("config", "other"),
    "certify": ("rts", "config", "other"),
}


def _cmd_constraint(args, command: str) -> Report:
    loaded = _Loaded(args.rts) if args.rts else None
    bundle_dir = loaded.directory if loaded else None
    interp = Interpretation(
        _load_transducer(_resolve_language(args.interp, bundle_dir))
    )
    constraint = parse_word(args.constraint)
    witness = note = None
    if args.mode == "inductive":
        ok, escape = is_inductive(loaded.rts, interp, constraint)
        if escape is not None:
            witness = Witness("pair", escape)
            note = "this step leaves the constraint's configuration set"
    elif args.mode == "separates":
        ok = separates(interp, constraint, parse_word(args.config), parse_word(args.other))
    else:  # certify
        ok = certify_unreachable(
            loaded.rts, interp, constraint, parse_word(args.config), parse_word(args.other)
        )
        if not ok:
            note = "the constraint is not inductive or does not separate the pair"
    outcome = Outcome.HOLDS if ok else Outcome.FAILS
    return Report(command=command, outcome=outcome, witness=witness, note=note)


def _non_negative(text: str) -> int:
    """Argparse type of the non-negative integer options."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """Argparse type of ``--runs``."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmc",
        description="Check properties of regular transition systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit the report as JSON")

    check = sub.add_parser("check", help="run a decision procedure on a bundle")
    check.add_argument("property", choices=tuple(PROPERTIES))
    check.add_argument("--rts", required=True, help="bundle file or shipped bundle name")
    check.add_argument("--goal", help="goal language (file or name next to the bundle)")
    check.add_argument(
        "--max-length",
        type=_non_negative,
        default=DEFAULT_BOUND,
        help="length bound for the per-length procedures (af, agf, as-f)",
    )
    add_json(check)

    abstract = sub.add_parser("abstract", help="reason through a supplied abstraction")
    abstract.add_argument("mode", choices=tuple(_ABSTRACT))
    abstract.add_argument("--rts", required=True)
    abstract.add_argument("--goal", help="goal language; the unsafe set for safety")
    abstract.add_argument("--pre-of-goal", help="configurations that all reach the goal (as-liveness)")
    add_json(abstract)

    oracle = sub.add_parser("oracle", help="explicit-state ground truth for one length")
    oracle.add_argument("--rts", required=True)
    oracle.add_argument("--length", type=_non_negative, required=True)
    oracle.add_argument(
        "--property",
        required=True,
        choices=sorted(name for name, prop in PROPERTIES.items() if prop.oracle),
    )
    oracle.add_argument("--goal")
    oracle.add_argument("--dump-slice", help="also write the slice's graph to this file")
    add_json(oracle)

    sim = sub.add_parser("simulate", help="seeded random walks from one configuration")
    sim.add_argument("--rts", required=True)
    sim.add_argument("--from", dest="start", required=True, help="start word, symbols space-separated")
    sim.add_argument("--runs", type=_positive, default=100)
    sim.add_argument("--steps", type=_non_negative, default=1000)
    sim.add_argument("--seed", type=_non_negative, default=0)
    sim.add_argument("--goal")
    add_json(sim)

    algebra = sub.add_parser("algebra", help="automaton and transducer operations")
    algebra.add_argument(
        "op",
        choices=("union", "intersect", "complement", "compose", "image", "project", "inverse"),
    )
    algebra.add_argument("inputs", nargs="+", help="automaton file(s)")
    algebra.add_argument("--out", help="write the result here instead of stdout")
    algebra.add_argument("--cap", type=int, help="state cap for complement")
    algebra.add_argument("--direction", choices=("post", "pre"), default="post")
    algebra.add_argument("--track", type=int, choices=(1, 2), default=1)

    constraint = sub.add_parser("constraint", help="constraint-language queries")
    constraint.add_argument("mode", choices=tuple(_CONSTRAINT))
    constraint.add_argument("--interp", required=True, help="interpretation transducer file")
    constraint.add_argument("--rts", help="bundle (inductive and certify)")
    constraint.add_argument("--constraint", required=True, help="constraint word, space-separated")
    constraint.add_argument("--config", help="configuration that should satisfy the constraint")
    constraint.add_argument("--other", help="configuration that should not")
    add_json(constraint)

    return parser


_DISPATCH = {
    "check": _cmd_check,
    "abstract": _cmd_abstract,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "constraint": _cmd_constraint,
}


def _needs(args) -> tuple[str, ...]:
    """The options this command needs that argparse cannot require."""
    if args.command in ("check", "oracle"):
        return ("goal",) if PROPERTIES[args.property].needs_goal else ()
    if args.command == "abstract":
        return _ABSTRACT[args.mode][0]
    if args.command == "constraint":
        return _CONSTRAINT[args.mode]
    return ()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code == 0 else 3
    started = time.monotonic()
    detail = getattr(args, "property", None) or getattr(args, "mode", None)
    command = f"{args.command} {detail}" if detail else args.command
    try:
        missing = [name for name in _needs(args) if not getattr(args, name)]
        if missing:
            flags = " and ".join("--" + name.replace("_", "-") for name in missing)
            raise ParseError(f"{command} needs {flags}")
        if args.command == "algebra":
            return _cmd_algebra(args)
        try:
            rep = _DISPATCH[args.command](args, command)
        except CapExceeded as err:
            rep = report_mod.from_verdict(command, unknown(note=f"{command} stopped at a cap: {err}"))
    except (RmcError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    rep = dataclasses.replace(rep, elapsed_ms=int((time.monotonic() - started) * 1000))
    sys.stdout.write(rep.to_json() + "\n" if args.json else rep.render())
    return 0 if rep.outcome is None else rep.outcome.exit_code


if __name__ == "__main__":
    sys.exit(main())
