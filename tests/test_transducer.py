"""Relation algebra checked against brute-force pair enumeration."""

import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmc import (
    Alphabet,
    AlphabetMismatch,
    Nfa,
    PairAlphabet,
    PaddingViolation,
    StateCapExceeded,
    Transducer,
    constrained_search,
    convolve,
    diagonal,
    identity,
    identity_on,
    length_automaton,
    load_automaton,
    load_rts_bundle,
    relation_difference_identity,
    transducer,
    universal,
    universal_automaton,
    unconvolve,
    word_automaton,
)
from support import (
    A,
    AB,
    ABC,
    mk_nfa,
    mk_t,
    random_lp_transducer,
    random_nfa,
    random_padded_transducer,
    random_word_nfa,
    words_nfa,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "rmc" / "data"


def all_words(alphabet, up_to):
    for n in range(up_to + 1):
        yield from product(alphabet.symbols, repeat=n)


def relation(t, up_to=3):
    """All pairs related by t whose words are at most up_to long."""
    words = list(all_words(t.top, up_to))
    bottoms = list(all_words(t.bottom, up_to))
    return {(x, y) for x in words for y in bottoms if t.accepts_pair(x, y)}


SUCC = mk_t(A, A, [("s", "a/a", "s"), ("s", "#/a", "t")], ["s"], ["t"])


def test_accepts_pair_and_padding():
    assert SUCC.accepts_pair((), ("a",))
    assert SUCC.accepts_pair(("a", "a"), ("a", "a", "a"))
    assert not SUCC.accepts_pair(("a",), ("a",))
    assert not SUCC.accepts_pair(("a",), ())


def test_validate_padding_rejects_resumed_track():
    # #/a followed by a/a resumes the top track after padding started.
    bad = mk_t(A, A, [("s", "#/a", "t"), ("t", "a/a", "t")], ["s"], ["t"])
    with pytest.raises(PaddingViolation):
        bad.validate_padding()


def test_identity_and_universal():
    ident = identity(AB)
    assert ident.accepts_pair(("a", "b"), ("a", "b"))
    assert not ident.accepts_pair(("a",), ("b",))
    assert not ident.accepts_pair(("a",), ("a", "a"))
    uni = universal(AB, A)
    assert uni.accepts_pair(("b", "b"), ())
    assert uni.accepts_pair((), ("a", "a", "a"))


def test_identity_on_language():
    lang = words_nfa(AB, {("a",), ("b", "b")})
    ident = identity_on(lang)
    assert ident.accepts_pair(("a",), ("a",))
    assert ident.accepts_pair(("b", "b"), ("b", "b"))
    assert not ident.accepts_pair(("b",), ("b",))
    assert not ident.accepts_pair(("a",), ("b", "b"))


def test_inverse_and_project():
    rng = random.Random(5)
    for _ in range(25):
        t = random_padded_transducer(rng, AB, AB)
        rel = relation(t)
        inv = t.inverse()
        assert len(inv.states) <= len(t.states)
        assert relation(inv) == {(y, x) for (x, y) in rel}
        dom = t.project(1)
        rng_lang = t.project(2)
        assert len(dom.states) <= len(t.states)
        # A short word can sit in the domain only through partners longer
        # than the enumeration bound, so check membership semantically:
        # w is in the domain exactly when its image is nonempty.
        for w in all_words(AB, 3):
            assert dom.accepts(w) == (not t.post_image(word_automaton(AB, w)).is_empty())
            assert rng_lang.accepts(w) == (not t.pre_image(word_automaton(AB, w)).is_empty())


def test_project_track_validation():
    with pytest.raises(ValueError):
        SUCC.project(3)


def test_compose_lp_brute_force():
    """On length-preserving inputs the middle word cannot outgrow the ends,
    so enumeration decides composition exactly."""
    rng = random.Random(19)
    for _ in range(30):
        t1 = random_lp_transducer(rng, AB, max_states=4)
        t2 = random_lp_transducer(rng, AB, max_states=4)
        composed = t1.compose(t2)
        assert len(composed.states) <= len(t1.states) * len(t2.states)
        r1, r2 = relation(t1), relation(t2)
        joined = {(x, z) for (x, y) in r1 for (y2, z) in r2 if y == y2}
        assert relation(composed) == joined


def test_padded_relation_laws_brute_force():
    """compose, the images and inverse on padded relations, compared with
    enumeration on words of up to 3 letters.  Each padded phase of
    random_padded_transducer has at most two states, so past the longer
    of the compared words a witness runs through at most 2 × 2 product
    states and never needs more than 3 further letters: middle words and
    image sources of up to 6 letters decide every compared pair.  Every
    composition is padding-valid and accepts only convolutions."""
    rng = random.Random(53)
    short, long = list(all_words(AB, 3)), list(all_words(AB, 6))

    def pairs(t, tops, bottoms):
        return {(x, y) for x in tops for y in bottoms if t.accepts_pair(x, y)}

    for _ in range(40):
        t1 = random_padded_transducer(rng, AB, AB)
        t2 = random_padded_transducer(rng, AB, AB)
        lang = random_nfa(rng, AB, max_states=2)
        r1, r2 = pairs(t1, short, long), pairs(t2, long, short)
        joined = {(x, z) for (x, y) in r1 for (y2, z) in r2 if y == y2}
        composed = t1.compose(t2)
        assert pairs(composed, short, short) == joined
        composed.validate_padding()
        assert not [
            w for w in all_words(composed.alphabet, 3)
            if composed.accepts(w) and convolve(*unconvolve(w)) != w
        ]
        assert relation(t1.inverse()) == {(y, x) for (x, y) in relation(t1)}
        post = t1.post_image(lang)
        assert {y for y in short if post.accepts(y)} == {
            y for (x, y) in pairs(t1, long, short) if lang.accepts(x)
        }
        pre = t1.pre_image(lang)
        assert {x for x in short if pre.accepts(x)} == {
            x for (x, y) in r1 if lang.accepts(y)
        }


def test_compose_and_inverse_across_track_alphabets():
    """A relation from {a, b} to {x, y} composed with one from {x, y} to
    {p}, against enumeration as in the padded laws above, and each
    inverse; the pair alphabets come out new and with the right tracks."""
    xy, p = Alphabet(["x", "y"]), Alphabet(["p"])
    rng = random.Random(59)
    short = list(all_words(AB, 3))
    middle, far = list(all_words(xy, 6)), list(all_words(p, 3))

    def pairs(t, tops, bottoms):
        return {(x, y) for x in tops for y in bottoms if t.accepts_pair(x, y)}

    for _ in range(20):
        t1 = random_padded_transducer(rng, AB, xy)
        t2 = random_padded_transducer(rng, xy, p)
        composed = t1.compose(t2)
        assert composed.alphabet == PairAlphabet(AB, p)
        r1, r2 = pairs(t1, short, middle), pairs(t2, middle, far)
        assert pairs(composed, short, far) == {
            (x, z) for (x, y) in r1 for (y2, z) in r2 if y == y2
        }
        inverse = t1.inverse()
        assert inverse.alphabet == PairAlphabet(xy, AB)
        assert relation(inverse) == {(y, x) for (x, y) in relation(t1)}


def test_operands_over_the_wrong_alphabet_are_refused():
    xy = Alphabet(["x", "y"])
    to_xy = mk_t(AB, xy, [("s", "a/x", "s")], ["s"], ["s"])
    refusals = [
        (lambda: to_xy.compose(to_xy),
         "composition needs the first bottom alphabet to equal the second top"),
        (lambda: to_xy.post_image(universal_automaton(xy)),
         "language alphabet differs from the top track"),
        (lambda: to_xy.pre_image(universal_automaton(AB)),
         "language alphabet differs from the bottom track"),
        (lambda: to_xy.lazy_pre_image(universal_automaton(AB)),
         "language alphabet differs from the bottom track"),
        (lambda: identity_on(to_xy), "identity_on needs a plain word language"),
    ]
    for operation, message in refusals:
        with pytest.raises(AlphabetMismatch) as raised:
            operation()
        assert str(raised.value) == message


# random_padded_transducer with max_states=4 has one state per phase
padded_transducers = st.randoms(use_true_random=False).map(
    lambda rng: random_padded_transducer(rng, AB, AB, max_states=4)
)


def same_relation(t1, t2):
    """Exact language equality; padding-valid transducers accept only
    convolutions, so their languages are their relations."""
    return t1.includes(t2)[0] and t2.includes(t1)[0]


_LAWS = settings(derandomize=True, deadline=None, database=None, max_examples=30)


@_LAWS
@given(padded_transducers, padded_transducers, padded_transducers)
def test_compose_is_associative(t1, t2, t3):
    assert same_relation(t1.compose(t2).compose(t3), t1.compose(t2.compose(t3)))


@_LAWS
@given(padded_transducers, padded_transducers)
def test_inverse_of_composition(t1, t2):
    assert same_relation(
        t1.compose(t2).inverse(), t2.inverse().compose(t1.inverse())
    )


@_LAWS
@given(padded_transducers)
def test_identity_is_neutral(t):
    assert same_relation(t.compose(identity(AB)), t)
    assert same_relation(identity(AB).compose(t), t)


def test_compose_padded_examples():
    plus_two = SUCC.compose(SUCC)
    assert plus_two.accepts_pair((), ("a", "a"))
    assert plus_two.accepts_pair(("a",), ("a", "a", "a"))
    assert not plus_two.accepts_pair((), ("a",))
    assert not plus_two.accepts_pair(("a",), ("a",))

    # Composing with the identity changes nothing.
    rng = random.Random(29)
    for _ in range(10):
        t = random_padded_transducer(rng, AB, AB)
        assert relation(t.compose(identity(AB))) == relation(t)
        assert relation(identity(AB).compose(t)) == relation(t)


def test_post_and_pre_image():
    rng = random.Random(31)
    for _ in range(25):
        t = random_padded_transducer(rng, AB, AB)
        lang = random_nfa(rng, AB, max_states=4)
        rel = relation(t)
        inside = {w for w in all_words(AB, 3) if lang.accepts(w)}
        post = t.post_image(lang)
        pre = t.pre_image(lang)
        assert len(post.states) <= (len(lang.states) + 1) * len(t.states)
        post_words = {y for (x, y) in rel if x in inside}
        pre_words = {x for (x, y) in rel if y in inside}
        got_post = {w for w in all_words(AB, 3) if post.accepts(w)}
        got_pre = {w for w in all_words(AB, 3) if pre.accepts(w)}
        # Images of 3-bounded words can be longer than 3; compare the
        # 3-bounded portions, which enumeration fully covers.
        assert got_post >= post_words
        assert got_pre >= pre_words
        assert {w for w in got_post if len(w) <= 2} <= {
            y for (x, y) in relation(t, 4) if lang.accepts(x)
        }


def test_image_of_single_word():
    number_two = word_automaton(A, ("a", "a"))
    assert SUCC.post_image(number_two).accepts(("a", "a", "a"))
    assert SUCC.pre_image(number_two).accepts(("a",))
    assert not SUCC.post_image(number_two).accepts(("a", "a"))


def image_pipeline(t, language, direction):
    """An image as the relation algebra spells it: the reference that the
    direct product of post_image and pre_image reproduces state for state."""
    if direction == "post":
        return identity_on(language).compose(t).project(2)
    return t.compose(identity_on(language)).project(1)


def image_corpus():
    """(transducer, language) pairs: random padded transducers over A, AB
    and ABC, each with a random language, a word language and both of its
    own projections, then every relation of every shipped bundle with
    each of the bundle's languages."""
    rng = random.Random(61)
    for alphabet in (A, AB, ABC):
        for _ in range(40):
            t = random_padded_transducer(rng, alphabet, alphabet)
            languages = (
                random_nfa(rng, alphabet, max_states=4),
                random_word_nfa(rng, alphabet),
                t.project(1),
                t.project(2),
            )
            for language in languages:
                yield t, language
    for bundle in sorted(DATA.iterdir()):
        rts = load_rts_bundle(bundle / "bundle.rts")
        languages = [load_automaton(path) for path in sorted(bundle.glob("*.nfa"))]
        for t in (rts.delta, rts.reach, rts.preach):
            if t is not None:
                for language in languages:
                    yield t, language


def test_images_are_the_composition_pipeline():
    """Same states in the same order, same transitions, initial and final
    states, so every witness read off an image stays the same."""
    pairs = 0
    for t, language in image_corpus():
        assert t.post_image(language) == image_pipeline(t, language, "post")
        assert t.pre_image(language) == image_pipeline(t, language, "pre")
        pairs += 1
    assert pairs > 500


def test_image_states_are_pinned():
    """Witnesses read off an image follow its state order: pairs in the
    order the breadth-first product finds them, the first operand's
    targets outer and the second's inner."""
    language = mk_nfa(A, [("p", "a", "p"), ("p", "a", "q")], ["p"], ["p", "q"])
    t = mk_t(A, A, [("s", "a/a", "s"), ("s", "a/a", "u"), ("u", "a/a", "u")], ["s"], ["s", "u"])
    assert t.post_image(language).states == (("p", "s"), ("p", "u"), ("q", "s"), ("q", "u"))
    assert t.pre_image(language).states == (("s", "p"), ("s", "q"), ("u", "p"), ("u", "q"))


def assert_checked(result):
    """A kernel result equals the checked constructor's rebuild of it."""
    if isinstance(result, Transducer):
        rebuilt = Transducer(
            result.top, result.bottom, result.states, result.transitions,
            result.initial, result.final,
        )
    else:
        rebuilt = Nfa(
            result.alphabet, result.states, result.transitions,
            result.initial, result.final,
        )
    assert rebuilt == result
    assert rebuilt._pos == result._pos


def test_kernel_results_pass_the_checked_constructor():
    """Kernel operations build their results without the membership
    checks; each result must still be what the checked constructor
    makes of its own fields."""
    for t, language in image_corpus():
        composed = identity_on(language).compose(t)
        results = (
            t.post_image(language),
            t.pre_image(language),
            composed,
            t.compose(t.inverse()),
            composed.project(1),
            composed.project(2),
            t.trim(),
            t.inverse(),
            t.intersect(t.inverse()),
            language.intersect(t.project(1)),
            language.union(t.project(2)),
            language.trim(),
            language.complement(),
        )
        for result in results:
            assert_checked(result)


def test_image_bound_counts_the_done_side():
    """An image of an n-state language under an l-state transducer has at
    most (n + 1) * l states: the language side may end (DONE) while the
    transducer still writes.  The post-image of a* under {(ε, aᵏ)} takes
    two states, where n * l is one."""
    grow = mk_t(A, A, [("s", "#/a", "s")], ["s"], ["s"])
    image = grow.post_image(universal_automaton(A))
    assert len(image.states) == 2
    assert image.accepts(("a", "a"))
    rng = random.Random(67)
    for alphabet in (A, AB, ABC):
        for _ in range(60):
            t = random_padded_transducer(rng, alphabet, alphabet)
            language = random_nfa(rng, alphabet, max_states=4)
            n, l = len(language.states), len(t.states)
            for image in (t.post_image(language), t.pre_image(language)):
                assert len(image.states) <= (n + 1) * l


def test_diagonal_and_difference_identity():
    rng = random.Random(41)
    for _ in range(20):
        t = random_lp_transducer(rng, AB, max_states=4)
        diag = diagonal(t)
        rel = relation(t)
        assert {w for w in all_words(AB, 3) if diag.accepts(w)} == {
            x for (x, y) in rel if x == y
        }
        strict = relation_difference_identity(t)
        assert relation(strict) == {(x, y) for (x, y) in rel if x != y}


def test_is_length_preserving():
    assert not SUCC.is_length_preserving()
    assert identity(AB).is_length_preserving()
    rng = random.Random(43)
    for _ in range(10):
        assert random_lp_transducer(rng, AB).is_length_preserving()


def test_convolve_unconvolve_roundtrip():
    rng = random.Random(47)
    for _ in range(50):
        x = tuple(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        y = tuple(rng.choice("ab") for _ in range(rng.randint(0, 5)))
        conv = convolve(x, y)
        assert len(conv) == max(len(x), len(y))
        assert unconvolve(conv) == (x, y)


def _lazy_cases(rng, count):
    """Seeded relation pairs over one alphabet: padded ones, which may grow
    or shrink words, and letter-to-letter ones."""
    for i in range(count):
        alphabet = (A, AB, ABC)[i % 3]
        if i % 2:
            yield random_padded_transducer(rng, alphabet, alphabet), random_padded_transducer(
                rng, alphabet, alphabet
            )
        else:
            yield random_lp_transducer(rng, alphabet), random_lp_transducer(rng, alphabet)


def _bundle_cases():
    """Every shipped bundle's relations and languages over its alphabet."""
    for bundle in sorted(DATA.iterdir()):
        rts = load_rts_bundle(bundle / "bundle.rts")
        relations = [t for t in (rts.delta, rts.reach, rts.preach) if t is not None]
        languages = [load_automaton(path) for path in sorted(bundle.glob("*.nfa"))]
        yield bundle.name, relations, languages


def _same_words(name, lazy, reference, alphabet, up_to=5):
    for word in all_words(alphabet, up_to):
        assert lazy.accepts(word) == reference.accepts(word), (name, word)


def test_lazy_sides_accept_what_the_built_automata_accept():
    """The lazy pre-image, domain and round trip accept, word for word up
    to length 5, what ``pre_image``, ``project(1)`` and the projected
    ``intersect`` with the inverse accept, on padded and growing
    relations as well as letter-to-letter ones."""
    rng = random.Random(71)
    cases = [
        (f"random {i}", [t, r], [random_nfa(rng, t.top, max_states=4)])
        for i, (t, r) in enumerate(_lazy_cases(rng, 60))
    ]
    for name, relations, languages in cases + list(_bundle_cases()):
        alphabet = relations[0].top
        for t in relations:
            everything = universal_automaton(alphabet)
            _same_words(name, t.lazy_pre_image(everything), t.project(1), alphabet)
            for language in languages:
                _same_words(name, t.lazy_pre_image(language), t.pre_image(language), alphabet)
            for r in relations:
                both = t.intersect(r.inverse()).project(1)
                _same_words(name, t.lazy_round_trip(r), both, alphabet)


def _subset_count(side, alphabet) -> int:
    """The subsets of ``side`` reachable by the subset construction."""
    seen = {side.initial}
    todo = [side.initial]
    while todo:
        subset = todo.pop()
        for sym in alphabet.symbols:
            stepped = frozenset(r for q in subset for r in side.moves[q].get(sym, ()))
            if stepped not in seen:
                seen.add(stepped)
                todo.append(stepped)
    return len(seen)


def test_lazy_sides_count_their_subsets_against_the_state_cap(monkeypatch):
    """A search that steps a lazy negative through every subset passes at
    a cap of that many subsets and raises one below it.  Its positive
    reads every word and accepts none, so the search walks them all."""
    rng = random.Random(73)
    checked = 0
    for t, r in _lazy_cases(rng, 30):
        never = Nfa(t.top, (0,), {(0, a): (0,) for a in t.top.symbols}, [0], [])
        for side in (
            t.lazy_pre_image(random_nfa(rng, t.top, max_states=4)),
            t.lazy_round_trip(r),
        ):
            count = _subset_count(side, t.top)
            if count < 2:
                continue
            checked += 1
            monkeypatch.setenv("RMC_STATE_CAP", str(count))
            assert constrained_search([never], [side]) is None
            monkeypatch.setenv("RMC_STATE_CAP", str(count - 1))
            with pytest.raises(StateCapExceeded):
                constrained_search([never], [side])
    assert checked > 20


def test_search_is_the_least_word_of_the_positives_minus_the_negatives():
    """``constrained_search(P, N)`` gives the first word, in a scan of all
    words up to length 5 shortest first and then in alphabet order, that
    every positive accepts and, when N is not empty, some negative
    rejects.  Random automata, lazy pre-images and lazy round trips each
    serve on both sides, one to three positives against none to two
    negatives."""
    rng = random.Random(79)
    up_to = 5
    answered = empty = 0
    for t, r in _lazy_cases(rng, 40):
        alphabet = t.top
        pool = [
            random_nfa(rng, alphabet, max_states=4),
            random_nfa(rng, alphabet, max_states=4),
            t.lazy_pre_image(random_nfa(rng, alphabet, max_states=4)),
            t.lazy_round_trip(r),
        ]
        words, _truncated = length_automaton(alphabet, up_to, upto=True).enumerate_words(10**4)
        for n_pos, n_neg in ((1, 0), (1, 1), (2, 0), (2, 2), (3, 1)):
            positives = rng.sample(pool, n_pos)
            negatives = rng.sample(pool, n_neg)

            def member(word):
                return all(p.accepts(word) for p in positives) and not (
                    negatives and all(n.accepts(word) for n in negatives)
                )

            expected = next(filter(member, words), None)
            got = constrained_search(positives, negatives)
            if expected is None:
                assert got is None or (len(got) > up_to and member(got))
            else:
                assert got == expected
            answered += expected is not None
            empty += got is None
    assert answered >= 50 and empty >= 50

    only_a, only_b = words_nfa(AB, {("a",)}), words_nfa(AB, {("b",)})
    assert constrained_search([only_a]) == ("a",)
    assert constrained_search([only_a, only_b]) is None
    assert constrained_search([universal_automaton(AB)], [only_a, only_b]) == ()
    with pytest.raises(AlphabetMismatch):
        constrained_search([only_a, universal_automaton(ABC)])
    with pytest.raises(AlphabetMismatch):
        constrained_search([only_a], [universal_automaton(A)])


def _fresh(t):
    """An equal transducer built anew, which holds no derived data yet."""
    return Transducer(t.top, t.bottom, t.states, t.transitions, t.initial, t.final)


def _shared_cases():
    """Each relation of :func:`image_corpus` with its languages and a
    partner over the same alphabet: the one before it, or itself."""
    groups = []
    for t, language in image_corpus():
        if groups and groups[-1][0] is t:
            groups[-1][1].append(language)
        else:
            groups.append((t, [language]))
    for i, (t, languages) in enumerate(groups):
        partner = groups[i - 1][0]
        yield t, partner if partner.alphabet == t.alphabet else t, languages


def _products(languages):
    """Named products of a relation ``x`` with a partner ``y``, reading
    both by either track, built and lazy."""
    ops = [
        ("compose", lambda x, y: x.compose(y)),
        ("compose after", lambda x, y: y.compose(x)),
        ("round trip", lambda x, y: x.lazy_round_trip(y)),
        ("round trip after", lambda x, y: y.lazy_round_trip(x)),
        ("domain", lambda x, y: x.lazy_domain()),
    ]
    for i, lang in enumerate(languages):
        ops += [
            (f"post {i}", lambda x, y, lang=lang: x.post_image(lang)),
            (f"pre {i}", lambda x, y, lang=lang: x.pre_image(lang)),
            (f"lazy pre {i}", lambda x, y, lang=lang: x.lazy_pre_image(lang)),
        ]
    return ops


def test_shared_indexes_leak_nothing_between_products():
    """A relation keeps its product index per track, so every product with
    it reads the same one.  Run in a shuffled order on one object, each
    product equals, state order included, the same product of fresh equal
    copies (a lazy one accepts the same words up to length 4), and each
    kept index still equals a fresh build afterwards."""
    rng = random.Random(79)
    relations = 0
    for t, partner, languages in _shared_cases():
        ops = _products(languages)
        rng.shuffle(ops)
        for name, op in ops:
            shared, fresh = op(t, partner), op(_fresh(t), _fresh(partner))
            if isinstance(shared, Nfa):
                assert shared == fresh, name
            else:
                _same_words(name, shared, fresh, t.top, up_to=4)
        for side in (t, partner):
            for middle in (0, 1):
                kept = side._derived[middle]
                assert kept is transducer._moves_by_middle(side, middle)
                assert kept == transducer._index_by_middle(_fresh(side), middle)
        relations += 1
    assert relations > 100
