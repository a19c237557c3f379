"""Alphabets, words, and the padded pair symbols used by transducers.

A configuration is a word over a finite alphabet of symbol strings.  A
transducer reads two words at once through their *convolution*: the two
words are aligned left and the shorter one is padded with ``#`` so that
every position carries a pair of track symbols.  ``#`` itself is never a
member of any alphabet; it only appears inside pair symbols.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import SymbolNotInAlphabet

PAD = "#"

_FORBIDDEN_CHARS = {PAD, "/", ","}

Word = tuple[str, ...]


def _check_symbol(sym: str) -> None:
    if not isinstance(sym, str) or not sym:
        raise ValueError(f"alphabet symbol must be a nonempty string, got {sym!r}")
    for ch in sym:
        if ch in _FORBIDDEN_CHARS or ch.isspace() or not ch.isprintable():
            raise ValueError(f"illegal character {ch!r} in alphabet symbol {sym!r}")


class _Symbols:
    """Distinct symbols in order, as a container that knows each position.
    A subclass's ``index`` raises SymbolNotInAlphabet for an unknown one."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: tuple):
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}

    def __contains__(self, sym: object) -> bool:
        return sym in self._index

    def __iter__(self) -> Iterator:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def check_word(self, word: Iterable) -> None:
        """Raise SymbolNotInAlphabet unless every symbol of ``word`` is known."""
        for sym in word:
            if sym not in self._index:
                self.index(sym)


class Alphabet(_Symbols):
    """An ordered, duplicate-free set of symbol strings.

    The order is significant: it breaks ties when shortest witnesses are
    reported, so two alphabets with the same symbols in different orders
    compare unequal.
    """

    __slots__ = ()

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must be nonempty")
        for s in syms:
            _check_symbol(s)
        if len(set(syms)) != len(syms):
            raise ValueError(f"duplicate symbols in alphabet {syms!r}")
        super().__init__(syms)

    def index(self, sym: str) -> int:
        try:
            return self._index[sym]
        except KeyError:
            raise SymbolNotInAlphabet(f"symbol {sym!r} not in alphabet {self.symbols!r}") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"


class PairSymbol(NamedTuple):
    """One position of a convolution: a symbol per track, at most one padded."""

    top: str
    bottom: str

    def __str__(self) -> str:
        return f"{self.top}/{self.bottom}"


def pair(top: str, bottom: str) -> PairSymbol:
    """Build a PairSymbol, rejecting the all-padding pair."""
    if top == PAD and bottom == PAD:
        raise ValueError("pair symbol cannot be padded on both tracks")
    return PairSymbol(top, bottom)


class PairAlphabet(_Symbols):
    """The full padded pair alphabet over a top and a bottom alphabet.

    Contains every (a, b), (a, #) and (#, b) for a in top and b in bottom.
    Ordering is by track indices with the padding slot last, which makes
    witness tie-breaking deterministic for transducers too.  It is not an
    :class:`Alphabet`, so :func:`~rmc.transducer.identity_on` refuses it.
    """

    __slots__ = ("top", "bottom")

    def __init__(self, top: Alphabet, bottom: Alphabet):
        self.top = top
        self.bottom = bottom
        syms = [PairSymbol(a, b) for a in top.symbols for b in (*bottom.symbols, PAD)]
        syms += [PairSymbol(PAD, b) for b in bottom.symbols]
        super().__init__(tuple(syms))

    def index(self, sym: PairSymbol) -> int:
        try:
            return self._index[sym]
        except KeyError:
            shown = PairSymbol(*sym) if isinstance(sym, tuple) and len(sym) == 2 else sym
            raise SymbolNotInAlphabet(
                f"pair symbol {shown} not over alphabets "
                f"{self.top.symbols!r} / {self.bottom.symbols!r}"
            ) from None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PairAlphabet)
            and self.top == other.top
            and self.bottom == other.bottom
        )

    def __hash__(self) -> int:
        return hash((self.top, self.bottom))

    def __repr__(self) -> str:
        return f"PairAlphabet({self.top!r}, {self.bottom!r})"


def convolve(top: Word, bottom: Word) -> tuple[PairSymbol, ...]:
    """Left-aligned convolution of two words, padding the shorter with #."""
    n = max(len(top), len(bottom))
    return tuple(
        PairSymbol(top[i] if i < len(top) else PAD, bottom[i] if i < len(bottom) else PAD)
        for i in range(n)
    )


def unconvolve(symbols: Iterable[PairSymbol]) -> tuple[Word, Word]:
    """Split a convolution back into its two tracks, dropping padding."""
    top: list[str] = []
    bottom: list[str] = []
    for sym in symbols:
        if sym.top != PAD:
            top.append(sym.top)
        if sym.bottom != PAD:
            bottom.append(sym.bottom)
    return tuple(top), tuple(bottom)
