"""Textual element grammar and JSON forms (the CLI contract).

Grammar (one source of truth for every element the CLI accepts):

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | '(' expr ')' | coeff | basiselem
    coeff   := INT ['/' INT] ['i'] | 'i'
    basiselem :=
        NAME '[' ints ']'          composition- or partition-indexed basis
      | NAME '{' ints '}' '@' INT  peak-set-indexed basis (ambient size)
      | 'T' '[' ints ']'           0-Hecke word (one-line permutation)
      | 'c' '{' ints '}'           Clifford subset

Basis letters: every tag of ``hopf._BASES`` but podd, read with its row's
index kind: H E R Q (NSym), M F (QSym), Xi (peak subalgebra), K N (peak
dual), h m p r (symmetric functions), q (q-generated subring).  Expressions
containing T or c parse to Hecke-Clifford algebra elements (the rank is the
word length, or pass ``rank=``); all others parse to Hopf elements, with
mixed bases of one algebra normalized to its pivot basis.

JSON forms, as the CLI writes them: Hopf elements as {"algebra", "basis",
"terms": [{"index", "coeff"}]} with rationals as strings, peak-set indices
as {"n", "set"}; algebra elements as {"rank", "terms": [{"c", "w",
"coeff": {"re", "im"}}]}.  The tests read both back and check that the
round trip is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .combinat import Composition, PeakSet
from .hecke_clifford import AlgebraElement, unit as hc_unit
from .hopf import _BASES, _PIVOT_BASIS, FreeElement, convert, product, term
from .scalars import GaussianRational, _gauss_json, gaussian

__all__ = [
    "ParseError",
    "parse_element",
    "element_to_json",
    "algebra_element_to_json",
]

_HOPF_LETTERS = {basis: algebra for algebra, basis in _BASES if basis != "podd"}

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|[\[\]{}()@+\-*/,])")


class ParseError(ValueError):
    """Malformed element expression; the message carries the position."""


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError(
                    "unexpected character %r at position %d" % (text[pos], pos)
                )
            self.toks.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def next(self):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of expression; expected a token")
        tok = self.toks[self.i]
        self.i += 1
        return tok[0]

    def expect(self, want: str):
        got = self.peek()
        if got != want:
            pos = self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)
            raise ParseError("expected %r at position %d, got %r" % (want, pos, got))
        return self.next()

    def done(self) -> bool:
        return self.i >= len(self.toks)


def _parse_int_list(toks: _Tokens, closer: str) -> list:
    out = []
    if toks.peek() == closer:
        toks.next()
        return out
    while True:
        tok = toks.next()
        if not tok.isdigit():
            raise ParseError("expected an integer in an index list, got %r" % tok)
        out.append(int(tok))
        nxt = toks.next()
        if nxt == closer:
            return out
        if nxt != ",":
            raise ParseError("expected ',' or %r in an index list" % closer)


def _parse_factor(toks: _Tokens):
    tok = toks.peek()
    if tok == "(":
        toks.next()
        val = _parse_expr(toks)
        toks.expect(")")
        return val
    if tok == "-":
        toks.next()
        return ("neg", _parse_factor(toks))
    if tok is None:
        raise ParseError("unexpected end of expression")
    if tok.isdigit():
        toks.next()
        num = int(tok)
        den = 1
        if toks.peek() == "/":
            toks.next()
            dtok = toks.next()
            if not dtok.isdigit():
                raise ParseError("expected a denominator after '/'")
            den = int(dtok)
            if not den:
                raise ParseError("zero denominator in %s/%s" % (tok, dtok))
        if toks.peek() == "i":
            toks.next()
            return ("scalar", gaussian(0, Fraction(num, den)))
        return ("scalar", Fraction(num, den))
    if tok == "i":
        toks.next()
        return ("scalar", gaussian(0, 1))
    if tok == "T":
        toks.next()
        toks.expect("[")
        word = _parse_int_list(toks, "]")
        return ("T", tuple(word))
    if tok == "c":
        if toks.i + 1 < len(toks.toks) and toks.toks[toks.i + 1][0] == "{":
            toks.next()
            toks.expect("{")
            elems = _parse_int_list(toks, "}")
            for k, x in enumerate(elems):
                if x < 1 or x in elems[:k]:
                    raise ParseError(
                        "Clifford index %d %s in c{%s}"
                        % (x, "is below 1" if x < 1 else "is repeated",
                           ",".join(map(str, elems)))
                    )
            return ("c", frozenset(elems))
    if tok in _HOPF_LETTERS:
        toks.next()
        algebra = _HOPF_LETTERS[tok]
        kind = _BASES[(algebra, tok)][0]
        nxt = toks.peek()
        if nxt == "[":
            toks.next()
            idx = _parse_int_list(toks, "]")
            if kind == "peak":
                raise ParseError("%s wants a peak set: %s{...}@n" % (tok, tok))
            if kind == "part":
                index = tuple(sorted(idx, reverse=True))
            else:
                index = Composition(tuple(idx))
            return ("hopf", (algebra, tok, index))
        if nxt == "{":
            toks.next()
            elems = _parse_int_list(toks, "}")
            toks.expect("@")
            ntok = toks.next()
            if not ntok.isdigit():
                raise ParseError("expected the ambient size after '@'")
            if kind != "peak":
                raise ParseError("basis %s is not peak-set indexed" % tok)
            return ("hopf", (algebra, tok, PeakSet(int(ntok), frozenset(elems))))
        raise ParseError("basis symbol %r needs an index" % tok)
    raise ParseError("unrecognized token %r" % tok)


def _parse_term(toks: _Tokens):
    factors = [_parse_factor(toks)]
    while toks.peek() == "*":
        toks.next()
        factors.append(_parse_factor(toks))
    return ("prod", factors)


def _parse_expr(toks: _Tokens):
    terms = [(1, _parse_term(toks))]
    while toks.peek() in ("+", "-"):
        sign = 1 if toks.next() == "+" else -1
        terms.append((sign, _parse_term(toks)))
    return ("sum", terms)


def parse_element(text: str, rank: int | None = None):
    """Parse an element expression; returns a FreeElement or AlgebraElement."""
    toks = _Tokens(text)
    tree = _parse_expr(toks)
    if not toks.done():
        tok, pos = toks.toks[toks.i]
        raise ParseError("trailing input %r at position %d" % (tok, pos))
    kinds = {"algebra" if kind in ("T", "c") else kind for kind, _data in _leaves(tree)}
    kinds.discard("scalar")
    if len(kinds) > 1:
        raise ParseError("cannot mix Hopf basis symbols with T/c factors")
    if kinds == {"algebra"}:
        need = _needed_rank(tree)
        if rank is None:
            if not need:
                raise ParseError("cannot infer the rank; pass rank= explicitly")
            rank = need
        elif rank < max(need, 1):
            raise ParseError(
                "rank %d is below %d, the least rank the expression fits in"
                % (rank, max(need, 1))
            )
        return _eval_algebra(tree, rank)
    if not kinds:
        raise ParseError("a bare scalar needs at least one basis symbol")
    return _eval_hopf(tree)


def _leaves(tree):
    """The scalar, Hopf, T and c leaves of a parsed tree, left to right."""
    kind = tree[0]
    if kind == "sum":
        for _sign, sub in tree[1]:
            yield from _leaves(sub)
    elif kind == "prod":
        for sub in tree[1]:
            yield from _leaves(sub)
    elif kind == "neg":
        yield from _leaves(tree[1])
    else:
        yield tree


def _needed_rank(tree) -> int:
    """The least rank that every T word and Clifford index of the tree fits in."""
    return max(
        (len(data) if kind == "T" else max(data, default=0)
         for kind, data in _leaves(tree) if kind in ("T", "c")),
        default=0,
    )


def _eval_algebra(tree, rank) -> AlgebraElement:
    kind = tree[0]
    if kind == "scalar":
        return hc_unit(rank).scale(tree[1])
    if kind == "T":
        word = tree[1]
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ParseError("T index %r is not a permutation word" % (word,))
        if len(word) < rank:
            word = word + tuple(range(len(word) + 1, rank + 1))
        return AlgebraElement(rank, {(frozenset(), word): 1})
    if kind == "c":
        return AlgebraElement(rank, {(tree[1], tuple(range(1, rank + 1))): 1})
    if kind == "neg":
        return _eval_algebra(tree[1], rank).scale(-1)
    if kind == "prod":
        out = None
        for sub in tree[1]:
            val = _eval_algebra(sub, rank)
            out = val if out is None else out * val
        return out
    if kind == "sum":
        out = None
        for sign, sub in tree[1]:
            val = _eval_algebra(sub, rank).scale(sign)
            out = val if out is None else out + val
        return out
    raise ParseError("bad expression tree")


def _eval_hopf(tree) -> FreeElement:
    kind = tree[0]
    if kind == "scalar":
        return ("scalar", tree[1])
    if kind == "hopf":
        algebra, basis, index = tree[1]
        return term(algebra, basis, index)
    if kind == "neg":
        val = _eval_hopf(tree[1])
        if isinstance(val, tuple):
            return ("scalar", -val[1])
        return val.scale(-1)
    if kind == "prod":
        scalar = Fraction(1)
        elt = None
        for sub in tree[1]:
            val = _eval_hopf(sub)
            if isinstance(val, tuple):
                sval = val[1]
                if isinstance(sval, GaussianRational):
                    raise ParseError("Hopf coefficients are rational (no 'i')")
                scalar *= sval
            elif elt is None:
                elt = val
            else:
                elt = _hopf_product(elt, val)
        if elt is None:
            return ("scalar", scalar)
        return elt.scale(scalar)
    if kind == "sum":
        total = None
        for sign, sub in tree[1]:
            val = _eval_hopf(sub)
            if isinstance(val, tuple):
                raise ParseError("a bare scalar summand needs a basis element")
            val = val.scale(sign)
            total = val if total is None else _hopf_add(total, val)
        return total
    raise ParseError("bad expression tree")


def _normalize_pair(x: FreeElement, y: FreeElement):
    if x.algebra != y.algebra:
        raise ParseError(
            "cannot combine %s and %s elements" % (x.algebra, y.algebra)
        )
    if x.basis == y.basis:
        return x, y
    pivot = _PIVOT_BASIS[x.algebra]
    return convert(x, pivot), convert(y, pivot)


def _hopf_add(x, y):
    x, y = _normalize_pair(x, y)
    return x + y


def _hopf_product(x, y):
    if x.algebra != y.algebra:
        raise ParseError(
            "cannot multiply %s element by %s element" % (x.algebra, y.algebra)
        )
    return product(x, y)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def _index_to_json(index):
    if isinstance(index, PeakSet):
        return {"n": index.n, "set": sorted(index.elements)}
    if isinstance(index, Composition):
        return list(index.parts)
    return list(index)


def element_to_json(x: FreeElement) -> dict:
    return {
        "algebra": x.algebra,
        "basis": x.basis,
        "terms": [
            {"index": _index_to_json(idx), "coeff": str(c)} for idx, c in x.terms()
        ],
    }


def algebra_element_to_json(a: AlgebraElement) -> dict:
    terms = []
    for (d, w), coeff in a.terms_sorted():
        terms.append({"c": sorted(d), "w": list(w), "coeff": _gauss_json(coeff)})
    return {"rank": a.rank, "terms": terms}
