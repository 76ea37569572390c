"""A single-pass, non-recursive parser for NKA expressions.

Grammar (standard regular-expression precedence — star binds tightest, then
juxtaposition/``·`` for product, then ``+``)::

    expr    ::= term ("+" term)*
    term    ::= factor factor*            # juxtaposition is product
    factor  ::= atom "*"*
    atom    ::= "0" | "1" | SYMBOL | "(" expr ")"
    SYMBOL  ::= [A-Za-z_] [A-Za-z0-9_'<>≤⁻¹-]*

Both ``;`` and ``·``/``.`` are accepted as explicit product operators, so
``parse("m0 p (m0 p + m1)* m1")`` and ``parse("m0 · p · (m0·p + m1)* · m1")``
produce the same tree.  ``+`` and product build left-associative binary
:class:`~repro.core.expr.Sum`/:class:`~repro.core.expr.Product` trees.

One C-level ``findall`` splits the text into tokens, with any other
non-space character as an error token; a text holding one is rejected for
its first such character before any grammar error.  The tokens are folded
left to right with an explicit stack, one ``(sum so far, product so far)``
frame per open ``(`` — no recursion, so how deep a text may nest is set by
:data:`MAX_NESTING`, not by Python's recursion limit.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.core.expr import Expr, ONE, Product, Star, Sum, Symbol, ZERO
from repro.util.errors import ReproError

__all__ = ["parse", "ParseError", "MAX_NESTING"]

#: Deepest accepted nesting of parentheses; deeper text is a ParseError.
MAX_NESTING = 256


class ParseError(ReproError):
    """Raised when the input text is not a valid NKA expression."""


# A valid token is captured; any other non-space character matches with an
# empty capture, so ``findall`` reports it as the empty string.
_TOKEN_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_'<>≤⁻¹-]*|[01](?![A-Za-z0-9_])|[*+·.;()])|\S"
)
_OPERATORS = frozenset("*+·.;()")


def _error(text: str, message: str) -> ParseError:
    """A ParseError for ``text``; an invalid character anywhere in it
    takes priority over the grammar error ``message``."""
    for match in _TOKEN_RE.finditer(text):
        if not match.group(1):
            position = match.start()
            message = f"unexpected character {text[position]!r} at position {position}"
            break
    return ParseError(message)


def _position(text: str, index: int) -> int:
    """Source position of the ``index``-th token (error paths only)."""
    for count, match in enumerate(_TOKEN_RE.finditer(text)):
        if count == index:
            return match.start()
    raise AssertionError(index)  # pragma: no cover - index is a token's


def _expected_atom(text: str, found: str) -> ParseError:
    return _error(text, f"expected an atom, found {found} in {text!r}")


def parse(text: str) -> Expr:
    """Parse ``text`` into an :class:`~repro.core.expr.Expr`.

    >>> parse("(m0 p)* m1")
    Expr[(m0 p)* m1]
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty expression")
    # The per-call atom memo saves re-interning repeated symbols.
    atoms: Dict[str, Expr] = {"0": ZERO, "1": ONE}
    # One frame per open "(": its token index, and the sum and product
    # around it.  ``factor`` is the last atom, which stars bind to; None
    # means an atom must come next.
    stack: List[Tuple[int, Optional[Expr], Optional[Expr]]] = []
    total: Optional[Expr] = None
    product: Optional[Expr] = None
    factor: Optional[Expr] = None
    for index, token in enumerate(tokens):
        if token not in _OPERATORS:
            # An atom.  Juxtaposition: the previous factor joins the product.
            if factor is not None:
                product = factor if product is None else Product(product, factor)
            factor = atoms.get(token)
            if factor is None:
                if not token:  # an invalid character; _error names it
                    raise _error(text, "")
                factor = atoms[token] = Symbol(token)
        elif token == "*":
            if factor is None:
                raise _expected_atom(text, "'*'")
            factor = Star(factor)
        elif token == "(":
            if factor is not None:
                product = factor if product is None else Product(product, factor)
                factor = None
            if len(stack) == MAX_NESTING:
                raise _error(
                    text,
                    f"'(' at position {_position(text, index)} nests deeper "
                    f"than MAX_NESTING = {MAX_NESTING}",
                )
            stack.append((index, total, product))
            total = product = None
        elif token == ")":
            if factor is None:
                raise _expected_atom(text, "')'")
            if not stack:
                raise _error(
                    text, f"trailing input ')' at position {_position(text, index)}"
                )
            if product is not None:
                factor = Product(product, factor)
            if total is not None:
                factor = Sum(total, factor)
            _opened, total, product = stack.pop()
        else:  # "+" or an explicit product operator
            if factor is None:
                raise _expected_atom(text, repr(token))
            product = factor if product is None else Product(product, factor)
            factor = None
            if token == "+":
                total = product if total is None else Sum(total, product)
                product = None
    if factor is None:
        raise _expected_atom(text, "end of input")
    if stack:
        opened = _position(text, stack[-1][0])
        raise ParseError(f"unbalanced '(' at position {opened} in {text!r}")
    if product is not None:
        factor = Product(product, factor)
    return factor if total is None else Sum(total, factor)
