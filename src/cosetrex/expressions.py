"""Multistep and one-step expressions for double cosets.

A multistep expression is a zig-zag of parabolic subsets

    [[I0 < K1 > I1 < K2 > ... < Km > Im]]

(equalities between adjacent frames are allowed); it expresses the
(I0,Im)-coset whose maximal element is the star product of the longest
elements of the K frames.  A one-step expression walks the same zig-zag
one simple index at a time: ``[I +s -t ...]``.
"""
from __future__ import annotations

import re
from dataclasses import InitVar, dataclass
from typing import Iterable, NoReturn, Sequence, Union

from .coxeter import CoxeterSystem, identity, length, multiply
from .cosets import (
    DoubleCoset,
    Frame,
    check_subset,
    coset_of,
    format_subset,
    longest_element,
    parabolic_length,
    star_longest,
)


class ParseError(ValueError):
    """Syntax error in an expression, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class MultistepExpression:
    system: CoxeterSystem
    frames: tuple[Frame, ...]

    def __post_init__(self) -> None:
        if len(self.frames) % 2 == 0:
            raise ValueError("a multistep expression has an odd number of frames")
        for t, frame in enumerate(self.frames):
            check_subset(self.system, frame)
            if t % 2 == 1:
                if not (self.frames[t - 1] <= frame and self.frames[t + 1] <= frame):
                    raise ValueError(
                        f"frame {format_subset(frame)} does not contain its neighbours"
                    )


@dataclass(frozen=True)
class OneStepExpression:
    system: CoxeterSystem
    start: Frame
    steps: tuple[tuple[int, int], ...]  # (+1, s) adds s, (-1, t) removes t
    checked: InitVar[bool] = False  # True from a caller that walked the steps with _step

    def __post_init__(self, checked: bool) -> None:
        if checked:
            return
        cur = check_subset(self.system, self.start)
        for op, i in self.steps:
            cur = _step(self.system, cur, op, i)


def _step(system: CoxeterSystem, frame: Frame, op: int, i: int) -> Frame:
    """The frame after the checked step (op, i) of a one-step walk: +1 adds
    i, which must be absent, and -1 removes i, which must be present.  The
    frame is in range, so a valid step checks only the frame it adds to."""
    if op == 1 and i not in frame:
        return check_subset(system, frame | {i})
    if op == -1 and i in frame:
        return frame - {i}
    check_subset(system, (i,))
    if op == 1:
        raise ValueError(f"cannot add {i}: already present")
    if op == -1:
        raise ValueError(f"cannot remove {i}: not present")
    raise ValueError(f"bad step operation {op}")


Expression = Union[MultistepExpression, OneStepExpression]


def multistep(system: CoxeterSystem, chain: Sequence[Iterable[int]]) -> MultistepExpression:
    """Build a multistep expression from a chain of pairwise comparable
    frames, normalized to a zig-zag.

    One pass keeps bottoms at even places and tops at odd ones, so a
    monotone run collapses onto its extreme frame and stalls introduced by
    walking one index at a time disappear again.
    """
    out = [frozenset(chain[0])]
    for g in chain[1:]:
        g = frozenset(g)
        prev = out[-1]
        if g == prev:
            continue
        if not (prev <= g or g <= prev):
            raise ValueError(
                f"frames {format_subset(prev)} and {format_subset(g)} are incomparable"
            )
        if len(out) == 1 and g < prev:
            out.append(prev)  # the first frame doubles as the top
        if (prev < g) == (len(out) % 2 == 0):  # the run goes on
            out[-1] = g
        else:
            out.append(g)
    if len(out) % 2 == 0:  # the chain ends on a top
        out.append(out[-1])
    return MultistepExpression(system, tuple(out))


def to_multistep(expr: Expression) -> MultistepExpression:
    """The zig-zag of expr: expr itself if it is multistep, else the one
    walked by its steps, which its constructor checked."""
    if isinstance(expr, MultistepExpression):
        return expr
    chain = [frozenset(expr.start)]
    for op, i in expr.steps:
        chain.append(chain[-1] | {i} if op == 1 else chain[-1] - {i})
    return multistep(expr.system, chain)


def evaluate(expr: Expression) -> DoubleCoset:
    """The coset expressed: star product of the longest elements of the
    tops, folded into the identity by cosets.star_longest."""
    M = to_multistep(expr)
    x = star_longest(identity(M.system), M.frames[1::2])
    return coset_of(M.system, M.frames[0], x, M.frames[-1])


def is_reduced(expr: Expression) -> bool:
    """Whether the alternating length sum of the inner frames (tops add,
    bottoms subtract) is attained by their ordinary product
    w_K1 w_I1^{-1} w_K2 ...; each w_I is an involution, so w_I^{-1} = w_I."""
    M = to_multistep(expr)
    prod = identity(M.system)
    target = 0
    for t, K in enumerate(M.frames[1:-1]):
        prod = multiply(prod, longest_element(M.system, K))
        target += (-1) ** t * parabolic_length(M.system, K)
    return length(prod) == target


def concatenate(left: MultistepExpression, right: MultistepExpression) -> MultistepExpression:
    """The expression of left followed by right, through their shared end frame.

    It evaluates to the star composition of the two cosets, which is
    associative.  A chain's length deficit is the sum of its non-negative
    step deficits in any bracketing, so the whole is reduced exactly when
    both parts are and their composition is reduced.
    """
    if left.system != right.system:
        raise ValueError("cannot concatenate expressions of different systems")
    if left.frames[-1] != right.frames[0]:
        raise ValueError("frame mismatch: concatenation needs matching end frames")
    return MultistepExpression(left.system, left.frames + right.frames[1:])


# a token, or (group "bad") a character that starts none; whitespace matches nothing
_TOKEN = re.compile(r"\[\[|\]\]|\[|\]|\{|\}|,|<|>|\+|-|\d+|(?P<bad>\S)")


class _Parser:
    """Reads the (token, position) pairs of one scan of the text, which end
    in the marker (None, len(text))."""

    def __init__(self, system: CoxeterSystem, text: str):
        self.system = system
        self.tokens: list[tuple[str | None, int]] = []
        for m in _TOKEN.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
            self.tokens.append((m.group(), m.start()))
        self.tokens.append((None, len(text)))
        self.k = 0

    def peek(self) -> tuple[str | None, int]:
        return self.tokens[self.k]

    def fail(self, expected: str) -> NoReturn:
        tok, pos = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input, expected {expected}", pos)
        raise ParseError(f"expected {expected} but found {tok!r}", pos)

    def take(self, *expected: str) -> str:
        """The next token, which must be one of expected."""
        tok = self.peek()[0]
        if tok not in expected:
            self.fail(" or ".join(map(repr, expected)))
        self.k += 1
        return tok

    def index(self) -> int:
        tok = self.peek()[0]
        if tok is None or not tok.isdigit():
            self.fail("an index")
        self.k += 1
        return int(tok)

    def frame(self) -> Frame:
        pos = self.peek()[1]
        self.take("{")
        indices: set[int] = set()
        if self.peek()[0] == "}":
            self.take("}")
        else:
            indices.add(self.index())
            while self.take(",", "}") == ",":
                indices.add(self.index())
        try:
            return check_subset(self.system, indices)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    def multistep(self) -> MultistepExpression:
        self.take("[[")
        chain = [self.frame()]
        while self.peek()[0] in ("<", ">"):
            op_pos = self.peek()[1]
            op = self.take("<", ">")
            nxt = self.frame()
            prev = chain[-1]
            if op == "<" and not prev <= nxt:
                raise ParseError("'<' requires the left frame to be contained in the right", op_pos)
            if op == ">" and not nxt <= prev:
                raise ParseError("'>' requires the right frame to be contained in the left", op_pos)
            chain.append(nxt)
        self.take("]]")
        self.expect_end()
        return multistep(self.system, chain)

    def one_step(self) -> OneStepExpression:
        self.take("[")
        start = self.frame()
        steps: list[tuple[int, int]] = []
        cur = start
        while self.peek()[0] in ("+", "-"):
            sign_pos = self.peek()[1]
            step = (1 if self.take("+", "-") == "+" else -1, self.index())
            try:
                cur = _step(self.system, cur, *step)
            except ValueError as exc:
                raise ParseError(str(exc), sign_pos) from None
            steps.append(step)
        self.take("]")
        self.expect_end()
        return OneStepExpression(self.system, start, tuple(steps), checked=True)

    def expect_end(self) -> None:
        tok, pos = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos)


def parse_expression(system: CoxeterSystem, text: str) -> Expression:
    parser = _Parser(system, text)
    if parser.peek()[0] == "[[":
        return parser.multistep()
    return parser.one_step()


def format_expression(expr: Expression) -> str:
    if isinstance(expr, OneStepExpression):
        parts = [format_subset(expr.start)]
        parts.extend(f"{'+' if op == 1 else '-'}{i}" for op, i in expr.steps)
        return "[" + " ".join(parts) + "]"
    bits = [format_subset(expr.frames[0])]
    for t, frame in enumerate(expr.frames[1:], 1):
        bits.append("<" if t % 2 == 1 else ">")
        bits.append(format_subset(frame))
    return "[[" + " ".join(bits) + "]]"
