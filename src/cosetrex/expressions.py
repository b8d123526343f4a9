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
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .coxeter import CoxeterSystem, identity, length, multiply
from .cosets import (
    DoubleCoset,
    Frame,
    check_subset,
    coset_of,
    format_subset,
    identity_coset,
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

    def __post_init__(self) -> None:
        check_subset(self.system, self.start)
        cur = set(self.start)
        for op, i in self.steps:
            check_subset(self.system, {i})
            if op == 1:
                if i in cur:
                    raise ValueError(f"cannot add {i}: already present")
                cur.add(i)
            elif op == -1:
                if i not in cur:
                    raise ValueError(f"cannot remove {i}: not present")
                cur.remove(i)
            else:
                raise ValueError(f"bad step operation {op}")


Expression = Union[MultistepExpression, OneStepExpression]


def multistep(system: CoxeterSystem, chain: Sequence[Iterable[int]]) -> MultistepExpression:
    """Build a multistep expression from a chain of pairwise comparable
    frames, normalized to a zig-zag.

    Monotone runs collapse onto their extreme frame, so stalls introduced
    by walking one index at a time disappear again.
    """
    frames = [frozenset(chain[0])]
    for g in chain[1:]:
        g = frozenset(g)
        prev = frames[-1]
        if not (prev <= g or g <= prev):
            raise ValueError(
                f"frames {format_subset(prev)} and {format_subset(g)} are incomparable"
            )
        if g != prev:
            frames.append(g)
    extrema = [frames[0]]
    dirs: list[int] = []
    for g in frames[1:]:
        d = 1 if extrema[-1] < g else -1
        if dirs and dirs[-1] == d:
            extrema[-1] = g
        else:
            extrema.append(g)
            dirs.append(d)
    out = [extrema[0]]
    at_top = False
    for d, g in zip(dirs, extrema[1:]):
        if d == -1 and not at_top:
            out.append(out[-1])  # the current frame doubles as the top
        out.append(g)
        at_top = d == 1
    if at_top:
        out.append(out[-1])
    return MultistepExpression(system, tuple(out))


def to_multistep(expr: OneStepExpression) -> MultistepExpression:
    chain = [expr.start]
    cur = set(expr.start)
    for op, i in expr.steps:
        if op == 1:
            cur.add(i)
        else:
            cur.remove(i)
        chain.append(frozenset(cur))
    return multistep(expr.system, chain)


def _as_multistep(expr: Expression) -> MultistepExpression:
    if isinstance(expr, OneStepExpression):
        return to_multistep(expr)
    return expr


def evaluate(expr: Expression) -> DoubleCoset:
    """The coset expressed: star product of the longest elements of the
    tops, folded into the identity by cosets.star_longest."""
    M = _as_multistep(expr)
    tops = M.frames[1::2]
    if not tops:
        return identity_coset(M.system, M.frames[0])
    x = star_longest(identity(M.system), tops)
    return coset_of(M.system, M.frames[0], x, M.frames[-1])


def is_reduced(expr: Expression) -> bool:
    """Whether the alternating length sum is attained by the ordinary product
    w_K1 w_I1^{-1} w_K2 ...; each w_I is an involution, so w_I^{-1} = w_I."""
    M = _as_multistep(expr)
    frames = M.frames if len(M.frames) >= 3 else (M.frames[0],) * 3
    tops = frames[1::2]
    interior = frames[2:-1:2]
    prod = identity(M.system)
    target = 0
    for t, K in enumerate(tops):
        prod = multiply(prod, longest_element(M.system, K))
        target += parabolic_length(M.system, K)
        if t < len(interior):
            prod = multiply(prod, longest_element(M.system, interior[t]))
            target -= parabolic_length(M.system, interior[t])
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


_TOKEN = re.compile(r"\[\[|\]\]|\[|\]|\{|\}|,|<|>|\+|-|\d+")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, system: CoxeterSystem, text: str):
        self.system = system
        self.tokens = _tokenize(text)
        self.k = 0
        self.end = len(text)

    def peek(self) -> str | None:
        return self.tokens[self.k][0] if self.k < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.k][1] if self.k < len(self.tokens) else self.end

    def take(self, expected: str | None = None) -> str:
        if self.k >= len(self.tokens):
            raise ParseError(f"unexpected end of input, expected {expected!r}", self.end)
        tok, pos = self.tokens[self.k]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} but found {tok!r}", pos)
        self.k += 1
        return tok

    def frame(self) -> Frame:
        pos = self.pos()
        self.take("{")
        indices: set[int] = set()
        if self.peek() == "}":
            self.take("}")
        else:
            while True:
                tok = self.take()
                if not tok.isdigit():
                    raise ParseError(f"expected an index but found {tok!r}", self.tokens[self.k - 1][1])
                indices.add(int(tok))
                nxt = self.take()
                if nxt == "}":
                    break
                if nxt != ",":
                    raise ParseError(f"expected ',' or '}}' but found {nxt!r}", self.tokens[self.k - 1][1])
        try:
            return check_subset(self.system, indices)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    def multistep(self) -> MultistepExpression:
        self.take("[[")
        chain = [self.frame()]
        while self.peek() in ("<", ">"):
            op_pos = self.pos()
            op = self.take()
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
        cur = set(start)
        while self.peek() in ("+", "-"):
            sign_pos = self.pos()
            op = 1 if self.take() == "+" else -1
            tok = self.take()
            if not tok.isdigit():
                raise ParseError(f"expected an index but found {tok!r}", self.tokens[self.k - 1][1])
            i = int(tok)
            try:
                check_subset(self.system, {i})
            except ValueError as exc:
                raise ParseError(str(exc), sign_pos) from None
            if op == 1 and i in cur:
                raise ParseError(f"cannot add {i}: already present", sign_pos)
            if op == -1 and i not in cur:
                raise ParseError(f"cannot remove {i}: not present", sign_pos)
            (cur.add if op == 1 else cur.remove)(i)
            steps.append((op, i))
        self.take("]")
        self.expect_end()
        return OneStepExpression(self.system, start, tuple(steps))

    def expect_end(self) -> None:
        if self.k < len(self.tokens):
            raise ParseError(f"trailing input {self.tokens[self.k][0]!r}", self.pos())


def parse_expression(system: CoxeterSystem, text: str) -> Expression:
    parser = _Parser(system, text)
    if parser.peek() == "[[":
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
