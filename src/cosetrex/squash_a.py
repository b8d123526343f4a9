"""Squashing in types A and B: collapsing the blocks of a core coset.

A parabolic subset J glues the point x to x+1 whenever s_x is in J.  This
cuts the window {1..n} of type A, or {0..n} of type B (n = ``system.points``),
into contiguous runs.  In type B the run through 0 spreads to the symmetric
central block -c..c, which a core coset fixes pointwise; the other runs come
in +/- pairs.  Type A is the same with no central block and no signs.  The
minimal element of a core (I,J)-coset carries each J-block
order-preservingly onto an I-block (or the mirror of one), so it induces an
element of the squashed group ``atomic.squashed_system(system, J)``: S_k or
B_k, where k = n - |J| counts the non-central blocks.  Squashing is a
bijection onto that group (for fixed J), carries atomic cosets to simple
reflections, and matches atomic reduced expressions with ordinary reduced
words; the type-free atom-word layer is in ``atomic``.
"""
from __future__ import annotations

from typing import Iterable

from .coxeter import CoxeterSystem, Element, act
from .cosets import DoubleCoset, Frame, check_subset, coset_of, is_core
from .atomic import squashed_system


def glued_runs(system: CoxeterSystem, J: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The runs of the window {start..n} glued along J, in order, where
    start is the first simple index: 0 in type B, 1 in type A."""
    J = check_subset(system, J)
    start = system.simple_indices.start
    runs: list[list[int]] = [[start]]
    for x in range(start + 1, system.points + 1):
        if x - 1 in J:
            runs[-1].append(x)
        else:
            runs.append([x])
    return tuple(tuple(run) for run in runs)


def _split(system: CoxeterSystem, J: Iterable[int]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(c, blocks): the central block is -c..c (c = 0 when there is none),
    and the blocks are the positive non-central runs."""
    runs = glued_runs(system, J)
    if runs[0][0] == 0:
        return runs[0][-1], runs[1:]
    return 0, runs


def _block_images(y: Element, I: Frame, J: Frame) -> tuple[int, ...] | None:
    """The signed index of the I-block each non-central J-block is carried
    onto (blocks numbered from 1), or None if y breaks a block or moves the
    central block."""
    c, source = _split(y.system, J)
    c_target, target = _split(y.system, I)
    if c != c_target or any(act(y, x) != x for x in range(1, c + 1)):
        return None
    start_at = {blk[0]: (d, len(blk)) for d, blk in enumerate(target, 1)}
    out = []
    for blk in source:
        vals = [act(y, x) for x in blk]
        if any(b != a + 1 for a, b in zip(vals, vals[1:])):
            return None
        # a negative block is the mirror of the positive block -vals[-1]..-vals[0]
        d, size = start_at.get(vals[0] if vals[0] > 0 else -vals[-1], (0, 0))
        if size != len(blk):
            return None
        out.append(d if vals[0] > 0 else -d)
    return tuple(out)


def squash_coset(p: DoubleCoset) -> Element:
    """The element of the squashed group induced by the minimal element of a
    core coset: how it permutes (and, in type B, signs) the blocks."""
    small = squashed_system(p.system, p.right)
    if not is_core(p):
        raise ValueError("only core cosets squash to a permutation")
    img = _block_images(p.min, p.left, p.right)
    if img is None:
        raise AssertionError(f"minimal element of core coset {p} is not a block permutation")
    return Element(small, img)


def unsquash(system: CoxeterSystem, J: Iterable[int], sigma: Element) -> tuple[Frame, DoubleCoset]:
    """The core coset with right frame J squashing to sigma, with its left frame."""
    J = check_subset(system, J)
    small = squashed_system(system, J)
    if sigma.system != small:
        raise ValueError(f"expected an element of {small}, got one of {sigma.system}")
    c, source = _split(system, J)
    sizes = [0] * len(source)
    for blk, d in zip(source, sigma.data):
        sizes[abs(d) - 1] = len(blk)
    starts, acc = [], c + 1
    for size in sizes:
        starts.append(acc)
        acc += size
    images = list(range(1, system.points + 1))  # the central block is fixed pointwise
    for blk, d in zip(source, sigma.data):
        base, size = starts[abs(d) - 1], sizes[abs(d) - 1]
        for offset, x in enumerate(blk):
            images[x - 1] = base + offset if d > 0 else offset - (base + size - 1)
    y = Element(system, tuple(images))
    # left frame: s_0 .. s_{c-1} glue the central block, and s_x glues x to
    # x+1 inside each target block
    I = frozenset(range(c)).union(
        base + r for base, size in zip(starts, sizes) for r in range(size - 1)
    )
    p = DoubleCoset(system, I, J, y)
    if __debug__:
        q = coset_of(system, I, y, J)
        if q.min != y:
            raise AssertionError(f"unsquashed block permutation is not minimal in {p}")
    return I, p
