"""Squashing in type A: collapsing the blocks of a core coset to strands.

A parabolic subset J of the symmetric group on {1..n} partitions the points
into contiguous blocks.  The minimal element of a core (I,J)-coset permutes
the J-blocks onto the I-blocks order-preservingly, so it induces an honest
permutation of k = n - |J| strands.  This squashed permutation is a
bijection onto S_k (for fixed J), carries atomic cosets to simple
transpositions, and matches atomic reduced expressions with ordinary
reduced words; the type-free atom-word layer is in ``atomic``.
"""
from __future__ import annotations

from typing import Iterable

from .coxeter import CoxeterSystem, Element, act, type_a
from .cosets import DoubleCoset, Frame, check_subset, coset_of, is_core


def _require_type_a(system: CoxeterSystem) -> None:
    if system.cartan != "A":
        raise ValueError(f"squashing here needs a type A system, got {system.cartan}")


def block_classes(system: CoxeterSystem, J: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The ordered contiguous blocks of {1..n} glued along J."""
    _require_type_a(system)
    J = check_subset(system, J)
    n = system.points
    blocks: list[tuple[int, ...]] = []
    cur = [1]
    for x in range(2, n + 1):
        if x - 1 in J:
            cur.append(x)
        else:
            blocks.append(tuple(cur))
            cur = [x]
    blocks.append(tuple(cur))
    return tuple(blocks)


def is_block_permutation(y: Element, I: Iterable[int], J: Iterable[int]) -> bool:
    """Whether y carries each J-block order-preservingly onto an I-block."""
    I = check_subset(y.system, I)
    J = check_subset(y.system, J)
    if len(I) != len(J):
        raise ValueError("block permutations need frames of equal size")
    return _block_images(y, I, J) is not None


def _block_images(y: Element, I: Frame, J: Frame) -> tuple[int, ...] | None:
    """Images of the J-block indices under y, or None if blocks break."""
    source = block_classes(y.system, J)
    target = block_classes(y.system, I)
    index_at = {blk[0]: c for c, blk in enumerate(target, 1)}
    out = []
    for blk in source:
        vals = [act(y, x) for x in blk]
        if any(b != a + 1 for a, b in zip(vals, vals[1:])):
            return None
        c = index_at.get(vals[0])
        if c is None or len(target[c - 1]) != len(blk):
            return None
        out.append(c)
    return tuple(out)


def squash_coset(p: DoubleCoset) -> Element:
    """The permutation of strands induced by the minimal element of a core coset."""
    _require_type_a(p.system)
    if not is_core(p):
        raise ValueError("only core cosets squash to a permutation")
    img = _block_images(p.min, p.left, p.right)
    if img is None:
        raise AssertionError(f"minimal element of core coset {p} is not a block permutation")
    return Element(type_a(len(img) - 1), img)


def unsquash(system: CoxeterSystem, J: Iterable[int], sigma: Element) -> tuple[Frame, DoubleCoset]:
    """The core coset with right frame J squashing to sigma, with its left frame."""
    _require_type_a(system)
    J = check_subset(system, J)
    source = block_classes(system, J)
    k = len(source)
    if sigma.system.cartan != "A" or len(sigma.data) != k:
        raise ValueError(f"expected a permutation of {k} strands")
    sizes = [0] * k
    for c, blk in enumerate(source):
        sizes[sigma.data[c] - 1] = len(blk)
    starts = [0] * k
    acc = 1
    for d in range(k):
        starts[d] = acc
        acc += sizes[d]
    images = [0] * system.points
    for c, blk in enumerate(source):
        base = starts[sigma.data[c] - 1]
        for offset, x in enumerate(blk):
            images[x - 1] = base + offset
    y = Element(system, tuple(images))
    # left frame: indices i with i and i+1 inside the same target block
    I = frozenset(starts[d] + r for d in range(k) for r in range(sizes[d] - 1))
    p = DoubleCoset(system, I, J, y)
    if __debug__:
        q = coset_of(system, I, y, J)
        if q.min != y:
            raise AssertionError("unsquashed block permutation is not minimal")
    return I, p
