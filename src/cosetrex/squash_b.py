"""Squashing in type B: signed block permutations of {-n..n}.

The blocks of a parabolic subset J of the signed permutation group are a
central block around 0 (always symmetric) together with sign-pure blocks
coming in +/- pairs.  A core (I,J)-coset squashes to a signed permutation
of the k = n - |J| non-central block pairs, i.e. to an element of the rank
k group of the same type.  The central block never moves.
"""
from __future__ import annotations

from typing import Iterable

from .coxeter import CoxeterSystem, Element, act, type_b
from .cosets import DoubleCoset, Frame, check_subset, coset_of, is_core
from .atomic import matsumoto_connected


def _require_type_b(system: CoxeterSystem) -> None:
    if system.cartan != "B":
        raise ValueError(f"signed squashing needs a type B system, got {system.cartan}")


def block_classes_b(system: CoxeterSystem, J: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Blocks (C_0, C_1, .., C_k): the symmetric central block, then the
    positive blocks in increasing order.  C_{-c} = -C_c is implied."""
    _require_type_b(system)
    J = check_subset(system, J)
    n = system.rank
    # glue x ~ x+1 on {0..n} whenever s_x is in J; the run containing 0 is central
    runs: list[list[int]] = [[0]]
    for x in range(1, n + 1):
        if x - 1 in J:
            runs[-1].append(x)
        else:
            runs.append([x])
    central = runs[0]
    c0 = tuple(range(-central[-1], central[-1] + 1))
    return (c0,) + tuple(tuple(run) for run in runs[1:])


def _signed_block_images(y: Element, I: Frame, J: Frame) -> tuple[int, ...] | None:
    """Images of the positive J-block indices (signed), or None if blocks break."""
    source = block_classes_b(y.system, J)
    target = block_classes_b(y.system, I)
    if len(source) != len(target):
        return None
    vals0 = [act(y, x) for x in source[0]]
    if tuple(vals0) != target[0]:
        return None
    start_at = {blk[0]: c for c, blk in enumerate(target) if c > 0}
    out = []
    for blk in source[1:]:
        vals = [act(y, x) for x in blk]
        if any(b != a + 1 for a, b in zip(vals, vals[1:])):
            return None
        if vals[0] > 0:
            c = start_at.get(vals[0])
            if c is None or len(target[c]) != len(blk):
                return None
            out.append(c)
        else:
            # a negative block: its mirror -vals reversed must be a positive block
            c = start_at.get(-vals[-1])
            if c is None or len(target[c]) != len(blk):
                return None
            out.append(-c)
    return tuple(out)


def is_block_permutation_b(y: Element, I: Iterable[int], J: Iterable[int]) -> bool:
    I = check_subset(y.system, I)
    J = check_subset(y.system, J)
    if len(I) != len(J):
        raise ValueError("block permutations need frames of equal size")
    return _signed_block_images(y, I, J) is not None


def squash_coset_b(p: DoubleCoset) -> Element:
    """The signed permutation of block pairs induced by a core coset."""
    _require_type_b(p.system)
    if not is_core(p):
        raise ValueError("only core cosets squash to a signed permutation")
    img = _signed_block_images(p.min, p.left, p.right)
    if img is None:
        raise AssertionError(f"minimal element of core coset {p} is not a block permutation")
    return Element(type_b(len(img)), img)


def unsquash_b(system: CoxeterSystem, J: Iterable[int], sigma: Element) -> tuple[Frame, DoubleCoset]:
    """The core coset with right frame J squashing to sigma, with its left frame."""
    _require_type_b(system)
    J = check_subset(system, J)
    source = block_classes_b(system, J)
    k = len(source) - 1
    if sigma.system.cartan != "B" or len(sigma.data) != k:
        raise ValueError(f"expected a signed permutation of {k} block pairs")
    central = (len(source[0]) - 1) // 2
    sizes = [0] * k
    for c, blk in enumerate(source[1:], 1):
        sizes[abs(sigma.data[c - 1]) - 1] = len(blk)
    starts = [0] * k
    acc = central + 1
    for d in range(k):
        starts[d] = acc
        acc += sizes[d]
    images = list(range(1, system.rank + 1))  # central part is fixed pointwise
    for c, blk in enumerate(source[1:], 1):
        d = sigma.data[c - 1]
        if d > 0:
            base = starts[d - 1]
            for offset, x in enumerate(blk):
                images[x - 1] = base + offset
        else:
            top = starts[-d - 1] + sizes[-d - 1] - 1
            for offset, x in enumerate(blk):
                images[x - 1] = -(top - offset)
    y = Element(system, tuple(images))
    I = set(range(central))  # s_0 .. s_{central-1} glue the central block
    for d in range(k):
        I.update(starts[d] + r for r in range(sizes[d] - 1))
    I = frozenset(I)
    p = DoubleCoset(system, I, J, y)
    if __debug__:
        q = coset_of(system, I, y, J)
        if q.min != y:
            raise AssertionError("unsquashed signed block permutation is not minimal")
    return I, p


def matsumoto_connected_b(p: DoubleCoset) -> bool:
    """Whether type-B braid moves reach every atomic reduced expression of p.

    The type-checked entry of ``atomic.matsumoto_connected``; the benchmark's
    ``verify-braid-b4`` workload counts its calls.
    """
    _require_type_b(p.system)
    return matsumoto_connected(p)
