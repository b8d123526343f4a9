"""The exhaustive verification suites behind ``cosetrex verify``: each
check(system, emit, fail) checks one system, emits one line per cell and
reports each failure through fail, and run_suite drives one over a run's
systems.  The library is reached through module attributes only, so a
tracer or a test that rebinds a library function reaches every walk."""
from __future__ import annotations

from itertools import combinations
from typing import Callable

from . import atomic, cosets, coxeter, expressions, nilcox, squash_a, squash_b


def _systems(cartan: str, max_rank: int, budget: int) -> list[coxeter.CoxeterSystem]:
    """The systems of a verify run, each checked against the budget before
    it is built and before any is verified; the walks below therefore
    enumerate with no limit.  Group orders grow with the rank, so the first
    rank over the budget ends the run, and no system over it is built."""
    systems = []
    for r in range(3 if cartan == "I2" else 1, max_rank + 1):
        args = ("I2", 2, r) if cartan == "I2" else (cartan, r)
        cosets.check_budget(coxeter.system_key(*args), budget)
        systems.append(coxeter.CoxeterSystem(*args))
    return systems


# the caches verify empties at the start of each cell of _core_by_right and
# each left frame of _cosets_by_left, and all of these at the start of each
# system, of a verify run or of a CLI command (use_system); held as objects,
# since a tracer or a test may rebind the public names.
# The descent table holds the core cosets' index too.  inverse keeps no cache:
# only invert (atomatom) calls it, once per atom.
# What a walk rereads per coset (greedy steps, is_core, squashed images) it
# keeps in a memo of its own, a local dict or an atomic.keeping_greedy_steps
# block, which lives as long as the walk.
_CELL_CACHES = (cosets.max_elem,)
_SYSTEM_CACHES = _CELL_CACHES + (
    coxeter.length, coxeter.reduced_word, cosets.longest_element,
    cosets._descent_table, atomic._atom, atomic.coset_of_atom,
)


def _clear(caches) -> None:
    for cache in caches:
        cache.cache_clear()


# the system the system caches were last filled for
_filled_for: coxeter.CoxeterSystem | None = None


def use_system(system: coxeter.CoxeterSystem, *, fresh: bool = False) -> coxeter.CoxeterSystem:
    """Return system, first emptying the system caches if they were last
    filled for another system, or if fresh.  Every CLI command and every
    system of run_suite passes through here, so a long-lived process holds
    one system's entries at a time, and consecutive commands on one system
    (enumerate-core over each of its frames, say) share its descent table."""
    global _filled_for
    if fresh or system is not _filled_for:
        _clear(_SYSTEM_CACHES)
        _filled_for = system
    return system


def _core_count(system: coxeter.CoxeterSystem, J: frozenset) -> int:
    """The number of core cosets with right frame J, in closed form: the
    order of the squashed group in types A and B, and 2m, 2, 2 and 1 for
    J = {}, {1}, {2} and {1,2} in I2(m)."""
    if system.cartan == "I2":
        return (2 * system.bond, 2, 1)[len(J)]
    return coxeter.group_order(atomic.squashed_system(system, J))


def _core_by_right(system: coxeter.CoxeterSystem, fail):
    """Each right frame J with the core cosets (I, p) out of it, reporting
    through fail a cell whose size is not its closed form.  Each cell
    starts with the coset-keyed caches empty: a greedy or atomic step keeps
    the right frame, so a walk from a cell reads no coset of another cell
    but the atoms' cosets, whose maxima are cheap to compute again."""
    for J in cosets.all_frames(system):
        _clear(_CELL_CACHES)
        found = list(cosets.enumerate_core_cosets(system, J, budget=None))
        expected = _core_count(system, J)
        if len(found) != expected:
            fail(f"core count at {system} J={sorted(J)}: {len(found)} != {expected}")
        yield J, found


def _cosets_by_left(system: coxeter.CoxeterSystem):
    """Each left frame I with every (I, J)-coset, over all right frames J.
    Each frame starts with the coset-keyed caches empty, so a walk over
    every coset keeps those of one left frame at a time, not the system's."""
    frames = cosets.all_frames(system)
    for I in frames:
        _clear(_CELL_CACHES)
        yield I, (p for J in frames for p in cosets.enumerate_cosets(system, I, J, budget=None))


def _composable_core_pairs(core):
    """Group the core cosets of _core_by_right by frame: each frame J with the
    pairs (p, q) where p has right frame J and q has left frame J."""
    by_left: dict[frozenset, list] = {}
    by_right: dict[frozenset, list] = {}
    for J, found in core:
        for I, p in found:
            by_left.setdefault(I, []).append(p)
            by_right.setdefault(J, []).append(p)
    for J, qs in by_left.items():
        yield J, ((p, q) for p in by_right.get(J, []) for q in qs)


def _check_core_atomic(system: coxeter.CoxeterSystem, emit, fail) -> None:
    """Check one greedy step per core coset p: p is its frame's identity coset,
    or p = a . q reduced with q in p's cell.  q is shorter, so by induction
    every greedy atomic expression is reduced and composes to its coset."""
    for J, found in _core_by_right(system, fail):
        cell = {p for _, p in found}
        for _, p in found:
            if not _greedy_step_holds(J, cell, p):
                fail(f"core-atomic: {p}")
        emit(f"core-atomic {system.cartan} rank={system.rank}"
             f"{'' if system.bond is None else f' m={system.bond}'}"
             f" J={cosets.format_subset(J)}: {len(found)} cosets")


def _greedy_step_holds(J: frozenset, cell: set, p) -> bool:
    if not cosets.is_core(p):
        return False
    step = atomic._greedy_step(p)
    if step is None:
        return p == cosets.identity_coset(p.system, J)
    head, q = atomic.coset_of_atom(step[0]), step[1]
    return q in cell and q.left == head.right and cosets.composes_reducedly_to(head, q, p)


def _check_squash_bijection(system: coxeter.CoxeterSystem, J: frozenset, found, fail) -> None:
    """Check that squashing the core cosets found with right frame J is a
    bijection onto the squashed group: squashing is injective, and squash
    and unsquash invert each other; _core_by_right has checked the count."""
    small = atomic.squashed_system(system, J)
    images = set()
    for I, p in found:
        sigma = squash_a.squash_coset(p)
        images.add(sigma)
        if squash_a.unsquash(system, J, sigma) != (I, p):
            fail(f"squash round-trip fails at {p}")
    if len(images) != len(found):
        fail(f"squash not injective at {system} J={sorted(J)}")
    for sigma in coxeter.all_elements(small):
        _, p = squash_a.unsquash(system, J, sigma)
        if squash_a.squash_coset(p) != sigma:
            fail(f"unsquash round-trip fails at {sigma}")


def _check_squash(system: coxeter.CoxeterSystem, emit, fail) -> None:
    for J, found in _core_by_right(system, fail):
        _check_squash_bijection(system, J, found, fail)
        emit(f"squash-bijection {system.cartan} rank={system.rank} J={cosets.format_subset(J)}: {len(found)} cosets")


def _check_atomic_rex_bijection(system: coxeter.CoxeterSystem, emit, fail) -> None:
    # the atomic walk from p and the reduced-word walk from squash(p) carry
    # the same words; memo keeps the pairs found equal, all in one cell
    for J, found in _core_by_right(system, fail):
        memo: dict = {}
        for _, p in found:
            sigma = squash_a.squash_coset(p)
            if not coxeter.same_paths({p}, atomic._atomic_steps, {sigma}, coxeter._strip_left_descents, memo):
                fail(f"atomic-rex-bijection: {p}")
        emit(f"atomic-rex-bijection {system.cartan} rank={system.rank} J={cosets.format_subset(J)}: ok")


def _check_matsumoto(system: coxeter.CoxeterSystem, emit, fail) -> None:
    connected = squash_b.matsumoto_connected_b if system.cartan == "B" else atomic.matsumoto_connected
    classes: dict = {}  # braid classes, which this system's cells share
    for J, found in _core_by_right(system, fail):
        pairs: dict = {}  # the compared pairs, all in this cell
        with atomic.keeping_greedy_steps():  # the greedy steps, all in this cell
            for _, p in found:
                if not connected(p, classes, pairs):
                    fail(f"matsumoto: braid closure misses expressions of {p}")
        emit(f"matsumoto {system.cartan} rank={system.rank} J={cosets.format_subset(J)}: ok")


def _check_mimimi(system: coxeter.CoxeterSystem, emit, fail) -> None:
    pairs = 0
    core: dict = {}  # is_core of the composites, which repeat
    for J, composable in _composable_core_pairs(_core_by_right(system, fail)):
        for p, q in composable:
            pairs += 1
            r = cosets.reduced_composite(p, q)
            prod = coxeter.multiply(p.min, q.min)
            rhs = coxeter.length(prod) == coxeter.length(p.min) + coxeter.length(q.min)
            if (r is not None) != rhs:
                fail(f"mimimi reducedness mismatch: {p} * {q}")
            elif r is not None and (r.min != prod or not coxeter._memo(core, cosets.is_core, r)):
                fail(f"mimimi composite mismatch: {p} * {q}")
        emit(f"mimimi {system.cartan} rank={system.rank} through J={cosets.format_subset(J)}: ok")
    emit(f"mimimi {system.cartan} rank={system.rank}: {pairs} pairs")


def _check_atomatom(system: coxeter.CoxeterSystem, emit, fail) -> None:
    atoms = [atomic.atomic_from(system, M, s) for M in cosets.all_frames(system) for s in sorted(M)]
    for a in atoms:
        p = atomic.coset_of_atom(a)
        chain = cosets.star_compose(cosets.star_compose(p, cosets.invert(p)), p)
        if chain != p:
            fail(f"atomatom: p*(p^-1)*p != p at {a}")
    for a in atoms:
        for b in atoms:
            pa, pb = atomic.coset_of_atom(a), atomic.coset_of_atom(b)
            if pa.right != pb.left:
                continue
            if cosets.reduced_composite(pa, pb) is not None:
                continue
            prod = cosets.star_compose(pa, pb)
            if cosets.is_core(prod) != (pa == pb):
                fail(f"atomatom: non-reduced core test fails at {a}, {b}")
            if pa == pb and prod != pa:
                fail(f"atomatom: p*p != p at {a}")
    # a_i^I * a_i^J is never reduced and lands on the [J, Js, J]-coset
    for J in cosets.all_frames(system):
        for i in atomic.squashed_system(system, J).simple_indices:
            aJ = atomic.atomic_generator(system, J, i)
            aI = atomic.atomic_generator(system, aJ.left, i)
            pI, pJ = atomic.coset_of_atom(aI), atomic.coset_of_atom(aJ)
            if cosets.reduced_composite(pI, pJ) is not None:
                fail(f"aa=a: reduced composition at J={sorted(J)} i={i}")
            expected = cosets.coset_of(system, J, cosets.longest_element(system, aJ.mid), J)
            if cosets.star_compose(pI, pJ) != expected:
                fail(f"aa=a: wrong composite at J={sorted(J)} i={i}")
    emit(f"atomatom {system.cartan} rank={system.rank}: {len(atoms)} atoms")


def _check_nilcox_relations(system: coxeter.CoxeterSystem, emit, fail) -> None:
    """At every object J, the nil relations d_i d_i = 0 and the braid
    relations of the squashed group's Coxeter matrix (m = 2 is commuting),
    then the core basis as the nonzero products of the generators."""
    checked = 0
    for J in cosets.all_frames(system):
        small = atomic.squashed_system(system, J)
        for i in small.simple_indices:
            checked += 1
            if nilcox.psi(system, J, (i, i)) is not None:
                fail(f"d{i} d{i} = 0 fails at J = {sorted(J)} in {system}")
        for i, j in combinations(small.simple_indices, 2):
            checked += 1
            lhs, rhs = coxeter.braid_relation(small, i, j)
            if nilcox.psi(system, J, lhs) != nilcox.psi(system, J, rhs):
                fail(f"braid {lhs} = {rhs} fails at J = {sorted(J)} in {system}")
    for J, found in _core_by_right(system, fail):
        if nilcox.reachable_cosets(system, J) != {p for _, p in found}:
            fail(f"reachable generator products differ from the core basis at {system} J={sorted(J)}")
    emit(f"nilcox-relations {system.cartan} rank={system.rank}: {checked} relation instances")


def _check_add_remove(system: coxeter.CoxeterSystem, emit, fail) -> None:
    """The head [I, I|M, M], M = I ^ {s}, then the core factorization of the
    remainder q is reduced and evaluates to p iff s is a left descent of
    max(p) (adding s) or is not left-redundant (removing it).  Deficits add
    along a chain (expressions.concatenate) and every q is a walked coset,
    so this checks each coset's factorization once, and per (p, s) whether
    the head's coset (I, e, M) composes reducedly with q to p."""
    e = coxeter.identity(system)
    for I, found in _cosets_by_left(system):
        wI = cosets.longest_element(system, I)
        with atomic.keeping_greedy_steps():  # the greedy steps of this frame's cores
            for p in found:
                expr = atomic.factor_through_core(p)
                if not (expressions.is_reduced(expr) and expressions.evaluate(expr) == p):
                    fail(f"add-remove: core factorization of {p}")
                pmax = cosets.max_elem(p)
                ldes = coxeter.left_descents(pmax)
                lred = cosets.left_redundancy(p)
                for s in system.simple_indices:
                    M = I ^ {s}
                    if s in I:  # a reduced removal leaves the maximum w_{I-s} w_I max(p)
                        qmax = coxeter.multiply(coxeter.multiply(cosets.longest_element(system, M), wI), pmax)
                        stated, sign = s not in lred, "-"
                    else:
                        qmax, stated, sign = pmax, s in ldes, "+"
                    q = cosets.coset_of(system, M, qmax, p.right)
                    if cosets.composes_reducedly_to(cosets.DoubleCoset(system, I, M, e), q, p) != stated:
                        fail(f"add-remove: {sign}{s} at {p}")
        emit(f"add-remove {system.cartan} rank={system.rank} I={cosets.format_subset(I)}: ok")


def _check_redundancy_a(system: coxeter.CoxeterSystem, emit, fail) -> None:
    for I, found in _cosets_by_left(system):
        for p in found:
            lred, rred = cosets._redundancy(p)
            pmin = p.min
            for j in p.right:
                stated = coxeter.act(pmin, j + 1) == coxeter.act(pmin, j) + 1 and coxeter.act(pmin, j) in I
                if stated != (j in rred):
                    fail(f"redundancy-a: j={j} at {p}")
            if frozenset(coxeter.act(pmin, j) for j in rred) != lred:
                fail(f"redundancy-a: leftred != min(rightred) at {p}")
            if cosets.is_core(p):
                for j in p.right:
                    stated = coxeter.act(pmin, j + 1) == coxeter.act(pmin, j) + 1
                    if stated != (j in rred):
                        fail(f"redundancy-a (core): j={j} at {p}")
        emit(f"redundancy-a rank={system.rank} I={cosets.format_subset(I)}: ok")


def _check_type_b(system: coxeter.CoxeterSystem, emit, fail) -> None:
    for _, found in _cosets_by_left(system):
        for p in found:
            lred, rred = cosets._redundancy(p)
            if (0 in lred) != (0 in rred):
                fail(f"type-b: s0 redundancy asymmetry at {p}")
    core = list(_core_by_right(system, fail))
    for J, found in core:
        _check_squash_bijection(system, J, found, fail)
        emit(f"type-b rank={system.rank} J={cosets.format_subset(J)}: {len(found)} core cosets")
    # squashing is a homomorphism on reduced core compositions; squashed
    # keeps each coset's image (and so its is_core test), as the pairs repeat
    squashed: dict = {}
    for _, composable in _composable_core_pairs(core):
        for p, q in composable:
            r = cosets.reduced_composite(p, q)
            if r is None:
                continue
            sp, sq, sr = [coxeter._memo(squashed, squash_a.squash_coset, x) for x in (p, q, r)]
            prod = coxeter.multiply(sp, sq)
            if sr != prod:
                fail(f"type-b: squash not multiplicative at {p} * {q}")
            if coxeter.length(prod) != coxeter.length(sp) + coxeter.length(sq):
                fail(f"type-b: squash not length-additive at {p} * {q}")
    emit(f"type-b rank={system.rank}: done")


# each suite's check, and the types it supports with their default max rank
# (max bond for I2)
_SUITES: dict[str, tuple[Callable, dict[str, int]]] = {
    "core-atomic": (_check_core_atomic, {"A": 5, "B": 3, "I2": 7}),
    "squash-bijection": (_check_squash, {"A": 5, "B": 3}),
    "atomic-rex-bijection": (_check_atomic_rex_bijection, {"A": 4, "B": 3}),
    "matsumoto": (_check_matsumoto, {"A": 4, "B": 3}),
    "mimimi": (_check_mimimi, {"A": 4, "B": 3, "I2": 3}),
    "atomatom": (_check_atomatom, {"A": 4, "B": 3}),
    "nilcox-relations": (_check_nilcox_relations, {"A": 4, "B": 3}),
    "add-remove": (_check_add_remove, {"A": 3, "B": 3, "I2": 3}),
    "redundancy-a": (_check_redundancy_a, {"A": 4}),
    "type-b": (_check_type_b, {"B": 3}),
}


def run_suite(suite: str, cartan: str, max_rank: int, budget: int, show: Callable[[str], None]) -> list[str]:
    """Run suite's check on each system of type cartan up to max_rank, each
    with the system caches empty, handing show each cell line; return the
    failures.  A library cross-check that raises ends its system with one
    failure, and a run that emits no cell fails."""
    check = _SUITES[suite][0]
    cells = 0

    def emit(line: str) -> None:
        nonlocal cells
        cells += 1
        show(line)

    failures: list[str] = []
    for system in _systems(cartan, max_rank, budget):
        use_system(system, fresh=True)
        try:
            check(system, emit, failures.append)
        except AssertionError as exc:  # a library cross-check; its message names the coset
            failures.append(f"{suite}: {exc}")
    if not cells:
        failures.append(f"no cells checked at max rank {max_rank}")
    return failures
