import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetrex import atomic as at
from cosetrex import cosets as cs
from cosetrex import coxeter as cx
from cosetrex import expressions as ex
from conftest import all_subsets, count_calls, evaluate_oracle, is_reduced_oracle, multistep_oracle

S11_TEXT = "[{2,3,6,10} +8 -8 +9 -10 +7 -6 +8 -8 +5 -5 +6 -7 +4 -2]"


def exs4_expression(a3):
    return ex.multistep(
        a3, [{1}, {1, 2}, {2}, {2, 3}, {3}]
    )


def test_multistep_validation(a3):
    with pytest.raises(ValueError):
        ex.MultistepExpression(a3, (frozenset({1}), frozenset({2})))
    with pytest.raises(ValueError):
        ex.MultistepExpression(a3, (frozenset({1}), frozenset({2}), frozenset({2})))
    with pytest.raises(ValueError):
        ex.multistep(a3, [{1}, {2, 3}])


def test_one_step_validation(a3):
    with pytest.raises(ValueError):
        ex.OneStepExpression(a3, frozenset({1}), ((1, 1),))
    with pytest.raises(ValueError):
        ex.OneStepExpression(a3, frozenset({1}), ((-1, 2),))
    with pytest.raises(ValueError):
        ex.OneStepExpression(a3, frozenset({1}), ((2, 2),))



@pytest.mark.parametrize(
    "steps, message",
    [
        (((1, 1),), "cannot add 1: already present"),
        (((-1, 2),), "cannot remove 2: not present"),
        (((2, 2),), "bad step operation 2"),
        (((1, 9),), "indices [9] out of range for CoxeterSystem(cartan='A', rank=3, bond=None)"),
    ],
)
def test_one_step_rule_texts(a3, steps, message):
    with pytest.raises(ValueError) as caught:
        ex.OneStepExpression(a3, {1}, steps)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("[{1} +2 +2]", "cannot add 2: already present", 8),
        ("[{1} -3]", "cannot remove 3: not present", 5),
        ("[{1} +9]", "indices [9] out of range for CoxeterSystem(cartan='A', rank=3, bond=None)", 5),
        ("[{1} +2 -1 -1]", "cannot remove 1: not present", 11),
    ],
)
def test_one_step_rule_parse_errors_point_at_the_sign(a3, text, message, position):
    with pytest.raises(ex.ParseError) as caught:
        ex.parse_expression(a3, text)
    assert str(caught.value) == f"{message} (at position {position})"
    assert caught.value.position == position


def test_parsing_walks_each_step_once(monkeypatch):
    # the parser checks each step as it reads it, and its expression skips
    # the constructor's walk; a direct construction still walks every step
    system = cx.type_a(10)
    steps = count_calls(monkeypatch, ex._step)
    expr = ex.parse_expression(system, S11_TEXT)
    assert len(steps) == len(expr.steps) == 14
    steps.clear()
    assert ex.OneStepExpression(system, expr.start, expr.steps) == expr
    assert len(steps) == 14


@st.composite
def _chains(draw):
    """A system and a chain of 1-7 of its frames: most steps add or remove
    one index, some repeat the frame and some jump to any frame."""
    system = draw(st.sampled_from((cx.type_a(4), cx.type_b(3))))
    indices = list(system.simple_indices)
    frames = st.frozensets(st.sampled_from(indices))
    chain = [draw(frames)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        move = draw(st.sampled_from(("toggle",) * 6 + ("repeat", "jump")))
        if move == "toggle":
            chain.append(chain[-1] ^ {draw(st.sampled_from(indices))})
        elif move == "repeat":
            chain.append(chain[-1])
        else:
            chain.append(draw(frames))
    return system, chain


@settings(max_examples=400, deadline=None)
@given(_chains())
def test_multistep_agrees_with_the_three_pass_oracle(case):
    system, chain = case
    try:
        expected = multistep_oracle(system, chain)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            ex.multistep(system, chain)
        assert str(caught.value) == str(exc)
    else:
        assert ex.multistep(system, chain).frames == expected.frames


@settings(max_examples=400, deadline=None)
@given(_chains())
def test_evaluate_and_is_reduced_agree_with_their_oracles_on_chains(case):
    system, chain = case
    try:
        M = ex.multistep(system, chain)
    except ValueError:
        return
    assert ex.is_reduced(M) == is_reduced_oracle(M)
    assert ex.evaluate(M) == evaluate_oracle(M)


@pytest.mark.parametrize("system", [cx.type_a(4), cx.type_b(3), cx.dihedral(5)], ids=str)
def test_single_frames_read_as_the_oracles_read_them(system):
    # [[I]] and [I] hold no inner frame: reduced, and the identity coset of I
    for I in all_subsets(system):
        for expr in (ex.MultistepExpression(system, (I,)), ex.OneStepExpression(system, I, ())):
            assert ex.is_reduced(expr) and is_reduced_oracle(expr)
            assert ex.evaluate(expr) == evaluate_oracle(expr) == cs.identity_coset(system, I)


def test_evaluate_examples(a3):
    for I in all_subsets(a3):
        single = ex.MultistepExpression(a3, (I,))
        assert ex.evaluate(single) == cs.identity_coset(a3, I)
    p = ex.evaluate(exs4_expression(a3))
    assert p.left == frozenset({1}) and p.right == frozenset({3})
    assert p.min.data == (3, 4, 1, 2)


def test_evaluate_s11_running_example():
    system = cx.type_a(10)
    expr = ex.parse_expression(system, S11_TEXT)
    p = ex.evaluate(expr)
    assert p.left == frozenset({2, 3, 6, 10})
    assert p.right == frozenset({3, 4, 6, 9})
    assert cs.is_core(p)
    assert ex.is_reduced(expr)


def test_is_reduced_examples(a2, a3):
    assert ex.is_reduced(ex.MultistepExpression(a3, (frozenset({1, 2}),)))
    expr = exs4_expression(a3)
    assert ex.is_reduced(expr)
    assert cx.length(cs.max_elem(ex.evaluate(expr))) == 3 - 1 + 3
    bad = ex.multistep(a2, [set(), {1}, set(), {1}, set()])
    assert not ex.is_reduced(bad)


def test_concatenate_examples(a3):
    M = exs4_expression(a3)
    tail = ex.MultistepExpression(a3, (frozenset({3}),))
    assert ex.concatenate(M, tail) == M
    left = ex.multistep(a3, [{1}, {1, 2}, {2}])
    right = ex.multistep(a3, [{2}, {2, 3}, {3}])
    assert ex.concatenate(left, right) == M
    with pytest.raises(ValueError):
        ex.concatenate(right, right)


def test_concatenate_reduced_iff_reduced_composition(a2):
    # concatenating through-core expressions is reduced exactly when the
    # coset composition is reduced
    subsets = all_subsets(a2)
    for I in subsets:
        for J in subsets:
            for K in subsets:
                for p in cs.enumerate_cosets(a2, I, J):
                    ep = at.factor_through_core(p)
                    for q in cs.enumerate_cosets(a2, J, K):
                        eq = at.factor_through_core(q)
                        joined = ex.concatenate(ep, eq)
                        assert ex.is_reduced(joined) == (cs.reduced_composite(p, q) is not None)
                        assert ex.evaluate(joined) == cs.star_compose(p, q)


def test_reverse_examples(a3):
    single = ex.MultistepExpression(a3, (frozenset({2}),))
    reversed_single = ex.MultistepExpression(a3, single.frames[::-1])
    assert ex.evaluate(reversed_single) == cs.invert(ex.evaluate(single))
    M = exs4_expression(a3)
    rev = ex.MultistepExpression(a3, M.frames[::-1])
    p = ex.evaluate(M)
    assert ex.evaluate(rev) == cs.invert(p)
    assert rev.frames[0] == frozenset({3}) and rev.frames[-1] == frozenset({1})


def test_braid3_chain_equivalences(a2):
    # the four spellings of the degree-3 relation on rank-1 atoms
    texts = [
        "[{} +1 -1 +2 -2 +1 -1]",
        "[{} +1 +2 -2 -1]",
        "[{} +2 +1 -1 -2]",
        "[{} +2 -2 +1 -1 +2 -2]",
    ]
    exprs = [ex.parse_expression(a2, t) for t in texts]
    p = ex.evaluate(exprs[0])
    for e in exprs:
        assert ex.is_reduced(e) and ex.evaluate(e) == p
    assert p.left == frozenset() and p.right == frozenset()
    assert p.min.data == (3, 2, 1)


def test_comm_chain_equivalence(a3):
    lhs = ex.parse_expression(a3, "[{} +1 -1 +3 -3]")
    rhs = ex.parse_expression(a3, "[{} +3 -3 +1 -1]")
    assert ex.is_reduced(lhs) and ex.is_reduced(rhs)
    assert ex.evaluate(lhs) == ex.evaluate(rhs)
    assert ex.evaluate(lhs).min == cx.element_from_word(a3, (1, 3))


def test_parse_s11_one_step():
    system = cx.type_a(10)
    expr = ex.parse_expression(system, S11_TEXT)
    assert isinstance(expr, ex.OneStepExpression)
    assert expr.start == frozenset({2, 3, 6, 10})
    assert expr.steps[:4] == ((1, 8), (-1, 8), (1, 9), (-1, 10))
    assert len(expr.steps) == 14
    assert ex.format_expression(expr) == S11_TEXT


def test_parse_multistep_roundtrip(a2):
    text = "[[{1} < {1,2} > {2}]]"
    expr = ex.parse_expression(a2, text)
    assert isinstance(expr, ex.MultistepExpression)
    assert expr.frames == (frozenset({1}), frozenset({1, 2}), frozenset({2}))
    assert ex.format_expression(expr) == text


def test_parse_errors(a3):
    with pytest.raises(ex.ParseError):
        ex.parse_expression(a3, "[{1} +2 +2]")
    with pytest.raises(ex.ParseError):
        ex.parse_expression(a3, "[{1} -3]")
    with pytest.raises(ex.ParseError):
        ex.parse_expression(a3, "[{1} +9]")
    with pytest.raises(ex.ParseError):
        ex.parse_expression(a3, "[[{1} < {2}]]")
    with pytest.raises(ex.ParseError):
        ex.parse_expression(a3, "[{1} +2! ]")
    with pytest.raises(ex.ParseError):
        ex.parse_expression(a3, "[[{1}]] trailing")
    err = None
    try:
        ex.parse_expression(a3, "[{1} +2 +2]")
    except ex.ParseError as caught:
        err = caught
    assert err is not None and err.position == 8


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("[{1} +2 x]", "unexpected character 'x'", 8),
        ("[{1} +2", "unexpected end of input, expected ']'", 7),
        ("", "unexpected end of input, expected '['", 0),
        ("[[{1}", "unexpected end of input, expected ']]'", 5),
        ("[{1} +", "unexpected end of input, expected an index", 6),
        ("[{1} -", "unexpected end of input, expected an index", 6),
        ("[{", "unexpected end of input, expected an index", 2),
        ("[{1,", "unexpected end of input, expected an index", 4),
        ("[{1", "unexpected end of input, expected ',' or '}'", 3),
        ("[[{1} < {1,2", "unexpected end of input, expected ',' or '}'", 12),
        ("{1}", "expected '[' but found '{'", 0),
        ("[[{1} < {1,2} ]", "expected ']]' but found ']'", 14),
        ("[{1},]", "expected ']' but found ','", 4),
        ("[{1} + ]", "expected an index but found ']'", 7),
        ("[{,}]", "expected an index but found ','", 2),
        ("[{1 2}]", "expected ',' or '}' but found '2'", 4),
        ("[[{1} < {2}]]", "'<' requires the left frame to be contained in the right", 6),
        ("[[{1,2} > {3}]]", "'>' requires the right frame to be contained in the left", 8),
        ("[{1}] ]", "trailing input ']'", 6),
        ("[{9}]", "indices [9] out of range for CoxeterSystem(cartan='A', rank=3, bond=None)", 1),
    ],
)
def test_parse_error_texts_and_positions(a3, text, message, position):
    with pytest.raises(ex.ParseError) as caught:
        ex.parse_expression(a3, text)
    assert str(caught.value) == f"{message} (at position {position})"
    assert caught.value.position == position


def test_parse_normalizes_equal_frames(a2):
    # a monotone run collapses onto its extreme frame
    expr = ex.parse_expression(a2, "[[{} < {1} < {1,2}]]")
    assert expr.frames == (frozenset(), frozenset({1, 2}), frozenset({1, 2}))
    same = ex.parse_expression(a2, "[[{1} < {1} > {1}]]")
    assert same.frames == (frozenset({1}),)
    assert ex.evaluate(same) == cs.identity_coset(a2, frozenset({1}))


def test_repeated_frame_insertion_invariant(a3):
    M = exs4_expression(a3)
    p = ex.evaluate(M)
    frames = M.frames
    for cut in range(0, len(frames), 2):
        padded = frames[: cut + 1] + (frames[cut], frames[cut]) + frames[cut + 1 :]
        widened = ex.MultistepExpression(a3, padded)
        assert ex.evaluate(widened) == p
        assert ex.is_reduced(widened) == ex.is_reduced(M)


def test_one_step_multistep_conversion(a3):
    expr = ex.parse_expression(a3, "[{1} +2 -1 +3 -2]")
    M = ex.to_multistep(expr)
    assert M.frames == (
        frozenset({1}),
        frozenset({1, 2}),
        frozenset({2}),
        frozenset({2, 3}),
        frozenset({3}),
    )
    assert ex.evaluate(expr) == ex.evaluate(M)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2)], ids=str)
def test_conversion_preserves_semantics_exhaustive(system):
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                c = cs.core(p)
                one = at.one_step_of_atoms(system, at.atomic_rex_of_core(c), c.left)
                assert ex.to_multistep(one) == at.factor_through_core(c)
                assert ex.evaluate(one) == c
                assert ex.is_reduced(one)


@pytest.mark.parametrize("system", [cx.type_a(3), cx.type_b(2), cx.dihedral(5)], ids=str)
def test_factor_through_core_exhaustive(system):
    for I in all_subsets(system):
        for J in all_subsets(system):
            for p in cs.enumerate_cosets(system, I, J):
                expr = at.factor_through_core(p)
                assert expr.frames[0] == I and expr.frames[-1] == J
                assert ex.is_reduced(expr)
                assert ex.evaluate(expr) == p


@pytest.mark.parametrize("system", [cx.type_a(2), cx.type_b(2)], ids=str)
def test_reducedness_criteria_agree_on_all_zigzags(system):
    # the ordinary-product length criterion agrees with the star-product
    # length bound, and every elementary [[I < K > J]] is reduced
    from itertools import combinations

    def subsets_of(base):
        base = sorted(base)
        return [frozenset(c) for k in range(len(base) + 1) for c in combinations(base, k)]

    all_subs = subsets_of(system.simple_indices)
    for K1 in all_subs:
        for K2 in all_subs:
            for I0 in subsets_of(K1):
                for I1 in subsets_of(K1 & K2):
                    for I2 in subsets_of(K2):
                        M = ex.MultistepExpression(system, (I0, K1, I1, K2, I2))
                        target = (
                            cs.parabolic_length(system, K1)
                            - cs.parabolic_length(system, I1)
                            + cs.parabolic_length(system, K2)
                        )
                        p = ex.evaluate(M)
                        assert ex.is_reduced(M) == (
                            cx.length(cs.max_elem(p)) == target
                        )
                        reverse = ex.MultistepExpression(system, M.frames[::-1])
                        assert ex.evaluate(reverse) == cs.invert(p)
    for K in all_subs:
        for I in subsets_of(K):
            for J in subsets_of(K):
                assert ex.is_reduced(ex.MultistepExpression(system, (I, K, J)))


def _steps_strategy():
    def walk(ops):
        cur = set()
        steps = []
        for op, i in ops:
            if op == 1 and i not in cur:
                cur.add(i)
                steps.append((1, i))
            elif op == -1 and i in cur:
                cur.remove(i)
                steps.append((-1, i))
        return steps

    return st.lists(
        st.tuples(st.sampled_from((1, -1)), st.integers(min_value=1, max_value=3)),
        max_size=12,
    ).map(walk)


@settings(max_examples=80, deadline=None)
@given(_steps_strategy())
def test_one_step_text_roundtrip(steps):
    system = cx.type_a(3)
    expr = ex.OneStepExpression(system, frozenset(), tuple(steps))
    text = ex.format_expression(expr)
    assert ex.parse_expression(system, text) == expr
