"""Subset-sum expansion, composition, and exact decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import (
    Basis,
    Decomposition,
    DuplicateSumError,
    InvalidSystemError,
    NotRepresentableError,
    compose,
    compose_system,
    decompose,
    expand_basis,
    family_set,
    generate,
    modularize,
    recompose,
    verify_basis,
    verify_modular,
    zero_sequence_value,
)

from .naive import naive_subset_sums


def test_basis_element_rules():
    b = Basis((1, 7, 10))
    assert [b.element(k) for k in range(5)] == [1, 7, 10, 27, 81]
    g = Basis((1, 7, 10), geometric_tail=True)
    assert [g.element(k) for k in range(6)] == [1, 7, 10, 30, 90, 270]
    s = Basis((), shift=2)
    assert [s.element(k) for k in range(3)] == [9, 27, 81]
    with pytest.raises(ValueError):
        b.element(-1)
    with pytest.raises(ValueError):
        Basis((0, 3))
    with pytest.raises(ValueError):
        Basis((), geometric_tail=True)


def test_verify_basis_valuations():
    assert verify_basis(Basis((1, 6, 18))).valid
    assert verify_basis(Basis((2, 3, 9))).valid
    bad = verify_basis(Basis((1, 9)))  # 9 has valuation 2 at index 1
    assert not bad.valid and bad.index == 1 and bad.reason == "valuation"
    shifted = verify_basis(Basis((9, 54), shift=2))
    assert shifted.valid
    assert not verify_basis(Basis((3,))).valid


def test_verify_basis_geometric_tail():
    # geometric continuation is only valid from an exact power
    assert verify_basis(Basis((1, 3), geometric_tail=True)).valid
    rep = verify_basis(Basis((2, 6), geometric_tail=True))
    assert not rep.valid and rep.reason == "tail" and rep.index == 2
    # a head that already breaks valuations reports that first, even
    # when its expansion happens to be a perfectly good greedy sequence
    rep = verify_basis(Basis((1, 7, 10), geometric_tail=True))
    assert not rep.valid and rep.reason == "valuation" and rep.index == 1


def test_expand_matches_zero_sequence():
    assert expand_basis(Basis((1,)), count=64) == [
        zero_sequence_value(n) for n in range(64)
    ]


@pytest.mark.parametrize(
    "head,geometric,seed",
    [
        ((1,), False, (0,)),
        ((2,), False, (0, 2)),
        ((2, 6), False, (0, 2, 6, 8)),
        ((1, 7, 10), True, (0, 1, 7)),
        # these two need their dominance-boundary cover as the seed: the
        # four smallest sums alone fail to block 11 and 10 respectively
        ((4, 6), False, (0, 4, 6, 9, 10, 13, 15, 19)),
        ((5, 6), False, (0, 5, 6, 9, 11, 14, 15, 20)),
    ],
)
def test_expansions_are_greedy_sequences(head, geometric, seed):
    got = expand_basis(Basis(head, geometric_tail=geometric), count=200)
    assert got == list(generate(seed, count=200).terms)


@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_expansion_matches_itertools(head, geometric):
    head = tuple(sorted(head))
    basis = Basis(head, geometric_tail=geometric)
    window = [basis.element(k) for k in range(len(head) + 3)]
    reference = naive_subset_sums(window)
    if len(set(reference)) != len(reference):
        with pytest.raises(DuplicateSumError):
            expand_basis(basis, count=len(reference))
        return
    # no collision in the window: leading sums must agree exactly while
    # they stay below the next unexpanded element
    horizon = basis.element(len(window))
    safe = [v for v in reference if v < horizon]
    got = expand_basis(basis, count=len(safe))
    assert got == safe


def test_expand_count_and_limit_agree():
    b = Basis((2, 6))
    by_count = expand_basis(b, count=100)
    by_limit = expand_basis(b, limit=by_count[-1])
    assert by_limit == by_count
    both = expand_basis(b, count=7, limit=10**9)
    assert both == by_count[:7]
    assert expand_basis(b, limit=0) == [0]
    with pytest.raises(ValueError):
        expand_basis(b)
    with pytest.raises(ValueError):
        expand_basis(b, count=0)


def test_expand_collision_detection():
    # 1 + 2 = 3: two distinct subsets, same sum
    with pytest.raises(DuplicateSumError):
        expand_basis(Basis((1, 2, 3)), count=8)


def test_compose_system_families():
    sys1 = compose_system(family_set(1, "A"), ell=2)
    assert sys1.n0 == 1
    assert sys1.modulus == 27
    sys_b = compose_system(family_set(1, "B"), ell=2)
    assert sys_b.modulus == 3 ** (sys_b.n0 + 2)
    # B side peaks at 12, so 3**3 = 27 > 12 + 9 still holds at n0 = 1
    assert sys_b.n0 == 1


def test_compose_system_shifted_needs_larger_block():
    shifted = compose_system(family_set(1, "A", 2), ell=2)
    # max element 24 pushes past b_1 = 27 <= 24 + 9, so n0 = 2
    assert shifted.n0 == 2
    assert shifted.modulus == 81


def test_compose_system_rejections():
    with pytest.raises(InvalidSystemError):
        compose_system((0, 2, 5, 6), ell=1)  # wrong cardinality
    with pytest.raises(InvalidSystemError):
        compose_system((0, 1, 2, 4), ell=2)  # not near-modular
    with pytest.raises(InvalidSystemError):
        compose_system(family_set(1, "A"), ell=2, head=(7,))  # bad valuation
    with pytest.raises(InvalidSystemError, match="differs from 2"):
        compose_system((0, 2, 5, 6), ell=0)
    with pytest.raises(InvalidSystemError, match="nonnegative"):
        compose_system((0,), ell=-1)


def test_compose_matches_greedy():
    sys1 = compose_system(family_set(1, "A"), ell=2)
    values = compose(sys1, count=120)
    cover = modularize(sys1)
    assert values == list(generate(cover.elements, count=120).terms)
    assert values[:8] == [0, 2, 5, 6, 9, 11, 14, 15]


def test_compose_limit():
    sys1 = compose_system(family_set(1, "A"), ell=2)
    by_count = compose(sys1, count=64)
    assert compose(sys1, limit=by_count[-1]) == by_count
    with pytest.raises(ValueError):
        compose(sys1)


def test_modularize_tiles_the_composition():
    for index, side in [(1, "A"), (1, "B"), (2, "A")]:
        sysx = compose_system(family_set(index, side), ell=index + 1)
        cover = modularize(sysx)
        assert verify_modular(cover.elements, cover.modulus).verdict == "modular"
        assert len(cover.elements) == 2 ** (index + 1 + sysx.n0)
        # block tiling: full composition = cover + modulus * S(0)
        comp = compose(sysx, count=4 * len(cover.elements))
        tiled = sorted(
            c + cover.modulus * zero_sequence_value(q)
            for q in range(4)
            for c in cover.elements
        )
        assert comp == tiled


def test_decompose_known_value():
    sys1 = compose_system(family_set(1, "A"), ell=2)
    # 29 = 2 + 27 = 2 + b_1, so delta hits only index 1
    dec = decompose(29, sys1)
    assert dec.a == 2
    assert dec.delta == (0, 1)
    assert recompose(dec, sys1) == 29


def test_decompose_round_trip_full_prefix():
    sys1 = compose_system(family_set(1, "A"), ell=2)
    for v in compose(sys1, count=300):
        assert recompose(decompose(v, sys1), sys1) == v


def test_ell_zero_system_is_the_plain_basis_expansion():
    head = (2, 6)
    sys0 = compose_system((0,), ell=0, head=head)
    values = compose(sys0, count=200)
    assert values == expand_basis(Basis(head), count=200)
    assert compose(sys0, limit=values[-1]) == expand_basis(Basis(head), limit=values[-1])
    cover = modularize(sys0)
    assert (cover.elements, cover.modulus) == ((0, 2, 6, 8), 9)
    members = set(values)
    for v in range(values[-1]):
        if v in members:
            dec = decompose(v, sys0)
            assert dec.a == 0 and recompose(dec, sys0) == v
        else:
            with pytest.raises(NotRepresentableError):
                decompose(v, sys0)


def test_decompose_rejects_non_members():
    sys1 = compose_system(family_set(1, "A"), ell=2)
    members = set(compose(sys1, count=200))
    for v in range(200):
        if v in members:
            continue
        with pytest.raises(NotRepresentableError):
            decompose(v, sys1)
    with pytest.raises(NotRepresentableError):
        decompose(-5, sys1)


@given(st.integers(0, 2**40))
@settings(max_examples=100, deadline=None)
def test_decompose_recompose_is_identity_on_members(bits):
    sys1 = compose_system(family_set(1, "A"), ell=2)
    # build a member value directly from random delta bits
    a = sys1.a_set[bits % len(sys1.a_set)]
    delta = tuple((bits >> k) & 1 for k in range(20))
    value = a + sum(sys1.basis.element(k) for k, d in enumerate(delta) if d)
    dec = decompose(value, sys1)
    assert recompose(dec, sys1) == value
    assert dec.a == a
    trimmed = delta
    while trimmed and trimmed[-1] == 0:
        trimmed = trimmed[:-1]
    assert dec.delta == trimmed


def test_decompose_beyond_eighty_levels():
    # 3**102 is basis element 100 of this system, 101 levels deep.
    sys1 = compose_system(family_set(1, "A"), ell=2)
    value = 6 + 3**102
    dec = decompose(value, sys1)
    assert dec.a == 6 and dec.delta == (0,) * 100 + (1,)
    assert recompose(dec, sys1) == value


def test_decomposition_value_helper():
    sys1 = compose_system(family_set(1, "A"), ell=2)
    assert Decomposition(a=5, delta=(1, 0, 1)).value(sys1) == 5 + 9 + 81
