"""Subset-sum expansion, composition, and exact decomposition."""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanley import (
    Basis,
    BudgetExceededError,
    ComposedSystem,
    Decomposition,
    DuplicateSumError,
    InvalidSystemError,
    NotModularError,
    NotRepresentableError,
    compose,
    compose_system,
    decompose,
    expand_basis,
    expand_modular,
    family_set,
    generate,
    modularize,
    search_near_modular,
    verify_basis,
    verify_modular,
    zero_sequence_value,
)

from stanley import basis
from stanley.modsets import FAMILY_INDICES
from stanley.cli import main

from .naive import naive_expansion, naive_is_near_modular, naive_subset_sums, naive_verify_basis


def test_basis_element_rules():
    b = Basis((1, 7, 10))
    assert [b.element(k) for k in range(5)] == [1, 7, 10, 27, 81]
    assert b == Basis((1, 7, 10), 27)
    g = Basis((1, 7, 10), 30)
    assert [g.element(k) for k in range(6)] == [1, 7, 10, 30, 90, 270]
    s = Basis((), 9)
    assert [s.element(k) for k in range(3)] == [9, 27, 81]
    with pytest.raises(ValueError):
        b.element(-1)
    with pytest.raises(ValueError):
        Basis((0, 3))
    with pytest.raises(ValueError):
        Basis((1,), 0)


def test_verify_basis_valuations():
    assert verify_basis(Basis((1, 6, 18))).valid
    assert verify_basis(Basis((2, 3, 9))).valid
    bad = verify_basis(Basis((1, 9)))  # 9 has valuation 2 at index 1
    assert not bad.valid and bad.index == 1 and bad.reason == "valuation"
    shifted = verify_basis(Basis((9, 54), 3**4))
    assert shifted.valid
    assert not verify_basis(Basis((3,))).valid


@given(st.data(), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_verify_basis_matches_the_shift_given_oracle(data, shift):
    # Each head entry carries a valuation near the one its index asks for,
    # so valid heads and failures at every index both occur; the shift is
    # given to the oracle and read back from the tail start by verify_basis.
    size = data.draw(st.integers(0, 5))
    head = [
        data.draw(st.integers(1, 40)) * 3 ** max(0, k + shift + data.draw(st.integers(-1, 1)))
        for k in range(size)
    ]
    report = verify_basis(Basis(head, 3 ** (len(head) + shift)))
    assert (report.valid, report.index, report.reason) == naive_verify_basis(head, shift)


def test_verify_basis_geometric_tail():
    # continuing the last head entry is only valid from an exact power
    assert verify_basis(Basis((1, 3), 9)).valid
    rep = verify_basis(Basis((2, 6), 18))
    assert not rep.valid and rep.reason == "tail" and rep.index == 2
    # a head that already breaks valuations reports that first, even
    # when its expansion happens to be a perfectly good greedy sequence
    rep = verify_basis(Basis((1, 7, 10), 30))
    assert not rep.valid and rep.reason == "valuation" and rep.index == 1
    # the shift is read from the tail: 9, 27, 81, ... is the power tail
    # shifted by 2, whatever the head is called
    assert verify_basis(Basis((9,), 27)) == verify_basis(Basis((), 9))
    assert verify_basis(Basis((9,), 27)).valid


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
    # A geometric tail starts at 3 * head[-1]; None starts at 3**len(head).
    got = expand_basis(Basis(head, 3 * head[-1] if geometric else None), count=200)
    assert got == list(generate(seed, count=200).terms)


@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=4, unique=True),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_expansion_matches_itertools(head, data):
    # The tail start is the power start 3**(m + s), the geometric start
    # 3 * head[-1], or any positive integer.
    head = tuple(sorted(head))
    start = data.draw(st.one_of(
        st.integers(0, 3).map(lambda s: 3 ** (len(head) + s)),
        st.just(3 * head[-1]),
        st.integers(1, 300),
    ))
    basis = Basis(head, start)
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


@pytest.mark.parametrize(
    "expand",
    [
        lambda **bounds: expand_basis(Basis((1,)), **bounds),
        lambda **bounds: compose(compose_system(family_set(1, "A")), **bounds),
        lambda **bounds: expand_modular((0, 2, 5, 6), 9, **bounds),
    ],
    ids=["expand_basis", "compose", "expand_modular"],
)
def test_every_expansion_follows_one_bounds_rule(expand):
    with pytest.raises(ValueError, match="need a count bound or a value limit"):
        expand()
    for count in (0, -5):
        with pytest.raises(ValueError, match="count must be positive"):
            expand(count=count)
        with pytest.raises(ValueError, match="count must be positive"):
            expand(count=count, limit=100)
    # The start set is cut at the limit too: no value above it comes back.
    assert expand(limit=-1) == []
    assert expand(count=3, limit=-1) == []
    assert expand(limit=0) == [0]


def test_compose_system_families():
    sys1 = compose_system(family_set(1, "A"))
    assert sys1.n0 == 1
    assert sys1.modulus == 27
    sys_b = compose_system(family_set(1, "B"))
    assert sys_b.modulus == 3 ** (sys_b.n0 + 2)
    # B side peaks at 12, so 3**3 = 27 > 12 + 9 still holds at n0 = 1
    assert sys_b.n0 == 1


def test_compose_system_shifted_needs_larger_block():
    shifted = compose_system(family_set(1, "A", 2))
    # max element 24 pushes past b_1 = 27 <= 24 + 9, so n0 = 2
    assert shifted.n0 == 2
    assert shifted.modulus == 81


def test_compose_system_rejections():
    with pytest.raises(InvalidSystemError, match=r"^set is not near-modular with respect to 3\*\*2: "):
        compose_system((0, 1, 2, 4))
    with pytest.raises(InvalidSystemError, match=r"^basis head invalid at index 0 \(valuation\)$"):
        compose_system(family_set(1, "A"), head=(7,))
    # ell is read off |A|: a prefix of A_3 whose size is not a power of two
    # is refused by its size alone.
    for size in (0, 3, 5, 6, 12):
        with pytest.raises(InvalidSystemError, match=f"^set size {size} is not a power of two$"):
            compose_system(family_set(3, "A")[:size])
    # head is keyword-only, so a stale positional ell fails by name.
    with pytest.raises(TypeError, match="positional argument"):
        compose_system(family_set(1, "A"), 2)


@given(
    st.one_of(
        st.builds(family_set, st.sampled_from((1, 2)), st.sampled_from("AB"), st.integers(0, 3)),
        st.sets(st.integers(0, 30), max_size=9).map(sorted),
    ),
    st.lists(st.tuples(st.sampled_from((1, 2, 3, 4, 5, 7, 8)), st.sampled_from((0, 0, 0, 1))),
             max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_compose_system_accepts_exactly_what_the_naive_rule_accepts(a_set, entries):
    # compose_system accepts when |A| = 2**ell, A is near-modular modulo
    # 3**ell and the head has valuations k + ell.  Head entry k is drawn as
    # l * 3**(k + ell + e), invalid when 3 divides l or e = 1.
    ell = next((e for e in range(5) if 2**e == len(a_set)), None)
    head = tuple(l * 3 ** (k + (ell or 0) + e) for k, (l, e) in enumerate(entries))
    if ell is None:
        refusal = f"set size {len(a_set)} is not a power of two"
    elif not naive_is_near_modular(a_set, 3**ell):
        refusal = "set is not near-modular"
    elif not naive_verify_basis(head, ell)[0]:
        refusal = "basis head invalid"
    else:
        refusal = None
    if refusal is not None:
        with pytest.raises(InvalidSystemError, match=f"^{refusal}"):
            compose_system(a_set, head=head)
        return
    sys_ = compose_system(a_set, head=head)
    assert (sys_.a_set, sys_.basis) == (tuple(a_set), Basis(head, 3 ** (len(head) + ell)))
    b = sys_.basis.element
    n0 = next(n for n in range(1, 64)
              if all(b(k) == 3 ** (k + ell) for k in range(n, len(head)))
              and b(n) > max(a_set) + sum(map(b, range(n))))
    assert sys_.n0 == n0 and sys_.modulus == 3 ** (n0 + ell)
    cover = modularize(sys_)
    assert list(cover.elements) == naive_expansion(a_set, [b(k) for k in range(n0)])


def test_compose_matches_greedy():
    sys1 = compose_system(family_set(1, "A"))
    values = compose(sys1, count=120)
    cover = modularize(sys1)
    assert values == list(generate(cover.elements, count=120).terms)
    assert values[:8] == [0, 2, 5, 6, 9, 11, 14, 15]


def test_compose_limit():
    sys1 = compose_system(family_set(1, "A"))
    by_count = compose(sys1, count=64)
    assert compose(sys1, limit=by_count[-1]) == by_count
    with pytest.raises(ValueError):
        compose(sys1)


def test_modularize_tiles_the_composition():
    for index, side in [(1, "A"), (1, "B"), (2, "A")]:
        sysx = compose_system(family_set(index, side))
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


ORACLE_SYSTEMS = [
    pytest.param(family_set(index, side, shift), (), id=f"{side}{index}-shift{shift}")
    for index in (1, 2)
    for side in ("A", "B")
    for shift in range(4)
] + [
    pytest.param((0,), head, id="head-" + "-".join(map(str, head)))
    for head in ((1,), (2, 6), (4, 6), (5, 15), (2, 6, 36))
]


def assert_matches_reference(expand, reference, horizon):
    # reference holds every value below horizon: compare count only, limit
    # only, and both, with limits that cut the start set as well.
    exact = [v for v in reference if v < horizon]
    assert len(set(exact)) == len(exact)
    n = len(exact)
    for count in (1, 5, n // 3, n):
        assert expand(count=count) == exact[:count]
    assert expand(limit=horizon - 1) == exact
    assert expand(limit=0) == [0]
    for count, limit in [
        (1, horizon - 1),
        (n // 2, exact[n // 3]),
        (n, exact[n // 2] - 1),
        (n // 4, exact[-1]),
        (5, exact[3]),
    ]:
        assert expand(count=count, limit=limit) == [v for v in exact if v <= limit][:count]


@pytest.mark.parametrize("elements,head", ORACLE_SYSTEMS)
def test_compose_modularize_and_expand_modular_match_the_naive_expansion(elements, head):
    sys_ = compose_system(elements, head=head)
    window = [sys_.basis.element(k) for k in range(6)]
    assert_matches_reference(
        lambda **bounds: compose(sys_, **bounds),
        naive_expansion(sys_.a_set, window),
        sys_.basis.element(6),
    )
    cover = modularize(sys_)
    assert list(cover.elements) == naive_expansion(sys_.a_set, window[: sys_.n0])
    powers = [cover.modulus * 3**k for k in range(4)]
    assert_matches_reference(
        lambda **bounds: expand_modular(cover.elements, cover.modulus, **bounds),
        naive_expansion(cover.elements, powers),
        cover.modulus * 3**4,
    )


def test_modularize_refuses_covers_past_the_cap(monkeypatch):
    # The check reads |A| * 2**n0 off the system: the cap itself passes,
    # one doubling past it raises before the certificate runs.
    sys2 = compose_system(family_set(2, "A"))
    size = len(sys2.a_set) << sys2.n0
    monkeypatch.setattr(basis, "COVER_CAP", size)
    assert len(modularize(sys2).elements) == size
    monkeypatch.setattr(basis, "COVER_CAP", size // 2)
    monkeypatch.setattr(basis, "_cover_certificate", None)
    with pytest.raises(BudgetExceededError, match=f"cover of {size} elements exceeds the cap of {size // 2}"):
        modularize(sys2)


def test_modularize_raises_when_the_cover_fails_its_check(monkeypatch, capsys):
    # Every valid system's cover passes the level certificate, so the
    # failure is forced: the certificate refuses, and modularize, which
    # proves a cover no other way, names the modulus.
    monkeypatch.setattr(basis, "_cover_certificate", lambda a_set, steps, modulus: None)
    message = "the level certificate refuses the cover modulo 9"
    # The CLI reports it as a negative finding.
    assert main(["character", "--lambda", "8"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # It neither sums the cover nor checks its pairs.
    monkeypatch.setattr(basis, "_expand", _refuse)
    monkeypatch.setattr(basis, "verify_modular", _refuse)
    with pytest.raises(NotModularError, match=f"^{message}$"):
        modularize(compose_system((0,), head=(2, 6)))


def _refuse(*args):
    raise AssertionError("not called on this path")


def test_modularize_takes_every_cover_from_the_certificate(monkeypatch):
    # The certificate builds the cover and proves it: the merge kernel and
    # the pairwise check are not called, and the cover is every sum of A
    # over b_0, ..., b_{n0-1}.
    calls = []

    def certificate_spy(a_set, steps, modulus):
        calls.append((a_set, tuple(steps), modulus))
        return certificate(a_set, steps, modulus)

    certificate = basis._cover_certificate
    monkeypatch.setattr(basis, "_cover_certificate", certificate_spy)
    monkeypatch.setattr(basis, "_expand", _refuse)
    monkeypatch.setattr(basis, "verify_modular", _refuse)
    sys1 = compose_system(family_set(2, "A", 3))
    prefix = tuple(sys1.basis.element(k) for k in range(sys1.n0))
    cover = modularize(sys1)
    assert calls == [(sys1.a_set, prefix, sys1.modulus)]
    assert list(cover.elements) == naive_expansion(sys1.a_set, prefix)


HAND_BUILT = [
    # Once built directly with a chosen basis and n0, past compose_system's
    # checks; now the constructor runs them and refuses each.
    pytest.param((1, 2), (), "set is not near-modular with respect to 3**1: "
                 "ModSetViolation(kind='missing-zero', details=())", id="no-zero"),
    pytest.param((0, 1), (4,), "basis head invalid at index 0 (valuation)", id="head-4"),
    pytest.param((0,), (1, 2), "basis head invalid at index 1 (valuation)", id="head-1-2"),
    # decompose once raised a raw ZeroDivisionError for this head under
    # the tail start 1.
    pytest.param((0,), (3,), "basis head invalid at index 0 (valuation)", id="head-3"),
]


@pytest.mark.parametrize("a_set,head,message", HAND_BUILT)
def test_hand_built_systems_that_break_an_invariant_are_refused(a_set, head, message):
    for build in (lambda: ComposedSystem(a_set, head), lambda: compose_system(a_set, head=head)):
        with pytest.raises(InvalidSystemError) as err:
            build()
        assert str(err.value) == message


NOT_MODULAR_COVERS = [
    # (0, 10) with n0 = 1: the cover 0, 3, 10, 13 sticks out of [0, 9).
    ((0, 10), 1, (), 1, "9: ModSetViolation(kind='out-of-range', details=(10, 13))"),
    # (0, 1) over 3**(k + 40): four elements cannot cover 3**41 residues,
    # and both checks refuse before any 3**41-entry table is allocated.
    ((0, 1), 40, (), 1,
     f"{3**41}: ModSetViolation(kind='uncovered-residue', details=(3,))"),
]


# The ids are those these cases had when such systems could be built.
@pytest.mark.parametrize(
    "a_set,ell,head,n0,violation",
    [pytest.param(*case, id=f"a_set{i}-{case[1]}-head{i}-{case[3]}-{case[4]}")
     for i, case in zip((0, 4), NOT_MODULAR_COVERS)],
)
def test_hand_built_systems_that_are_not_modular_name_their_violation(a_set, ell, head, n0, violation):
    # Neither system can be written any more: ell is read off |A| and n0 is
    # derived.  The cover each would have had, every sum of A over
    # b_0, ..., b_{n0-1} taken modulo b_{n0}, is refused by the level
    # certificate, and the exact check names the violation.
    old_basis = Basis(head, 3 ** (len(head) + ell))
    prefix = [old_basis.element(k) for k in range(n0)]
    modulus = old_basis.element(n0)
    cover = sorted(a + s for a in a_set for s in naive_subset_sums(prefix))
    assert basis._cover_certificate(a_set, prefix, modulus) is None
    with pytest.raises(NotModularError) as err:
        expand_modular(cover, modulus, count=1)
    assert str(err.value) == f"set is not modular with respect to {violation}"
    assert err.value.report.verdict == "invalid"
    # The system built from the same set and head derives its own ell and
    # n0, and its cover is modular.
    derived = ComposedSystem(a_set, head)
    assert (len(derived.a_set).bit_length() - 1, derived.n0) != (ell, n0)
    assert modularize(derived).verdict == "modular"


def test_a_system_is_given_only_its_set_and_head():
    # basis and n0 are derived: fields, repr and equality read them, but no
    # caller can give them, so the cases below can no longer be written.
    assert [f.name for f in dataclasses.fields(ComposedSystem)] == ["a_set", "basis", "n0"]
    # (0, 10) with n0 = 1 had the cover 0, 3, 10, 13, out of range mod 9.
    # Derived, n0 = 2 (b_1 = 9 <= 10 + 3), and the cover is modular mod 27.
    wide = ComposedSystem((0, 10))
    assert (wide.basis, wide.n0, wide.modulus) == (Basis((), 3), 2, 27)
    assert modularize(wide).elements == (0, 3, 9, 10, 12, 13, 19, 22)
    for v in compose(wide, count=100):
        assert decompose(v, wide).value(wide) == v
    # ell is read off |A|: (0, 1) composes over 3**(k + 1), never 3**(k + 40).
    assert ComposedSystem((0, 1)).basis == Basis((), 3)
    # decompose once answered these wrongly: a raw ZeroDivisionError under
    # Basis((3,), 1), and NotRepresentableError for 10 under Basis((1,), 10)
    # although compose listed 10.  Neither basis can be given.
    for given_basis in (Basis((3,), 1), Basis((1,), 10)):
        with pytest.raises(TypeError, match="positional arguments"):
            ComposedSystem((0,), given_basis, 1)
        with pytest.raises(TypeError, match="unexpected keyword argument 'basis'"):
            ComposedSystem((0,), basis=given_basis)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(wide, basis=given_basis)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(wide, n0=1)
    plain = ComposedSystem((0,), (1,))
    assert plain.basis == Basis((1,), 3) and decompose(10, plain) == Decomposition(0, (1, 0, 1))
    # replace rebuilds from the system's own head, and checks it again.
    headed = ComposedSystem((0,), (2, 6))
    assert headed.head == (2, 6) and dataclasses.replace(headed) == headed
    with pytest.raises(InvalidSystemError, match=r"^basis head invalid at index 0 \(valuation\)$"):
        dataclasses.replace(headed, a_set=(0, 2, 5, 6))


def test_hand_built_systems_with_a_collision_raise():
    # Both were once built past compose_system's checks, and each reached
    # one value twice: 9 = 9 + 0 = 0 + b_1 in the composition, and
    # 3 = 3 + 0 = 0 + b_0 in the cover.  Their elements share a residue
    # mod 3, so the constructor refuses them as compose_system does.
    for a_set in ((0, 9), (0, 3)):
        message = (f"set is not near-modular with respect to 3**1: "
                   f"ModSetViolation(kind='mod-ap', details=(0, {a_set[1]}, {a_set[1]}))")
        for build in (ComposedSystem, compose_system):
            with pytest.raises(InvalidSystemError) as err:
                build(a_set)
            assert str(err.value) == message


@functools.cache
def _searched_sets():
    # Every set search_near_modular finds at ell = 1 (4 elements mod 9) up
    # to 8, and at ell = 2 (8 elements mod 27) up to 30, where those past
    # 26 are near-modular only.
    return [s.elements for ell, top in ((1, 8), (2, 30))
            for m in range(top + 1) for s in search_near_modular(ell, m)]


def test_searched_sets_include_near_modular_only_ones():
    sets = _searched_sets()
    assert len(sets) == 242
    assert sum(max(s) >= 27 for s in sets if len(s) == 8) == 116


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_cover_certificate_accepts_every_valid_system(data):
    # modularize has no other way to prove a cover, so the certificate
    # must accept every valid system's: family sets with their shifts,
    # searched sets, (0,), each with a random valid head (entry k is
    # l * 3**(k + ell) with 3 not dividing l; l = 1 is the exact power).
    a_set = data.draw(st.one_of(
        st.builds(family_set, st.sampled_from(FAMILY_INDICES), st.sampled_from("AB"),
                  st.integers(0, 3)),
        st.sampled_from(_searched_sets()),
        st.just((0,)),
    ))
    ell = len(a_set).bit_length() - 1
    size = data.draw(st.integers(0, 3))
    head = tuple(data.draw(st.sampled_from((1, 2, 4, 5, 7, 8))) * 3 ** (k + ell)
                 for k in range(size))
    sys_ = ComposedSystem(a_set, head)
    assert sys_ == compose_system(a_set, head=head)
    prefix = [sys_.basis.element(k) for k in range(sys_.n0)]
    cover = basis._cover_certificate(sys_.a_set, prefix, sys_.modulus)
    assert cover is not None
    assert list(cover) == naive_expansion(sys_.a_set, prefix)


def test_decompose_known_value():
    sys1 = compose_system(family_set(1, "A"))
    # 29 = 2 + 27 = 2 + b_1, so delta hits only index 1
    dec = decompose(29, sys1)
    assert dec.a == 2
    assert dec.delta == (0, 1)
    assert dec.value(sys1) == 29


def test_decompose_round_trip_full_prefix():
    sys1 = compose_system(family_set(1, "A"))
    for v in compose(sys1, count=300):
        assert decompose(v, sys1).value(sys1) == v


def test_ell_zero_system_is_the_plain_basis_expansion():
    head = (2, 6)
    sys0 = compose_system((0,), head=head)
    values = compose(sys0, count=200)
    assert values == expand_basis(Basis(head), count=200)
    assert compose(sys0, limit=values[-1]) == expand_basis(Basis(head), limit=values[-1])
    cover = modularize(sys0)
    assert (cover.elements, cover.modulus) == ((0, 2, 6, 8), 9)
    members = set(values)
    for v in range(values[-1]):
        if v in members:
            dec = decompose(v, sys0)
            assert dec.a == 0 and dec.value(sys0) == v
        else:
            with pytest.raises(NotRepresentableError):
                decompose(v, sys0)


def test_decompose_rejects_non_members():
    sys1 = compose_system(family_set(1, "A"))
    members = set(compose(sys1, count=200))
    for v in range(200):
        if v in members:
            continue
        with pytest.raises(NotRepresentableError):
            decompose(v, sys1)
    with pytest.raises(NotRepresentableError):
        decompose(-5, sys1)


def test_decompose_refuses_a_rest_that_turns_negative():
    # 1 = b_0 = 4 (mod 3), so delta_0 = 1 is pinned, but 1 - 4 < 0.
    with pytest.raises(NotRepresentableError, match=r"^1 is not a member value$"):
        decompose(1, compose_system((0,), head=(4,)))


@given(st.integers(0, 2**40))
@settings(max_examples=100, deadline=None)
def test_decompose_recompose_is_identity_on_members(bits):
    sys1 = compose_system(family_set(1, "A"))
    # build a member value directly from random delta bits
    a = sys1.a_set[bits % len(sys1.a_set)]
    delta = tuple((bits >> k) & 1 for k in range(20))
    value = a + sum(sys1.basis.element(k) for k, d in enumerate(delta) if d)
    dec = decompose(value, sys1)
    assert dec.value(sys1) == value
    assert dec.a == a
    trimmed = delta
    while trimmed and trimmed[-1] == 0:
        trimmed = trimmed[:-1]
    assert dec.delta == trimmed


def test_decompose_beyond_eighty_levels():
    # 3**102 is basis element 100 of this system, 101 levels deep.
    sys1 = compose_system(family_set(1, "A"))
    value = 6 + 3**102
    dec = decompose(value, sys1)
    assert dec.a == 6 and dec.delta == (0,) * 100 + (1,)
    assert dec.value(sys1) == value


def test_decomposition_value_helper():
    sys1 = compose_system(family_set(1, "A"))
    assert Decomposition(a=5, delta=(1, 0, 1)).value(sys1) == 5 + 9 + 81
