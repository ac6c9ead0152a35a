"""The public surface: every integer argument refuses non-integers."""

import inspect
import typing

import pytest

import stanley
from stanley import (
    Basis,
    StanleyError,
    compose_system,
    family_set,
    generate,
    plan_character,
)

_SEQ = generate([0], count=8)
_SYSTEM = compose_system(family_set(1, "A"))
_PLAN = plan_character(40)

# One valid call per public function or method with an integer argument,
# by keyword.  Every such argument is replaced in turn by each bad value.
BASE_CALLS = {
    "generate": dict(seed=[0], count=5),
    "is_admissible": dict(chosen=[0, 1], candidate=3),
    "character_at": dict(seq=_SEQ, k=2),
    "analyze_independence": dict(seq=_SEQ, max_depth=2),
    "growth_stats": dict(seq=_SEQ, sample_spacing=2),
    "verify_modular": dict(elements=(0, 2, 5, 6), modulus=9),
    "verify_near_modular": dict(elements=(0, 2, 5, 6), modulus=9),
    "zero_sequence_value": dict(n=5),
    "family_modulus": dict(index=1),
    "family_set": dict(index=1, side="A", shift=1),
    "search_near_modular": dict(ell=1, max_element=6, budget=10**4, workers=1),
    "Basis.element": dict(self=Basis((1,)), k=2),
    "expand_basis": dict(b=Basis((1,)), count=4),
    "compose": dict(sys=_SYSTEM, count=4),
    "decompose": dict(value=2, sys=_SYSTEM),
    "expand_modular": dict(elements=(0, 2, 5, 6), modulus=9, count=4),
    "explore_basic_characters": dict(head_length=1, max_entry=3, budget=100, workers=1),
    "plan_character": dict(target=40),
    "realize_plan": dict(plan=_PLAN, count=4),
    "residue_coverage": dict(modulus=6),
    "verify_plan": dict(plan=_PLAN, depth=2),
}

BAD_VALUES = [2.5, True, "3"]


def _public_callables():
    # The functions imported in stanley/__init__.py and the public methods
    # of the classes imported there, by name.
    for name, obj in vars(stanley).items():
        if name.startswith("_") or not getattr(obj, "__module__", "").startswith("stanley."):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def _is_integer(hint) -> bool:
    # int or int | None; Iterable[int] and other containers are not.
    return hint is int or set(typing.get_args(hint)) == {int, type(None)}


INTEGER_PARAMETERS = [
    (name, param)
    for name, fn in _public_callables()
    for param, hint in typing.get_type_hints(fn).items()
    if param != "return" and _is_integer(hint)
]
CALLABLES = dict(_public_callables())


def test_every_base_call_is_valid():
    assert {name for name, _ in INTEGER_PARAMETERS} == set(BASE_CALLS)
    for name, kwargs in BASE_CALLS.items():
        CALLABLES[name](**kwargs)


@pytest.mark.parametrize("bad", BAD_VALUES, ids=["float", "bool", "str"])
@pytest.mark.parametrize(
    "name, param", INTEGER_PARAMETERS, ids=[f"{n}-{p}" for n, p in INTEGER_PARAMETERS]
)
def test_integer_arguments_refuse_non_integers(name, param, bad):
    # A public function with an integer argument and no base call fails
    # here, so the surface cannot grow past the integer rule.
    assert name in BASE_CALLS, f"{name} takes an integer and has no base call"
    kwargs = {**BASE_CALLS[name], param: bad}
    with pytest.raises((ValueError, StanleyError), match="must be a plain integer$"):
        CALLABLES[name](**kwargs)
