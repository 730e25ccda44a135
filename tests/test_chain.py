import math
import random
from fractions import Fraction

import pytest

from unitprod import chain as chain_module
from unitprod.arith import is_prime, next_prime
from unitprod.chain import (
    MODES,
    BuilderConfig,
    Chain,
    TargetPoint,
    build_chain,
    chain_is_valid,
    faithful_parameters,
)
from unitprod.errors import EscalationExhausted, NoCandidate


def rand_target(rng, n, max_den=1000):
    coords = []
    for _ in range(n):
        d = rng.randint(1, max_den)
        coords.append(Fraction(rng.randint(0, d), d))
    return TargetPoint(tuple(coords))


# ---------------------------------------------------------------- types

def test_target_point_validation():
    TargetPoint((Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        TargetPoint((Fraction(1, 2),))
    with pytest.raises(ValueError):
        TargetPoint((Fraction(1, 2), Fraction(3, 2)))


def test_chain_shape():
    c = Chain((1, 2, 3, 5))
    assert c.n == 3
    assert c.fractions == (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5))
    with pytest.raises(ValueError):
        Chain((1, 2))
    with pytest.raises(ValueError):
        Chain((0, 2, 3))


def test_builder_config_validation():
    with pytest.raises(ValueError):
        BuilderConfig(mode="other")


# ---------------------------------------------------------------- chain_is_valid

def test_chain_is_valid_examples():
    assert chain_is_valid((1, 2, 3, 5))
    assert not chain_is_valid((1, 2, 4, 6))  # gcd(2, 24) = 2
    assert not chain_is_valid((2, 2, 3, 5))  # not increasing
    assert not chain_is_valid((1, 2))
    assert not chain_is_valid((1, 2, 4))  # gcd(2, 4) = 2


# ---------------------------------------------------------------- build_chain

def test_build_chain_worked_example():
    target = TargetPoint((Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)))
    chain = build_chain(target, Fraction(1, 10))
    assert chain_is_valid(chain.a)
    assert all(
        abs(t - f) < Fraction(1, 10)
        for t, f in zip(target.coords, chain.fractions)
    )
    # the minimal deterministic run lands exactly here
    assert chain.a == (1, 2, 3, 5)


def test_build_chain_full_tolerance():
    target = TargetPoint((Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)))
    chain = build_chain(target, 1)
    assert chain_is_valid(chain.a)
    assert all(abs(t - f) < 1 for t, f in zip(target.coords, chain.fractions))


def test_build_chain_zero_target():
    chain = build_chain(TargetPoint((0, 0, 0)), Fraction(1, 10))
    assert chain_is_valid(chain.a)
    assert all(f < Fraction(1, 10) for f in chain.fractions)
    assert all(f > 0 for f in chain.fractions)


def test_build_chain_one_target():
    chain = build_chain(TargetPoint((1, 1, 1)), Fraction(1, 10))
    assert chain_is_valid(chain.a)
    assert all(f > Fraction(9, 10) for f in chain.fractions)


def test_build_chain_dimension_two():
    chain = build_chain(TargetPoint((Fraction(1, 3), Fraction(4, 7))), Fraction(1, 10))
    assert chain.n == 2
    assert chain_is_valid(chain.a)


def test_build_chain_random_instances():
    rng = random.Random(3001)
    for _ in range(200):
        n = rng.choice((3, 4))
        eps = rng.choice((Fraction(1, 10), Fraction(1, 100)))
        target = rand_target(rng, n)
        chain = build_chain(target, eps)
        assert chain_is_valid(chain.a)
        assert all(
            abs(t - f) < eps for t, f in zip(target.coords, chain.fractions)
        )
        # monotone growth and a prime in the expected slot
        assert all(chain.a[i] < chain.a[i + 1] for i in range(chain.n))
        assert is_prime(chain.a[n - 1])


def test_build_chain_deterministic():
    target = TargetPoint((Fraction(3, 7), Fraction(1, 9), Fraction(9, 11)))
    first = build_chain(target, Fraction(1, 100))
    second = build_chain(target, Fraction(1, 100))
    assert first == second


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("eps,n", [(Fraction(1), 2), (Fraction(1, 10), 3), (Fraction(1, 1000), 5)])
def test_build_chain_floor_ladder(monkeypatch, mode, eps, n):
    floors = []

    def failing(target, eps, prime_floor):
        floors.append(prime_floor)
        raise NoCandidate(f"forced at floor {prime_floor}")

    monkeypatch.setattr(chain_module, "_attempt_chain", failing)
    faithful_floor = faithful_parameters(eps, n)[1]
    message = f"faithful floor {faithful_floor}: forced at floor {faithful_floor}$"
    with pytest.raises(EscalationExhausted, match=message):
        build_chain(TargetPoint((Fraction(1, 2),) * n), eps, BuilderConfig(mode))
    # search mode doubles from 3 while below the faithful floor, then tries
    # that floor; faithful mode tries it alone
    below = [3 * 2**k for k in range(faithful_floor.bit_length()) if 3 * 2**k < faithful_floor]
    assert floors == (below if mode == "search" else []) + [faithful_floor]


def test_one_denominator_search_per_attempt(monkeypatch):
    # the benchmark's trace counts attempts as find_denominator_for_prime calls
    per_attempt = []  # find_denominator_for_prime calls of each attempt
    attempt = chain_module._attempt_chain
    search = chain_module.find_denominator_for_prime

    def counted_attempt(*args):
        per_attempt.append(0)
        return attempt(*args)

    def counted_search(*args):
        per_attempt[-1] += 1
        return search(*args)

    monkeypatch.setattr(chain_module, "_attempt_chain", counted_attempt)
    monkeypatch.setattr(chain_module, "find_denominator_for_prime", counted_search)
    rng = random.Random(3002)
    for _ in range(50):
        n = rng.choice((2, 3, 5, 8))
        eps = rng.choice((Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)))
        before = len(per_attempt)
        build_chain(rand_target(rng, n), eps)
        assert len(per_attempt) > before
    assert per_attempt == [1] * len(per_attempt)
    assert len(per_attempt) > 100  # most targets needed more than one attempt


def test_search_mode_defers_faithful_parameters(monkeypatch):
    def unused(eps, n):
        raise AssertionError("faithful_parameters called below the cheap bound")

    # the worked example succeeds at floor 3, far below (2/eps)^(n-2) * 4/eps
    monkeypatch.setattr(chain_module, "faithful_parameters", unused)
    target = TargetPoint((Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)))
    assert build_chain(target, Fraction(1, 10)).a == (1, 2, 3, 5)


def rand_edge_target(rng, n):
    # one coordinate in five sits exactly at 0 or 1
    coords = rand_target(rng, n).coords
    return TargetPoint(tuple(rng.randint(0, 1) if rng.random() < 0.2 else c for c in coords))


def test_attempt_at_faithful_floor_succeeds():
    rng = random.Random(6001)
    for _ in range(100):
        n = rng.choice((2, 3, 4, 5, 8))
        eps = rng.choice((Fraction(1), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)))
        target = rand_edge_target(rng, n)
        faithful_floor = faithful_parameters(eps, n)[1]
        chain = chain_module._attempt_chain(target, eps, faithful_floor)
        assert chain_is_valid(chain.a)
        assert all(abs(t - f) < eps for t, f in zip(target.coords, chain.fractions))
        assert chain.a[n - 1] >= faithful_floor


def test_cheap_bound_below_faithful_floor():
    rng = random.Random(6002)
    for _ in range(30):
        n = rng.choice((2, 3, 4, 5, 8))
        eps = Fraction(rng.randint(1, 3), rng.randint(3, 3000))
        assert (2 / eps) ** (n - 2) * 4 / eps < faithful_parameters(eps, n)[1]


@pytest.mark.parametrize(
    "coords, term",
    [
        ((Fraction(1, 2), 0, Fraction(1, 2)), "a1"),  # modulus a2*a3
        ((Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)), "a2"),  # modulus a3
    ],
)
def test_attempt_chain_collapse(coords, term):
    with pytest.raises(NoCandidate, match=f"^term {term} collapsed to 1 at floor 24$"):
        chain_module._attempt_chain(TargetPoint(coords), Fraction(1, 20), 24)


# ---------------------------------------------------------------- faithful mode

def _primorials(limit):
    result, product, p = [], 1, 2
    while True:
        product *= p
        if product > limit:
            return result
        result.append(product)
        p = next_prime(p + 1)


def _omega_cap(limit):
    return len(_primorials(limit))


def _faithful_conditions_hold(m, eps, n):
    # independent re-evaluation of the three documented conditions
    if not m > 4 / eps:
        return False
    k = 1
    while True:
        threshold = 2 * (2**k + 1) / eps
        primorial = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31][:k])
        if primorial > threshold:
            break
        if not m > threshold:
            return False
        k += 1
    if n >= 3:
        prime_floor = math.ceil((2 / eps) ** (n - 2) * m)
        top = math.floor(((4 / eps) * prime_floor) ** (n - 1))
        if not m > 2 ** _omega_cap(top) + 1:
            return False
    return True


@pytest.mark.parametrize(
    "eps,n,m_floor,growth",
    [
        (Fraction(1), 3, 5, 2),
        (Fraction(1, 2), 3, 9, 4),
        (Fraction(1), 2, 11, 1),
    ],
)
def test_faithful_parameters_examples(eps, n, m_floor, growth):
    m, prime_floor = faithful_parameters(eps, n)
    assert m >= m_floor
    assert prime_floor == math.ceil((2 / eps) ** (n - 2) * m)
    assert prime_floor == growth * m
    assert _faithful_conditions_hold(m, eps, n)
    assert not _faithful_conditions_hold(m - 1, eps, n)


def test_faithful_mode_builds():
    target = TargetPoint((Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)))
    config = BuilderConfig(mode="faithful")
    chain = build_chain(target, Fraction(1, 2), config)
    assert chain_is_valid(chain.a)
    _, floor = faithful_parameters(Fraction(1, 2), 3)
    assert chain.a[2] >= floor  # the prime honors the faithful floor
    assert all(
        abs(t - f) < Fraction(1, 2)
        for t, f in zip(target.coords, chain.fractions)
    )
