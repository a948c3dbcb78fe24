"""Substitution combinatorics, gates, and Perron data."""

import random
from fractions import Fraction

import pytest

from pisotile import (
    GroupG,
    NotPisotError,
    Substitution,
    SubstitutionError,
    TilingSystem,
    dekking_column_check,
    fixed_point_seed,
    group_G,
    is_irreducible,
    is_primitive,
    perron_data,
    power,
)
from oracles import fixed_point_seed_reference, random_substitutions, return_words
from pisotile.substitution import char_poly, legal_pairs, matrix

FIB = Substitution(2, ((1, 2), (1,)))
TM = Substitution(2, ((1, 2), (2, 1)))
PD = Substitution(2, ((1, 2), (1, 1)))
TRIB = Substitution(3, ((1, 2), (1, 3), (1,)))


def test_validation():
    with pytest.raises(SubstitutionError):
        Substitution(2, ((1, 2),))  # wrong arity
    with pytest.raises(SubstitutionError):
        Substitution(2, ((1, 3), (1,)))  # letter out of range
    with pytest.raises(SubstitutionError):
        Substitution(2, ((), (1,)))  # empty rule


def test_apply_and_matrix():
    assert FIB.apply((1,)) == (1, 2)
    assert FIB.apply((1, 2)) == (1, 2, 1)
    assert matrix(FIB) == [[1, 1], [1, 0]]
    assert matrix(TM) == [[1, 1], [1, 1]]
    assert matrix(TRIB) == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]


def test_primitivity():
    assert is_primitive(matrix(FIB))
    assert is_primitive(matrix(TM))
    assert not is_primitive([[1, 0], [0, 1]])
    assert not is_primitive([[0, 1], [1, 0]])  # periodic, never positive


def test_irreducibility():
    assert is_irreducible(FIB)
    assert is_irreducible(TRIB)
    assert not is_irreducible(TM)  # (x-2)(x-1)


def test_return_words():
    # The Fibonacci word 1211212112...: 1 returns after 1 or 12, 2 after
    # 211 or 21.
    assert return_words(FIB, 1) == {(1,), (1, 2)}
    assert return_words(FIB, 2) == {(2, 1), (2, 1, 1)}
    # Against a scan of long words of the language: every return word to a
    # inside sigma^k(c), for k with 3000 letters or more.  The lengths of
    # the return words generate the translation module that group_G reads
    # off sigma^k of the legal pairs.
    for s in (FIB, TM, PD, TRIB, Substitution(2, ((1, 1, 2), (1, 2))),
              Substitution(3, ((2, 3, 1), (1, 2), (2,)))):
        system, lengths = TilingSystem(s), set()
        for a in range(1, s.m + 1):
            seen = set()
            for c in range(1, s.m + 1):
                w = (c,)
                while len(w) < 3000:
                    w = s.apply(w)
                at = [i for i, b in enumerate(w) if b == a]
                seen.update(w[i:j] for i, j in zip(at, at[1:]))
            assert return_words(s, a) == seen, (str(s), a)
            lengths.update(tuple(map(sum, zip(*(system.length_coords[b - 1] for b in w))))
                           for w in seen)
        assert GroupG(system, lengths).basis == group_G(system).basis, str(s)


def test_power():
    s2 = power(FIB, 2)
    assert s2.rules == ((1, 2, 1), (1, 2))
    s3 = power(FIB, 3)
    assert s3.rules[0] == (1, 2, 1, 1, 2)
    with pytest.raises(SubstitutionError):
        power(FIB, 0)


def test_perron_data_fibonacci():
    field, beta, lengths = perron_data(FIB)
    assert field.min_poly == (-1, -1, 1)
    assert beta * beta == beta + field.one()
    # Left eigenvector normalized so the smallest entry is 1: (beta, 1).
    assert lengths[0] == beta
    assert lengths[1] == field.one()
    # Eigenvector identity: lengths * M == beta * lengths.
    M = matrix(FIB)
    for j in range(2):
        acc = field.zero()
        for i in range(2):
            acc = acc + field.from_rational(M[i][j]) * lengths[i]
        assert acc == beta * lengths[j]


def test_perron_data_constant_length():
    field, beta, lengths = perron_data(TM)
    assert beta == field.from_rational(2)
    assert all(l == field.one() for l in lengths)


def test_perron_data_tribonacci():
    field, beta, lengths = perron_data(TRIB)
    assert field.min_poly == (-1, -1, -1, 1)
    assert beta**3 == beta**2 + beta + field.one()
    assert lengths[2] == field.one()


def test_pisot_gate():
    with pytest.raises(NotPisotError):
        perron_data(Substitution(2, ((1, 2), (1, 1, 1))))


def test_fixed_point_seed():
    for s in (FIB, TM, PD, TRIB):
        k, a, b = fixed_point_seed(s)
        sk = power(s, k)
        assert sk.rules[a - 1][-1] == a
        assert sk.rules[b - 1][0] == b
        # The pair ab must be legal: it occurs in some inflated letter.
        big = power(s, k + 3)
        assert any(
            (a, b) in tuple(zip(w, w[1:])) for w in big.rules
        )


def test_fixed_point_seed_matches_words():
    # The first- and last-letter maps give the seed of the words sigma^k(c)
    # on the sweep's inputs.  A constant-length quartic needs k = 12,
    # words of 4^12 letters, which the maps never build.
    inputs = random_substitutions(random.Random(4))
    for m, rules in (next(inputs) for _ in range(90)):
        s = Substitution(m, rules)
        assert fixed_point_seed(s) == fixed_point_seed_reference(m, rules, legal_pairs(s)), rules
    assert fixed_point_seed(Substitution(4, ((4, 4, 3, 3), (1, 1, 4, 1), (2, 2, 2, 4), (3, 2, 3, 1)))) == (12, 1, 1)


def test_dekking_column_check():
    assert dekking_column_check(PD) is True
    assert dekking_column_check(TM) is False
    with pytest.raises(SubstitutionError):
        dekking_column_check(FIB)  # not constant length


def test_char_poly():
    assert char_poly(matrix(FIB)) == [-1, -1, 1]  # ascending: x^2 - x - 1
