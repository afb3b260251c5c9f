"""First-principles oracles: enumeration results frozen and cross-checked."""

from itertools import product

import pytest

from hbinom.oracles import (colored_bracelets, colored_tilings,
                            errata_fibonomial, gaussian_binomial, inversion_gf,
                            md_fibonomial, md_ubinomial, partitions_in_box_gf,
                            subspace_count, zigzag_area_gf)
from hbinom.ring import ONE, Scalar


# -- q-statistics -----------------------------------------------------------


def test_partitions_in_box():
    assert partitions_in_box_gf(2, 2) == [1, 1, 2, 1, 1]
    assert partitions_in_box_gf(1, 3) == [1, 1, 1, 1]
    assert partitions_in_box_gf(3, 0) == [1]
    assert partitions_in_box_gf(0, 5) == [1]


def test_zigzag_area():
    assert zigzag_area_gf(4, 2) == [1, 1, 2, 1, 1]
    assert zigzag_area_gf(3, 0) == [1]
    assert zigzag_area_gf(3, 3) == [1]
    assert sum(zigzag_area_gf(6, 2)) == 15


def test_inversions():
    assert inversion_gf(4, 2) == [1, 1, 2, 1, 1]
    assert inversion_gf(2, 1) == [1, 1]


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2) == Scalar.poly([1, 1, 2, 1, 1])
    assert gaussian_binomial(3, 1) == Scalar.poly([1, 1, 1])
    assert gaussian_binomial(5, 5) == ONE
    assert gaussian_binomial(5, 0) == ONE
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_gaussian_coefficients_are_palindromic():
    for n in range(9):
        for k in range(n + 1):
            coeffs = list(gaussian_binomial(n, k).num_coeffs)
            coeffs += [0] * (k * (n - k) + 1 - len(coeffs))
            assert coeffs == coeffs[::-1]
            assert all(c >= 1 for c in coeffs)


def test_four_way_agreement():
    for n in range(9):
        for k in range(n + 1):
            gauss = [int(c) for c in gaussian_binomial(n, k).num_coeffs]
            gauss += [0] * (k * (n - k) + 1 - len(gauss))
            assert gauss == partitions_in_box_gf(k, n - k)
            assert gauss == zigzag_area_gf(n, k)
            assert gauss == inversion_gf(n, k)


# -- subspaces --------------------------------------------------------------


def test_subspace_counts_frozen():
    assert subspace_count(3, 1, 2) == 7
    assert subspace_count(4, 2, 2) == 35
    assert subspace_count(2, 1, 3) == 4
    assert subspace_count(4, 0, 3) == 1
    assert subspace_count(4, 4, 3) == 1


def test_subspace_counts_all_small_cases():
    # [n, k]_q for n <= 4, row by row
    expected = {2: [[1], [1, 1], [1, 3, 1], [1, 7, 7, 1], [1, 15, 35, 15, 1]],
                3: [[1], [1, 1], [1, 4, 1], [1, 13, 13, 1], [1, 40, 130, 40, 1]]}
    for q, rows in expected.items():
        assert [[subspace_count(n, k, q) for k in range(n + 1)]
                for n in range(5)] == rows


def test_subspace_counts_match_gaussian():
    for q in (2, 3):
        for n in range(5):
            for k in range(n + 1):
                expected = gaussian_binomial(n, k).evaluate(q).as_int()
                assert subspace_count(n, k, q) == expected


def test_subspace_input_validation():
    with pytest.raises(ValueError):
        subspace_count(3, 1, 5)
    with pytest.raises(ValueError):
        subspace_count(5, 1, 2)


# -- tilings ----------------------------------------------------------------


def _brute_colored_tilings(length, squares, dominoes):
    """Every tiling as an explicit tuple of (size, color) tiles."""
    if length == 0:
        return [()]
    out = []
    for color in range(squares):
        for rest in _brute_colored_tilings(length - 1, squares, dominoes):
            out.append(((1, color),) + rest)
    if length >= 2:
        for color in range(dominoes):
            for rest in _brute_colored_tilings(length - 2, squares, dominoes):
                out.append(((2, color),) + rest)
    return out


def test_colored_tilings_frozen():
    assert colored_tilings(0, 2, 3) == 1
    assert colored_tilings(2, 1, 1) == 2
    assert colored_tilings(3, 2, 1) == 12
    assert colored_tilings(4, 1, 2) == 11  # SSSS, 3 placements x 2 dominoes, DD x 4


def test_colored_tilings_against_brute_force():
    for length in range(5):
        for squares, dominoes in product(range(1, 4), repeat=2):
            tilings = _brute_colored_tilings(length, squares, dominoes)
            assert len(set(tilings)) == len(tilings)
            assert colored_tilings(length, squares, dominoes) == len(tilings)


def test_colored_bracelets_frozen():
    assert colored_bracelets(1, 2, 5) == 2
    assert colored_bracelets(2, 2, 1) == 6   # 4 square pairs + 2 domino placements
    assert colored_bracelets(3, 1, 1) == 4
    assert colored_bracelets(4, 1, 1) == 7
    with pytest.raises(ValueError):
        colored_bracelets(0, 1, 1)


# -- summation formulas -----------------------------------------------------


def test_md_fibonomial_frozen():
    assert md_fibonomial(5, 3) == 15
    assert md_fibonomial(2, 1) == 1
    assert md_fibonomial(6, 3) == 60
    assert md_fibonomial(4, 0) == 1
    assert md_fibonomial(3, 5) == 0


def test_errata_fibonomial():
    assert errata_fibonomial(5, 3) == 11
    with pytest.raises(ValueError):
        errata_fibonomial(5, 1)


def test_errata_variant_deviates_from_true_table():
    deviations = [(n, k) for n in range(2, 9) for k in range(2, n + 1)
                  if errata_fibonomial(n, k) != md_fibonomial(n, k)]
    assert (5, 3) in deviations


def test_md_ubinomial_frozen():
    assert md_ubinomial(4, 2, 3, -2) == Scalar(35)
    assert md_ubinomial(3, 2, 3, -2) == Scalar(7)
    assert md_ubinomial(4, 3, 3, -2) == Scalar(15)
    assert md_ubinomial(3, 2, 2, 1) == Scalar(5)
    assert md_ubinomial(6, 0, 5, 7) == ONE


def test_md_ubinomial_specializes_to_fibonomial():
    for n in range(9):
        for k in range(n + 1):
            assert md_ubinomial(n, k, 1, 1) == Scalar(md_fibonomial(n, k))


def test_md_ubinomial_weight_uses_t_not_s():
    # with the weight misprinted as s^(x_k - k) the (3, 2) cell at
    # (s, t) = (3, -2) would come out 12; the true cell is 7
    assert md_ubinomial(3, 2, 3, -2) != Scalar(12)
