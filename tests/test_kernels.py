"""Reference values of the two convolution kernels."""

from iwaheights import kernels


def test_poly_mul_reference():
    # (1 + 2T)(2 + T) = 2 + 5T + 2T^2
    assert kernels.poly_mul_trunc([1, 2], [2, 1], 9, 5) == [2, 5, 2]
    assert kernels.poly_mul_trunc([1, 2], [2, 1], 9, 1) == [2, 5]


def test_cyclic_reference():
    # gamma * gamma^2 = 1 in a cyclic group of order 3
    assert kernels.cyclic_mul([0, 1, 0], [0, 0, 1], 9) == [1, 0, 0]
