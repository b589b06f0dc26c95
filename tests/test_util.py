"""Exact summation of complex arrays."""

import math

import numpy as np

from qsinc.util import fsum_complex


def test_real_valued_sum_is_the_fsum_of_the_reals():
    # No imaginary pass is made: its sum is +0.0, -0.0 parts included.
    reals = [1e16, 1.0, -1e16, 3.5, -0.25]
    vals = np.array(reals) + np.array([0.0, -0.0, 0.0, -0.0, -0.0]) * 1j
    total = fsum_complex(vals)
    assert total.real == math.fsum(reals) == 4.25
    assert total.imag == 0.0 and math.copysign(1.0, total.imag) == 1.0


def test_each_part_is_correctly_rounded():
    vals = np.array([1e16 + 1j, 1.0 - 1e16j, -1e16 + 1e16j, 2.0 + 0.5j])
    assert fsum_complex(vals) == complex(3.0, 1.5)
    assert fsum_complex([]) == 0.0
