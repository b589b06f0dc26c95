"""Small numeric helpers: exact summation, complex parsing and printing."""

from __future__ import annotations

import math
import re

import numpy as np


def fsum_complex(values) -> complex:
    """Sum of an array of complex values, each part correctly rounded by
    math.fsum.  When every imaginary part is zero the imaginary sum is
    +0.0 without a pass: math.fsum of zeros, -0.0 included, is +0.0."""
    vals = np.asarray(values, dtype=complex)
    im = vals.imag
    return complex(math.fsum(vals.real.tolist()),
                   math.fsum(im.tolist()) if np.count_nonzero(im) else 0.0)


_COMPLEX_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:\s*([+-])\s*((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?\s*$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi' (no spaces required) into a complex."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(f"cannot parse complex value {text!r}")
    re_part = float(m.group(1))
    if m.group(2) is None:
        return complex(re_part, 0.0)
    im_part = float(m.group(3))
    if m.group(2) == "-":
        im_part = -im_part
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    """'a', 'a+bi' or 'a-bi' from the reprs of the parts, the shortest text
    that parse_complex reads back to exactly z."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"
