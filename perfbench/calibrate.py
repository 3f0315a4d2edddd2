"""Fixed reference work that tells how fast the host runs at the moment.

Usage: python3 perfbench/calibrate.py

It imports nothing from ellcy, so no change to the program moves its time.
The work is of the kind ellcy does: an eta-style product of (1 - q^n) on
Fraction coefficients, and truncated products of power series with large
integer coefficients.  run.py runs it as a fresh process after every timed
call and scales the measured times by CAL_REF_S over its mean time in the
run, which takes out most of the host's drift in speed.  It prints one
checksum line, which run.py compares with CHECKSUM.
"""

import sys
from fractions import Fraction

ETA_TERMS = 180
CONVOLUTION_TERMS = 700
CHECKSUM = "339 318"


def eta_part(n: int) -> int:
    """prod (1 - q^k)^4 on Fraction coefficients, then a Fraction square."""
    cs = [Fraction(0)] * n
    cs[0] = Fraction(1)
    for k in range(1, n):
        for _ in range(4):
            for i in range(n - 1, k - 1, -1):
                cs[i] -= cs[i - k]
    a = [c / (i + 1) for i, c in enumerate(cs)]
    b = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j in range(n - i):
                b[i + j] += x * a[j]
    return sum(b).numerator.bit_length()


def convolution_part(n: int) -> int:
    """Repeated truncated products of series with large integer terms."""
    a = [(k * 7919 + 1) ** 3 for k in range(n)]
    b = [(k * 104729 + 3) ** 2 for k in range(n)]
    for _ in range(4):
        c = [0] * n
        for i, x in enumerate(a):
            for j in range(n - i):
                c[i + j] += x * b[j]
        b = c
    return b[-1].bit_length()


def main() -> None:
    print(eta_part(ETA_TERMS), convolution_part(CONVOLUTION_TERMS))


if __name__ == "__main__":
    sys.exit(main())
