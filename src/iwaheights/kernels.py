"""Pure-Python convolution kernels.

These are the two inner loops everything else reduces to: truncated
polynomial multiplication in (Z/m)[T] and cyclic convolution in the group
ring of a finite cyclic group.  Arithmetic is on Python integers, so it is
exact for any modulus.
"""

__all__ = ["BACKEND", "poly_mul_trunc", "cyclic_mul"]

BACKEND = "python"


def poly_mul_trunc(a, b, mod, cap):
    """Coefficients of a*b mod `mod`, truncated to degree `cap` inclusive."""
    n = min(len(a) + len(b) - 1, cap + 1)
    if n <= 0:
        return []
    out = [0] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if ai == 0:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            out[i + j] = (out[i + j] + ai * b[j]) % mod
    return out


def cyclic_mul(a, b, mod):
    """Cyclic convolution of equal-length coefficient lists mod `mod`."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n):
            t = i + j
            if t >= n:
                t -= n
            out[t] = (out[t] + ai * b[j]) % mod
    return out
