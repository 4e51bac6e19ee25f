"""Standard bitableaux index a basis; straightening finds coordinates.

Enumerates the standard bitableaux for small parameters, checks the
count against the closed-form binomial, and straightens an arbitrary
monomial into the bideterminant basis with exact coefficients.
"""

from math import comb

from qschur.laurent import ONE
from qschur.qmatrix import AlgebraElem, bideterminant, straighten, \
    standard_bitableaux


def main():
    n, m = 2, 2
    pairs = standard_bitableaux(n, m)
    print(f"Standard bitableaux with n={n}, degree {m}: {len(pairs)}")
    print(f"Closed form C(n^2+m-1, m) = {comb(n * n + m - 1, m)}")
    for t, t2 in pairs:
        print(f"  shape {t.shape}: {t.rows} | {t2.rows}")

    word = ((1, 2), (2, 1))
    elem = AlgebraElem({word: ONE})
    print(f"\nStraightening the monomial x12*x21 (normal form {elem}):")
    expansion = straighten(elem, n)
    rebuilt = AlgebraElem.zero()
    for (t, t2), coeff in expansion.items():
        print(f"  {coeff}  *  {t.rows} | {t2.rows}")
        rebuilt = rebuilt + bideterminant(t, t2).scale(coeff)
    print("Expansion reproduces the element:", rebuilt == elem)


if __name__ == "__main__":
    main()
