"""The embedding of the mixed coefficient algebra and its inverse.

Builds the quotient of the mixed (plain + starred) coordinate algebra,
applies the embedding iota that rewrites starred letters as signed
complementary minors, and shows that phi recovers the original coset.
"""

from qschur.laurent import ONE
from qschur.mixed import (MixedElem, iota, phi, quotient,
                          rational_bideterminant,
                          standard_rational_bitableaux)


def main():
    n, r, s = 2, 1, 1
    quot = quotient(n, r, s)
    print(f"Mixed quotient at n={n}, r={r}, s={s}: "
          f"dimension {quot.dimension()}")

    basis = standard_rational_bitableaux(n, r, s)
    print(f"Standard rational bitableaux: {len(basis)}")
    for k, rt, rt2 in basis:
        b = rational_bideterminant(rt, rt2, k, n)
        image = iota(b, n)
        print(f"  k={k}  {rt.left.rows}/{rt.right.rows} | "
              f"{rt2.left.rows}/{rt2.right.rows}  ->  {image}")
        assert quot.is_coset_zero(phi(image, n, r, s) - b)
    print("phi inverts iota on every basis element: True")

    word = (((1, 2),), ((2, 1),))
    elem = MixedElem({word: ONE}, normalized=True)
    print("\nA mixed monomial x12 * x*21 maps under iota to:")
    print(" ", iota(elem, n))


if __name__ == "__main__":
    main()
