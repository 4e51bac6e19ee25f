"""The embedding of the mixed coefficient algebra and its inverse.

Builds the quotient of the mixed (plain + starred) coordinate algebra,
applies the embedding iota that rewrites starred letters as signed
complementary minors, and shows that phi recovers the original coset.
Each standard rational bideterminant b maps to (-q)^c (t|t'), with c in
closed form (c_exponent); the demo checks that straightening iota(b) in
the rational basis gives b back with coefficient 1.
"""

from qschur.laurent import ONE
from qschur.mixed import (MixedElem, c_exponent, iota, phi, quotient,
                          rational_bideterminant, rational_straighten,
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
        c = c_exponent(rt, rt2)
        print(f"  k={k}  {rt.left.rows}/{rt.right.rows} | "
              f"{rt2.left.rows}/{rt2.right.rows}  c={c}  ->  {image}")
        assert rational_straighten(b, n, r, s) == {(k, rt, rt2): ONE}
        assert quot.is_coset_zero(phi(image, n, r, s) - b)
    print("iota(b) = (-q)^c (t|t') on every basis element: True")
    print("phi inverts iota on every basis element: True")

    word = (((1, 2),), ((2, 1),))
    elem = MixedElem({word: ONE}, normalized=True)
    print("\nA mixed monomial x12 * x*21 maps under iota to:")
    print(" ", iota(elem, n))


if __name__ == "__main__":
    main()
