"""The headline dimension agreement, checked four ways.

For each small parameter point, compares the commutant of the walled
generators on mixed tensor space, the dimension of the image of the
quantum-group action, the number of standard rational bitableaux, and
the dimension of the mixed coefficient quotient.
"""

from qschur.tensor import verify_schur_weyl


def main():
    for n, r, s in ((2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1),
                    (3, 2, 2), (4, 2, 1)):
        rep = verify_schur_weyl(n, r, s)
        print(f"n={n} r={r} s={s}:  commutant {rep['commutant_dim']}, "
              f"image {rep['image_dim']}, "
              f"tableaux {rep['rational_bitableaux']}, "
              f"quotient {rep['coeff_quotient_dim']}  "
              f"->  {'agree' if rep['ok'] else 'MISMATCH'} "
              f"({rep['elapsed_ms']} ms)")


if __name__ == "__main__":
    main()
