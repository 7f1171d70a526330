#!/usr/bin/env python3
"""Walk through the r=2 worked identity step by step.

Builds the two 2x2 auxiliary matrices for the two-TypeII shape, prints
their determinants, the closed-form target combination, and the normal
form of the difference modulo the eight coefficient relations.
"""

from ribetkit.exactpoly import to_text
from ribetkit.groebner import buchberger
from ribetkit.ribet.formal import build_ideals, build_matrices, example_r2_target
from ribetkit.ribet.shapes import shape_r2_two_type2


def main():
    shape = shape_r2_two_type2()
    mats = build_matrices(shape)
    F = mats.ring

    print("E  =")
    for row in mats.E.entries:
        print("   ", [to_text(e) for e in row])
    print("E' =")
    for row in mats.Eprime.entries:
        print("   ", [to_text(e) for e in row])

    det_e, det_ep = mats.det_E, mats.det_Eprime
    e = det_ep - det_e
    print("\ndet(E)        =", to_text(det_e))
    print("det(E')       =", to_text(det_ep))
    print("e = d(E')-d(E) =", to_text(e))

    target = example_r2_target(F)
    print("\nclosed form    =", to_text(target))

    ideals = build_ideals(shape)
    print(f"\ncoefficient relations ({len(ideals.J.generators)}):")
    for g in ideals.J.generators:
        print("   ", to_text(g))

    nf = buchberger(ideals.J).normal_form(e - target)
    print("\nnormal form of (e - closed form) modulo the relations:", to_text(nf))
    print("identity verified" if nf.is_zero() else "IDENTITY FAILED")


if __name__ == "__main__":
    main()
