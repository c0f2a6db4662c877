#!/usr/bin/env python3
"""Finite-index subgroups surjecting onto the integers.

Presentations of p-deficiency one need not surject onto Z themselves, but
a finite-index subgroup does; the search below exhibits one by rewriting
each low-index normal subgroup and reading its abelianization off an
integer Smith normal form.  The normal subgroups are searched one index
at a time and the search stops at the first witness, so a larger bound
costs nothing once a witness exists below it.
"""

from pdef import find_z_surjection, parse_presentation

EXAMPLES = [
    ("infinite dihedral", "gens: x1, x2\nrel: x1^2\nrel: x2^2", 2),
    (
        "triangle powers",
        "gens: x, y, z\nrel: x^3\nrel: y^3\nrel: z^3\nrel: (x*y)^3\nrel: (x*z)^3\nrel: (y*z)^3",
        3,
    ),
    ("order two (finite, no witness)", "gens: x\nrel: x^2", 4),
    # the search stops at the first witness, here the whole group (index 1),
    # so the 367 normal subgroups of index <= 5 are never enumerated
    ("genus-2 surface", "gens: a1, b1, a2, b2\nrel: [a1,b1]*[a2,b2]", 5),
]


def main():
    for name, text, max_index in EXAMPLES:
        P = parse_presentation(text)
        cert = find_z_surjection(P, max_index)
        print(f"{name}:")
        if cert.kind == "ZSurjectionWitness":
            inv = cert.witness["abelian_invariants"]
            print(f"  subgroup of index {cert.witness['index']} with abelianization "
                  f"rank {inv['rank']}, torsion {inv['torsion']}")
            for con in cert.conclusions:
                print(f"  conclusion: {con.claim}  [{con.by}]")
        else:
            print(f"  inconclusive; examined indices {cert.parameters['examined_indices']}")
        print()


if __name__ == "__main__":
    main()
