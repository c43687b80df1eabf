"""Exact workbench for the Koszul matrix factorization of z1...z(n+2).

Subpackages are organized by task: linalg (exact linear algebra),
lattice (weights and gradings), weyl (the Clifford-Weyl product on
integer {monomial: int} dicts, each monomial packed into one int; delta
lives only as its term table `delta_terms`, read by the per-low-part
commutator table behind the integer D * d), minimal (cohomology pieces
and the minimal A-infinity model), ainfty (structural checks and constructions
on finite A-infinity algebras), pants (zonotope, coamoeba and Morse
combinatorics of the pair of pants), rnc (the rational normal curve
through the Morse points), cli (command line interface).
"""

__version__ = "0.1.0"
