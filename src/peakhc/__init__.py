"""peakhc: exact workbench for peak algebras and 0-Hecke-Clifford supermodules.

Subpackages compute, over exact rationals and Q(i):

* ``combinat`` -- compositions, descent/peak/valley sets, permutations;
* ``hopf`` -- graded Hopf arithmetic for NSym, QSym, the peak subalgebra and
  its dual, symmetric functions, and the subring generated by the q_n;
* ``hecke_clifford`` -- the superalgebra mixing a 0-Hecke and a Clifford
  algebra, with trace form and structural (anti-)involutions;
* ``supermodules`` -- exact supermodule calculus (induction, restriction,
  Hom spaces, idempotent splitting, twisting, the hook-vector split of
  restricted projectives);
* ``characteristic`` -- Grothendieck classes and the characteristic maps;
* ``heisenberg`` -- the Fock action, the length filtration, and the freeness
  certificate of the peak quasisymmetric functions over the q-generated ring;
* ``cli`` -- the ``peakhc`` command-line front end.
"""

__version__ = "0.1.0"
