"""Lower-triangular Borel action on generic-matrix variables.

The unipotent part acts by the substitution tau_x (conjugation of each
generic matrix by [[1,0],[x,1]]):

    a_i -> a_i + b_i x
    b_i -> b_i
    c_i -> c_i + (d_i - a_i) x - b_i x^2
    d_i -> d_i - b_i x

with x a fresh parameter appended to the table and every variable not
tagged a/b/c/d held fixed.  The torus part is handled entirely by the
weight grading of exactpoly (b-tagged weight +1, c-tagged -1): every
torus-invariance question used here reduces to isobarity of weight 0,
so no Laurent polynomials are ever needed.  Full Borel invariance is
asserted as the conjunction tau-fixed + weight 0, since the group is
generated by its torus and lower unipotent one-parameter subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .algebra import DEFAULT_BUDGET, Budget, IdealSpec
from .errors import StructuralError
from .exactpoly import Polynomial, VariableTable


def _tau_images(a, b, c, d, x) -> tuple[Polynomial, ...]:
    """tau_x of a generic matrix [[a, b], [c, d]]: the four entries of
    [[1, 0], [x, 1]]-conjugation, as listed in the module docstring."""
    return a + b * x, b, c + (d - a) * x - b * x * x, d - b * x


@dataclass
class TauAction:
    """Substitution action of the unipotent tau_x on one variable table.

    The parameter variable is appended to the base table (always last, so
    ideal membership in I.R[x] can reuse the base monomial order).

    A variable of role a, b, c or d is named by its role letter followed
    by its indices (``a1``, ``b2_3``), and the variables with the same
    indices form one quadruple.  Any other name of such a variable
    (``aa1``, ``bp1``) is a ``StructuralError``: its quadruple would hold
    it alone, and tau_x would fix it.

    The substitution map (the tau_x image of every a/b/c/d variable) is
    built once per coefficient ring and kept on the instance.  An action
    is made inside one check, so the cache lives for that check.
    """

    base: VariableTable
    table: VariableTable = field(init=False)
    param: int = field(init=False)
    _maps_by_ring: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        misnamed = [
            n for n, role in zip(self.base.names, self.base.roles)
            if role in ("a", "b", "c", "d") and (n[:1] != role or n[1:2].isalpha())
        ]
        if misnamed:
            raise StructuralError(
                "a matrix variable's name must be its role letter followed by "
                f"its indices: {', '.join(misnamed)}"
            )
        name = "x"  # the parameter, "_"-prefixed while its name is taken
        while name in self.base.names:
            name = "_" + name
        self.table = self.base.extend([name], ["param"])
        self.param = len(self.base)

    def _quadruple(self, ring, suffix: str) -> list[Polynomial]:
        """The (a, b, c, d) variables sharing a name suffix; a deleted
        entry (name absent from the table) reads as 0."""
        out = []
        for tag in "abcd":
            name = tag + suffix
            if name in self.base.names:
                out.append(Polynomial.var(ring, self.table, self.base.index(name)))
            else:
                out.append(Polynomial.zero(ring, self.table))
        return out

    def _maps(self, ring) -> dict[int, Polynomial]:
        mapping = self._maps_by_ring.get(ring)
        if mapping is not None:
            return mapping
        x = self.x_var(ring)
        images: dict[str, tuple[Polynomial, ...]] = {}  # name suffix -> tau_x(a, b, c, d)
        mapping = {}
        for i, role in enumerate(self.base.roles):
            if role not in ("a", "b", "c", "d"):
                continue
            suffix = self.base.names[i][1:]
            if suffix not in images:
                images[suffix] = _tau_images(*self._quadruple(ring, suffix), x)
            mapping[i] = images[suffix]["abcd".index(role)]
        self._maps_by_ring[ring] = mapping
        return mapping

    def apply(self, f: Polynomial) -> Polynomial:
        """tau_x(f), in the x-extended table."""
        if f.table == self.base:
            f = f.lift(self.table)
        elif f.table != self.table:
            raise StructuralError("polynomial does not live in this action's table")
        return f.substitute(self._maps(f.ring))

    def x_var(self, ring) -> Polynomial:
        return Polynomial.var(ring, self.table, self.param)


def adjoint_quadruple_check(
    A: Polynomial, B: Polynomial, C: Polynomial, D: Polynomial,
    action: TauAction | None = None,
) -> bool:
    """True iff (A, B, C, D) transforms exactly like the conjugation
    action on a generic 2x2 matrix:

        tau_x A = A + B x,   tau_x B = B,
        tau_x C = C + (D - A) x - B x^2,   tau_x D = D - B x,

    together with torus weights (0, +1, -1, 0).
    """
    table = A.table
    for f in (B, C, D):
        if f.table != table or f.ring != A.ring:
            raise StructuralError("quadruple entries must share ring and table")
    act = action or TauAction(table)
    lifted = [f.lift(act.table) for f in (A, B, C, D)]
    images = _tau_images(*lifted, act.x_var(A.ring))
    if any(act.apply(f) != img for f, img in zip((A, B, C, D), images)):
        return False
    weights = (A.torus_weight(), B.torus_weight(), C.torus_weight(), D.torus_weight())
    return weights == (0, 1, -1, 0)


def tau_fixed_mod(
    f: Polynomial,
    generators: Sequence[Polynomial],
    budget: Budget,
    action: TauAction | None = None,
) -> bool:
    """Whether tau_x(f) - f lies in I.R[x], the extension of the ideal I
    of ``generators`` to the x-extended ring (l:ebar): the difference is
    0, or a member of the ideal of the lifted generators."""
    # A call-time import: loading borel does not load the engine.
    from .groebner import in_ideal
    act = action or TauAction(f.table)
    diff = act.apply(f) - f.lift(act.table)
    if diff.is_zero():
        return True
    return in_ideal(diff, IdealSpec([g.lift(act.table) for g in generators]), budget)


def invariant_mod(
    f: Polynomial,
    ideal: IdealSpec,
    budget: Budget = DEFAULT_BUDGET,
    action: TauAction | None = None,
) -> bool:
    """Borel invariance of f modulo an ideal.

    Checks ``tau_fixed_mod`` and that f reduces modulo I to an isobaric
    normal form of torus weight 0.
    """
    if not tau_fixed_mod(f, ideal.generators, budget, action):
        return False
    if ideal.generators:
        from .groebner import buchberger
        nf = buchberger(ideal, budget).normal_form(f, budget)
    else:
        nf = f
    return nf.torus_weight() == 0
