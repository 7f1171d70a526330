"""2x2 matrices over polynomial rings: generic matrices, word products,
trace/determinant invariants, and the congruence checks, each decided
by its closed-form cofactors with no Groebner engine call.

The model ring for the congruence checks carries one generic matrix
rho_i = [[a_i, b_i], [c_i, d_i]] per generator index plus free unit
symbols chi_i, psi_i.  The shifted matrices rhohat_i = rho_i + psi_i
play the role of actual group images; their characteristic polynomial
defects

    tr(prod rhohat) - (prod chi + prod psi)
    det(prod rhohat) - (prod chi)(prod psi)

generate the congruence ideal that every checked identity must land in.
chi and psi are ordinary polynomial variables, not localized units: no
check here ever divides by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .algebra import IdealSpec
from .errors import StructuralError
from .exactpoly import QQ, CoefficientRing, Polynomial, VariableTable


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix of polynomials sharing one ring and table."""

    a: Polynomial
    b: Polynomial
    c: Polynomial
    d: Polynomial

    def __post_init__(self):
        ref = self.a
        for e in (self.b, self.c, self.d):
            if e.ring != ref.ring or e.table != ref.table:
                raise StructuralError("matrix entries must share ring and table")

    @staticmethod
    def identity(ring, table) -> "Mat2":
        one = Polynomial.one(ring, table)
        zero = Polynomial.zero(ring, table)
        return Mat2(one, zero, zero, one)

    @staticmethod
    def zero(ring, table) -> "Mat2":
        z = Polynomial.zero(ring, table)
        return Mat2(z, z, z, z)

    @staticmethod
    def scalar(s: Polynomial) -> "Mat2":
        z = Polynomial.zero(s.ring, s.table)
        return Mat2(s, z, z, s)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __mul__(self, other) -> "Mat2":
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        return Mat2(self.a * other, self.b * other, self.c * other, self.d * other)

    __rmul__ = __mul__

    def add_scalar(self, s: Polynomial) -> "Mat2":
        return Mat2(self.a + s, self.b, self.c, self.d + s)

    def trace(self) -> Polynomial:
        return self.a + self.d

    def det(self) -> Polynomial:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class Word:
    """Noncommuting monomial in generator letters.

    ``letters`` are generator indices (1-based).
    """

    letters: tuple[int, ...]

    def __len__(self):
        return len(self.letters)

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse compact word syntax "X1.X2.X1"."""
        text = text.strip()
        if not text:
            return Word(())
        letters = []
        for piece in text.split("."):
            piece = piece.strip()
            if not piece.startswith("X"):
                raise StructuralError(f"bad word letter {piece!r}")
            letters.append(int(piece[1:]))
        return Word(tuple(letters))

    def __str__(self):
        return ".".join(f"X{i}" for i in self.letters)


# ---------------------------------------------------------------------------
# Model ring for congruence checks.

@dataclass
class GenericModel:
    """r generic 2x2 matrices with unit symbols chi_i, psi_i.

    Extra variables (for symbolic combination coefficients) can be
    requested at construction.

    Each variable, each word matrix (keyed by its letters and ``hat``,
    built from the cached matrix of its prefix times one factor) and each
    trace defect (keyed by its letters) is built once and kept on the
    instance.  A model is made inside one check, so the cache lives for
    that check.
    """

    r: int
    ring: CoefficientRing = QQ
    extra: tuple[str, ...] = ()
    table: VariableTable = field(init=False)
    _vars: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _words: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _trace_defects: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        names: list[str] = []
        roles: list[str] = []
        for i in range(1, self.r + 1):
            names += [f"a{i}", f"b{i}", f"c{i}", f"d{i}"]
            roles += ["a", "b", "c", "d"]
        for i in range(1, self.r + 1):
            names += [f"chi{i}", f"psi{i}"]
            roles += ["other", "other"]
        names += list(self.extra)
        roles += ["other"] * len(self.extra)
        self.table = VariableTable(names, roles)

    def _v(self, name: str) -> Polynomial:
        v = self._vars.get(name)
        if v is None:
            v = self._vars[name] = Polynomial.var(self.ring, self.table, self.table.index(name))
        return v

    def rho(self, i: int) -> Mat2:
        """Generic matrix rho_i (the psi-shifted group image minus psi)."""
        return Mat2(self._v(f"a{i}"), self._v(f"b{i}"), self._v(f"c{i}"), self._v(f"d{i}"))

    def rhohat(self, i: int) -> Mat2:
        """rho_i + psi_i, the model of the actual group image."""
        return self.rho(i).add_scalar(self.psi(i))

    def chi(self, i: int) -> Polynomial:
        return self._v(f"chi{i}")

    def psi(self, i: int) -> Polynomial:
        return self._v(f"psi{i}")

    def extra_var(self, name: str) -> Polynomial:
        return self._v(name)

    def char_product(self, char: str, letters: Sequence[int]) -> Polynomial:
        acc = Polynomial.one(self.ring, self.table)
        for i in letters:
            acc = acc * (self.chi(i) if char == "chi" else self.psi(i))
        return acc

    def word_matrix(self, letters: Sequence[int], hat: bool = True) -> Mat2:
        word = tuple(letters)
        m = self._words.get((word, hat))
        if m is None:
            if not word:
                m = Mat2.identity(self.ring, self.table)
            else:
                m = self.rhohat(word[-1]) if hat else self.rho(word[-1])
                if len(word) > 1:
                    m = self.word_matrix(word[:-1], hat) * m
            self._words[word, hat] = m
        return m

    # -- congruence ideals ---------------------------------------------
    def trace_defect(self, letters: Sequence[int]) -> Polynomial:
        key = tuple(letters)
        f = self._trace_defects.get(key)
        if f is None:
            m = self.word_matrix(key)
            f = m.trace() - self.char_product("chi", key) - self.char_product("psi", key)
            self._trace_defects[key] = f
        return f

    def det_defect(self, letters: Sequence[int]) -> Polynomial:
        m = self.word_matrix(letters)
        return m.det() - self.char_product("chi", letters) * self.char_product("psi", letters)


def _trace_terms(
    w: Word, r: int, model: GenericModel | None
) -> tuple[Polynomial, list[tuple[Polynomial, Polynomial]]]:
    """The target of the trace congruence of w and its (cofactor,
    generator) pairs, one per nonempty subsequence S of the positions of
    w: (prod_{j not in S} -psi_{w_j}, trace_defect(w_S)).

    Expanding prod_j (rhohat_{w_j} - psi_{w_j}) and taking traces gives
    target = sum of cofactor * generator: tr(rhohat_S) is
    trace_defect(w_S) + chi_S + psi_S, the chi parts sum to
    prod(chi_j - psi_j), the psi parts to prod(psi_j - psi_j) = 0, and the
    S = {} term vanishes since tr I = 2 = chi_{} + psi_{}.
    """
    if not w.letters:
        raise StructuralError("trace congruence needs a nonempty word")
    if any(i < 1 or i > r for i in w.letters):
        raise StructuralError("word letters out of range for r generators")
    model = model or GenericModel(r)
    target = model.word_matrix(w.letters, hat=False).trace() - _char_diff_product(model, w.letters)
    terms = []
    for size in range(1, len(w.letters) + 1):
        for subset in combinations(range(len(w.letters)), size):
            rest = [i for p, i in enumerate(w.letters) if p not in subset]
            cofactor = model.char_product("psi", rest) * (-1) ** len(rest)
            terms.append((cofactor, model.trace_defect([w.letters[p] for p in subset])))
    return target, terms


def _det_terms(r: int, indices: Sequence[int], word_cap: int | None) -> tuple[Polynomial, list]:
    """The target det(sum_k c_k rho_{i_k}) of the det congruence and its
    (cofactor, generator) pairs: with T_w = trace_defect(w), D_i =
    det_defect([i]), tr rho_i = T_i + chi_i - psi_i and det rho_i = D_i -
    psi_i T_i, det(A + B) = det A + det B + tr A tr B - tr(AB) gives
    c_k^2 (D_{i_k} - psi_{i_k} T_{i_k}) per position k and, per k < l,
    c_k c_l (T_{i_k} (T_{i_l} + chi_{i_l}) + chi_{i_k} T_{i_l} - T_{i_k i_l}),
    or 2 c_k c_l (D_i - psi_i T_i) if i_k = i_l = i."""
    if any(i < 1 or i > r for i in indices):
        raise StructuralError("indices out of range")
    need = min(2, len(set(indices)))  # the longest generator word; never above the default cap
    if word_cap is not None and word_cap < need:
        raise StructuralError(f"word_cap {word_cap} is below {need}, the word length the det cofactors need")
    model = GenericModel(r, extra=tuple(f"c_{k}" for k in range(1, len(indices) + 1)))
    c = [model.extra_var(name) for name in model.extra]
    target = sum((ck * model.rho(i) for ck, i in zip(c, indices)), Mat2.zero(model.ring, model.table)).det()
    terms = []
    for (k, i), (l, j) in combinations_with_replacement(enumerate(indices), 2):
        cc, t_i, t_j = c[k] * c[l], model.trace_defect([i]), model.trace_defect([j])
        if i == j:
            cc = cc if k == l else 2 * cc
            terms += [(cc, model.det_defect([i])), (-cc * model.psi(i), t_i)]
        else:
            terms += [(cc * (t_j + model.chi(j)), t_i), (cc * model.chi(i), t_j), (-cc, model.trace_defect([i, j]))]
    return target, terms


def trace_congruence_question(
    w: Word, r: int, model: GenericModel | None = None
) -> tuple[Polynomial, IdealSpec]:
    """The membership question of the trace congruence of w: the target
    tr(prod rho_j) - prod(chi_j - psi_j) and the ideal of trace defects of
    the nonempty subsequences of w, in the order ``_trace_terms`` lists
    them.

    The generating subsequences mirror the telescoping expansion of the
    shifted product, so the cap on generator words is exactly the length
    of the word under test.  Target and generator set are invariant
    under rotation of w (a trace is, and chi and psi commute); only the
    order of the generators follows the word.
    """
    target, terms = _trace_terms(w, r, model)
    return target, IdealSpec([g for _q, g in terms])


def trace_congruence_check(w: Word, r: int, model: GenericModel | None = None) -> bool:
    """Check tr(prod rho_j) - prod(chi_j - psi_j) lies in the ideal of
    trace defects of the nonempty subsequences of w
    (``trace_congruence_question``), by its closed-form cofactors: the
    target must equal the sum of cofactor * generator over the pairs of
    ``_trace_terms``, in ``Polynomial`` arithmetic, with no engine call."""
    target, terms = _trace_terms(w, r, model)
    return sum((q * g for q, g in terms), Polynomial.zero(target.ring, target.table)) == target


def _char_diff_product(model: GenericModel, letters: Sequence[int]) -> Polynomial:
    acc = Polynomial.one(model.ring, model.table)
    for i in letters:
        acc = acc * (model.chi(i) - model.psi(i))
    return acc


def det_congruence_check(r: int, indices: Sequence[int], word_cap: int | None = None) -> bool:
    """Check det(sum_k c_k rho_{i_k}), c_k fresh symbols, lies in the
    ideal of the tr and det defects of the words of length at most
    ``word_cap`` (default max(1, len(indices))) over ``indices``, by the
    closed-form cofactors of ``_det_terms``; a cap too small for them
    raises StructuralError."""
    target, terms = _det_terms(r, indices, word_cap)
    return sum((q * g for q, g in terms), Polynomial.zero(target.ring, target.table)) == target
