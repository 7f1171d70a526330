"""Finite-field specializations of a relation shape.

The ambient group is modeled as a free group on the shape's generator
labels; compactness plays no role because every identity checked is
word-level.  An instance draws, deterministically from (seed, p):

  * a change-of-basis matrix M_v in GL_2(F_p) per place (identity at v0,
    so the images there are honestly lower triangular),
  * lower-triangular local data (eta, *, xi) for each dedicated
    generator attached to a place, conjugated through M_v,
  * uniform random GL_2 images for the free generators,
  * nonzero character values chi(g), psi(g) per generator, extended
    multiplicatively to words,

then solves exactly for the relation coefficients, all from one row
reduction of the 4 x r coefficient matrix beside every right-hand side:
eps rows from its kernel, delta and alpha rows from consistent systems
(lexicographically-first solution of the row-reduced system, so
instances replay bit-exactly).  Generation rerolls until the shifted
images span the full 2x2 matrix algebra and every D_v is nonzero.  Spanning already makes the instance absolutely
irreducible: the shifts lie in the algebra the images generate, so that
algebra is M_2(F_p) (Burnside), while images sharing an eigenline lie in
a 3-dimensional Borel subalgebra and cannot span.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from ..errors import GenerationFailure, StructuralError
from ..exactpoly import GF, CoefficientRing, evaluate_all
from ..linalg import det, reduce_system
from .formal import auxiliary_matrices, build_ideals, formal_ring
from .shapes import RibetShape

M2 = tuple  # (a, b, c, d) flattened 2x2 matrix over F_p

RETRY_BUDGET = 100

WORD_SAMPLES = 12  # seeded word pairs per cocycle check


def _m2_mul(x: M2, y: M2, p: int) -> M2:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _m2_sub(x: M2, y: M2, p: int) -> M2:
    a, b, c, d = x
    e, f, g, h = y
    return ((a - e) % p, (b - f) % p, (c - g) % p, (d - h) % p)


def _m2_scale(x: M2, s: int, p: int) -> M2:
    a, b, c, d = x
    return (s * a % p, s * b % p, s * c % p, s * d % p)


def _m2_add_scalar(x: M2, c: int, p: int) -> M2:
    return ((x[0] + c) % p, x[1], x[2], (x[3] + c) % p)


_ID: M2 = (1, 0, 0, 1)


@dataclass
class PlaceData:
    M: M2  # change-of-basis matrix (A_v, B_v, C_v, D_v)
    eta: dict[int, int]  # generator -> eta_v value
    xi: dict[int, int]  # generator -> xi_v value


@dataclass
class SpecializedInstance:
    shape: RibetShape
    p: int
    seed: int
    rho_images: dict[int, M2]  # generator -> rho(g) in GL_2
    chi: dict[int, int]
    psi: dict[int, int]
    places: dict[str, PlaceData]
    eps: list[list[int]]  # one row per TypeI row
    delta: dict[tuple[int, int], list[int]]  # (i, j) -> delta_ij*
    alpha: dict[int, list[int]]  # sigma_v generator -> expansion coefficients
    E: list[list[int]] = field(default=None)
    Eprime: list[list[int]] = field(default=None)
    D: list[list[int]] = field(default=None)

    @property
    def ring(self) -> CoefficientRing:
        return GF(self.p)

    def rho_shift(self, g: int) -> M2:
        """rho_g = rho(g) - psi(g), the module generator."""
        return _m2_add_scalar(self.rho_images[g], -self.psi[g] % self.p, self.p)

    def nu(self, g: int) -> int:
        return (self.psi[g] - self.chi[g]) % self.p

    def x_val(self, g: int) -> int:
        """xi_v(g) - psi(g) for a place-dedicated generator."""
        return (self._xi(g) - self.psi[g]) % self.p

    def z_val(self, g: int) -> int:
        """xi_v(g) - chi(g)."""
        return (self._xi(g) - self.chi[g]) % self.p

    def _xi(self, g: int) -> int:
        """xi_v(g) for the place v that g is attached to: the one place
        whose ``xi`` has g as a key."""
        for data in self.places.values():
            if g in data.xi:
                return data.xi[g]
        raise StructuralError(f"generator {g} is not attached to a place")

    # -- word evaluation ------------------------------------------------
    def rho_word(self, word: list[int]) -> M2:
        p, images = self.p, self.rho_images
        a, b, c, d = _ID
        for g in word:
            e, f, h, k = images[g]
            a, b, c, d = (a * e + b * h) % p, (a * f + b * k) % p, (c * e + d * h) % p, (c * f + d * k) % p
        return a, b, c, d

    def char_word(self, char: dict[int, int], word: list[int]) -> int:
        p = self.p
        acc = 1
        for g in word:
            acc = acc * char[g] % p
        return acc

    def kappa(self, word: list[int]) -> M2:
        """psi(w)^{-1} (rho(w) - psi(w))."""
        p = self.p
        pw = self.char_word(self.psi, word)
        a, b, c, d = self.rho_word(word)
        s = pow(pw, -1, p)
        return (a - pw) * s % p, b * s % p, c * s % p, (d - pw) * s % p

    def to_record(self) -> dict:
        """Full serialization: seed, prime, and every drawn or solved
        value.  Generation is deterministic in (seed, p, shape), so a
        record plus the shape replays bit-exactly."""
        return {
            "shape": self.shape.name,
            "seed": self.seed,
            "p": self.p,
            "rho_images": {str(g): list(m) for g, m in sorted(self.rho_images.items())},
            "chi": {str(g): v for g, v in sorted(self.chi.items())},
            "psi": {str(g): v for g, v in sorted(self.psi.items())},
            "places": {
                v: {
                    "M": list(d.M),
                    "eta": {str(g): x for g, x in sorted(d.eta.items())},
                    "xi": {str(g): x for g, x in sorted(d.xi.items())},
                }
                for v, d in sorted(self.places.items())
            },
            "eps": [list(row) for row in self.eps],
            "delta": {f"{i},{j}": list(v) for (i, j), v in sorted(self.delta.items())},
            "alpha": {str(g): list(v) for g, v in sorted(self.alpha.items())},
            "E": [list(r) for r in self.E],
            "Eprime": [list(r) for r in self.Eprime],
            "D": [list(r) for r in self.D],
        }


# ---------------------------------------------------------------------------
# Generation.

def generate_specialization(shape: RibetShape, seed: int, p: int) -> SpecializedInstance:
    """Draw a consistent instance; deterministic in (seed, p).

    Raises GenerationFailure after the retry budget (the structural
    requirements are generic, so failures indicate a hostile shape, a
    tiny prime, or too few free generators).
    """
    if p < 3:
        raise StructuralError("need an odd prime")
    free = shape.free_generators()
    if len(free) < 4:
        raise StructuralError(
            f"shape {shape.name!r} has {len(free)} free generators; need >= 4 to span"
        )
    ring = GF(p)
    rng = random.Random(f"{seed}:{p}:{shape.name}")
    for _attempt in range(RETRY_BUDGET):
        inst = _try_generate(shape, seed, p, ring, rng)
        if inst is not None:
            return inst
    raise GenerationFailure(
        f"no consistent instance for shape {shape.name!r} after {RETRY_BUDGET} rerolls"
    )


def _rand_gl2(rng, p) -> M2:
    while True:
        m = tuple(rng.randrange(p) for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % p != 0:
            return m


def _try_generate(shape, seed, p, ring, rng) -> SpecializedInstance | None:
    places: dict[str, PlaceData] = {}
    rho_images: dict[int, M2] = {}
    chi = {g: rng.randrange(1, p) for g in range(1, shape.r + 1)}
    psi = {g: rng.randrange(1, p) for g in range(1, shape.r + 1)}

    for v in shape.p_places + shape.sigma_places:
        if shape.sigma_places and v == shape.v0:
            M = _ID
        else:
            M = _rand_gl2(rng, p)
            if M[3] % p == 0:  # need D_v invertible for the kernel vector
                return None
        data = PlaceData(M=M, eta={}, xi={})
        Minv = _m2_inv(M, p)
        for g in shape.b_set(v):  # lower-triangular (eta, 0, *, xi), conjugated by M
            eta, xi, star = rng.randrange(1, p), rng.randrange(1, p), rng.randrange(p)
            rho_images[g] = _m2_mul(_m2_mul(M, (eta, 0, star, xi), p), Minv, p)
            data.eta[g], data.xi[g] = eta, xi
        places[v] = data

    for g in shape.free_generators():
        rho_images[g] = _rand_gl2(rng, p)

    inst = SpecializedInstance(shape=shape, p=p, seed=seed, rho_images=rho_images, chi=chi,
                               psi=psi, places=places, eps=[], delta={}, alpha={})

    # One elimination of [coeff | TypeII products | alpha targets] gives
    # the rank, the eps kernel vectors and every delta and alpha row.
    # TypeII rows: (rho_i + nu_i) rho_j = sum_k delta_ijk rho_k; alpha
    # rows expand rho_shift(sigma_v) for the chosen sigma_v elements.
    pairs = shape.type_ii_pairs()
    sigmas = [shape.sigma_v[v] for v in shape.p_places]
    rhs = [
        _m2_mul(_m2_add_scalar(inst.rho_shift(i), inst.nu(i), p), inst.rho_shift(j), p)
        for (i, j) in pairs
    ] + [inst.rho_shift(g) for g in sigmas]
    rank, kern, sols = reduce_system(_coefficient_matrix(inst), rhs, ring)

    # Spanning: the shifted images must fill the 2x2 matrix algebra (so
    # no common eigenline; see the module docstring).
    if rank != 4:
        return None

    # TypeI rows: one kernel vector per row, distinct basis elements first.
    n_type_i = shape.type_i_count()
    if len(kern) < n_type_i:
        raise StructuralError(
            f"shape {shape.name!r}: {n_type_i} TypeI rows need kernel rank >= {n_type_i}"
        )
    inst.eps = kern[:n_type_i]

    if None in sols:
        return None
    inst.delta = dict(zip(pairs, sols))
    inst.alpha = dict(zip(sigmas, sols[len(pairs):]))

    _assemble_matrices(inst)
    return inst


def _m2_inv(m: M2, p: int) -> M2:
    i = pow((m[0] * m[3] - m[1] * m[2]) % p, -1, p)
    return (m[3] * i % p, -m[1] * i % p, -m[2] * i % p, m[0] * i % p)


def _coefficient_matrix(inst: SpecializedInstance) -> list[list[int]]:
    """4 x r matrix whose columns are the flattened shifted images."""
    cols = [inst.rho_shift(g) for g in range(1, inst.shape.r + 1)]
    return [[cols[j][i] for j in range(len(cols))] for i in range(4)]


# ---------------------------------------------------------------------------
# Matrix assembly (the numeric auxiliary matrices of the shape).

def _assemble_matrices(inst: SpecializedInstance):
    """E, E' and D of the instance, laid out by formal.auxiliary_matrices
    from the instance's values of the formal entries.  E differs from the
    formal E at the instance in three cells, each by design: a row of P
    holds alpha[sigma_v] (the expansion of rho_{sigma_v}) where the
    formal row holds a unit, and a TypeIV or TypeV place entry is 0 or
    nu_g where the formal one is x_g + nu_g (z_val at the instance)."""
    p = inst.p

    def a(g):
        return inst.rho_shift(g)[0]

    place = {"P": inst.z_val, "IV": lambda g: 0, "V": inst.nu}
    E, Ep, D = auxiliary_matrices(inst.shape, 0, 1, {
        "P": lambda g: inst.alpha[g],
        "I": lambda k: inst.eps[k - 1],
        "II": lambda i, j: inst.delta[(i, j)],
        "place": lambda kind, g: place[kind](g),
        "place'": lambda g: inst.x_val(g) - a(g),
        "II'": lambda i, j: (a(i) + inst.nu(i), inst.rho_shift(j)[3]),
    })
    inst.E = E
    inst.Eprime = [[x % p for x in row] for row in Ep]
    inst.D = D


def perturb_alpha(inst: SpecializedInstance) -> SpecializedInstance:
    """Negative control: a copy of ``inst`` with one solved coefficient
    corrupted and E, E' and D reassembled.  It shares no mutable state with
    ``inst``: its containers are new, the values in them immutable."""
    out = SpecializedInstance(
        shape=inst.shape, p=inst.p, seed=inst.seed, rho_images=dict(inst.rho_images),
        chi=dict(inst.chi), psi=dict(inst.psi),
        places={v: PlaceData(d.M, dict(d.eta), dict(d.xi)) for v, d in inst.places.items()},
        eps=[list(row) for row in inst.eps],
        delta={key: list(row) for key, row in inst.delta.items()},
        alpha={g: list(row) for g, row in inst.alpha.items()},
    )
    if out.alpha:
        row = out.alpha[min(out.alpha)]
    elif out.delta:
        row = out.delta[min(out.delta)]
    elif out.eps:
        row = out.eps[0]
    else:
        raise StructuralError("instance has no solved coefficients to perturb")
    row[0] = (row[0] + 1) % out.p
    _assemble_matrices(out)
    return out


# ---------------------------------------------------------------------------
# Checks.

@dataclass
class SpecializedChecks:
    detE_factorization: bool
    detEprime_zero: bool
    cocycle: bool
    J_vanishes: bool

    def all_pass(self) -> bool:
        return self.detE_factorization and self.detEprime_zero and self.cocycle and self.J_vanishes


def check_specialized(inst: SpecializedInstance) -> SpecializedChecks:
    ring, p, shape = inst.ring, inst.p, inst.shape
    z_prod = 1
    for v in shape.p_places:
        z_prod = z_prod * inst.z_val(shape.sigma_v[v]) % p
    factorization = det(inst.E, ring) == z_prod * det(inst.D, ring) % p
    eprime_zero = det(inst.Eprime, ring) == 0
    return SpecializedChecks(factorization, eprime_zero, _check_cocycle(inst), _check_j_vanishes(inst))


def _check_cocycle(inst: SpecializedInstance) -> bool:
    """On seeded word pairs, the defect kappa(w1 w2) - kappa(w1) -
    chi psi^{-1}(w1) kappa(w2) must equal the element
    psi(w1 w2)^{-1} (rho(w1) - chi(w1)) (rho(w2) - psi(w2)) of
    Delta_chi . Delta_psi, exactly; expanding kappa gives the identity.

    The check reads only ``rho_images``, ``chi`` and ``psi``, never the
    solved coefficients, so it cannot catch a wrong eps, delta or alpha:
    on a ``perturb_alpha`` instance it passes, and the perturbed control
    rests on det(E') alone."""
    p = inst.p
    rng = random.Random(f"{inst.seed}:cocycle")
    r = inst.shape.r
    for _ in range(WORD_SAMPLES):
        w1 = [rng.randrange(1, r + 1) for _ in range(rng.randrange(1, 4))]
        w2 = [rng.randrange(1, r + 1) for _ in range(rng.randrange(1, 4))]
        chi1 = inst.char_word(inst.chi, w1)
        psi1 = inst.char_word(inst.psi, w1)
        psi2 = inst.char_word(inst.psi, w2)
        scale = pow(psi1 * psi2, -1, p)  # psi(w1 w2)^{-1}; psi2 * scale is psi(w1)^{-1}
        k2 = _m2_scale(inst.kappa(w2), chi1 * psi2 * scale, p)
        defect = _m2_sub(_m2_sub(inst.kappa(w1 + w2), inst.kappa(w1), p), k2, p)
        product = _m2_mul(_m2_add_scalar(inst.rho_word(w1), -chi1 % p, p),
                          _m2_add_scalar(inst.rho_word(w2), -psi2 % p, p), p)
        if defect != _m2_scale(product, scale, p):
            return False
    return True


def _check_j_vanishes(inst: SpecializedInstance) -> bool:
    """Every relation-ideal generator evaluates to zero at the instance.
    J over GF(p) is the shared construction of formal.build_ideals."""
    return not any(evaluate_all(build_ideals(inst.shape, inst.ring).J.generators, _instance_point(inst)))


# Each formal variable kind -> its value at an instance, given the
# indices of the variable's key.
_READERS = {
    "nu": SpecializedInstance.nu,
    "eps": lambda inst, block, i: inst.eps[block - 1][i - 1],
    "delta": lambda inst, i, j, k: inst.delta[(i, j)][k - 1],
    "x": SpecializedInstance.x_val,
    **{tag: (lambda inst, g, comp=comp: inst.rho_shift(g)[comp])
       for comp, tag in enumerate("abcd")},
}


@functools.lru_cache(maxsize=8)
def _point_plan(shape: RibetShape, p: int) -> tuple:
    """(index, reader, indices) for each formal variable, reader(inst,
    *indices) being its value at an instance.  Read once per (shape, p)
    from the variable keys of the shared formal ring; the key is the
    shape's value, not its identity, so a copied or re-read shape finds
    the same entry."""
    return tuple(
        (col, _READERS[kind], tuple(indices))
        for (kind, *indices), col in formal_ring(shape, GF(p)).keys.items()
    )


def _instance_point(inst: SpecializedInstance) -> dict[int, int]:
    """Map formal-ring variables to the instance's field values."""
    return {idx: read(inst, *indices) for idx, read, indices in _point_plan(inst.shape, inst.p)}
