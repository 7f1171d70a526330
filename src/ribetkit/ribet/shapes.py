"""Combinatorial description of relation-matrix shapes.

A shape records the generator count r, an ordered list of relation rows
(the five kinds), the places split into Sigma (first entry
distinguished as v0 when nonempty) and P, and the chosen element
sigma_v per place of P.  Rows of kinds III, IV, V each point at a
dedicated generator index, as does each sigma_v; those indices must be
distinct.  The auxiliary square matrix built from a shape has
t + r + s rows and columns (t = #P, s = #Sigma - 1), so a valid shape
has exactly r + s relation rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..errors import StructuralError


@dataclass(frozen=True)
class RowSpec:
    kind: str  # "I" | "II" | "III" | "IV" | "V"
    i: int | None = None  # TypeII left factor index
    j: int | None = None  # TypeII right factor index
    place: str | None = None  # TypeIV/V place label
    sigma: int | None = None  # TypeIII/IV/V dedicated generator index

    @staticmethod
    def type_i() -> "RowSpec":
        return RowSpec("I")

    @staticmethod
    def type_ii(i: int, j: int) -> "RowSpec":
        return RowSpec("II", i=i, j=j)

    @staticmethod
    def type_iii(sigma: int) -> "RowSpec":
        return RowSpec("III", sigma=sigma)

    @staticmethod
    def type_iv(place: str, sigma: int) -> "RowSpec":
        return RowSpec("IV", place=place, sigma=sigma)

    @staticmethod
    def type_v(place: str, sigma: int) -> "RowSpec":
        return RowSpec("V", place=place, sigma=sigma)

    def __str__(self):
        if self.kind == "I":
            return "I"
        if self.kind == "II":
            return f"II {self.i} {self.j}"
        if self.kind == "III":
            return f"III {self.sigma}"
        return f"{self.kind} {self.place} {self.sigma}"


def _int(key: str, value) -> int:
    """``value`` as an int; a malformed number is a config error naming
    its key."""
    try:
        return int(value)
    except ValueError:
        raise StructuralError(f"{key} = {value!r} is not an integer") from None


# The fields after the kind of each shape-file row, read by
# RibetShape.from_mapping, and the constructor they feed.
_ROW_KINDS = {
    "I": ("", RowSpec.type_i),
    "II": ("nn", RowSpec.type_ii),
    "III": ("n", RowSpec.type_iii),
    "IV": ("sn", RowSpec.type_iv),
    "V": ("sn", RowSpec.type_v),
}
_FORMS = {"row": "I | II i j | III sigma | IV place sigma | V place sigma",
          "place_p": "place sigma_v"}


@dataclass(frozen=True)
class RibetShape:
    name: str
    r: int
    rows: tuple[RowSpec, ...]
    sigma_places: tuple[str, ...] = ()  # Sigma; first entry is v0
    p_places: tuple[str, ...] = ()  # P = (v_1, ..., v_t)
    sigma_v: Mapping[str, int] = field(default_factory=dict)  # v in P -> generator

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "sigma_v", dict(self.sigma_v))
        self._validate()

    def __hash__(self):
        # A value hash consistent with the generated __eq__; sigma_v is a
        # dict, so the dataclass cannot hash it itself.
        return hash(
            (self.name, self.r, self.rows, self.sigma_places, self.p_places,
             tuple(sorted(self.sigma_v.items())))
        )

    # -- derived quantities -------------------------------------------------
    @property
    def s(self) -> int:
        return max(0, len(self.sigma_places) - 1)

    @property
    def t(self) -> int:
        return len(self.p_places)

    @property
    def v0(self) -> str | None:
        return self.sigma_places[0] if self.sigma_places else None

    def rows_of_kind(self, kind: str) -> list[RowSpec]:
        return [row for row in self.rows if row.kind == kind]

    def b_set(self, place: str) -> list[int]:
        """B_v: dedicated generator indices attached to a place."""
        if place in self.p_places:
            out = [self.sigma_v[place]]
            out += [row.sigma for row in self.rows if row.kind == "IV" and row.place == place]
            return sorted(set(out))
        if self.sigma_places and place == self.v0:
            return sorted(row.sigma for row in self.rows if row.kind == "III")
        if place in self.sigma_places:
            return sorted(row.sigma for row in self.rows if row.kind == "V" and row.place == place)
        raise StructuralError(f"unknown place {place!r}")

    def b_v0(self) -> list[int]:
        """Generators whose b-variable is deleted from the formal ring."""
        return self.b_set(self.v0) if self.sigma_places else []

    def dedicated(self) -> list[int]:
        out = set()
        for row in self.rows:
            if row.kind in ("III", "IV", "V"):
                out.add(row.sigma)
        out.update(self.sigma_v.values())
        return sorted(out)

    def free_generators(self) -> list[int]:
        ded = set(self.dedicated())
        return [i for i in range(1, self.r + 1) if i not in ded]

    @property
    def outer_places(self) -> tuple[str, ...]:
        """The places v != v0: P, then Sigma minus v0."""
        return self.p_places + self.sigma_places[1:]

    def place_columns(self) -> dict[str, int]:
        """The column of the auxiliary matrix for each place v != v0: the
        places of P fill the first t columns, those of Sigma minus v0 the
        last s (after the r generator columns)."""
        return {v: k if k < self.t else k + self.r for k, v in enumerate(self.outer_places)}

    def x_bearing(self) -> list[int]:
        """Generators carrying an x variable: members of some B_v,
        v != v0."""
        return sorted({g for v in self.outer_places for g in self.b_set(v)})

    def type_ii_pairs(self) -> list[tuple[int, int]]:
        return [(row.i, row.j) for row in self.rows if row.kind == "II"]

    def type_i_count(self) -> int:
        return len(self.rows_of_kind("I"))

    # -- validation ---------------------------------------------------------
    def _validate(self):
        if self.r < 1:
            raise StructuralError("need at least one generator")
        if len(self.rows) != self.r + self.s:
            raise StructuralError(
                f"shape {self.name!r}: {len(self.rows)} rows but r + s = {self.r + self.s}"
            )
        if len(set(self.sigma_places) | set(self.p_places)) != len(self.sigma_places) + len(
            self.p_places
        ):
            raise StructuralError("place labels must be distinct")
        if set(self.sigma_v) != set(self.p_places):
            raise StructuralError("need exactly one sigma_v per place of P")
        seen_pairs = set()
        dedicated = list(self.sigma_v.values())
        for row in self.rows:
            if row.kind == "II":
                if not (1 <= row.i <= self.r and 1 <= row.j <= self.r):
                    raise StructuralError("TypeII indices out of range")
                if (row.i, row.j) in seen_pairs:
                    raise StructuralError(f"duplicate TypeII row {(row.i, row.j)}")
                seen_pairs.add((row.i, row.j))
            elif row.kind == "III":
                if not self.sigma_places:
                    raise StructuralError("TypeIII rows need a nonempty Sigma")
                dedicated.append(row.sigma)
            elif row.kind == "IV":
                if row.place not in self.p_places:
                    raise StructuralError(f"TypeIV place {row.place!r} not in P")
                dedicated.append(row.sigma)
            elif row.kind == "V":
                if row.place not in self.sigma_places[1:]:
                    raise StructuralError(f"TypeV place {row.place!r} not in Sigma minus v0")
                dedicated.append(row.sigma)
            elif row.kind != "I":
                raise StructuralError(f"unknown row kind {row.kind!r}")
        if len(set(dedicated)) != len(dedicated):
            raise StructuralError("dedicated generator indices must be distinct")
        if any(not (1 <= g <= self.r) for g in dedicated):
            raise StructuralError("dedicated generator index out of range")
        for v in self.sigma_places[1:]:
            if not self.b_set(v):
                raise StructuralError(f"place {v!r} in Sigma needs at least one TypeV row")
        if self.sigma_places and not self.b_set(self.v0):
            raise StructuralError("v0 needs at least one TypeIII row")

    # -- text config ----------------------------------------------------------
    @staticmethod
    def from_mapping(m: Mapping[str, Sequence[str]]) -> "RibetShape":
        """Build from a flat key/value mapping (values are lists because
        keys repeat).  Recognized keys:

            name = spec-r4
            generators = 7
            row = I | II i j | III sigma | IV place sigma | V place sigma
            place_sigma = v0            (repeatable; first one is v0)
            place_p = v sigma_v         (repeatable)
        """
        def single(key, default=None):
            vals = m.get(key)
            if not vals:
                if default is None:
                    raise StructuralError(f"shape config missing {key!r}")
                return default
            return vals[-1]

        def fields(key, text, parts, form):
            """``parts`` read by ``form``, one letter per field: 's' a
            label, 'n' an integer.  A mismatch names the key and text."""
            if form is None or len(parts) != len(form):
                raise StructuralError(f"{key} = {text!r} is not of the form {_FORMS[key]}")
            return [_int(f"{key} {text!r}", x) if f == "n" else x for f, x in zip(form, parts)]

        rows = []
        for text in m.get("row", []):
            kind, *parts = text.split() or [""]
            form, make = _ROW_KINDS.get(kind.upper(), (None, None))
            rows.append(make(*fields("row", text, parts, form)))
        p_places = []
        sigma_v = {}
        for text in m.get("place_p", []):
            v, g = fields("place_p", text, text.split(), "sn")
            p_places.append(v)
            sigma_v[v] = g
        return RibetShape(
            name=single("name", "unnamed"),
            r=_int("generators", single("generators")),
            rows=tuple(rows),
            sigma_places=tuple(m.get("place_sigma", [])),
            p_places=tuple(p_places),
            sigma_v=sigma_v,
        )

    def to_config_text(self) -> str:
        lines = [f"name = {self.name}", f"generators = {self.r}"]
        for v in self.sigma_places:
            lines.append(f"place_sigma = {v}")
        for v in self.p_places:
            lines.append(f"place_p = {v} {self.sigma_v[v]}")
        for row in self.rows:
            lines.append(f"row = {row}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Corpus: the shapes exercised by the test and verification suites.
# Together they cover all five row kinds.

def shape_r2_two_type2() -> RibetShape:
    """r = 2, two TypeII rows, no places (the 2x2 worked identity)."""
    return RibetShape(
        name="r2-two-type2",
        r=2,
        rows=(RowSpec.type_ii(1, 2), RowSpec.type_ii(2, 1)),
    )


def shape_two_type1() -> RibetShape:
    """r = 2, two TypeI rows; the matrices need no alteration."""
    return RibetShape(name="r2-two-type1", r=2, rows=(RowSpec.type_i(), RowSpec.type_i()))


def shape_one_place_type4() -> RibetShape:
    """One place in P with |B_v| = 2 (sigma_v plus one TypeIV row)."""
    return RibetShape(
        name="p1-type4",
        r=4,
        rows=(
            RowSpec.type_iv("v1", 4),
            RowSpec.type_ii(1, 2),
            RowSpec.type_ii(2, 1),
            RowSpec.type_i(),
        ),
        p_places=("v1",),
        sigma_v={"v1": 3},
    )


def shape_sigma_type3() -> RibetShape:
    """Sigma = {v0} with one TypeIII row (a deleted b-variable)."""
    return RibetShape(
        name="sigma-v0-type3",
        r=3,
        rows=(RowSpec.type_iii(3), RowSpec.type_ii(1, 2), RowSpec.type_i()),
        sigma_places=("v0",),
    )


def shape_full_mixed() -> RibetShape:
    """All five row kinds in one shape: Sigma = {v0, w1}, P = {v1}."""
    return RibetShape(
        name="full-mixed",
        r=5,
        rows=(
            RowSpec.type_i(),
            RowSpec.type_ii(1, 1),
            RowSpec.type_ii(1, 2),
            RowSpec.type_iii(5),
            RowSpec.type_iv("v1", 3),
            RowSpec.type_v("w1", 4),
        ),
        sigma_places=("v0", "w1"),
        p_places=("v1",),
        sigma_v={"v1": 2},
    )


def shape_specialization() -> RibetShape:
    """Numeric verification shape: 4 free generators (so the shifted
    images can span the full 2x2 matrix algebra), one place in P with
    |B_v| = 2, Sigma = {v0} with one TypeIII row."""
    return RibetShape(
        name="spec-r4",
        r=7,
        rows=(
            RowSpec.type_iii(7),
            RowSpec.type_iv("v1", 6),
            RowSpec.type_i(),
            RowSpec.type_i(),
            RowSpec.type_ii(1, 2),
            RowSpec.type_ii(2, 3),
            RowSpec.type_ii(3, 4),
        ),
        sigma_places=("v0",),
        p_places=("v1",),
        sigma_v={"v1": 5},
    )


def corpus() -> list[RibetShape]:
    return [
        shape_r2_two_type2(),
        shape_two_type1(),
        shape_one_place_type4(),
        shape_sigma_type3(),
        shape_full_mixed(),
    ]
