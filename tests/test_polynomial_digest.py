"""A digest of what the polynomial layer computes that the C -> D and
formal-construction digests do not cover: determinants, trace questions,
tau_x images, the element e, a Groebner basis on both coefficient cores
and the symbolic H1 generators.  Every polynomial is pinned by its text.
"""

import hashlib
import json
from itertools import product

from ribetkit.borel import TauAction
from ribetkit.brcomplex import br_complexes, generic_2xn, symbolic_h1
from ribetkit.exactpoly import GF, QQ, to_text
from ribetkit.genmat import GenericModel, Word, trace_congruence_question
from ribetkit.groebner import buchberger
from ribetkit.ribet.formal import build_ideals, build_matrices, element_e
from ribetkit.ribet.shapes import corpus, shape_sigma_type3, shape_specialization

# sha256 of: det E and det E' of the six shapes (the corpus and the
# specialization shape) over QQ and GF(10007); the target and generators
# of the trace question of every word of length 1 to 3 for r = 2 and 3;
# the tau_x image of every entry of every relation quadruple of the
# corpus shapes; element_e of each corpus shape; the Groebner basis of
# J(sigma-v0-type3) over QQ and GF(2^31 - 1); and the symbolic H1
# generators of R(f) 2x4.
POLY_DIGEST = "2d514162f3d1d482bcc94ba5cde1dfd0afa0bc5b2361537d1288f3f26f0c6a23"


def _texts(polys):
    return [to_text(p) for p in polys]


def _records():
    for sh in corpus() + [shape_specialization()]:
        for ring in (QQ, GF(10007)):
            mats = build_matrices(sh, ring)
            yield {"det": [sh.name, repr(ring), to_text(mats.det_E), to_text(mats.det_Eprime)]}
    for r in (2, 3):
        model = GenericModel(r)
        for n in (1, 2, 3):
            for w in product(range(1, r + 1), repeat=n):
                target, spec = trace_congruence_question(Word(w), r, model)
                yield {"trace": [r, list(w), to_text(target), _texts(spec.generators)]}
    for sh in corpus():
        ideals = build_ideals(sh)
        act = TauAction(ideals.ring.table)
        for q in ideals.quadruples:
            yield {"tau": [sh.name, repr(q.origin), _texts(act.apply(f) for f in q.matrix.entries())]}
        yield {"e": [sh.name, to_text(element_e(sh))]}
    for ring in (QQ, GF(2**31 - 1)):
        yield {"gb": [repr(ring), _texts(buchberger(build_ideals(shape_sigma_type3(), ring).J).basis)]}
    rep = symbolic_h1(br_complexes(generic_2xn(4)).Rf)
    yield {"h1": [[_texts(v) for v in rep.h1_generators], rep.is_exact_at_1]}


def test_polynomial_outputs_replay_the_pinned_digest():
    digest = hashlib.sha256()
    for record in _records():
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == POLY_DIGEST
