"""A digest of the specialization layer: every value an instance draws or
solves, the four numeric verdicts on it, and the perturbed control's
values and verdicts.  Pinned so that a change to how instances are
generated, copied or checked cannot move any of them."""

import hashlib
import json

from ribetkit.ribet.shapes import RibetShape, RowSpec, shape_specialization
from ribetkit.ribet.specialize import check_specialized, generate_specialization, perturb_alpha

# sha256 of, for seeds 0..19 at p in {3, 7, 10007, 1000003} on the three
# shapes below: to_record() of the instance and of perturb_alpha(instance),
# and the four check_specialized verdicts on each.
SPEC_DIGEST = "3a2aad5d5c499448df21d38accb521d148de4fce696150632ba39d2c155077cd"


def _shapes():
    """spec-r4; one with a TypeV row (two Sigma places); one with no place
    in P, whose control perturbs a delta row instead of an alpha row."""
    return [
        shape_specialization(),
        RibetShape(
            name="spec-r8-type5",
            r=8,
            rows=(RowSpec.type_iii(8), RowSpec.type_iv("v1", 6), RowSpec.type_v("w1", 7),
                  RowSpec.type_i(), RowSpec.type_i(), RowSpec.type_ii(1, 2),
                  RowSpec.type_ii(2, 3), RowSpec.type_ii(3, 4), RowSpec.type_ii(4, 1)),
            sigma_places=("v0", "w1"),
            p_places=("v1",),
            sigma_v={"v1": 5},
        ),
        RibetShape(
            name="spec-r5-no-p",
            r=5,
            rows=(RowSpec.type_iii(5), RowSpec.type_i(), RowSpec.type_ii(1, 2),
                  RowSpec.type_ii(2, 3), RowSpec.type_ii(3, 4)),
            sigma_places=("v0",),
            p_places=(),
            sigma_v={},
        ),
    ]


def _verdicts(inst):
    res = check_specialized(inst)
    return [res.detE_factorization, res.detEprime_zero, res.cocycle, res.J_vanishes]


def _records():
    for sh in _shapes():
        for p in (3, 7, 10007, 1000003):
            for seed in range(20):
                inst = generate_specialization(sh, seed, p)
                control = perturb_alpha(inst)
                yield {"instance": inst.to_record(), "checks": _verdicts(inst),
                       "control": control.to_record(), "control_checks": _verdicts(control)}


def test_specializations_replay_the_pinned_digest():
    digest = hashlib.sha256()
    for record in _records():
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == SPEC_DIGEST
