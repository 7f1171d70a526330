#!/usr/bin/env python3
"""A committed list of mutants, each with the Tier-1 test that must kill it.

A mutant is (name, file, old text, new text, killer test): the old text,
which occurs exactly once in the file, is replaced by the new one.  Each
makes a check permissive or a pair criterion wrong, so it must fail its
killer test.  ``tests/test_mutants.py`` checks only that every old text
still occurs exactly once and that every killer names a test function
its file defines, so the list cannot rot silently; running the mutants
is this script, not a Tier-1 step.

For each mutant named (all by default) the script copies the repository,
without its git data and caches, to a temporary directory, applies the
mutant there and runs its killer test with ``pytest -x``.  It prints one
line per mutant, "killed" or "SURVIVED", and exits 1 if any survived.
The working tree is never written.

Run: python scripts/mutants.py [name ...]
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killer: str


MUTANTS = (
    Mutant(
        "bulk coprime count ignores the degree bound",
        "src/ribetkit/reducers.py",
        "return chain(_ids(shared), phase), low & ~shared",
        "return chain(_ids(shared), phase), self.all & ~shared",
        "tests/test_groebner.py::test_work_counts_of_a_degree_5_member_of_j_p1_type4",
    ),
    Mutant(
        "own-lead F5 test before the room check",
        "src/ribetkit/groebner.py",
        "                    if t & mask > room:\n",
        "                    if other[5] is None and ((t | guard) - other[0]) & guard == guard:\n"
        "                        f5 += 1\n"
        "                        continue\n"
        "                    if t & mask > room:\n",
        "tests/test_groebner.py::test_an_overflowing_attempt_counts_only_the_pairs_before_the_overflow",
    ),
    Mutant(
        "an overflow flushes every coprime pair",
        "src/ribetkit/groebner.py",
        "                        coprime &= (1 << i) - 1  # the scan formed only those before i\n",
        "",
        "tests/test_groebner.py::test_an_indexed_phase_that_overflows_counts_what_the_scan_counts",
    ),
    Mutant(
        "the index's divisor query finds nothing",
        "src/ribetkit/reducers.py",
        "            rec = self.find(t)\n",
        "            rec = None\n",
        "tests/test_groebner.py::test_work_counts_of_j_sigma_v0_type3_on_both_cores",
    ),
    Mutant(
        "adjoint_quadruple_check skips its torus-weight test",
        "src/ribetkit/borel.py",
        "return weights == (0, 1, -1, 0)",
        "return True",
        "tests/test_borel.py::test_adjoint_quadruple_check_rejects_a_quadruple_times_its_own_b",
    ),
    Mutant(
        "_check_j_vanishes always holds",
        "src/ribetkit/ribet/specialize.py",
        "return not any(evaluate_all(build_ideals(inst.shape, inst.ring).J.generators, _instance_point(inst)))",
        "return True",
        "tests/test_ribet_special.py::test_j_vanishes_check_rejects_a_point_off_j",
    ),
    Mutant(
        "the det congruence check always holds",
        "src/ribetkit/genmat.py",
        "    target, terms = _det_terms(r, indices, word_cap)\n"
        "    return sum((q * g for q, g in terms), Polynomial.zero(target.ring, target.table)) == target\n",
        "    target, terms = _det_terms(r, indices, word_cap)\n"
        "    return True\n",
        "tests/test_genmat.py::test_det_congruence_fails_with_a_wrong_or_missing_pair",
    ),
    Mutant(
        "element_e never raises",
        "src/ribetkit/ribet/formal.py",
        """        raise StructuralError("det(E') - det(E) escaped I_R")\n""",
        "        pass\n",
        "tests/test_ribet_formal.py::test_element_e_rejects_a_perturbed_e_prime",
    ),
    Mutant(
        "formal imports the engine when it loads",
        "src/ribetkit/ribet/formal.py",
        "from ..algebra import DEFAULT_BUDGET, Budget, FreeModuleMatrix, IdealSpec\n",
        "from ..algebra import DEFAULT_BUDGET, Budget, FreeModuleMatrix, IdealSpec\n"
        "from ..groebner import in_ideal\n",
        "tests/test_import_layering.py::test_a_specialization_and_its_control_leave_the_engine_unloaded",
    ),
    Mutant(
        "member-always",
        "src/ribetkit/groebner.py",
        "    return all(not eng.divide([f], records, counter)[0] for f in targets)\n",
        "    return True\n",
        "tests/test_ribet_formal.py::test_tau_invariance_positive_and_negative",
    ),
    Mutant(
        "the trace congruence check always holds",
        "src/ribetkit/genmat.py",
        "    target, terms = _trace_terms(w, r, model)\n"
        "    return sum((q * g for q, g in terms), Polynomial.zero(target.ring, target.table)) == target\n",
        "    target, terms = _trace_terms(w, r, model)\n"
        "    return True\n",
        "tests/test_veriharness.py::test_trace_suite_fails_exactly_the_words_whose_identity_breaks",
    ),
    Mutant(
        "_rejects always passes",
        "src/ribetkit/veriharness/suites.py",
        "return not fn(*args), witness",
        "return True, witness",
        "tests/test_veriharness.py::test_rejects_fails_when_the_check_holds",
    ),
    Mutant(
        "check_commutes never compares",
        "src/ribetkit/brcomplex/free_complex.py",
        "            if lhs is None or rhs is None or lhs.entries != rhs.entries:\n"
        "                return False\n",
        "",
        "tests/test_brcomplex.py::test_check_commutes_reads_a_missing_differential_as_zero",
    ),
    Mutant(
        "homology_at_point returns all zeros",
        "src/ribetkit/brcomplex/free_complex.py",
        "return [C.ranks[k] - ranks_d[k] - ranks_d[k + 1] for k in range(C.top_degree + 1)]",
        "return [0] * (C.top_degree + 1)",
        "tests/test_brcomplex.py::test_homology_at_point_examples",
    ),
    Mutant(
        "the tensor boundary drops its (-1)^p sign",
        "src/ribetkit/brcomplex/free_complex.py",
        "yield (p, q - 1, j1, i2), -e if p % 2 else e",
        "yield (p, q - 1, j1, i2), e",
        "tests/test_brcomplex.py::test_tensor_differentials_match_dense_koszul_sign_reference",
    ),
    Mutant(
        "ideal_quotient returns I",
        "src/ribetkit/groebner.py",
        "    return IdealSpec([v[0] for v in _syzygies(FreeModuleMatrix([row]), budget)])\n",
        "    return spec\n",
        "tests/test_veriharness.py::test_the_degenerate_regularity_control_fails_in_a_computed_quotient",
    ),
    Mutant(
        "the colon criterion skips its containment test",
        "src/ribetkit/brcomplex/build.py",
        "        if not _ideal_contains_all(IdealSpec(target), quotient.generators, budget):\n"
        "            return False\n",
        "",
        "tests/test_brcomplex.py::test_regularity_examples",
    ),
    Mutant(
        "tau_fixed_mod holds on a nonzero difference",
        "src/ribetkit/borel.py",
        "    return in_ideal(diff, IdealSpec([g.lift(act.table) for g in generators]), budget)\n",
        "    return True\n",
        "tests/test_ribet_formal.py::test_tau_invariance_positive_and_negative",
    ),
)


def run(mutant: Mutant) -> bool:
    """Whether the killer test fails on a copy of the tree with the mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.killer],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": str(tree / "src")},
            capture_output=True,
        )
        return result.returncode != 0


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        raise SystemExit(f"unknown mutant among {names}")
    survived = 0
    for mutant in chosen:
        killed = run(mutant)
        survived += not killed
        print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name} ({mutant.killer})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
