"""Suite runner: config parsing, reports, determinism, CLI."""

import inspect
import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from ribetkit.errors import StructuralError
from ribetkit.exactpoly import Polynomial
from ribetkit.genmat import Word, trace_congruence_check
from ribetkit.groebner import Budget
from ribetkit.ribet.shapes import RibetShape, shape_specialization
from ribetkit.veriharness.cli import main
from ribetkit.veriharness.config import SuiteConfig, load_config, parse_flat_config
from ribetkit.veriharness.suites import SUITES, _rejects, list_suites, run_suite

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_CFG = os.path.join(ROOT, "configs", "default.cfg")


def test_parse_flat_config():
    text = """
    # comment
    top = 1
    [alpha]
    key = a b
    key = c
    [beta]
    x = 1..3
    """
    parsed = parse_flat_config(text)
    assert parsed[""]["top"] == ["1"]
    assert parsed["alpha"]["key"] == ["a b", "c"]
    assert parsed["beta"]["x"] == ["1..3"]
    with pytest.raises(StructuralError):
        parse_flat_config("no equals sign here")


def test_shape_config_round_trip():
    sh = shape_specialization()
    text = sh.to_config_text()
    back = RibetShape.from_mapping(parse_flat_config(text)[""])
    assert back == sh


def test_suite_config_validation():
    with pytest.raises(StructuralError):
        SuiteConfig(suite="example-r2", prime=10)
    with pytest.raises(StructuralError):
        SuiteConfig(suite="example-r2", seeds=[])
    with pytest.raises(StructuralError):
        SuiteConfig(suite="example-r2", shape_paths=["/nonexistent/shape.cfg"])


def test_load_config_overrides(tmp_path):
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text("[example-r2]\nprime = 17\nseeds = 1 2 3\n")
    cfg = load_config("example-r2", str(cfg_file), prime=101, jobs=2)
    assert cfg.prime == 101  # CLI wins over file
    assert cfg.seeds == [1, 2, 3]
    assert cfg.jobs == 2


def test_env_budget_override(monkeypatch):
    monkeypatch.setenv("VERIFY_BUDGET_STEPS", "12345")
    cfg = load_config("example-r2")
    assert cfg.budget.max_steps == 12345


def test_empty_seed_range_is_a_config_error(tmp_path, capsys):
    # An absent seeds key means seeds 0..19; one that names no seed is an
    # error, not that default.
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text("[example-r2]\nseeds = 5..3\n")
    with pytest.raises(StructuralError):
        load_config("example-r2", str(cfg_file))
    assert main(["run", "example-r2", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert load_config("example-r2").seeds == list(range(20))


@pytest.mark.parametrize(
    "key, text",
    [
        ("prime", "prime = abc"),
        ("seeds", "seeds = 1..x"),
        ("seeds", "seeds = 1 two"),
        ("jobs", "jobs = many"),
        ("degree_cap", "degree_cap = 2.5"),
        ("budget_steps", "budget_steps = 1e6"),
        ("degree_budget", "degree_budget = high"),
        ("VERIFY_BUDGET_STEPS", None),
    ],
)
def test_malformed_numbers_are_config_errors(tmp_path, capsys, monkeypatch, key, text):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"[example-r2]\n{text or 'seeds = 0'}\n")
    if text is None:
        monkeypatch.setenv("VERIFY_BUDGET_STEPS", "lots")
    with pytest.raises(StructuralError, match=key):
        load_config("example-r2", str(cfg_file))
    assert main(["run", "example-r2", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "key, text, jobs",
    [
        ("degree_cap", "degree_cap = -1", None),
        ("budget_steps", "budget_steps = -5", None),
        ("degree_budget", "degree_budget = -1", None),
        ("jobs", "jobs = 0", None),
        ("jobs", "seeds = 0", 0),  # --jobs 0 on the command line
    ],
)
def test_out_of_range_numbers_are_config_errors(tmp_path, capsys, key, text, jobs):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"[example-r2]\n{text}\n")
    with pytest.raises(StructuralError, match=key):
        load_config("example-r2", str(cfg_file), jobs=jobs)
    cli = [] if jobs is None else ["--jobs", str(jobs)]
    assert main(["run", "example-r2", "--config", str(cfg_file)] + cli) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("prime", ["2147483659", "1000000000000000003"])
def test_primes_past_the_field_bound_are_config_errors(capsys, prime):
    # Both are prime.  The bound p < 2**31 is checked before primality, so
    # neither a trial division up to 10**9 nor any of the 81 checks starts.
    start = time.perf_counter()
    assert main(["run", "specialization", "--prime", prime]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err == f"error: GF modulus must be a prime < 2**31, got {prime}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "line", ["row = II 1", "row =", "place_p = v1", "generators = two", "row = IV v1 x"]
)
def test_malformed_shape_files_are_config_errors(tmp_path, capsys, line):
    # The line follows a valid shape; a repeated generators key wins.
    shape = tmp_path / "bad-shape.cfg"
    shape.write_text(
        f"name = bad\ngenerators = 3\nplace_sigma = v0\nrow = III 3\nrow = I\nrow = II 1 2\n{line}\n"
    )
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text(f"[stability]\nshapes = {shape}\n")
    assert main(["run", "stability", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and line.partition("=")[0].strip() in err



@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("suite, text, key", [
    ("specialization", "seeds = 3 3", "seeds"),
    ("specialization", "seeds = 0..4 4..6", "seeds"),
    ("stability", "shapes = {p1} {p1}", "shapes"),
    ("stability", "shapes = {p1}\nshapes = {copy}", "shapes"),
], ids=["seed", "seed-ranges", "shape-twice", "shape-name"])
def test_repeated_seeds_or_shape_names_are_config_errors(tmp_path, capsys, jobs, suite, text, key):
    # Either would give two checks one id.  The run refuses the config
    # before any check runs, and writes no report.
    p1 = os.path.join(ROOT, "configs", "shapes", "p1-type4.cfg")
    copy = tmp_path / "copy.cfg"
    copy.write_text(open(p1, encoding="utf-8").read())
    cfg_file = tmp_path / "repeat.cfg"
    cfg_file.write_text(f"[{suite}]\n{text.format(p1=p1, copy=copy)}\n")
    out = tmp_path / "repeat.json"
    assert main(["run", suite, "--config", str(cfg_file), "--jobs", jobs, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and key in captured.err
    assert captured.out == "" and not out.exists()


def test_rejects_fails_when_the_check_holds():
    # A negative control passes only when its check returns False.
    assert _rejects("w", lambda: True) == (False, "w")
    assert _rejects("w", lambda x: x, False) == (True, "w")


def test_list_suites_catalog():
    entries = {e["name"]: e for e in list_suites()}
    assert len(entries) >= 9
    assert "l:stable" in entries["stability"]["anchors"]
    assert any(a in ("l:reg", "c:genericb") for a in entries["regularity"]["anchors"])
    assert "all" in entries


def test_run_example_r2_single_pass():
    cfg = SuiteConfig(suite="example-r2")
    report = run_suite(cfg)
    assert len(report.checks) == 1
    assert report.checks[0].status == "pass"
    assert report.exit_code() == 0


def test_unknown_suite_errors():
    with pytest.raises(StructuralError):
        run_suite(SuiteConfig(suite="no-such-suite"))


def test_report_determinism(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for out in (out1, out2):
        cfg = SuiteConfig(suite="stability", out_path=out, seeds=[0])
        run_suite(cfg)

    def normalize(path):
        with open(path) as fh:
            doc = json.load(fh)
        doc.pop("generated_at")
        for c in doc["checks"]:
            c.pop("runtime_s")
        return doc

    assert normalize(out1) == normalize(out2)


def test_report_checks_sorted_and_unique(tmp_path):
    cfg = SuiteConfig(suite="regularity")
    report = run_suite(cfg)
    ids = [c.id for c in report.checks]
    assert ids == sorted(ids) and len(ids) == len(set(ids))


def test_specialization_suite_counts():
    cfg = SuiteConfig(suite="specialization", seeds=[0, 1])
    report = run_suite(cfg)
    # 2 seeds x 4 fields + perturbed control.
    assert len(report.checks) == 9
    assert report.summary() == {"pass": 9, "fail": 0, "timeout": 0}


@pytest.mark.parametrize("jobs", [1, 8])
def test_specialization_generates_and_checks_each_seed_once(monkeypatch, tmp_path, jobs):
    import ribetkit.veriharness.suites as suites

    # The counters append lines to files, so calls made in worker
    # processes under --jobs are counted too.
    generated, checked = tmp_path / "generated", tmp_path / "checked"
    generate, check = suites.generate_specialization, suites.check_specialized

    def count(path, seed):
        with open(path, "a") as fh:
            fh.write(f"{seed}\n")

    def counting_generate(shape, seed, p):
        count(generated, seed)
        time.sleep(0.01)  # lets the other records start meanwhile
        return generate(shape, seed, p)

    def counting_check(inst):
        count(checked, inst.seed)
        return check(inst)

    def counts(path):
        return sorted(int(line) for line in path.read_text().split())

    monkeypatch.setattr(suites, "generate_specialization", counting_generate)
    monkeypatch.setattr(suites, "check_specialized", counting_check)
    # Under jobs=8 the records run concurrently; none may repeat a run.
    report = run_suite(SuiteConfig(suite="specialization", seeds=[0, 1], jobs=jobs))
    assert report.summary() == {"pass": 9, "fail": 0, "timeout": 0}
    # One generation per seed; the perturbed control checks a perturbed
    # copy of seed 0's instance.
    assert counts(generated) == [0, 1]
    assert counts(checked) == [0, 0, 1]


def test_perturbed_control_waits_for_the_seed_instance(monkeypatch):
    import ribetkit.veriharness.suites as suites

    # The control runs inside the record of the first seed, after that
    # seed's checks, on the instance they used: even with 8 jobs the seed
    # is generated once.
    generated = []
    generate = suites.generate_specialization

    def slow_generate(shape, seed, p):
        generated.append(seed)
        time.sleep(0.05)
        return generate(shape, seed, p)

    monkeypatch.setattr(suites, "generate_specialization", slow_generate)
    report = run_suite(SuiteConfig(suite="specialization", seeds=[0], jobs=8))
    assert report.summary() == {"pass": 5, "fail": 0, "timeout": 0}
    assert generated == [0]


def test_generation_failure_fails_all_four_checks_of_a_seed(monkeypatch):
    import ribetkit.ribet.specialize as specialize

    monkeypatch.setattr(specialize, "_try_generate", lambda *args: None)
    report = run_suite(SuiteConfig(suite="specialization", seeds=[0, 1]))
    witness = (
        f"no consistent instance for shape 'spec-r4' after {specialize.RETRY_BUDGET} rerolls"
    )
    assert len(report.checks) == 9
    for c in report.checks:
        assert (c.status, c.witness) == ("fail", witness), c.id


def _groebner_calls(run):
    """``run()`` and the module-level functions of ``groebner`` it called,
    by name: every engine entry point, however the caller imported it."""
    import ribetkit.groebner as groebner

    functions = {f.__code__ for f in vars(groebner).values() if inspect.isfunction(f) and f.__module__ == groebner.__name__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in functions:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        return run(), calls
    finally:
        sys.setprofile(None)


def test_no_trace_identities_record_reaches_the_engine():
    import ribetkit.veriharness.suites as suites

    # The 53 trace ids are two records, one per r, and the 3 det ids one
    # record each; all are decided by closed-form cofactors.
    cfg = SuiteConfig(suite="trace-identities")
    trace = [c for c in suites._suite_trace_identities(cfg) if c.ids[0][1] == "l:tr-char"]
    assert [len(c.ids) for c in trace] == [14, 39]
    report, calls = _groebner_calls(lambda: run_suite(cfg))
    assert calls == []
    assert report.summary() == {"pass": 56, "fail": 0, "timeout": 0}
    # No budget is spent on any of the 56 ids, so none can time out.
    starved = run_suite(SuiteConfig(suite="trace-identities", budget=Budget(max_steps=1)))
    assert starved.summary() == {"pass": 56, "fail": 0, "timeout": 0}


def test_no_element_e_record_reaches_the_engine():
    import ribetkit.ribet.formal as formal
    import ribetkit.veriharness.suites as suites

    # From a cold cache, so the formal construction runs inside the probe.
    formal._formal_ring.cache_clear()
    cfg = SuiteConfig(suite="quotient-presentation")
    records = [c for c in suites._suite_quotient_presentation(cfg) if c.ids[0][0].startswith("element-e-in-IR-")]
    assert len(records) == 5
    results, calls = _groebner_calls(lambda: [r for c in records for r in suites._execute(c)])
    assert calls == []
    assert {r.status for r in results} == {"pass"}


def test_the_degenerate_regularity_control_fails_in_a_computed_quotient(monkeypatch):
    import ribetkit.brcomplex.build as build
    import ribetkit.veriharness.suites as suites
    from ribetkit.groebner import in_ideal

    # Its columns make r_13 = b1 r_12, so the control fails at the k = 3
    # step: a nonzero element against the nonempty prior ideal (r_12),
    # whose quotient (1) is computed there, not the f = 0 shortcut's (1).
    quotient, calls = build.ideal_quotient, []

    def probe(spec, f, budget):
        q = quotient(spec, f, budget)
        calls.append((spec, f, q))
        return q

    monkeypatch.setattr(build, "ideal_quotient", probe)
    [control] = [
        c for c in suites._suite_regularity(SuiteConfig(suite="regularity"))
        if c.ids[0][0] == "regularity-degenerate-control"
    ]
    [result] = suites._execute(control)
    assert (result.status, result.witness) == ("pass", "degenerate matrix must fail")
    assert len(calls) == 2
    spec, f, q = calls[-1]
    assert len(spec.generators) == 1 and not f.is_zero()
    assert in_ideal(Polynomial.one(f.ring, f.table), q)
    assert not in_ideal(Polynomial.one(f.ring, f.table), spec)


def test_det_suite_fails_exactly_the_ids_whose_identity_breaks(monkeypatch):
    import ribetkit.genmat as genmat

    # det-single-2 has its first cofactor's sign flipped and det-pair-12
    # loses its last (cofactor, generator) pair; det-single-1 and every
    # trace id still pass.
    terms = genmat._det_terms

    def broken(r, indices, word_cap):
        target, pairs = terms(r, indices, word_cap)
        if tuple(indices) == (2,):
            q, g = pairs[0]
            pairs = [(-q, g)] + pairs[1:]
        if tuple(indices) == (1, 2):
            pairs = pairs[:-1]
        return target, pairs

    monkeypatch.setattr(genmat, "_det_terms", broken)
    report = run_suite(SuiteConfig(suite="trace-identities"))
    failed = [(c.id, c.status) for c in report.checks if c.status != "pass"]
    assert failed == [("det-pair-12", "fail"), ("det-single-2", "fail")]


def test_trace_suite_fails_exactly_the_words_whose_identity_breaks(monkeypatch):
    import ribetkit.genmat as genmat

    # X1.X2 over r=2 loses its first (cofactor, generator) pair and
    # X2.X3.X1 over r=3 has its last cofactor's sign flipped; every other
    # word, the rotations of X2.X3.X1 included, still passes on the model
    # its record shares with them.
    terms = genmat._trace_terms

    def broken(w, r, model):
        target, pairs = terms(w, r, model)
        if (r, w.letters) == (2, (1, 2)):
            pairs = pairs[1:]
        if (r, w.letters) == (3, (2, 3, 1)):
            q, g = pairs[-1]
            pairs = pairs[:-1] + [(-q, g)]
        return target, pairs

    monkeypatch.setattr(genmat, "_trace_terms", broken)
    report = run_suite(SuiteConfig(suite="trace-identities"))
    failed = [(c.id, c.status) for c in report.checks if c.status != "pass"]
    assert failed == [("trace-r2-X1.X2", "fail"), ("trace-r3-X2.X3.X1", "fail")]


def test_trace_record_matches_the_word_by_word_check(monkeypatch):
    import ribetkit.veriharness.suites as suites

    # Each record decides its words on one shared model and gives the
    # verdicts each word gets on a model of its own.
    models = []
    model_class = suites.GenericModel

    def counting_model(*args, **kwargs):
        models.append(args)
        return model_class(*args, **kwargs)

    monkeypatch.setattr(suites, "GenericModel", counting_model)
    cfg = SuiteConfig(suite="trace-identities")
    trace = [c for c in suites._suite_trace_identities(cfg) if c.ids[0][1] == "l:tr-char"]
    for check in trace:
        words, r = check.args
        assert [cid for cid, _anchor in check.ids] == [f"trace-r{r}-{w}" for w in words]
        expected = [trace_congruence_check(w, r) for w in words]
        assert check.fn(*check.args) == expected, r
    assert models == [(2,), (3,)]
    # Words in any order, rotations or not, get their own verdicts.
    words = (Word((1, 2)), Word((1, 1)), Word((2, 1)), Word((1, 2, 2)))
    assert suites._trace_congruences(words, 2) == [trace_congruence_check(w, 2) for w in words]


@pytest.mark.parametrize(
    "verdict, witness",
    [
        ([False], "malformed verdict [False]"),
        ("no", "malformed verdict 'no'"),
        ((False,), "malformed verdict (False,)"),
    ],
    ids=["list", "str", "one-tuple"],
)
def test_malformed_verdicts_fail_with_a_witness(verdict, witness):
    from ribetkit.veriharness.suites import Check, _execute

    (result,) = _execute(Check((("probe", "l:x"),), lambda: verdict))
    assert (result.status, result.witness) == ("fail", witness)
    # A record of two ids must return a list of two verdicts.
    ids = (("probe-1", "l:x"), ("probe-2", "l:x"))
    results = _execute(Check(ids, lambda: [True, verdict]))
    assert [(r.status, r.witness) for r in results] == [("pass", ""), ("fail", witness)]
    results = _execute(Check(ids, lambda: (True, True)))
    assert {r.status for r in results} == {"fail"}
    assert results[0].witness == "malformed verdicts (True, True) for 2 ids"
    # The two well-formed verdicts.
    assert [(r.status, r.witness) for r in _execute(Check(ids, lambda: [(False, "why"), True]))] == [
        ("fail", "why"), ("pass", "")
    ]


def test_jobs_parallel_matches_serial():
    def outcome(report):
        return [(c.id, c.anchor, c.status, c.witness) for c in report.checks]

    serial = run_suite(SuiteConfig(suite="all", jobs=1))
    parallel = run_suite(SuiteConfig(suite="all", jobs=2))
    assert outcome(parallel) == outcome(serial)


def test_run_all_reads_each_suite_section(tmp_path, capsys):
    # `verify run all --config FILE` runs each suite with the config its own
    # run of FILE gets: the top-level keys plus the suite's section.
    cfg_file = tmp_path / "suites.cfg"
    shape = os.path.join(ROOT, "configs", "shapes", "p1-type4.cfg")
    cfg_file.write_text(f"[specialization]\nseeds = 5..6\n[stability]\nshapes = {shape}\n")

    def outcome(suite):
        out = tmp_path / f"{suite}.json"
        main(["run", suite, "--config", str(cfg_file), "--out", str(out)])
        return [(c["id"], c["status"], c["witness"]) for c in json.loads(out.read_text())["checks"]]

    merged = outcome("all")
    assert merged == sorted(check for suite in SUITES for check in outcome(suite))
    ids = [cid for cid, _status, _witness in merged]
    assert [cid for cid in ids if cid.startswith("stability-")] == [
        "stability-negative-control", "stability-p1-type4",
    ]
    assert {cid[:len("spec-seed000")] for cid in ids if cid.startswith("spec-seed")} == {
        "spec-seed005", "spec-seed006",
    }
    capsys.readouterr()


def test_every_check_record_pickles():
    cfg = load_config("all")
    checks = [c for _d, build in SUITES.values() for c in build(cfg)]
    assert sum(len(c.ids) for c in checks) == 176
    for c in checks:
        assert pickle.loads(pickle.dumps(c)) == c, c.ids


def test_serial_run_does_not_load_multiprocessing():
    code = (
        "import sys\n"
        "from ribetkit.veriharness import SuiteConfig, run_suite\n"
        "run_suite(SuiteConfig(suite='regularity', jobs=1))\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_structural_error_in_a_check_exits_2(tmp_path, capsys, jobs):
    # generate_specialization refuses a shape with 2 free generators.  The
    # error fails every id of the seed's record, with its message as the
    # witness, in a worker process as in this one; the report is written
    # and the failed checks exit 2.
    shape = os.path.join(ROOT, "configs", "shapes", "r2-two-type2.cfg")
    cfg_file = tmp_path / "two.cfg"
    cfg_file.write_text(f"[specialization]\nshapes = {shape}\nseeds = 0 1\n")
    out = tmp_path / "two.json"
    assert main(["run", "specialization", "--config", str(cfg_file), "--jobs", jobs,
                 "--out", str(out)]) == 2
    witness = "shape 'r2-two-type2' has 2 free generators; need >= 4 to span"
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "suite specialization: 0 pass, 9 fail, 0 timeout" in captured.out
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 9
    assert {(c["status"], c["witness"]) for c in checks} == {("fail", witness)}


def test_structural_error_from_element_e_fails_its_ids(monkeypatch):
    # With the quotient map broken to the identity, element_e raises
    # "escaped I_R" for every shape whose e is nonzero: those element-e
    # ids fail with that witness, r2-two-type1 (e = 0) still passes, the
    # quotient presentations, which read the same map, fail, and the rest
    # of the run goes on.
    import ribetkit.ribet.formal as formal

    monkeypatch.setattr(formal, "_quotient_map", lambda F: {})
    report = run_suite(SuiteConfig(suite="all", jobs=1))
    assert len(report.checks) == 176
    escaped = ("fail", "det(E') - det(E) escaped I_R")
    element_e = {c.id: (c.status, c.witness) for c in report.checks if c.id.startswith("element-e-in-IR-")}
    assert element_e == {
        "element-e-in-IR-r2-two-type2": escaped,
        "element-e-in-IR-r2-two-type1": ("pass", "0 terms"),
        "element-e-in-IR-p1-type4": escaped,
        "element-e-in-IR-sigma-v0-type3": escaped,
        "element-e-in-IR-full-mixed": escaped,
    }
    failed = {c.id for c in report.checks if c.status != "pass"}
    presentations = {c.id for c in report.checks if c.id.startswith("quotient-presentation-")}
    assert failed == presentations | {cid for cid, outcome in element_e.items() if outcome == escaped}
    assert report.exit_code() == 2


def test_two_runs_in_one_process_replay(tmp_path):
    # The second run reads the formal constructions the first one built
    # and cached; a check that mutated one would show as a difference.
    import ribetkit.ribet.formal as formal

    formal._formal_ring.cache_clear()
    paths = [str(tmp_path / name) for name in ("first.json", "second.json")]
    for path in paths:
        assert run_suite(SuiteConfig(suite="all", jobs=1, out_path=path)).exit_code() == 0
    diff = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "report_diff.py"), *paths],
                          capture_output=True, text=True, timeout=60)
    assert (diff.returncode, diff.stdout) == (0, "")


def test_cli_list_and_run(capsys, tmp_path):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "stability" in out and "anchors" in out

    report_path = str(tmp_path / "r.json")
    code = main(["run", "example-r2", "--out", report_path])
    assert code == 0
    assert os.path.exists(report_path)
    with open(report_path) as fh:
        doc = json.load(fh)
    assert doc["summary"]["pass"] == 1

    assert main(["run", "nope"]) == 2


def test_cli_with_default_config():
    code = main(["run", "tau-invariance", "--config", DEFAULT_CFG])
    assert code == 0


def test_every_suite_has_anchors():
    # The anchors a suite lists are exactly those its checks carry: none
    # is listed without a check that certifies it.
    for entry in list_suites():
        name = entry["name"]
        assert entry["anchors"], name
        builders = [b for _d, b in SUITES.values()] if name == "all" else [SUITES[name][1]]
        cfg = load_config(name)
        carried = {anchor for build in builders for check in build(cfg) for _cid, anchor in check.ids}
        assert set(entry["anchors"]) == carried, name


def test_budget_timeout_exit_code(monkeypatch, tmp_path):
    # A starved step budget turns heavy checks into recorded timeouts
    # (exit code 3), never crashes.
    monkeypatch.setenv("VERIFY_BUDGET_STEPS", "1")
    cfg = load_config("tau-invariance")
    report = run_suite(cfg)
    statuses = {c.status for c in report.checks}
    assert "timeout" in statuses
    assert "fail" not in statuses
    assert report.exit_code() == 3
