"""Acceptance criteria, one test per criterion.

Each test runs the bundled suite at the full advertised instance counts,
prints a single pass/fail line, and enforces the stated time budget.
Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete (they also run under plain ``pytest``).
"""

from inclogic import suites

SEED = suites.DEFAULT_SEED


def _finish(number: int, label: str, result, budget: float):
    status = "PASS" if result.ok and result.elapsed <= budget else "FAIL"
    print(f"[criterion {number}] {status}: {label} — {result.passed} checks,"
          f" {result.failed} violations, {result.elapsed:.1f}s (budget {budget:.0f}s)"
          f"{result.skips()}")
    assert result.failed == 0, result.notes
    assert result.elapsed <= budget, f"exceeded {budget}s budget"


def test_criterion_1_oracle_equivalence():
    result = suites.suite_oracle_equivalence(SEED, count=10_000)
    assert result.passed == 10_000
    _finish(1, "eval_fast = eval_naive on 10^4 seeded instances", result, 60)


def test_criterion_2_lemma_properties():
    result = suites.suite_lemma_properties(SEED, count=10_000)
    assert result.passed >= 50_000  # five properties, 10^4 instances each
    _finish(2, "locality, union closure, flatness, downward closure,"
               " empty team on 10^4 instances each", result, 120)


def test_criterion_3_normal_form_preservation():
    result = suites.suite_normalform(SEED, count=1000)
    assert result.passed == 1000
    _finish(3, "eval(phi) = eval(render(normal_form(phi))) on 10^3 formulas",
            result, 120)


def test_criterion_4_wellfoundedness():
    result = suites.suite_wellfoundedness()
    assert result.passed == 16 + 512
    _finish(4, "non-well-foundedness sentence = cycle test on all 2- and"
               " 3-element digraphs", result, 30)


def test_criterion_5_approximations():
    result = suites.suite_approximations(SEED, count=200)
    assert result.passed >= 200
    _finish(5, "true sentences satisfy approximations up to level 2,"
               " monotonically", result, 300)


def test_criterion_6_proof_corpus():
    result = suites.suite_proof_corpus(min_scripts=15, min_mutants=100)
    _finish(6, "corpus scripts accepted, single-point mutants rejected",
            result, 60)


def test_criterion_7_corpus_soundness():
    result = suites.suite_corpus_soundness(max_rows=4)
    _finish(7, "no countermodel for any corpus conclusion over |M|=2,"
               " teams <= 4 rows", result, 300)


def test_criterion_8_ind_implication():
    result = suites.suite_ind_implication()
    _finish(8, "identity/projection/transitivity derivable, converse refuted,"
               " certificates replay", result, 10)


def test_criterion_9_anonymity():
    result = suites.suite_anonymity(SEED, count=1000)
    assert result.passed == 1000
    _finish(9, "desugared anonymity matches its direct clause on 10^3 teams",
            result, 30)
