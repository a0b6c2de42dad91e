"""The acceptance gate: one test per criterion, each printing a pass/fail
line per verified identity.  Everything is exact (zero tolerance)."""
from qdouble import checks

SEED = 2026  # the seed `qdouble verify` uses by default


def _run(criterion: str, results):
    failed = []
    for name, ok, detail in results:
        line = f"  [{criterion}] {'PASS' if ok else 'FAIL'}: {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failed.append(name)
    assert not failed, f"criterion {criterion} failed: {failed}"


class TestAcceptance:
    def test_criterion_01_pairing_law(self):
        # <E_i^r, F_i^r> = q_i^C(r,2) <r>_{q_i}! for r <= 6, d_i in {1,2,3}
        _run("1", checks.suite_pairing_law(SEED))

    def test_criterion_02_rank2_pairing(self):
        # the detailed rank-2 pairing values for B2 and G2 with s+r <= |a_ij|,
        # and the A2 anchor (the quoted shorthand display drops the sign
        # factor; the computed value matches the detailed formula)
        _run("2", checks.suite_rank2_pairing(SEED))

    def test_criterion_03_serre_vanishing(self):
        _run("3", checks.suite_serre(SEED))

    def test_criterion_04_sl2_engine_vs_oracle(self):
        _run("4", checks.suite_sl2_oracle(SEED))

    def test_criterion_05_multipliers(self):
        _run("5", checks.suite_multipliers(SEED))

    def test_criterion_06_printed_tables(self):
        _run("6a", checks.suite_tables_minus_one_family(SEED))
        _run("6b", checks.suite_tables_equal_d(SEED))
        _run("6c", checks.suite_tables_affine22(SEED))
        _run("6d", checks.suite_tables_rank3(SEED))
        _run("6e", checks.suite_tables_tony(SEED))

    def test_criterion_07_braid(self):
        _run("7", checks.suite_braid(SEED))

    def test_criterion_08_tameness(self):
        _run("8", checks.suite_tame(SEED))

    def test_criterion_09_rst(self):
        _run("9", checks.suite_rst(SEED))

    def test_criterion_10_structure_constants(self):
        _run("10", checks.suite_strconst(SEED))

    def test_criterion_11_property_suites(self):
        _run("11", checks.suite_properties(SEED))
