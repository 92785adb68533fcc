import lieposet.linalg as linalg
import lieposet.sweep as sweep
from lieposet.sweep import run_sweep


def test_noncontact_witness_needs_no_exact_elimination(monkeypatch):
    # the sampled draws on NotContact posets have singular bordered
    # matrices; the rank mod p alone must settle each draw
    exact_calls = []
    witness_draws = []

    def exact_rank(rows):
        exact_calls.append(len(rows))
        return real_exact_rank(rows)

    def determinant(self):
        exact_calls.append(self.rows)
        return real_determinant(self)

    def rank_mod_p(rows):
        witness_draws.append(len(rows))
        return real_rank_mod_p(rows)

    real_exact_rank = linalg.exact_rank
    real_determinant = linalg.RationalMatrix.determinant
    real_rank_mod_p = sweep.rank_mod_p
    monkeypatch.setattr(linalg, "exact_rank", exact_rank)
    monkeypatch.setattr(linalg.RationalMatrix, "determinant", determinant)
    monkeypatch.setattr(sweep, "rank_mod_p", rank_mod_p)
    report = run_sweep(5, seed=3)
    assert report["discrepancy_count"] == 0
    assert len(witness_draws) > 0
    assert exact_calls == []
