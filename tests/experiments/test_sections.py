"""Tests for the Section-2/3 and rho experiment harnesses."""

import pytest

from repro.experiments.rho import run_rho_experiment
from repro.experiments.runner import sweep_mean_std
from repro.experiments.section2 import run_section2
from repro.experiments.section3 import run_section3


class TestRunner:
    def test_mean_std_deterministic(self):
        fn = lambda x, rng: x + rng.normal()  # noqa: E731
        a = sweep_mean_std(fn, [1.0, 2.0], trials=5, seed=0)
        b = sweep_mean_std(fn, [1.0, 2.0], trials=5, seed=0)
        assert (a.means == b.means).all()
        assert a.trials == 5

    def test_constant_fn_zero_std(self):
        res = sweep_mean_std(lambda x, rng: float(x), [3.0], trials=4, seed=0)
        assert res.means[0] == 3.0
        assert res.stds[0] == 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sweep_mean_std(lambda x, rng: 0.0, [1], trials=0)


class TestSection2:
    def test_solver_matches_analytic_on_homogeneous(self):
        res = run_section2(processors=(4, 16), alphas=(2.0,), N=500.0)
        for row in res.rows:
            assert row.solved_fraction_homogeneous == pytest.approx(
                row.analytic_fraction, rel=1e-5
            )

    def test_fraction_decreases_with_P(self):
        res = run_section2(processors=(2, 8, 32), alphas=(2.0,))
        fracs = [r.analytic_fraction for r in res.rows]
        assert fracs == sorted(fracs, reverse=True)

    def test_rounds_grow_with_alpha(self):
        res = run_section2(processors=(16,), alphas=(1.5, 3.0))
        rounds = [r.rounds_for_99pct for r in res.rows]
        assert rounds[1] > rounds[0]

    def test_render(self):
        text = run_section2(processors=(4,), alphas=(2.0,)).render()
        assert "Section 2" in text and "rounds" in text


class TestSection3:
    def test_residue_table_values(self):
        res = run_section3(
            residue_Ns=(2**10,), residue_ps=(4,), exec_N=5000, exec_ps=(4,)
        )
        assert res.residue_rows[0].residual_fraction == pytest.approx(0.2)

    def test_executions_actually_sort(self):
        res = run_section3(exec_N=20_000, exec_ps=(4,))
        assert all(r.sorted_ok for r in res.execution_rows)

    def test_render_has_both_tables(self):
        text = run_section3(exec_N=10_000, exec_ps=(4,)).render()
        assert "residue" in text and "executed" in text


class TestRho:
    def test_measured_rho_exceeds_simple_bound(self):
        """ρ >= √k - 1 (§4.1.3) for every k.

        The paper's chain assumes Comm_het ≈ LB, which holds as p grows;
        p = 40 workers is comfortably in that regime.
        """
        res = run_rho_experiment(ks=(4, 16, 36), p=40, N=4000.0)
        for row in res.rows:
            assert row.measured_rho >= row.bound_simple - 1e-9

    def test_rho_grows_with_k(self):
        res = run_rho_experiment(ks=(4, 16, 64), p=10, N=2000.0)
        rhos = [r.measured_rho for r in res.rows]
        assert rhos == sorted(rhos)

    def test_k_one_homogeneous(self):
        res = run_rho_experiment(ks=(1,), p=10, N=2000.0)
        assert res.rows[0].measured_rho == pytest.approx(1.0, abs=0.05)

    def test_render(self):
        text = run_rho_experiment(ks=(4,), p=6, N=500.0).render()
        assert "rho" in text

    def test_owned_session_closed_when_a_cell_fails(self, monkeypatch):
        """A failing (k, strategy) cell must not leak the session the
        experiment built (its sqlite connection or remote pool)."""
        import repro.experiments.rho as rho
        from repro.core.session import PlannerSession

        closed = []

        class RecordingSession(PlannerSession):
            def close(self):
                closed.append(self)
                super().close()

        real = rho.compare_strategies
        calls = []

        def fail_on_second_k(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("planning failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(rho, "PlannerSession", RecordingSession)
        monkeypatch.setattr(rho, "compare_strategies", fail_on_second_k)
        with pytest.raises(RuntimeError, match="planning failed"):
            rho.run_rho_experiment(ks=(1, 4, 9), p=6, N=500.0)
        assert len(calls) == 2
        assert len(closed) == 1
