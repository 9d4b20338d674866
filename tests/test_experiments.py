"""Grid harness, scaling fits, hypothesis suites, and the CSV pipeline."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semolab import _loop, engine, experiments
from semolab import calibration as cal
from semolab.benchmarks import BenchmarkSpec, Kind
from semolab.engine import TrajectoryRecord, TrialResult
from semolab.experiments import (CONFIG_KEYS, WRITE_TICKS, Checkpoint,
                                 ExperimentConfig,
                                 check_border_distance,
                                 check_equivalence_modified_original,
                                 check_front_spread,
                                 check_lower_bound_runtime,
                                 check_scaling_exponent,
                                 check_semo_ojzj_failure, config_hash,
                                 fit_scaling, load_results, run_grid,
                                 summarize, trial_id, trial_seed,
                                 write_report_csv, write_trajectories_csv,
                                 write_trials_csv)


def synthetic(benchmark="cocz", n=32, k=None, runtime=1000.0, censored=False,
              algorithm="gsemo", variant="original", seed=0, trajectory=(),
              interior=False):
    return TrialResult(
        benchmark=benchmark, n=n, k=k, algorithm=algorithm, variant=variant,
        seed=seed, runtime_evals=runtime, runtime_iters=runtime,
        censored=censored, final_pop_size=1, final_covered=0,
        final_front_covered=0.0, interior_init=interior,
        trajectory=tuple(trajectory))


def record(t, covered=0, d_pf=10, pop_size=1, front_size=17):
    return TrajectoryRecord(t=t, pop_size=pop_size, max_g1=None, z_count=None,
                            d_pf=d_pf, covered=covered,
                            front_covered=covered / front_size)


class TestSeeds:
    def test_deterministic_and_distinct(self):
        s1 = trial_seed(7, "cocz", 32, None, "gsemo", "original", 0)
        s2 = trial_seed(7, "cocz", 32, None, "gsemo", "original", 0)
        assert s1 == s2
        others = {trial_seed(7, "cocz", 32, None, "gsemo", "original", t)
                  for t in range(100)}
        assert len(others) == 100
        assert trial_seed(8, "cocz", 32, None, "gsemo", "original", 0) != s1
        assert trial_seed(7, "omm", 32, None, "gsemo", "original", 0) != s1


class TestConfig:
    def test_validation(self):
        good = ExperimentConfig("cocz", "gsemo", "original", (8, 16), 2, 1)
        assert good.cells() == [(8, None), (16, None)]
        with pytest.raises(ValueError):
            ExperimentConfig("zdt1", "gsemo", "original", (8,), 2, 1)
        with pytest.raises(ValueError):
            ExperimentConfig("cocz", "gsemo", "original", (16, 8), 2, 1)
        with pytest.raises(ValueError):
            ExperimentConfig("cocz", "gsemo", "original", (8,), 0, 1)
        with pytest.raises(ValueError):
            ExperimentConfig("ojzj", "gsemo", "original", (8,), 2, 1)  # no ks
        with pytest.raises(ValueError):
            ExperimentConfig("cocz", "gsemo", "original", (8,), 2, 1, ks=(2,))
        with pytest.raises(ValueError):
            ExperimentConfig("cocz", "gsemo", "original", (7,), 2, 1)  # odd n
        with pytest.raises(ValueError):
            ExperimentConfig("cocz", "gsemo", "original", (8,), 2, 1,
                             interior_init=True)

    def test_repeated_gap_size_rejected(self):
        with pytest.raises(ValueError, match="gap sizes must be distinct, "
                                             "got k=2,3,2"):
            ExperimentConfig("ojzj", "gsemo", "original", (8,), 2, 1,
                             ks=(2, 3, 2))
        assert ExperimentConfig("ojzj", "gsemo", "original", (8,), 2, 1,
                                ks=(3, 2)).cells() == [(8, 3), (8, 2)]

    def test_checkpoints(self):
        cp = Checkpoint("border", "n2_log", 0.001)
        assert cp.iterations(128) == int(0.001 * 128 * 128 * math.log(128))
        assert Checkpoint("spread", "n2", 2.0).iterations(10) == 200
        assert Checkpoint("x", "n_pow_k1", 1.0).iterations(10, 2) == 1000
        assert Checkpoint("c", "const", 50).iterations(999) == 50
        with pytest.raises(ValueError):
            Checkpoint("bad", "exp", 1.0).iterations(10)
        with pytest.raises(ValueError):
            ExperimentConfig("cocz", "gsemo", "original", (8,), 1, 1,
                             checkpoints=(Checkpoint("neg", "n2", -1.0),))
        with pytest.raises(ValueError, match="'x'.*gap size"):
            ExperimentConfig("cocz", "gsemo", "original", (8,), 1, 1,
                             checkpoints=(Checkpoint("x", "n_pow_k1", 1.0),))
        with pytest.raises(ValueError, match="'inf'"):
            Checkpoint("inf", "n2", math.inf).iterations(8)
        for name in ("", "a;b", "a:b", " a", "a\nb"):
            with pytest.raises(ValueError, match="checkpoint name"):
                Checkpoint(name, "n2", 1.0)

    def test_border_horizon_is_the_border_checkpoint(self):
        """The border-distance suite checks through the point that the
        checkpoint border:n2_log:BORDER_DISTANCE_C forces a record at."""
        border = Checkpoint("border", "n2_log", cal.BORDER_DISTANCE_C)
        for n in (8, 64, 128, 1000):
            report = check_border_distance(
                [synthetic(n=n, trajectory=[record(0)])],
                ExperimentConfig("cocz", "gsemo", "modified", (n,), 1, 0))
            assert report.cells[0].detail.endswith(
                f"t<={border.iterations(n)}")

    def test_cutoff_validation(self):
        for bad in (-1, -5):
            with pytest.raises(ValueError, match="cutoff must be >= 0"):
                ExperimentConfig("cocz", "gsemo", "original", (8,), 2, 1,
                                 max_iterations=bad)
        zero = ExperimentConfig("cocz", "gsemo", "original", (8,), 2, 1,
                                max_iterations=0, record_trajectories=False)
        assert all(r.censored and r.runtime_iters == 0
                   for r in run_grid(zero))

    def test_hash_stable(self):
        a = ExperimentConfig("cocz", "gsemo", "original", (8,), 2, 1)
        b = ExperimentConfig("cocz", "gsemo", "original", (8,), 2, 1)
        assert config_hash(a) == config_hash(b)
        c = ExperimentConfig("cocz", "gsemo", "original", (8,), 2, 2)
        assert config_hash(a) != config_hash(c)


PINNED_CONFIG = ExperimentConfig(
    "ojzj", "semo", "modified", (10, 12), 7, 123, ks=(2, 3),
    max_iterations=5000, interior_init=True, record_trajectories=False,
    checkpoints=(Checkpoint("early", "n_pow_k1", 0.25),
                 Checkpoint("c", "const", 17.0)))

checkpoint_names = st.text(min_size=1, max_size=8).filter(
    lambda name: name == name.strip()
    and not any(c in name for c in ";:\r\n"))


@st.composite
def configs(draw):
    benchmark = draw(st.sampled_from([kind.value for kind in Kind]))
    ns = sorted(draw(st.sets(st.integers(2, 40), min_size=1, max_size=4)))
    if benchmark == "cocz":
        ns = sorted({2 * (n // 2) for n in ns})
    ks = ()
    shapes = ["n2_log", "n2", "const"]
    if benchmark == "ojzj":
        ks = tuple(draw(st.lists(st.integers(2, ns[0]), min_size=1,
                                 max_size=3, unique=True)))
        shapes.append("n_pow_k1")
    checkpoints = draw(st.lists(st.builds(
        Checkpoint, checkpoint_names, st.sampled_from(shapes),
        st.floats(0.0, 1e6) | st.integers(0, 10 ** 6)), max_size=3))
    return ExperimentConfig(
        benchmark, draw(st.sampled_from(["semo", "gsemo"])),
        draw(st.sampled_from(["original", "modified"])), tuple(ns),
        draw(st.integers(1, 10 ** 6)), draw(st.integers(-2 ** 70, 2 ** 70)),
        ks=ks, max_iterations=draw(st.none() | st.integers(0, 2 ** 64)),
        interior_init=benchmark == "ojzj" and draw(st.booleans()),
        record_trajectories=draw(st.booleans()),
        checkpoints=tuple(checkpoints))


class TestConfigText:
    @settings(max_examples=300, deadline=None)
    @given(configs())
    def test_round_trip(self, config):
        values = config.to_kv()
        assert list(values) == list(CONFIG_KEYS)
        again = ExperimentConfig.from_kv(values)
        assert again == config
        assert config_hash(again) == config_hash(config)

    def test_hash_pinned(self):
        """Reports written by earlier versions keep their config hash."""
        assert config_hash(PINNED_CONFIG) == "45eefe6fd3e85265"

    def test_text_form(self):
        assert PINNED_CONFIG.to_kv() == {
            "benchmark": "ojzj", "alg": "semo", "variant": "modified",
            "n": "10,12", "k": "2,3", "trials": "7", "seed": "123",
            "max_iters": "5000", "interior_init": "on",
            "record_trajectories": "off",
            "checkpoint": "early:n_pow_k1:0.25;c:const:17.0"}
        default = ExperimentConfig("omm", "gsemo", "original", (8,), 1, 0)
        assert default.to_kv()["max_iters"] == ""
        assert default.to_kv()["checkpoint"] == ""

    def test_from_kv_defaults_and_derived_keys(self):
        values = {"benchmark": "omm", "alg": "gsemo", "variant": "original",
                  "n": "8", "trials": "1", "seed": "0",
                  "config_hash": "anything", "calibration_version": "0"}
        assert ExperimentConfig.from_kv(values) == ExperimentConfig(
            "omm", "gsemo", "original", (8,), 1, 0)

    @pytest.mark.parametrize("change, message", [
        ({"population": "9"}, "unknown config keys: population"),
        ({"seed": None}, "missing config keys: seed"),
        ({"trials": "abc"}, "trials must be an integer, got 'abc'"),
        ({"n": "8,x"}, "n must be a comma-separated integer list"),
        ({"interior_init": "maybe"}, "interior_init must be on or off"),
        ({"alg": "nsga2"}, "unknown algorithm 'nsga2'"),
        ({"benchmark": "zdt1"}, "unknown benchmark 'zdt1'"),
        ({"max_iters": "-5"}, "cutoff must be >= 0"),
        ({"checkpoint": "a;b:n2:1"}, "checkpoint 'a' in 'a;b:n2:1'"),
        ({"checkpoint": ":n2:1"}, "bad checkpoint ':n2:1'"),
        ({"checkpoint": "a:cubic:1"}, "unknown growth shape 'cubic'"),
    ])
    def test_from_kv_errors(self, change, message):
        values = {"benchmark": "omm", "alg": "gsemo", "variant": "original",
                  "n": "8", "trials": "1", "seed": "0", **change}
        values = {key: value for key, value in values.items()
                  if value is not None}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_kv(values)


class TestRunGrid:
    def test_shape_order_and_distinct_seeds(self):
        config = ExperimentConfig("cocz", "gsemo", "original", (8, 12), 3, 5,
                                  record_trajectories=False)
        results = run_grid(config)
        assert len(results) == 6
        assert [r.n for r in results] == [8, 8, 8, 12, 12, 12]
        assert len({r.seed for r in results}) == 6

    def test_rerun_identical(self):
        config = ExperimentConfig("omm", "semo", "original", (6, 8), 4, 11)
        assert run_grid(config) == run_grid(config)

    def test_cell_order_is_irrelevant(self):
        base = dict(benchmark="ojzj", algorithm="gsemo", variant="original",
                    ns=(8,), trials=3, master_seed=9,
                    record_trajectories=False)
        a = run_grid(ExperimentConfig(ks=(2, 3), **base))
        b = run_grid(ExperimentConfig(ks=(3, 2), **base))
        key = lambda r: (r.n, r.k, r.seed)
        assert sorted(a, key=key) == sorted(b, key=key)

    def test_jobs_do_not_change_results(self):
        config = ExperimentConfig("cocz", "gsemo", "modified", (8,), 4, 3)
        assert run_grid(config, jobs=1) == run_grid(config, jobs=2)

    def test_iteration_overflow_rejected(self):
        config = ExperimentConfig("cocz", "gsemo", "original", (8,), 1, 0,
                                  max_iterations=2 ** 63)
        with pytest.raises(ValueError, match="n=8"):
            run_grid(config)

    def test_interior_init_propagates(self):
        config = ExperimentConfig("ojzj", "semo", "original", (10,), 2, 1,
                                  ks=(2,), interior_init=True,
                                  max_iterations=500)
        alg = config.algorithm_spec()
        assert alg.interior_init and alg.max_iterations == 500
        assert alg.slot_count_offset == 0
        assert not replace(config, interior_init=False
                           ).algorithm_spec().interior_init
        results = run_grid(config)
        assert all(r.interior_init for r in results)
        assert all(r.censored for r in results)


class TestFitScaling:
    def test_exact_poly_log_recovery(self):
        results = [synthetic(n=n, runtime=7.0 * n * n * math.log(n), seed=t)
                   for n in (32, 64, 128, 256) for t in range(5)]
        fit = fit_scaling(results, "poly_log")
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.constant == pytest.approx(7.0, abs=1e-6)
        assert max(abs(r) for r in fit.residuals) < 1e-9
        assert fit.exponent_ci[0] == pytest.approx(1.0, abs=1e-9)

    def test_exact_cubic_recovery(self):
        results = [synthetic(benchmark="ojzj", k=2, n=n, runtime=float(n) ** 3,
                             seed=t)
                   for n in (12, 16, 20, 24) for t in range(4)]
        fit = fit_scaling(results, "pure_poly")
        assert fit.exponent == pytest.approx(3.0, abs=1e-2)
        assert fit.exponent == pytest.approx(3.0, abs=1e-9)

    def test_ojzj_poly_log_uses_gap_size(self):
        # the poly_log term of an ojzj series is n^(k+1), not n^2 ln n
        results = [synthetic(benchmark="ojzj", k=2, n=n,
                             runtime=5.0 * float(n) ** 3, seed=t)
                   for n in (12, 16, 20, 24) for t in range(4)]
        fit = fit_scaling(results, "poly_log")
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)
        assert fit.constant == pytest.approx(5.0, abs=1e-6)
        assert max(abs(r) for r in fit.residuals) < 1e-9

    def test_needs_three_points(self):
        results = [synthetic(n=n, seed=t) for n in (8, 16) for t in range(3)]
        with pytest.raises(ValueError, match=">= 3"):
            fit_scaling(results)

    def test_censored_median_fails_naming_cell(self):
        results = [synthetic(n=n, runtime=n ** 2, seed=t) for n in (8, 16)
                   for t in range(3)]
        results += [synthetic(n=32, runtime=50 * 32 * 32, censored=True, seed=t)
                    for t in range(3)]
        with pytest.raises(ValueError, match="n=32"):
            fit_scaling(results)

    def test_mixed_series_rejected(self):
        results = [synthetic(n=8), synthetic(n=16, benchmark="omm"),
                   synthetic(n=32)]
        with pytest.raises(ValueError, match="mix"):
            fit_scaling(results)

    def test_iqr_and_medians_reported(self):
        results = [synthetic(n=n, runtime=n * n + t, seed=t)
                   for n in (8, 16, 32) for t in range(5)]
        fit = fit_scaling(results, "pure_poly")
        assert set(fit.per_n_median) == {8, 16, 32}
        assert fit.per_n_iqr[8][0] <= fit.per_n_median[8] <= fit.per_n_iqr[8][1]


def bootstrap_reference(x, cells, bootstrap, seed):
    """The bootstrap as ``fit_scaling`` first wrote it: ``rng.choice`` and
    ``np.median`` per resampled cell, one ``polyfit`` per resample."""
    import numpy as np
    rng = np.random.default_rng(seed)
    slopes = []
    dropped = 0
    for _ in range(bootstrap):
        yb = []
        for values in cells:
            sample = rng.choice(values, size=len(values), replace=True)
            med = float(np.median(sample))
            if not math.isfinite(med):
                break
            yb.append(math.log(med))
        else:
            slopes.append(np.polyfit(x, np.array(yb), 1)[0])
            continue
        dropped += 1
    return slopes, dropped


def bootstrap_grid(sizes, censored, seed):
    """Trials of cocz cells n = 8, 16, 32, ... with ``sizes[i]`` trials in
    cell i, the first ``censored[i]`` of them censored."""
    import random
    rng = random.Random(seed)
    results = []
    for i, (size, cens) in enumerate(zip(sizes, censored)):
        n = 8 << i
        for t in range(size):
            results.append(synthetic(n=n, runtime=float(rng.randint(
                n * n, 4 * n * n)), censored=t < cens, seed=t))
    return results


class TestBootstrap:
    """``fit_scaling``'s bootstrap against its first, per-resample form,
    bit for bit: the slopes, the dropped count and ``exponent_ci``."""

    GRIDS = [((5, 6, 7), (0, 0, 0)), ((8, 8, 8, 8), (0, 0, 0, 0)),
             ((30, 30, 30), (0, 0, 0)), ((9, 8, 7), (0, 2, 1)),
             ((8, 12, 8), (1, 2, 2))]

    @pytest.mark.parametrize("sizes,censored", GRIDS)
    @pytest.mark.parametrize("model", ["pure_poly", "poly_log"])
    def test_matches_reference(self, sizes, censored, model):
        import numpy as np
        from semolab.bounds import reference_model
        from semolab.experiments import _bootstrap_slopes
        for seed in range(3):
            results = bootstrap_grid(sizes, censored, seed)
            ns = sorted({r.n for r in results})
            cells = [[math.inf if r.censored else r.runtime_evals
                      for r in results if r.n == n] for n in ns]
            x = np.array([math.log(float(n) if model == "pure_poly"
                                   else reference_model(Kind.COCZ, n, None))
                          for n in ns])
            slopes, dropped = _bootstrap_slopes(x, cells, 200, seed)
            want, want_dropped = bootstrap_reference(x, cells, 200, seed)
            assert dropped == want_dropped
            assert [float(s).hex() for s in slopes] == \
                [float(s).hex() for s in want]
            if any(censored):
                assert dropped > 0
            fit = fit_scaling(results, model, bootstrap_seed=seed)
            assert fit.exponent_ci == (float(np.quantile(want, 0.025)),
                                       float(np.quantile(want, 0.975)))

    def test_dropped_count_in_the_error(self):
        import numpy as np
        results = bootstrap_grid((8, 8, 8), (0, 3, 0), 0)
        cells = [[math.inf if r.censored else r.runtime_evals
                  for r in results if r.n == n] for n in (8, 16, 32)]
        x = np.log([8.0, 16.0, 32.0])
        _, dropped = bootstrap_reference(x, cells, 200, 0)
        assert dropped > 40
        with pytest.raises(ValueError, match=f"^{dropped}/200 bootstrap"):
            fit_scaling(results)


def spread_config(**kw):
    defaults = dict(benchmark="omm", algorithm="gsemo", variant="modified",
                    ns=(16,), trials=2, master_seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestFrontSpread:
    def test_pass_and_fail_counting(self):
        # omm n=16 needs ceil(n/2)=8 members within c*n^2
        fast = synthetic(benchmark="omm", n=16, variant="modified",
                         trajectory=[record(0, covered=1),
                                     record(40, covered=8)])
        slow = synthetic(benchmark="omm", n=16, variant="modified", seed=1,
                         trajectory=[record(0, covered=1),
                                     record(10 ** 6, covered=8)])
        config = spread_config()
        report = check_front_spread([fast, slow], config, coefficient=1.0)
        assert report.verdict == "FAIL"
        (cell,) = report.cells
        assert cell.passes == 1 and cell.trials == 2
        report = check_front_spread([fast], config, coefficient=1.0)
        assert report.verdict == "PASS"
        assert report.config_hash == config_hash(config)

    def test_never_reaching_is_a_trial_fail(self):
        never = synthetic(benchmark="omm", n=16, variant="modified",
                          trajectory=[record(0, covered=1),
                                      record(500, covered=3)])
        report = check_front_spread([never], spread_config(), coefficient=1e9)
        assert report.verdict == "FAIL"

    def test_missing_trajectory_is_config_error(self):
        bare = synthetic(benchmark="omm", n=16, variant="modified")
        with pytest.raises(ValueError, match="trajectory"):
            check_front_spread([bare], spread_config())

    def test_need_beyond_the_front_is_config_error(self):
        # ojzj n=16 asks for ceil(n/2) = 8 members, but at k=6 the front
        # has n - 2k + 3 = 7 points, so no run could pass
        assert BenchmarkSpec(Kind.OJZJ, 16, 6).front_size == 7
        trajectory = [record(0, covered=1), record(40, covered=8)]
        wide = synthetic(benchmark="ojzj", n=16, k=6, variant="modified",
                         trajectory=trajectory)
        with pytest.raises(ValueError, match=(
                "ojzj,n=16,k=6,gsemo,modified needs 8 members, "
                "but its front has 7 points")):
            check_front_spread([wide], spread_config(benchmark="ojzj",
                                                     ks=(6,)))
        # k=2 leaves 15 points, and the same trial passes
        narrow = replace(wide, k=2)
        assert check_front_spread([narrow], spread_config(
            benchmark="ojzj", ks=(2,)), coefficient=1.0).verdict == "PASS"


class TestBorderDistance:
    def test_min_over_sampled_prefix(self):
        # horizon for n=16, c=0.1: floor(0.1*256*ln 16) = 70
        config = spread_config()
        good = synthetic(benchmark="omm", n=16, variant="modified",
                         trajectory=[record(0, d_pf=8), record(70, d_pf=5),
                                     record(500, d_pf=0)])
        bad = synthetic(benchmark="omm", n=16, variant="modified", seed=1,
                        trajectory=[record(0, d_pf=8), record(50, d_pf=3),
                                    record(70, d_pf=8)])
        report = check_border_distance([good, bad], config, coefficient=0.1)
        assert report.verdict == "FAIL"  # bad dips below sqrt(16)=4 at t=50
        report = check_border_distance([good], config, coefficient=0.1)
        assert report.verdict == "PASS"

    def test_zero_horizon_is_named(self):
        # floor(0.001*n^2*ln n) is 0 up to n=19 and 1 at n=20: the note
        # names the sizes whose cells judge t=0 alone, and the verdict
        # stays the cells'
        config = spread_config()
        results = [synthetic(benchmark="omm", n=n, variant="modified",
                             trajectory=[record(0, d_pf=d_pf)])
                   for n, d_pf in ((8, 1), (16, 4), (20, 5))]
        report = check_border_distance(results, config, coefficient=0.001)
        assert report.notes.endswith(
            "; horizon 0 at n=8, 16: only t=0 is judged there")
        assert [c.ok for c in report.cells] == [False, True, True]
        assert report.verdict == "FAIL"
        report = check_border_distance(results[2:], config,
                                       coefficient=0.001)
        assert "horizon 0" not in report.notes
        assert report.verdict == "PASS"

    def test_ojzj_threshold_uses_gap(self):
        # k=6 > sqrt(25 -> n=24): bar becomes k
        config = ExperimentConfig("ojzj", "gsemo", "modified", (24,), 1, 0,
                                  ks=(6,))
        r = synthetic(benchmark="ojzj", n=24, k=6, variant="modified",
                      trajectory=[record(0, d_pf=5)])
        report = check_border_distance([r], config, coefficient=0.001)
        assert report.verdict == "FAIL"  # 5 >= sqrt(24) but < k=6


class TestLowerBoundRuntime:
    def make(self, scale):
        return [synthetic(benchmark="ojzj", k=2, n=n, runtime=scale(n), seed=t)
                for n in (12, 16, 20, 24) for t in range(5)]

    def config(self):
        return ExperimentConfig("ojzj", "gsemo", "original", (12, 16, 20, 24),
                                5, 0, ks=(2,), record_trajectories=False)

    def test_cubic_data_passes(self):
        report = check_lower_bound_runtime(self.make(lambda n: 2.0 * n ** 3),
                                           self.config(), epsilon=0.05)
        assert report.verdict == "PASS"
        labels = [c.cell for c in report.cells]
        assert any("q10" in l for l in labels)
        assert any("ratio" in l for l in labels)

    def test_flat_data_fails_ratio(self):
        report = check_lower_bound_runtime(self.make(lambda n: 5000.0),
                                           self.config(), epsilon=1e-9)
        assert report.verdict == "FAIL"

    def test_small_data_fails_q10(self):
        report = check_lower_bound_runtime(self.make(lambda n: 0.01 * n ** 3),
                                           self.config(), epsilon=0.05)
        assert report.verdict == "FAIL"

    def test_majority_censoring_rejected(self):
        results = [synthetic(benchmark="ojzj", k=2, n=12, runtime=100,
                             censored=(t < 3), seed=t) for t in range(5)]
        results += self.make(lambda n: n ** 3)[5:]
        with pytest.raises(ValueError, match="censored"):
            check_lower_bound_runtime(results, self.config())


class TestSemoFailure:
    def test_verdicts(self):
        semo = [synthetic(benchmark="ojzj", n=12, k=2, algorithm="semo",
                          censored=True, interior=True, seed=t)
                for t in range(5)]
        control = [synthetic(benchmark="ojzj", n=12, k=2, algorithm="gsemo",
                             censored=False, interior=True, seed=t)
                   for t in range(5)]
        report = check_semo_ojzj_failure(semo + control)
        assert report.verdict == "PASS"
        leaked = semo[:4] + [synthetic(benchmark="ojzj", n=12, k=2,
                                       algorithm="semo", censored=False,
                                       interior=True, seed=9)]
        assert check_semo_ojzj_failure(leaked + control).verdict == "FAIL"

    def test_non_interior_rejected(self):
        bad = [synthetic(benchmark="ojzj", n=12, k=2, algorithm="semo",
                         censored=True, interior=False)]
        with pytest.raises(ValueError, match="interior"):
            check_semo_ojzj_failure(bad)

    def test_non_ojzj_rejected(self):
        with pytest.raises(ValueError, match="ojzj"):
            check_semo_ojzj_failure([synthetic(benchmark="cocz")])


class TestEquivalence:
    def test_pass_and_negative_control(self):
        spec = BenchmarkSpec(Kind.COCZ, 6)
        report = check_equivalence_modified_original(
            spec, offspring_steps=12, trials_per_variant=1500, master_seed=3)
        assert report.verdict == "PASS"
        assert report.cells[0].cell == "cocz,n=6,gsemo,m=12,offset=0"
        broken = check_equivalence_modified_original(
            spec, offspring_steps=12, trials_per_variant=1500, master_seed=3,
            slot_count_offset=-1)
        assert broken.verdict == "FAIL"
        assert broken.cells[0].cell == "cocz,n=6,gsemo,m=12,offset=-1"

    def test_ojzj_cell_names_k(self):
        # two gap sizes at one n are two cells, named as _cell_label names
        # them
        for k in (2, 3):
            report = check_equivalence_modified_original(
                BenchmarkSpec(Kind.OJZJ, 8, k), offspring_steps=12,
                trials_per_variant=300, master_seed=0)
            assert report.cells[0].cell == f"ojzj,n=8,k={k},gsemo,m=12,offset=0"

    @pytest.mark.parametrize("steps,trials,name", [
        (0, 800, "offspring_steps"), (-3, 800, "offspring_steps"),
        (5, 0, "trials_per_variant")])
    def test_empty_runs_rejected(self, steps, trials, name):
        # zero steps leave both variants at their initial states, where
        # even the broken slot range passes; zero trials leave no histogram
        with pytest.raises(ValueError, match=name):
            check_equivalence_modified_original(
                BenchmarkSpec(Kind.COCZ, 8), offspring_steps=steps,
                trials_per_variant=trials, master_seed=1,
                slot_count_offset=-1)

    def test_runs_without_step(self, monkeypatch):
        # the suite reaches the engine through its loop only; step is the
        # tests' oracle
        def no_step(state):
            raise AssertionError("production code called engine.step")

        monkeypatch.setattr(engine, "step", no_step)
        spec = BenchmarkSpec(Kind.COCZ, 6)
        for algorithm in ("semo", "gsemo"):
            report = check_equivalence_modified_original(
                spec, algorithm=algorithm, offspring_steps=12,
                trials_per_variant=300, master_seed=3)
            assert report.verdict == "PASS"

    def test_power_guard(self):
        with pytest.raises(ValueError, match="power"):
            check_equivalence_modified_original(
                BenchmarkSpec(Kind.COCZ, 6), offspring_steps=5,
                trials_per_variant=4, master_seed=0)


class TestScalingExponentGate:
    def test_synthetic_gate(self):
        results = [synthetic(benchmark="ojzj", k=2, n=n, runtime=float(n) ** 3,
                             seed=t)
                   for n in (12, 16, 20, 24) for t in range(4)]
        config = ExperimentConfig("ojzj", "gsemo", "original",
                                  (12, 16, 20, 24), 4, 0, ks=(2,),
                                  record_trajectories=False)
        report, fit = check_scaling_exponent(results, config,
                                             window=(2.6, 3.5))
        assert report.verdict == "PASS"
        assert fit.exponent == pytest.approx(3.0, abs=1e-9)
        report, _ = check_scaling_exponent(results, config, window=(3.2, 3.5))
        assert report.verdict == "FAIL"


# small grids covering every trajectory column form: cocz (max_g1 and
# z_count set), omm (both empty) and a censored ojzj semo run from the
# interior (a frozen population, period 1)
CSV_FINGERPRINT_GRIDS = [
    dict(benchmark="cocz", algorithm="gsemo", variant="original", ns=(8,)),
    dict(benchmark="cocz", algorithm="gsemo", variant="modified", ns=(8,)),
    dict(benchmark="omm", algorithm="gsemo", variant="original", ns=(9,)),
    dict(benchmark="omm", algorithm="gsemo", variant="modified", ns=(9,)),
    dict(benchmark="ojzj", algorithm="semo", variant="original", ns=(10,),
         ks=(2,), interior_init=True, max_iterations=600),
]
# sha256 of the trajectories.csv bytes written for the grids above, pinned
# to detect any change to the file format or the recorded trajectories
CSV_FINGERPRINT = ("e33647c11b63cb33a6f97a9a9f6026d4"
                   "49a71cdfbd3f5dc2d721c63f7284c1d4")


def write_csvs(results, directory):
    trials = directory / "trials.csv"
    trajs = directory / "trajectories.csv"
    write_trials_csv(results, trials)
    write_trajectories_csv(results, trajs)
    return trials, trajs


class TestCsvPipeline:
    def test_roundtrip(self, tmp_path):
        for config in (
                ExperimentConfig("ojzj", "gsemo", "original", (8, 10), 3, 2,
                                 ks=(2,)),
                ExperimentConfig("cocz", "gsemo", "modified", (8, 10), 3, 2),
                ExperimentConfig("omm", "semo", "original", (9,), 3, 2)):
            results = run_grid(config)
            loaded = load_results(*write_csvs(results, tmp_path))
            assert len(loaded) == len(results)
            for a, b in zip(results, loaded):
                assert (a.benchmark, a.n, a.k, a.algorithm, a.variant, a.seed) \
                    == (b.benchmark, b.n, b.k, b.algorithm, b.variant, b.seed)
                assert a.runtime_evals == b.runtime_evals
                assert a.runtime_iters == b.runtime_iters
                assert a.censored == b.censored
                assert b.interior_init is None
                assert a.trajectory  # repr floats round-trip exactly
                assert b.trajectory == a.trajectory

    def test_trajectory_csv_fingerprint(self, tmp_path):
        results = []
        for grid in CSV_FINGERPRINT_GRIDS:
            results += run_grid(ExperimentConfig(trials=3, master_seed=4,
                                                 **grid))
        path = tmp_path / "trajectories.csv"
        write_trajectories_csv(results, path)
        data = path.read_bytes()
        assert data.startswith(b"trial_id,t,pop_size,max_g1,z_count,d_pf,"
                               b"front_covered\r\n")
        assert hashlib.sha256(data).hexdigest() == CSV_FINGERPRINT

    def test_trajectory_csv_fingerprint_python_loop(self, tmp_path,
                                                    monkeypatch):
        # the same bytes from the engine's Python loop
        monkeypatch.setattr(_loop, "library", lambda: None)
        self.test_trajectory_csv_fingerprint(tmp_path)

    def test_long_trial_is_written_in_bounded_pieces(self, tmp_path):
        # 10^6 ticks: one run longer than a piece, then 4,000 short runs.
        # Joined whole, the trial's text peaks at about 129 MB; in pieces
        # of WRITE_TICKS rows, at about 9 MB
        runs = [(record(0, covered=1, d_pf=4), tuple(range(600_000)))]
        runs += [(record(t, covered=2, d_pf=3, pop_size=2 + t // 100 % 2),
                  tuple(range(t, t + 100)))
                 for t in range(600_000, 10 ** 6, 100)]
        trial = replace(synthetic("omm", 9, runtime=10 ** 6 - 1),
                        trajectory=engine.Trajectory(runs))
        assert len(trial.trajectory) == 10 ** 6 > 4 * WRITE_TICKS
        path = tmp_path / "trajectories.csv"
        tracemalloc.start()
        try:
            write_trajectories_csv([trial], path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        with open(path, "rb") as fh:
            lines = fh.readlines()
        assert len(lines) == 10 ** 6 + 1
        prefix = b"omm-n9-gsemo-original-s0,"
        assert lines[1] == prefix + b"0,1,,,4,%r\r\n" % (1 / 17)
        assert lines[-1] == prefix + b"999999,3,,,3,%r\r\n" % (2 / 17)

    def test_pieces_do_not_change_the_bytes(self, tmp_path, monkeypatch):
        # a piece size of one, two and three rows splits every run and
        # joins runs into pieces, and writes the bytes of one piece
        results = run_grid(ExperimentConfig("cocz", "gsemo", "modified",
                                            (8, 10), 3, 2))
        path = tmp_path / "trajectories.csv"
        write_trajectories_csv(results, path)
        whole = path.read_bytes()
        for size in (1, 2, 3):
            monkeypatch.setattr(experiments, "WRITE_TICKS", size)
            write_trajectories_csv(results, path)
            assert path.read_bytes() == whole

    def test_loaded_trials_equal_the_run(self, tmp_path):
        # the final fields come from the last record, the one at
        # runtime_iters; without trajectories two loads still compare equal
        for config in (
                ExperimentConfig("cocz", "gsemo", "modified", (8, 10), 3, 2),
                ExperimentConfig("ojzj", "semo", "original", (10,), 2, 2,
                                 ks=(2,), interior_init=True,
                                 max_iterations=300)):
            results = run_grid(config)
            trials, trajs = write_csvs(results, tmp_path)
            assert load_results(trials, trajs,
                                interior_init=config.interior_init) == results
            assert load_results(trials) == load_results(trials)

    def omm_csvs(self, tmp_path):
        config = ExperimentConfig("omm", "gsemo", "original", (8,), 2, 0)
        return write_csvs(run_grid(config), tmp_path)

    def test_bad_trajectory_header_rejected(self, tmp_path):
        trials, trajs = self.omm_csvs(tmp_path)
        trajs.write_bytes(trajs.read_bytes().replace(b"d_pf", b"dpf", 1))
        with pytest.raises(ValueError, match="header"):
            load_results(trials, trajs)
        trajs.write_bytes(b"")
        with pytest.raises(ValueError, match="header"):
            load_results(trials, trajs)

    def test_unknown_trial_id_rejected(self, tmp_path):
        trials, trajs = self.omm_csvs(tmp_path)
        with open(trajs, "ab") as fh:
            fh.write(b"omm-n8-gsemo-original-s1,0,1,,,4,0.1\r\n")
        with pytest.raises(ValueError, match="unknown trial id"):
            load_results(trials, trajs)

    def test_short_trials_row_rejected(self, tmp_path):
        trials, _ = self.omm_csvs(tmp_path)
        with open(trials, "a") as fh:
            fh.write("omm,8,,gsemo,original,5\n")
        with pytest.raises(ValueError,
                           match=r"trials\.csv:4: expected 9 fields, got 6"):
            load_results(trials)

    @pytest.mark.parametrize("flag", ["7", "01", "", "true"])
    def test_censored_flag_other_than_0_or_1_rejected(self, tmp_path, flag):
        # the writer writes int(censored), so any other value is corrupt
        trials, _ = self.omm_csvs(tmp_path)
        header, row, *rest = trials.read_text().splitlines(keepends=True)
        fields = row.rstrip("\r\n").split(",")
        fields[-1] = flag
        trials.write_text("".join([header, ",".join(fields) + "\n", *rest]))
        with pytest.raises(ValueError, match=r"trials\.csv:2: censored must "
                                             rf"be 0 or 1, got '{flag}'"):
            load_results(trials)

    @pytest.mark.parametrize("evals,iters", [
        ("5", "-1"),   # runtime_iters < 0
        ("0", "7"),    # runtime_evals < 1
        ("-3", "7"),
        ("9", "7"),    # runtime_evals > runtime_iters + 1
    ])
    def test_impossible_runtimes_rejected(self, tmp_path, evals, iters):
        # a run of t iterations makes t + 1 - idle evaluations, idle <= t
        trials, _ = self.omm_csvs(tmp_path)
        header, row, *rest = trials.read_text().splitlines(keepends=True)
        fields = row.rstrip("\r\n").split(",")
        fields[6:8] = evals, iters
        trials.write_text("".join([header, ",".join(fields) + "\n", *rest]))
        with pytest.raises(ValueError, match=r"trials\.csv:2: impossible "
                                             rf"runtimes: runtime_evals="
                                             rf"{evals} and runtime_iters="
                                             rf"{iters}"):
            load_results(trials)

    @pytest.mark.parametrize("evals,iters", [("1", "0"), ("1", "7"),
                                             ("8", "7")])
    def test_extreme_possible_runtimes_load(self, tmp_path, evals, iters):
        # every offspring idle, and no draw idle
        trials, _ = self.omm_csvs(tmp_path)
        header, row, *rest = trials.read_text().splitlines(keepends=True)
        fields = row.rstrip("\r\n").split(",")
        fields[6:8] = evals, iters
        trials.write_text("".join([header, ",".join(fields) + "\n", *rest]))
        loaded = load_results(trials)
        assert (loaded[0].runtime_evals, loaded[0].runtime_iters) == (
            int(evals), int(iters))

    def test_repeated_trial_id_rejected(self, tmp_path):
        trials, trajs = self.omm_csvs(tmp_path)
        lines = trials.read_text().splitlines(keepends=True)
        trials.write_text("".join(lines + lines[1:2]))
        with pytest.raises(ValueError, match=r"trials\.csv:4: repeated trial "
                                             r"id 'omm-n8-gsemo-original-s"):
            load_results(trials, trajs)

    @pytest.mark.parametrize("row", [
        "{tid}",                    # too few fields
        "{tid},6",
        "{tid},6,2,,,3",
        "{tid},6,2,,,3,0.25,9",     # too many fields
        "{tid},6.0,2,,,3,0.25",     # t not an integer
        "{tid},x,2,,,3,0.25",
        "{tid},6,2,,,three,0.25",   # d_pf not an integer
        "{tid},6,2,,,3.5,0.25",
    ])
    def test_malformed_trajectory_row_names_line(self, tmp_path, row):
        trials, trajs = self.omm_csvs(tmp_path)
        lines = trajs.read_bytes().split(b"\r\n")
        tid = lines[1].split(b",")[0].decode()
        lines.insert(3, row.format(tid=tid).encode())
        trajs.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=r"trajectories\.csv:4: "):
            load_results(trials, trajs)

    def test_blank_trajectory_lines_skipped(self, tmp_path):
        trials, trajs = self.omm_csvs(tmp_path)
        expected = [r.trajectory for r in load_results(trials, trajs)]
        data = trajs.read_bytes()
        trajs.write_bytes(data.replace(b"\r\n", b"\r\n\r\n", 3) + b"\n\n")
        assert [r.trajectory for r in load_results(trials, trajs)] == expected

    def test_trajectory_rows_in_blocks_load_sorted(self, tmp_path):
        trials, trajs = self.omm_csvs(tmp_path)
        expected = [r.trajectory for r in load_results(trials, trajs)]
        header, *rows = trajs.read_bytes().split(b"\r\n")[:-1]
        tid = rows[0].split(b",")[0]
        first = [row for row in rows if row.split(b",")[0] == tid]
        other = [row for row in rows if row not in first]
        assert len(first) > 3 and other
        half = len(first) // 2
        # the trial's later half first, the other trial between its blocks,
        # and its earlier half reversed
        shuffled = first[half:] + other + first[:half][::-1]
        trajs.write_bytes(b"\r\n".join([header, *shuffled, b""]))
        assert [r.trajectory for r in load_results(trials, trajs)] == expected

    def test_truncated_trajectories_rejected(self, tmp_path):
        # a file cut after whole rows: the last trial's rows end before its
        # runtime_iters, or it has none left; a file cut before whole rows:
        # the first trial's rows start after t=0
        trials, trajs = self.omm_csvs(tmp_path)
        header, *rows = trajs.read_bytes().split(b"\r\n")[:-1]
        last = rows[-1].split(b",")[0]
        tid = last.decode()
        kept = [row for row in rows if row.split(b",")[0] != last]
        assert 1 < len(rows) - len(kept) and kept
        first = rows[0].split(b",")[0]
        assert first != last and rows[1].split(b",")[0] == first
        for cut, match in ((rows[:-1], rf"'{tid}' end at t=\d+, but the "
                                       rf"trial ran to t=\d+; the file is "
                                       "truncated"),
                           (kept, rf"no rows for trial '{tid}'; the file is "
                                  "truncated"),
                           (rows[1:], rf"the rows of trial '{first.decode()}' "
                                      r"start at t=[1-9]\d*, not at t=0; the "
                                      "file is truncated")):
            trajs.write_bytes(b"\r\n".join([header, *cut, b""]))
            with pytest.raises(ValueError,
                               match=r"trajectories\.csv: .*" + match):
                load_results(trials, trajs)
        # a file cut inside the last row, before its line break or inside
        # its front_covered: its t is the trial's runtime_iters and its
        # fields still parse
        whole = b"\r\n".join([header, *rows])
        float(rows[-1].rsplit(b",", 1)[1][:-1])
        for cut in (whole, whole[:-1]):
            trajs.write_bytes(cut)
            with pytest.raises(ValueError, match=r"trajectories\.csv:\d+: "
                               rf"the last row of trial '{tid}' has no line "
                               "break; the file is truncated"):
                load_results(trials, trajs)

    def test_equal_row_text_takes_each_trials_front_size(self, tmp_path):
        # omm n=9 has 10 front values and n=19 has 20: the same row text
        # says 5 covered in the first trial and 10 in the second; the
        # trials end at t=1, their last rows
        results = [synthetic(benchmark="omm", n=9, seed=1, runtime=1),
                   synthetic(benchmark="omm", n=19, seed=2, runtime=1)]
        trials = tmp_path / "trials.csv"
        trajs = tmp_path / "trajectories.csv"
        write_trials_csv(results, trials)
        trajs.write_text(
            "trial_id,t,pop_size,max_g1,z_count,d_pf,front_covered\n"
            + "".join(f"{trial_id(r)},{t},3,,,2,0.5\n"
                      for r in results for t in (0, 1)))
        a, b = load_results(trials, trajs)
        assert [rec.covered for rec in a.trajectory] == [5, 5]
        assert [rec.covered for rec in b.trajectory] == [10, 10]
        assert [rec.t for rec in b.trajectory] == [0, 1]

    def test_trial_ids_unique(self):
        config = ExperimentConfig("cocz", "gsemo", "original", (8,), 5, 0)
        results = run_grid(config)
        ids = [trial_id(r) for r in results]
        assert len(set(ids)) == len(ids)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_results(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("benchmark,n,k,algorithm,variant,seed,runtime_evals,"
                        "runtime_iters,censored\n")
        with pytest.raises(ValueError, match="no data"):
            load_results(path)

    def test_report_csv_and_summary(self, tmp_path):
        results = [synthetic(benchmark="ojzj", k=2, n=n, runtime=2.0 * n ** 3,
                             seed=t)
                   for n in (12, 16, 20, 24) for t in range(4)]
        config = ExperimentConfig("ojzj", "gsemo", "original",
                                  (12, 16, 20, 24), 4, 0, ks=(2,),
                                  record_trajectories=False)
        report = check_lower_bound_runtime(results, config, epsilon=0.05)
        gate, fit = check_scaling_exponent(results, config, window=(2.6, 3.5))
        out = tmp_path / "report.csv"
        write_report_csv([report, gate], [fit], out)
        text = out.read_text().splitlines()
        assert text[0] == ("suite,cell,passes,trials,frequency,required,"
                           "verdict,detail")
        assert any("lower_bound_runtime" in line for line in text)
        assert any("fit_scaling" in line for line in text)
        summary = summarize([report, gate], [fit])
        assert "[PASS]" in summary and "exponent" in summary
