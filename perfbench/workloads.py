"""The four workloads: set-up, one pass of work, and correctness checks.

A batch workload (paper-capacity, paper-predict, sched-sweep) repeats
one *pass* of deterministic work; serve-mixed drives the HTTP service
(see :mod:`serve_mixed`).  Every input comes from the ``--seed``
argument; the program only sees the generated inputs.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import reference
import tracing


class CheckFailed(AssertionError):
    """A correctness check failed; the message names the check."""


def require(condition: bool, check: str, detail: str = "") -> None:
    if not condition:
        raise CheckFailed(f"{check}: {detail}" if detail else check)


def recorded(module: str, attr: str, record: Callable, run: Callable,
             cls: Optional[str] = None) -> Tuple[object, List[dict]]:
    """``run()`` with ``module.[cls.]attr`` wrapped; returns its result
    and ``record(result, args)`` of every call, in call order.  Used on
    the untimed check pass only."""
    tracer = tracing.Tracer()

    def count(result, args, kwargs, token):
        return record(result, args)

    if cls is None:
        tracer.patch_function(module, attr, attr, count)
    else:
        tracer.patch_method(module, cls, attr, attr, count)
    try:
        result = run()
    finally:
        tracer.uninstall()
    return result, [span[tracing.COUNTS] for span in tracer.spans]


class BatchWorkload:
    """One pass of work repeated; ``summary`` of every pass must match."""

    name = ""

    def __init__(self, seed: int, work_root: Path):
        self.seed = seed
        self.work_root = work_root

    def setup(self) -> None:
        """Imports and warm-up: what a fresh process pays before work."""

    def run_pass(self):
        raise NotImplementedError

    def summary(self, output):
        """A comparable digest of one pass's output (determinism)."""
        return repr(output)

    def check_pass(self) -> None:
        """One untimed pass whose outputs are checked in depth."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# paper-capacity
# ----------------------------------------------------------------------

#: Fig. 11 horizon, hours: shortened from the paper's 2 h so that one
#: run holds about ten passes.
CAPACITY_HORIZON_H = 0.1
DROP_TARGET = 0.02
N_CHANNELS = 200
MEAN_INTERVAL = 25.0
#: Relative distance allowed between a searched capacity and the
#: analytic one.  At 0.1 h the search's sampling noise and the
#: start-up transient (every user starts thinking at once) moved
#: capacities by at most 5.8 % over 12 seeds x 8 searches.
CAPACITY_TOLERANCE = 0.10


class PaperCapacity(BatchWorkload):
    name = "paper-capacity"

    def setup(self) -> None:
        from repro.core.comparison import benchmark_comparison
        from repro.experiments import fig11_capacity
        from repro.webpages.corpus import warm_corpus
        from repro.units import hours
        self.fig11 = fig11_capacity
        self.horizon = hours(CAPACITY_HORIZON_H)
        warm_corpus()
        for mobile in (True, False):
            benchmark_comparison(mobile=mobile)

    def run_pass(self):
        return self.fig11.run(drop_target=DROP_TARGET,
                              horizon=self.horizon, seed=self.seed)

    def summary(self, output):
        return output.report()

    def check_pass(self):
        result, searches = recorded(
            "repro.capacity.simulator", "capacity_at_drop_target",
            lambda found, args: (type(args[0]).__name__,
                                 args[0].mean_service_time, found),
            self.run_pass)
        # fig11 searches, per half and engine: M/G/N, then finite-source.
        require(len(searches) == 8, "capacity.search_count",
                f"expected 8 capacity searches, saw {len(searches)}")
        for kind, mean_hold, found in searches:
            if kind == "FiniteSourceCapacitySimulator":
                ref = reference.engset_capacity(
                    mean_hold, MEAN_INTERVAL, N_CHANNELS, DROP_TARGET)
                check = "capacity.finite_source_vs_engset"
            else:
                ref = reference.erlang_capacity(
                    mean_hold, MEAN_INTERVAL, N_CHANNELS, DROP_TARGET)
                check = "capacity.mgn_vs_erlang_b"
            require(abs(found - ref) <= CAPACITY_TOLERANCE * ref, check,
                    f"simulated {found} vs analytic {ref} users")
        finite = {}
        for index, bench in enumerate(result.benchmarks):
            for offset, curve in enumerate((bench.original,
                                            bench.energy_aware)):
                mean_hold = searches[4 * index + 2 * offset][1]
                finite[(bench.label, curve.engine)] = \
                    searches[4 * index + 2 * offset + 1][2]
                self._check_curve(curve, mean_hold, self.horizon)
            require(bench.energy_aware.capacity_at_target
                    > bench.original.capacity_at_target,
                    "capacity.energy_aware_gain_mgn", bench.label)
            require(finite[(bench.label, "energy-aware")]
                    > finite[(bench.label, "original")],
                    "capacity.energy_aware_gain_finite_source", bench.label)
        return result

    @staticmethod
    def _check_curve(curve, mean_hold: float, horizon: float) -> None:
        tolerances = []
        for n, p in zip(curve.user_counts, curve.drop_probabilities):
            blocking = reference.erlang_b(
                N_CHANNELS, n / MEAN_INTERVAL * mean_hold)
            sessions = int(n / MEAN_INTERVAL * horizon)
            tol = reference.blocking_tolerance(blocking, sessions,
                                               N_CHANNELS)
            tolerances.append(tol)
            require(abs(p - blocking) <= tol, "capacity.curve_vs_erlang_b",
                    f"{curve.engine} n={n}: {p:.4f} vs {blocking:.4f}")
        for i in range(1, len(tolerances)):
            prev, cur = curve.drop_probabilities[i - 1:i + 1]
            require(cur >= prev - tolerances[i], "capacity.curve_monotone",
                    f"{curve.engine}: {curve.drop_probabilities}")


# ----------------------------------------------------------------------
# paper-predict
# ----------------------------------------------------------------------

#: Trace size: 20 users (~3.6 k rows) rather than the paper's 40
#: (~7 k): a pass (trace, the two Fig. 15 fits, the Table-7-shaped
#: fit) then takes ~3.4 s on a 2-core x86 host, about six per run.
PREDICT_USERS = 20
#: Table-7-shaped model: 150 rows, 4 leaves, lr 0.03, subsample 0.8.
TABLE7_ROWS = 150
TABLE7_TREES = 400
THRESHOLDS = (9.0, 20.0)
#: Standard errors by which one held-out accuracy may trail another
#: before the difference counts as real rather than sampling noise.
ACCURACY_SIGMAS = 4.0


def accuracy_se(p1: float, n1: int, p2: float, n2: int) -> float:
    """Standard error of the difference of two held-out accuracies."""
    return float(np.sqrt(p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2))


def check_fits(fits) -> None:
    """Each squared-loss, subsample-1 fit's training loss never rises."""
    for fitted in fits:
        if (type(fitted.loss).__name__ == "SquaredLoss"
                and fitted.subsample >= 1.0):
            losses = np.asarray(fitted.train_losses_)
            require(bool(np.all(np.diff(losses) <= 1e-12 * losses[:-1])),
                    "predict.train_losses_non_increasing")


def check_walks(model, x, walks) -> None:
    """``predict_one`` agrees with batch ``predict`` row for row."""
    batch = model.predict(x)
    require(np.allclose(walks, batch, rtol=1e-12, atol=1e-12),
            "predict.predict_one_matches_predict",
            f"max diff {np.max(np.abs(np.asarray(walks) - batch))}")


class PaperPredict(BatchWorkload):
    name = "paper-predict"

    def setup(self) -> None:
        from repro.experiments import fig15_prediction_accuracy
        from repro.ml import gbrt
        from repro.traces import generator
        self.fig15 = fig15_prediction_accuracy
        self.gbrt = gbrt
        self.generator = generator
        self.config = generator.TraceConfig(n_users=PREDICT_USERS,
                                            seed=self.seed)

    def run_pass(self):
        dataset = self.generator.generate_trace(self.config)
        fig15 = self.fig15.run(self.config)
        x, y = dataset.filter_reading_time().to_arrays()
        x, y = x[:TABLE7_ROWS], np.log1p(y[:TABLE7_ROWS])
        model = self.gbrt.GradientBoostedRegressor(
            n_estimators=TABLE7_TREES, max_leaves=4, learning_rate=0.03,
            min_samples_leaf=5, subsample=0.8, random_state=3).fit(x, y)
        walks = [model.predict_one(row) for row in x]
        return dataset, fig15, model, x, walks

    def summary(self, output):
        _, fig15, _, _, walks = output
        return repr((fig15.points, walks))

    def check_pass(self):
        output, fits = recorded("repro.ml.gbrt", "fit",
                                lambda model, args: model, self.run_pass,
                                cls="GradientBoostedRegressor")
        dataset, fig15, model, x, walks = output
        check_fits(fits)
        self._check_fig15(dataset, fig15)
        check_walks(model, x, walks)
        return output

    @staticmethod
    def _check_fig15(dataset, fig15, alpha: float = 2.0,
                     test_fraction: float = 0.3, split_seed: int = 7):
        """Fig. 15 against the best constant predictor and across α.

        Over 24 trace seeds at 20 users, GBRT beat the constant by
        5.2 +/- 1.7 pp at Td without α (min 2.2) and by 13-22 pp
        elsewhere, and α added 9.4 +/- 2.1 pp at Tp (min 4.9) but only
        3.8 +/- 2.3 pp at Td (min -1.7).  So the gains that hold on
        every trace are checked strictly (the mean gain over the
        constant, α at Tp) and each single comparison only for not
        trailing by more than ACCURACY_SIGMAS standard errors.
        """
        filtered = dataset.filter_reading_time()
        margins = []
        n_tests = {}
        for with_threshold in (False, True):
            data = (filtered.exclude_quick_bounces(alpha)
                    if with_threshold else filtered)
            _, y = data.to_arrays()
            # Fig. 15's shuffled split, rebuilt here.
            order = np.random.default_rng(split_seed).permutation(len(y))
            n_test = max(1, int(round(test_fraction * len(y))))
            n_tests[with_threshold] = n_test
            y_test, y_train = y[order[:n_test]], y[order[n_test:]]
            for threshold in THRESHOLDS:
                # Best constant: the training majority side of the
                # threshold, predicted for every test row.
                above = np.mean(y_train > threshold) > 0.5
                constant = float(np.mean((y_test > threshold) == above))
                accuracy = fig15.accuracy(threshold, with_threshold)
                se = accuracy_se(accuracy, n_test, constant, n_test)
                require(accuracy - constant > -ACCURACY_SIGMAS * se,
                        "predict.beats_constant_predictor",
                        f"T={threshold} alpha={with_threshold}: "
                        f"{accuracy:.3f} vs {constant:.3f}")
                margins.append(accuracy - constant)
        require(float(np.mean(margins)) > 0,
                "predict.beats_constant_predictor",
                f"mean margin {np.mean(margins):+.4f}")
        for threshold in THRESHOLDS:
            gain = fig15.improvement(threshold)
            se = accuracy_se(fig15.accuracy(threshold, True), n_tests[True],
                             fig15.accuracy(threshold, False),
                             n_tests[False])
            floor = 0.0 if threshold == THRESHOLDS[0] \
                else -ACCURACY_SIGMAS * se
            require(gain > floor, "predict.alpha_improves_accuracy",
                    f"T={threshold}: {gain:+.4f}")


# ----------------------------------------------------------------------
# sched-sweep
# ----------------------------------------------------------------------

SCHED_HORIZON_S = 3 * 3600.0
#: User counts as factors of the rho = 1 count: the 2 % knee sits
#: near 0.93, so the sweep spans both sides of it.
SCHED_FACTORS = (0.85, 0.9, 0.95, 1.0, 1.05)
#: One block per unit, so every point splits into several units and
#: the stitch replays blocks.
SCHED_UNIT_BLOCKS = 1
#: The paper-layer probe that follows the sweep in every pass, so that
#: the capacity searches, trace generation and GBRT layers show on a
#: gated workload: an M/G/N and a finite-source capacity search on the
#: sweep's pool at a 180 s horizon (30 seeds strayed at most 5.3 % from
#: Erlang-B and Engset), a 3-user trace (about 500 rows), a 40-tree GBRT
#: fit on it and one ``predict_one`` walk per row.  It is an eighth to
#: a sixth of a pass: kept small because interpreter-bound code swings
#: most with the host's speed (see the README).
PROBE_HORIZON_S = 180.0
PROBE_TRACE_USERS = 3
PROBE_TREES = 40


class SchedSweep(BatchWorkload):
    name = "sched-sweep"

    def setup(self) -> None:
        from repro.capacity import finite_source, simulator
        from repro.ml import gbrt
        from repro.sched import executor
        from repro.stream import sweep
        from repro.traces import generator
        self.executor = executor
        self.sweep = sweep
        self.simulator = simulator
        self.finite_source = finite_source
        self.generator = generator
        self.gbrt = gbrt
        self.pool = sweep.lognormal_pool(seed=self.seed)
        self.config = simulator.CapacityConfig(
            n_channels=N_CHANNELS, mean_interval=MEAN_INTERVAL,
            horizon=SCHED_HORIZON_S, seed=self.seed)
        self.probe_config = simulator.CapacityConfig(
            n_channels=N_CHANNELS, mean_interval=MEAN_INTERVAL,
            horizon=PROBE_HORIZON_S, seed=self.seed)
        self.counts = sweep.default_user_counts(
            self.config, float(self.pool.mean()), SCHED_FACTORS)

    def run_pass(self):
        # A fresh work dir per pass: nothing on disk carries over.
        work_dir = tempfile.mkdtemp(prefix="sched-", dir=self.work_root)
        try:
            result = self.executor.run_distributed_sweep(
                self.pool, self.counts, self.config, seed=self.seed,
                work_dir=work_dir, unit_blocks=SCHED_UNIT_BLOCKS)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return result, self.probe()

    def probe(self):
        search = self.simulator.capacity_at_drop_target
        mgn = search(self.simulator.CapacitySimulator(
            self.pool, self.probe_config), DROP_TARGET, seed=self.seed)
        finite = search(self.finite_source.FiniteSourceCapacitySimulator(
            self.pool, self.probe_config), DROP_TARGET, seed=self.seed)
        dataset = self.generator.generate_trace(self.generator.TraceConfig(
            n_users=PROBE_TRACE_USERS, seed=self.seed))
        x, y = dataset.filter_reading_time().to_arrays()
        model = self.gbrt.GradientBoostedRegressor(
            n_estimators=PROBE_TREES, random_state=self.seed).fit(
                x, np.log1p(y))
        walks = [model.predict_one(row) for row in x]
        return mgn, finite, model, x, walks

    def summary(self, output):
        result, (mgn, finite, _, _, walks) = output
        return repr((result.to_dict(), mgn, finite, walks))

    def check_pass(self):
        output = self.run_pass()
        result, (mgn, finite, model, x, walks) = output
        serial = self.sweep.run_stream_sweep(
            self.pool, self.counts, self.config, seed=self.seed,
            processes=1)
        require(result.to_dict() == serial.to_dict(),
                "sched.merge_equals_serial_sweep")
        mean_hold = float(self.pool.mean())
        for point in result.points:
            blocking = reference.erlang_b(
                N_CHANNELS, point.n_users / MEAN_INTERVAL * mean_hold)
            tol = reference.blocking_tolerance(blocking, point.sessions,
                                               N_CHANNELS)
            require(abs(point.drop_probability - blocking) <= tol,
                    "sched.point_vs_erlang_b",
                    f"n={point.n_users}: {point.drop_probability:.4f} "
                    f"vs {blocking:.4f}")
        for found, ref, check in (
                (mgn, reference.erlang_capacity(
                    mean_hold, MEAN_INTERVAL, N_CHANNELS, DROP_TARGET),
                 "capacity.mgn_vs_erlang_b"),
                (finite, reference.engset_capacity(
                    mean_hold, MEAN_INTERVAL, N_CHANNELS, DROP_TARGET),
                 "capacity.finite_source_vs_engset")):
            require(abs(found - ref) <= CAPACITY_TOLERANCE * ref, check,
                    f"simulated {found} vs analytic {ref} users")
        check_fits([model])
        check_walks(model, x, walks)
        return output


BATCH: Dict[str, type] = {cls.name: cls for cls in
                          (PaperCapacity, PaperPredict, SchedSweep)}

