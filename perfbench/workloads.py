"""The benchmark's three workloads: set-up, one row, output checks, metrics.

Each workload is a closed loop with one caller: the next row starts when
the last one returns. The data sets and the pool of explained rows are
fixed (the generators' default seed 0, as in the bundled studies);
``--seed`` sets the decompose seeds, so it draws every Monte Carlo stream.
The timed loop walks the pool in passes; pass p explains pool row j with
decompose seed ``row_seed(seed, p, j)``. The error metrics are taken over
fixed passes of the pool (pass 0; passes 0-2 on fire), which are finished
untimed if the loop did not reach them, so they do not depend on speed.

Every timing sits between two runs of a fixed calibration kernel; the wall
time is divided by the mean of the two and multiplied by the kernel's time
on the reference machine. That gives "reference seconds" (unit ref-s),
which follow the program's speed and not the machine's.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import shapdec
import shapdec.cli
from shapdec.synthetic import synthetic_fire, synthetic_housing

from reference import ReferenceCheckError, exact_linear_gaussian, gaussian_moments, self_check

perf_counter = time.perf_counter

K1, K2 = 200, 400  # the studies' budget
DATA_SEED = 0  # the bundled studies' default generator seed
SETUP_REPEATS = 3
CAL_REF_S = 0.024  # median calibration_kernel() time on the reference machine
SETUP_CAL_REPEATS = 5  # kernel runs per gap between set-ups
PIPE_CAL_REF_S = 0.19  # median PipeKernel() time on the reference machine

# Per-row checks. The largest values seen on correct code over seeds 0-9
# are in README.md; each bound sits at two to three times that.
ROW_PHI_RMSE_MAX = 1.5
ROW_PHI_INT_RMSE_MAX = 0.25
FIRE_ROW_PHI_DEP_MAX = 0.6
EFFICIENCY_TOL = 1e-8
# Checks over the error passes (the linear-Gaussian bounds are per workload).
FIRE_MEAN_PHI_DEP_MAX = 0.08
FIRE_DEP_TO_INT_MAX = 0.25


def row_seed(seed: int, pass_index: int, pool_index: int) -> int:
    return seed * 100_003 + pass_index * 1_009 + pool_index


def calibration_kernel() -> float:
    """Fixed work shaped like a row's hot path, timed: Philox generator
    builds, permutations, small conditioning solves and draws, and a
    Python-level mask loop. Uses numpy only, never the package."""
    gen = np.random.default_rng(20230618)
    a = gen.normal(size=(13, 13))
    cov = a @ a.T + np.eye(13)
    every = np.arange(13)
    t0 = perf_counter()
    for k in range(150):
        g = np.random.Generator(np.random.Philox(key=[k, 7]))
        order = g.permutation(13)
        known = np.sort(order[: k % 12 + 1])
        missing = np.setdiff1d(every, known)
        gain = np.linalg.solve(cov[np.ix_(known, known)], cov[np.ix_(known, missing)])
        z = g.standard_normal((20, len(missing)))
        (z @ gain.T).sum()
        mask = 0
        for j in order:
            mask |= 1 << int(j)
    return perf_counter() - t0


def calibration(repeats: int) -> float:
    """Median of ``repeats`` kernel times: one kernel run is short enough
    for a single scheduling hiccup to move it."""
    return statistics.median(calibration_kernel() for _ in range(repeats))


def reference_seconds(times, cal, ref_s=CAL_REF_S):
    """Wall times in reference seconds: each against the mean of the kernel
    times measured just before and just after it."""
    return [t * ref_s / (0.5 * (cal[k] + cal[k + 1])) for k, t in enumerate(times)]


class PipeKernel:
    """Fixed bridge traffic, timed: 30 round trips of one 200 x 13 predict
    request to a bridge_model.py child, encoded and decoded with json as
    ExternalModel does. The CLI workload spends most of a row on such
    round trips between two processes, which the numpy kernel does not
    follow. Uses the standard library only, never the package."""

    ROUNDS = 30

    def __init__(self):
        bridge = Path(__file__).resolve().parent / "bridge_model.py"
        coef = ",".join(["0.5"] * 13)
        self.proc = subprocess.Popen(
            [sys.executable, str(bridge), coef, "1.0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        rows = np.random.default_rng(20230618).normal(size=(200, 13))
        self.request = {"op": "predict", "inputs": rows.tolist()}

    def __call__(self) -> float:
        t0 = perf_counter()
        for _ in range(self.ROUNDS):
            self.proc.stdin.write(json.dumps(self.request) + "\n")
            self.proc.stdin.flush()
            json.loads(self.proc.stdout.readline())
        return perf_counter() - t0

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=10)


def _rms(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.sqrt(np.mean(a * a)))


class Outcome:
    """One explained row: the decomposition and whether its checks held."""

    __slots__ = ("pool_index", "pass_index", "phi", "phi_int", "phi_dep", "base", "ok")

    def __init__(self, pool_index, pass_index, phi, phi_int, phi_dep, base):
        self.pool_index = pool_index
        self.pass_index = pass_index
        self.phi = np.asarray(phi, dtype=float)
        self.phi_int = np.asarray(phi_int, dtype=float)
        self.phi_dep = np.asarray(phi_dep, dtype=float)
        self.base = float(base)
        self.ok = None

    def efficient(self, fx: float) -> bool:
        """sum(phi) = f(x) - base, and phi_int + phi_dep = phi."""
        gap = abs(self.phi.sum() - (fx - self.base))
        split = np.max(np.abs(self.phi_int + self.phi_dep - self.phi))
        scale = 1.0 + abs(fx) + abs(self.base)
        return bool(gap <= EFFICIENCY_TOL * scale and split <= EFFICIENCY_TOL * scale)


class Workload:
    """Shared loop; subclasses set up, explain one row and check outputs."""

    name = ""
    pool_size = 0
    error_passes = 1
    seeded = True  # False: the same draws whatever --seed says
    row_ref_s = CAL_REF_S  # reference time of the kernel calibrate() runs

    def __init__(self, root: Path, seed: int, out_dir: Path, tracer=None):
        self.root = root
        self.draw_seed = seed if self.seeded else DATA_SEED
        self.out_dir = out_dir
        self.tracer = tracer
        self.figures: dict = {}  # what the checks measured, for the progress line

    # Subclasses: setup() builds everything a run pays once and stores it;
    # explain(pool_index, pass_index) returns an Outcome; reference() builds
    # what the checks compare against and says whether it passed its own
    # checks; check_rows() sets each Outcome.ok; error_metrics() returns the
    # three error metrics and whether their own checks held. Both record the
    # figures they judged in self.figures.

    def pool(self, n_rows: int) -> np.ndarray:
        """Row indices, the same for every seed: a warm-up row, then
        ``pool_size`` explained rows."""
        gen = np.random.default_rng([DATA_SEED, 7])
        return gen.choice(n_rows, size=self.pool_size + 1, replace=False)

    def timed_setup(self):
        """Set up SETUP_REPEATS times with the calibration kernel before,
        between and after; return the median set-up time in reference
        seconds and the raw wall times."""
        times, cal = [], [calibration(SETUP_CAL_REPEATS)]
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            self.setup()
            times.append(perf_counter() - t0)
            cal.append(calibration(SETUP_CAL_REPEATS))
        return statistics.median(reference_seconds(times, cal)), times

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def loop(self, seconds: float, alternate_trace: bool = False):
        """Explain pool rows until ``seconds`` have passed.

        With ``alternate_trace`` the tracer is on for every second row,
        starting with the first. Returns the outcomes, each row's wall time
        with its traced flag, and the calibration kernel times (one before
        each row and one after the last).
        """
        outcomes, times = [], []
        cal = [self.calibrate()]
        k = 0
        t_start = perf_counter()
        while perf_counter() - t_start < seconds:
            pass_index, pool_index = divmod(k, self.pool_size)
            traced = alternate_trace and k % 2 == 0
            if self.tracer is not None:
                self.tracer.enabled = traced
            t0 = perf_counter()
            outcome = self.explain(pool_index, pass_index)
            times.append((perf_counter() - t0, traced))
            if self.tracer is not None:
                self.tracer.enabled = False
            outcomes.append(outcome)
            cal.append(self.calibrate())
            k += 1
        return outcomes, times, cal

    def calibrate(self) -> float:
        return calibration_kernel()

    def complete(self, outcomes):
        """Explain, untimed, the error passes the loop did not reach."""
        done = {(o.pass_index, o.pool_index) for o in outcomes}
        for p in range(self.error_passes):
            for j in range(self.pool_size):
                if (p, j) not in done:
                    outcomes.append(self.explain(j, p))
        return outcomes

    def error_outcomes(self, outcomes):
        """The outcomes of the error passes, one per (pass, pool row)."""
        picked = {}
        for o in outcomes:
            if o.pass_index < self.error_passes:
                picked.setdefault((o.pass_index, o.pool_index), o)
        return [picked[key] for key in sorted(picked)]

    def close(self):
        pass


class _LinearGaussianChecks:
    """Checks and error metrics against the exact linear-Gaussian reference."""

    def reference(self) -> bool:
        mean, cov = gaussian_moments(self.data_values)
        x = self.data_values[self.pool_rows]
        try:
            self_check()
            self.exact = exact_linear_gaussian(self.beta, self.intercept, mean, cov, x)
        except ReferenceCheckError as err:
            print(f"error: {err}", file=sys.stderr)
            return False
        return True

    def check_rows(self, outcomes):
        _, phi, phi_int, _ = self.exact
        fx = self.intercept + self.data_values[self.pool_rows] @ self.beta
        worst = {"row_phi_rmse": 0.0, "row_phi_int_rmse": 0.0}
        for o in outcomes:
            j = o.pool_index
            row_phi = _rms(o.phi - phi[j])
            row_int = _rms(o.phi_int - phi_int[j])
            o.ok = (
                o.efficient(fx[j])
                and row_phi <= ROW_PHI_RMSE_MAX
                and row_int <= ROW_PHI_INT_RMSE_MAX
            )
            worst["row_phi_rmse"] = max(worst["row_phi_rmse"], row_phi)
            worst["row_phi_int_rmse"] = max(worst["row_phi_int_rmse"], row_int)
        self.figures.update(worst)

    def error_metrics(self, outcomes):
        _, phi, phi_int, phi_dep = self.exact
        picked = self.error_outcomes(outcomes)
        idx = [o.pool_index for o in picked]
        metrics = {
            "phi_rmse": _rms(np.array([o.phi for o in picked]) - phi[idx]),
            "phi_int_rmse": _rms(np.array([o.phi_int for o in picked]) - phi_int[idx]),
            "phi_dep_rmse": _rms(np.array([o.phi_dep for o in picked]) - phi_dep[idx]),
        }
        ok = metrics["phi_rmse"] <= self.phi_rmse_max and metrics["phi_int_rmse"] <= self.phi_int_rmse_max
        return metrics, ok


class HousingLinearGaussian(_LinearGaussianChecks, Workload):
    """decompose on synthetic-housing rows; OLS model; one shared Gaussian
    sampler whose conditioning cache a warm-up explanation fills."""

    name = "housing-linear-gaussian"
    pool_size = 40
    phi_rmse_max, phi_int_rmse_max = 0.4, 0.1

    def setup(self):
        data, target = synthetic_housing(seed=DATA_SEED)
        model = shapdec.fit_ols(data, target)
        sampler = shapdec.GaussianSampler(shapdec.fit_gaussian(data))
        rows = self.pool(data.n_rows)
        warm = data.values[rows[0]]
        shapdec.decompose(model, sampler, warm, K1, K2, row_seed(self.draw_seed, 99, 0))
        self.model, self.sampler = model, sampler
        self.data_values = data.values
        self.pool_rows = rows[1:]
        self.beta, self.intercept = model.coefficients, model.intercept

    def explain(self, pool_index, pass_index):
        x = self.data_values[self.pool_rows[pool_index]]
        dec = shapdec.decompose(
            self.model, self.sampler, x, K1, K2, row_seed(self.draw_seed, pass_index, pool_index)
        )
        return Outcome(pool_index, pass_index, dec.phi, dec.phi_int, dec.phi_dep, dec.base)


class FireForestCopula(Workload):
    """decompose on synthetic-fire rows; log odds of the fire study's
    100-tree binary-probability forest; Gaussian-copula sampler.

    The generator's features are independent, so the exact dependent part
    is about 0 and phi and phi_int estimate the same value. The error
    metrics are therefore phi_dep against 0, and for phi and phi_int their
    Monte Carlo error, measured from three passes with different seeds.
    """

    name = "fire-forest-copula"
    pool_size = 24
    error_passes = 3

    def setup(self):
        data, labels = synthetic_fire(seed=DATA_SEED)
        forest = shapdec.fit_forest(
            data,
            labels,
            {"trees": 100, "max_depth": 6},
            shapdec.RngStream(DATA_SEED, 99),
            task="binary-probability",
        )
        model = shapdec.LogOddsModel(forest)
        sampler = shapdec.CopulaSampler(shapdec.fit_copula(data))
        rows = self.pool(data.n_rows)
        shapdec.decompose(model, sampler, data.values[rows[0]], K1, K2, row_seed(self.draw_seed, 99, 0))
        self.model, self.sampler = model, sampler
        self.data_values = data.values
        self.pool_rows = rows[1:]
        corr = sampler.model.latent_corr
        self.figures["latent_corr_max_offdiag"] = float(np.max(np.abs(corr - np.eye(len(corr)))))

    def reference(self) -> bool:
        return True  # the reference is the independence of the features

    def explain(self, pool_index, pass_index):
        x = self.data_values[self.pool_rows[pool_index]]
        dec = shapdec.decompose(
            self.model, self.sampler, x, K1, K2, row_seed(self.draw_seed, pass_index, pool_index)
        )
        return Outcome(pool_index, pass_index, dec.phi, dec.phi_int, dec.phi_dep, dec.base)

    def check_rows(self, outcomes):
        fx = self.model.predict(self.data_values[self.pool_rows])
        worst = 0.0
        for o in outcomes:
            dep = float(np.max(np.abs(o.phi_dep)))
            o.ok = o.efficient(fx[o.pool_index]) and dep <= FIRE_ROW_PHI_DEP_MAX
            worst = max(worst, dep)
        self.figures["row_max_abs_phi_dep"] = worst

    def error_metrics(self, outcomes):
        picked = self.error_outcomes(outcomes)  # sorted by (pass, pool row)
        shape = (self.error_passes, self.pool_size, -1)
        phi = np.array([o.phi for o in picked]).reshape(shape)
        phi_int = np.array([o.phi_int for o in picked]).reshape(shape)
        dep = np.array([o.phi_dep for o in picked])
        metrics = {
            # Monte Carlo error: the spread of each value over the passes
            "phi_rmse": float(np.sqrt(phi.var(axis=0, ddof=1).mean())),
            "phi_int_rmse": float(np.sqrt(phi_int.var(axis=0, ddof=1).mean())),
            "phi_dep_rmse": _rms(dep),
        }
        mean_dep = float(np.max(np.abs(dep.mean(axis=0))))
        dep_to_int = metrics["phi_dep_rmse"] / _rms(phi_int)
        self.figures.update(max_abs_mean_phi_dep=mean_dep, dep_to_int_rms=dep_to_int)
        ok = mean_dep <= FIRE_MEAN_PHI_DEP_MAX and dep_to_int <= FIRE_DEP_TO_INT_MAX
        return metrics, ok


class CliExplainBridge(_LinearGaussianChecks, Workload):
    """One ``shapdec explain --plot`` process per row on a housing CSV; the
    model is a JSON ``external`` model whose child is bridge_model.py."""

    name = "cli-explain-bridge"
    pool_size = 2
    # Two or three rows fit in a run. With seeded draws, the error metrics of
    # so few rows spread by about a fifth across seeds, so the draws are fixed.
    seeded = False
    row_ref_s = PIPE_CAL_REF_S
    phi_rmse_max, phi_int_rmse_max = 0.5, 0.15  # over two rows, not forty
    in_process = False  # the traced run calls shapdec.cli.main in-process
    _pipe = None

    def calibrate(self) -> float:
        if self._pipe is None:
            self._pipe = PipeKernel()
        return statistics.median(self._pipe() for _ in range(3))

    def close(self):
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None

    def setup(self):
        data, target = synthetic_housing(seed=DATA_SEED)
        model = shapdec.fit_ols(data, target)
        self.beta, self.intercept = model.coefficients, model.intercept
        self.data_values = data.values
        self.pool_rows = self.pool(data.n_rows)[1:]
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.csv_path = self.out_dir / "housing.csv"
        with self.csv_path.open("w") as handle:
            handle.write(",".join(data.names) + "\n")
            for row in data.values:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        self.model_path = self.out_dir / "model.json"
        self.stats_path = self.out_dir / "bridge-stats.json"
        bridge = Path(__file__).resolve().parent / "bridge_model.py"
        cmd = [
            sys.executable,
            str(bridge),
            ",".join(repr(float(c)) for c in self.beta),
            repr(float(self.intercept)),
        ]
        if self.in_process:
            cmd.append(str(self.stats_path))
        doc = {"kind": "external", "cmd": cmd, "n_features": len(self.beta)}
        self.model_path.write_text(json.dumps(doc))
        # a cold start of the CLI: import, argument parsing, exit
        self._run_cli(["explain", "--help"], quiet=True)

    def _env(self):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def _run_cli(self, argv, quiet=False):
        """Run ``python -m shapdec.cli`` in its own session and wait for it
        and everything it started (the bridge child) to end."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "shapdec.cli", *argv],
            cwd=self.root,
            env=self._env(),
            stdout=subprocess.DEVNULL if quiet else None,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _reap_group(proc)
        return code

    def _argv(self, pool_index, pass_index, out):
        return [
            "explain",
            "--data", str(self.csv_path),
            "--model", str(self.model_path),
            "--sampler", "gaussian",
            "--k1", str(K1),
            "--k2", str(K2),
            "--row", str(int(self.pool_rows[pool_index])),
            "--seed", str(row_seed(self.draw_seed, pass_index, pool_index)),
            "--out", str(out),
            "--plot",
        ]

    def explain(self, pool_index, pass_index):
        out = self.out_dir / f"explain-{pass_index}-{pool_index}"
        argv = self._argv(pool_index, pass_index, out)
        if self.in_process:
            with self.tracer.span("cli.main"):
                code = shapdec.cli.main(argv)
            _close_external_models()
            if self.tracer.enabled:
                stats = json.loads(self.stats_path.read_text())
                self.tracer.add("models.external.request_bytes", stats["request_bytes"])
        else:
            code = self._run_cli(argv)
        try:
            doc = json.loads((out / "decomposition.json").read_text())
            plotted = (out / "force.svg").read_text().lstrip().startswith("<svg")
            feats = doc["features"]
            outcome = Outcome(
                pool_index,
                pass_index,
                [f["phi"] for f in feats],
                [f["phi_int"] for f in feats],
                [f["phi_dep"] for f in feats],
                doc["base"],
            )
        except (OSError, ValueError, KeyError, TypeError):
            nan = np.full(len(self.beta), np.nan)
            outcome = Outcome(pool_index, pass_index, nan, nan, nan, np.nan)
            plotted = False
        outcome.ok = code == 0 and plotted
        return outcome

    def check_rows(self, outcomes):
        process_ok = {id(o): o.ok for o in outcomes}
        super().check_rows(outcomes)
        for o in outcomes:
            o.ok = bool(o.ok and process_ok[id(o)])

    def peak_rss_mb(self) -> float:
        # the largest CLI process; the benchmark's own memory is not the CLI's
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def bare_import_s(self) -> float:
        """Median over three fresh processes of ``import shapdec.cli``."""
        code = (
            "import time; t = time.perf_counter(); import shapdec.cli; "
            "print(repr(time.perf_counter() - t))"
        )
        times = []
        for _ in range(3):
            done = subprocess.run(
                [sys.executable, "-c", code],
                cwd=self.root,
                env=self._env(),
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            times.append(float(done.stdout.strip().splitlines()[-1]))
        return statistics.median(times)


def _reap_group(proc):
    """Wait until every process of ``proc``'s session has ended; after 10 s
    kill what is left and wait up to 5 s more."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    start = time.monotonic()
    killed = False
    while time.monotonic() - start < 15.0:
        try:
            os.killpg(proc.pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        if not killed and time.monotonic() - start > 10.0:
            os.killpg(proc.pid, signal.SIGKILL)
            killed = True
        time.sleep(0.005)


_EXTERNAL_MODELS: list = []


def track_external_models():
    """Record every ExternalModel built, so in-process CLI calls (which
    never close their bridge) can be cleaned up after each row."""
    cls = shapdec.ExternalModel
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        _EXTERNAL_MODELS.append(self)

    cls.__init__ = init


def _close_external_models():
    while _EXTERNAL_MODELS:
        _EXTERNAL_MODELS.pop().close()


WORKLOADS = {
    cls.name: cls for cls in (HousingLinearGaussian, FireForestCopula, CliExplainBridge)
}
