"""End-to-end acceptance criteria.

Each test is one numbered criterion, run at its stated tolerance with its
runtime budget enforced.  Run with ``pytest tests/test_acceptance.py -v``
for one pass/fail line per criterion (add ``-s`` to see the detail lines).
"""

import itertools
import math
import time

import numpy as np

from conftest import (
    bound_and_ratio,
    dense_rho,
    discrimination_scores,
    min_shifted,
    moment_derivatives,
    permutation_residual,
    subadditivity,
    table_rows,
)
from covdensity import cli
from covdensity.betafit import fit_beta
from covdensity.covariance import (
    CovarianceMatrix,
    DataMatrix,
    sample_covariance,
)
from covdensity.density import density_operator, f_factor
from covdensity.entropy import cvne, naive_entropy
from covdensity.filtering import FilterSpec
from covdensity.lab import LipschitzConfig, RegressionConfig, SurrogateConfig, run_lipschitz, run_regression, run_surrogate
from covdensity.network import TrainConfig, forward_rows, init_model, model_gradients, train


def report(number, detail):
    print(f"criterion {number:02d} PASS: {detail}")


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeded budget {self.limit}s"
        return elapsed


def wishart(rng, dim, n_factor=2):
    data = rng.standard_normal((max(n_factor * dim, dim + 1), dim))
    return sample_covariance(DataMatrix(values=data))


def rank_one_unit(rng, dim):
    f = rng.standard_normal(dim)
    f /= np.linalg.norm(f)
    return CovarianceMatrix(matrix=np.outer(f, f))


def test_criterion_01_entropy_anchors():
    budget = Budget(1.0)
    s1 = cvne(np.diag([2.0, 0.0, 0.0]), 1.0).entropy_bits
    s2 = cvne(np.diag([1.0, 1.0, 0.0]), 1.0).entropy_bits
    assert abs(s1 - 1.28) <= 0.005
    assert abs(s2 - 1.41) <= 0.005
    elapsed = budget.check()
    report(1, f"S(diag(2,0,0))={s1:.4f} bits, S(diag(1,1,0))={s2:.4f} bits in {elapsed:.2f}s")


def test_criterion_02_unit_trace_and_positivity():
    budget = Budget(30.0)
    rng = np.random.default_rng(202)
    betas = (-5.0, -1.0, 0.0, 1.0, 5.0, 15.0)
    worst_trace = 0.0
    min_eig = math.inf
    for i in range(1000):
        dim = int(rng.integers(2, 65))
        cov = rank_one_unit(rng, dim) if i % 5 == 0 else wishart(rng, dim)
        for beta in betas:
            rho = density_operator(cov, beta)
            worst_trace = max(worst_trace, abs(float(np.sum(rho.density_eigenvalues)) - 1.0))
            min_eig = min(min_eig, float(np.min(rho.density_eigenvalues)))
    assert worst_trace <= 1e-12
    assert min_eig > 0.0
    elapsed = budget.check()
    report(2, f"worst |tr-1|={worst_trace:.2e}, min density eigenvalue={min_eig:.2e} in {elapsed:.1f}s")


def test_criterion_03_permutation_equivariance():
    budget = Budget(10.0)
    rng = np.random.default_rng(303)
    worst = 0.0
    for dim in (3, 4):
        cov = wishart(rng, dim, n_factor=5)
        x = rng.standard_normal(dim)
        spec = FilterSpec(coeffs=rng.standard_normal(4), beta=1.3)
        for perm in itertools.permutations(range(dim)):
            residual = permutation_residual(spec, cov, x, np.array(perm))
            worst = max(worst, residual / max(1.0, float(np.linalg.norm(x))))
    for _ in range(100):
        cov = wishart(rng, 16, n_factor=5)
        x = rng.standard_normal(16)
        spec = FilterSpec(coeffs=rng.standard_normal(int(rng.integers(2, 5))), beta=float(rng.uniform(-2, 2)))
        perm = rng.permutation(16)
        residual = permutation_residual(spec, cov, x, perm)
        worst = max(worst, residual / max(1.0, float(np.linalg.norm(x))))
    assert worst <= 1e-9
    elapsed = budget.check()
    report(3, f"worst scaled residual {worst:.2e} over S3+S4 exhaustive and 100 dim-16 cases in {elapsed:.1f}s")


def test_criterion_04_composite_lipschitz():
    budget = Budget(10.0)
    cfg = LipschitzConfig(trials=10000, seed=404)
    records = table_rows(run_lipschitz(cfg))
    assert len(records) >= 9900
    max_ratio = max(r.metrics["ratio"] for r in records)
    # ratio is |response diff| / (alpha |eigenvalue diff|); bound allows 1e-12 slack
    assert all(
        r.metrics["response_diff"]
        <= r.metrics["alpha"] * abs(r.metrics["lambda2"] - r.metrics["lambda1"]) + 1e-12
        for r in records
    )
    elapsed = budget.check()
    report(4, f"max ratio {max_ratio:.6f} over {len(records)} random triples in {elapsed:.1f}s")


def test_criterion_05_density_error_bound():
    budget = Budget(60.0)
    for beta in (1e-6, 1e-7, -1e-6, -1e-7):
        assert abs(f_factor(beta, 5.0, 5.7) - 1.0) <= 1e-4
    rng = np.random.default_rng(505)
    dominated = 0
    checked = 0
    r_below = 0
    for _ in range(1000):
        cov = min_shifted(wishart(rng, 8, n_factor=4))
        e = rng.standard_normal((8, 8))
        e = (e + e.T) / 2.0
        dc = float(rng.uniform(0.02, 0.3)) * e / np.linalg.norm(e, 2)
        beta = float(rng.uniform(0.05, 4.0))
        # The bound and R as run_stability computes them; the measured error on the per-matrix path.
        bound, ratio = bound_and_ratio(cov, dc, beta)
        if ratio < 1.0:
            r_below += 1
            continue
        checked += 1
        actual = np.linalg.norm(
            dense_rho(density_operator(cov.matrix + dc, beta)) - dense_rho(density_operator(cov, beta)), 2
        )
        dominated += bound >= actual
    assert checked > 0
    assert dominated == checked  # 100% of R >= 1 trials
    elapsed = budget.check()
    report(
        5,
        f"F-limit ok; bound dominated measured error on {dominated}/{checked} trials with R>=1 "
        f"({r_below} R<1 trials reported separately) in {elapsed:.1f}s",
    )


def test_criterion_06_subadditivity():
    budget = Budget(60.0)
    rng = np.random.default_rng(606)
    violations = 0
    worst_margin = math.inf
    for _ in range(1000):
        dim = int(rng.integers(4, 9))
        a = wishart(rng, dim, n_factor=5)
        b = wishart(rng, dim, n_factor=5)
        for beta in (0.5, 1.0, 2.0):
            lhs, rhs, _ = subadditivity([a, b], beta)
            worst_margin = min(worst_margin, rhs - lhs)
            violations += not lhs <= rhs + 1e-9
    assert violations == 0
    elapsed = budget.check()
    report(6, f"0 violations in 3000 checks, worst margin {worst_margin:.4f} nats in {elapsed:.1f}s")


def test_criterion_07_scale_blindness_vs_sensitivity():
    budget = Budget(10.0)
    rng = np.random.default_rng(707)
    cov = wishart(rng, 6, n_factor=5)
    base_naive = naive_entropy(cov)
    for alpha in (0.1, 2.0, 100.0):
        scaled = CovarianceMatrix(matrix=alpha * cov.matrix)
        assert abs(naive_entropy(scaled) - base_naive) <= 1e-12
    change = abs(cvne(CovarianceMatrix(matrix=2.0 * cov.matrix), 2.0).entropy_nats - cvne(cov, 2.0).entropy_nats)
    assert change > 1e-6
    elapsed = budget.check()
    report(7, f"naive entropy scale-blind to 1e-12; density entropy moved {change:.4f} nats at alpha=2 in {elapsed:.1f}s")


def test_criterion_08_discrimination_auc():
    budget = Budget(120.0)
    result = discrimination_scores(
        window=128, n_windows=500, beta=2.0, regime_scale=(1.3, 1.2, 1.1), seed=808
    )
    assert 0.45 <= result.auc_naive <= 0.60
    assert result.auc_vne >= 0.90
    elapsed = budget.check()
    report(8, f"auc_naive={result.auc_naive:.4f}, auc_vne={result.auc_vne:.4f} over 500 windows/regime in {elapsed:.1f}s")


def test_criterion_09_beta_fit():
    budget = Budget(10.0)
    closed = fit_beta([1.0, 2.0], [1 / 3, 2 / 3])
    assert abs(closed.beta_star + math.log(2.0)) <= 1e-8

    rng = np.random.default_rng(909)
    for _ in range(100):
        dim = int(rng.integers(2, 10))
        spectrum = np.sort(rng.uniform(0.0, 5.0, dim))
        spectrum[-1] += 0.1
        target = rng.dirichlet(np.ones(dim))
        result = fit_beta(spectrum, target)
        grad, curv = moment_derivatives(spectrum, target, result.beta_star)
        assert abs(grad) <= 1e-8
        assert curv > 0.0

    spectrum = np.array([0.3, 1.1, 2.0, 4.5])
    target = np.array([0.4, 0.3, 0.2, 0.1])
    reference = fit_beta(spectrum, target).beta_star
    for _ in range(10):
        bracket = (float(rng.uniform(-30, -0.5)), float(rng.uniform(0.5, 30)))
        assert abs(fit_beta(spectrum, target, initial_bracket=bracket).beta_star - reference) <= 1e-8
    elapsed = budget.check()
    report(9, f"closed form, 100 optimality checks, 10-start agreement at beta*={reference:.6f} in {elapsed:.1f}s")


def test_criterion_10_spectral_surrogate():
    budget = Budget(120.0)
    cfg = SurrogateConfig(
        dim=8, trials=20, seed=1010,
        sample_grid=(100, 20000), filter_coeffs=(1.0, 0.5), edge_prob=0.5,
    )
    records = table_rows(run_surrogate(cfg))
    small = [r.metrics["alignment"] for r in records if r.params["n_samples"] == 100 and "alignment" in r.metrics]
    large = [r.metrics["alignment"] for r in records if r.params["n_samples"] == 20000 and "alignment" in r.metrics]
    assert len(large) == 20 and len(small) == 20
    assert float(np.mean(large)) >= 0.9
    assert float(np.mean(large)) > float(np.mean(small))
    elapsed = budget.check()
    report(
        10,
        f"mean alignment {float(np.mean(large)):.4f} at n=20000 vs {float(np.mean(small)):.4f} at n=100 in {elapsed:.1f}s",
    )


def test_criterion_11_gradient_checks():
    budget = Budget(60.0)
    from test_network import finite_difference_gradients, gradient_arrays, relative_error

    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(10):
        dim = int(rng.integers(3, 6))
        cov = wishart(rng, dim, n_factor=5)
        cfg = TrainConfig(
            betas=tuple(rng.uniform(-1, 3, 2)), order=2, hidden_dim=4, betas_learnable=True,
            seed=int(rng.integers(0, 2**31)),
        )
        model = init_model(cov, 2, cfg)
        xs = [rng.standard_normal(dim) for _ in range(3)]
        ys = [rng.standard_normal(2) for _ in range(3)]
        _, grads = model_gradients(model, xs, ys, "mse")
        grads = gradient_arrays(model, grads)
        fd = finite_difference_gradients(model, xs, ys, "mse")
        worst = max(
            worst,
            relative_error(grads["coeffs_0"], fd["coeffs_0"]),
            relative_error(grads["betas_0"], fd["betas_0"]),
            relative_error(grads["head_w1"], fd["head_w1"]),
            relative_error(grads["head_b1"], fd["head_b1"]),
            relative_error(grads["head_w2"], fd["head_w2"]),
            relative_error(grads["head_b2"], fd["head_b2"]),
        )
    assert worst <= 1e-5
    elapsed = budget.check()
    report(11, f"worst analytic-vs-central-difference relative error {worst:.2e} over 10 models in {elapsed:.1f}s")


def test_criterion_12_noise_robustness_trend():
    budget = Budget(300.0)
    cfg = RegressionConfig(
        trials=100, seed=1212,
        betas=(0.1, 1.0, 5.0), noise_levels=(5.0,),
    )
    records = table_rows(run_regression(cfg))

    def mean_mae(method, beta=None):
        vals = [r.metrics["mae"] for r in records if (r.params["method"], r.params.get("beta")) == (method, beta)]
        assert len(vals) == 100 * 5  # trials x covariance sample grid
        return float(np.mean(vals))

    raw = mean_mae("raw_covariance")
    margins = {}
    for beta in (0.1, 1.0, 5.0):
        mae = mean_mae("density", beta)
        margins[beta] = raw - mae
        assert mae <= raw
    elapsed = budget.check()
    report(
        12,
        "raw MAE {:.4f}; density margins ".format(raw)
        + ", ".join(f"beta={b}: {m:+.4f}" for b, m in margins.items())
        + f" in {elapsed:.1f}s",
    )


def test_criterion_13_learnable_beta_parity():
    budget = Budget(120.0)
    rng = np.random.default_rng(1313)
    centers = np.array([[-1.5] * 4, [1.5] * 4])
    xs, ys = [], []
    for i in range(200):
        label = i % 2
        xs.append(centers[label] + 0.5 * rng.standard_normal(4))
        ys.append(label)
    from covdensity.covariance import trace_normalize

    cov = trace_normalize(sample_covariance(DataMatrix(values=np.stack(xs))))
    train_set, val_set = (xs[:150], ys[:150]), (xs[150:], ys[150:])
    cfg = TrainConfig(betas=(0.0,), learning_rate=0.02, epochs=60, batch_size=32, seed=4, task="classification")

    fixed = []
    for beta in (0.1, 5.0, 15.0):
        model = init_model(cov, 2, TrainConfig(betas=(beta,), order=2, hidden_dim=8, task="classification", seed=11))
        trained = train(model, train_set, val_set, cfg).model
        fixed.append(np.mean(np.argmax(forward_rows(trained, val_set[0]), axis=1) == val_set[1]))
    learned_model = init_model(
        cov, 2, TrainConfig(betas=(0.0, 0.0, 0.0), hidden_dim=8, task="classification", betas_learnable=True, seed=11)
    )
    trained = train(learned_model, train_set, val_set, cfg).model
    learned = np.mean(np.argmax(forward_rows(trained, val_set[0]), axis=1) == val_set[1])
    assert learned >= max(fixed) - 0.03
    elapsed = budget.check()
    report(13, f"learned-beta accuracy {learned:.3f} vs best fixed {max(fixed):.3f} in {elapsed:.1f}s")


def test_criterion_14_cli_determinism(tmp_path, capsys):
    budget = Budget(120.0)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = cli.main(
            [
                "stability", "--dim", "8", "--trials", "10", "--seed", "1414",
                "--betas=-0.5,0.5,2", "--noise-levels", "0.05,0.2",
                "--output-dir", str(d),
            ]
        )
        assert code == 0
    capsys.readouterr()
    a = (dirs[0] / "results.csv").read_bytes()
    b = (dirs[1] / "results.csv").read_bytes()
    assert a == b
    sa = (dirs[0] / "summary.json").read_bytes()
    sb = (dirs[1] / "summary.json").read_bytes()
    assert sa == sb
    elapsed = budget.check()
    report(14, f"byte-identical results.csv ({len(a)} bytes) and summary.json across repeated runs in {elapsed:.1f}s")
