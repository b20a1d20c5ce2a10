"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime. Tolerances are fixed here, not tuned at
runtime. The end-to-end criteria use frozen desk-scale configurations whose
seeds make every run bit-reproducible."""

import itertools
import time

import numpy as np

from longremix import config, data, gmm, lemma, nn, report, trainer
from longremix.mixing import build_epoch_plan
from longremix.selector import CoreSet, baseline_split, guided_split, hct_split
from conftest import fd_gradient, flatten_grads, max_rel_err, random_net, random_soft_labels


def _report(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion} ({elapsed:.1f}s) {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: Lemma validation --------------------------------------------

def test_criterion_1_lemma_monte_carlo_grid():
    t0 = time.time()
    grid_p = (0.55, 0.7, 0.9)
    grid_pc = (0.1, 0.5, 0.9)
    zetas = (1, 3, 5, 10)
    n = 1_000_000
    worst = 0.0
    count = 0
    for i, (pcc, pnn, pc, z) in enumerate(itertools.product(grid_p, grid_p, grid_pc, zetas)):
        cf_p, cf_r = lemma.closed_form_pr(pcc, pnn, pc, z)
        precision, recall, se_p, se_r = lemma.monte_carlo_pr(pcc, pnn, pc, z, n, seed=(4000, i))
        assert not np.isnan([precision, recall, se_p, se_r]).any()
        dev_p = abs(precision - cf_p) / se_p if se_p > 0 else 0.0
        dev_r = abs(recall - cf_r) / se_r if se_r > 0 else 0.0
        worst = max(worst, dev_p, dev_r)
        count += 1
    assert count == 108
    mono_ok = True
    for pcc, pnn, pc in itertools.product(grid_p, grid_p, grid_pc):
        rows = list(lemma.sweep_zeta(pcc, pnn, pc, range(1, 11)))
        mono_ok &= all(b["precision_cf"] > a["precision_cf"] for a, b in zip(rows, rows[1:]))
        mono_ok &= all(b["recall_cf"] < a["recall_cf"] for a, b in zip(rows, rows[1:]))
    elapsed = time.time() - t0
    ok = worst <= 4.0 and mono_ok and elapsed < 120
    _report("criterion-1 lemma-validation", ok, elapsed,
            f"108 grid points at n=1e6, worst deviation {worst:.2f} sigma, "
            f"monotone={mono_ok}")


# -- criterion 2: gradient correctness -----------------------------------------

def test_criterion_2_gradient_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(8861)
    worst = 0.0
    for trial in range(100):
        net = random_net(rng)
        # cross-entropy alone; with the squared error on a U half; every term
        kind = trial % 3
        n_x, n_u = (5, 0) if kind == 0 else (3, 4)
        xf = rng.normal(size=(n_x, net.input_dim))
        xt = random_soft_labels(rng, n_x, net.layer_sizes[-1])
        uf = rng.normal(size=(n_u, net.input_dim))
        ut = random_soft_labels(rng, n_u, net.layer_sizes[-1])
        batch = ((xf, xt), (uf, ut))
        spec = nn.TotalLoss(lambda_u=0.0 if kind == 0 else float(rng.uniform(0.5, 25.0)),
                            lambda_reg=float(rng.uniform(0.0, 1.5)) if kind == 2 else 0.0)
        got = flatten_grads(nn.backward(net, batch, spec))
        want = fd_gradient(net, batch, spec, h=1e-5)
        worst = max(worst, max_rel_err(got, want))
    elapsed = time.time() - t0
    ok = worst < 1e-5 and elapsed < 60
    _report("criterion-2 gradient-correctness", ok, elapsed,
            f"100 random triples, worst relative error {worst:.2e}")


# -- criterion 3: GMM recovery --------------------------------------------------

def test_criterion_3_gmm_recovery():
    t0 = time.time()
    mean_ok = weight_ok = mono_ok = True
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        vals = np.concatenate([rng.normal(0.1, 0.01, 500), rng.normal(0.9, 0.01, 500)])
        params = gmm.fit_gmm_em(vals)
        mean_ok &= bool(np.all(np.abs(params.means - [0.1, 0.9]) <= 0.01))
        weight_ok &= bool(np.all(np.abs(params.weights - 0.5) <= 0.05))
        path = np.array(params.log_likelihoods)
        mono_ok &= bool((np.diff(path) >= 0).all())
    elapsed = time.time() - t0
    ok = mean_ok and weight_ok and mono_ok and elapsed < 30
    _report("criterion-3 gmm-recovery", ok, elapsed,
            f"20 seeds, means ok={mean_ok}, weights ok={weight_ok}, "
            f"log-likelihood monotone={mono_ok}")


# -- criterion 4: selector exactness --------------------------------------------

def test_criterion_4_selector_properties():
    t0 = time.time()
    rng = np.random.default_rng(41000)
    draws = 1000
    for _ in range(draws):
        n = int(rng.integers(3, 60))
        zeta = int(rng.integers(1, 7))
        depth = zeta + int(rng.integers(0, 3))
        tau = float(rng.uniform(0.05, 0.95))
        # unused: drawn so that the windows stay fixed
        rng.integers(0, 5, n)
        rng.random((n, 5))
        window = rng.random((depth, n))[-zeta:]  # the last zeta of depth epochs

        base = baseline_split(window[-1], tau)
        windowed = hct_split(window, tau)

        # partition: X and U cover all indices exactly once
        for split in (base, windowed):
            both = np.concatenate([split.labeled_idx, split.unlabeled_idx])
            assert np.array_equal(np.sort(both), np.arange(n))

        # window subset: the windowed clean set never exceeds the baseline one
        assert set(windowed.labeled_idx) <= set(base.labeled_idx)

        # zeta monotonicity
        if zeta >= 2:
            narrower = hct_split(window[1:], tau)
            assert set(windowed.labeled_idx) <= set(narrower.labeled_idx)

        # guided with an empty core set reduces to the baseline split
        empty = guided_split(window[-1], tau, CoreSet.empty())
        assert np.array_equal(empty.labeled_idx, base.labeled_idx)
        assert np.allclose(empty.labeled_w, base.labeled_w)

        # core-set override: members pinned into X with weight 1
        k = int(rng.integers(1, n + 1))
        members = rng.choice(n, size=k, replace=False)
        rng.integers(0, 5, k)  # unused: drawn so that the later draws stay fixed
        core = CoreSet(indices=members, epoch=1)
        guided = guided_split(window[-1], tau, core)
        member_mask = np.isin(guided.labeled_idx, members)
        assert member_mask.sum() == k
        assert (guided.labeled_w[member_mask] == 1.0).all()
        assert not set(members.tolist()) & set(guided.unlabeled_idx.tolist())
    elapsed = time.time() - t0
    _report("criterion-4 selector-exactness", True, elapsed,
            f"{draws} randomized windows, all five properties exact")


# -- criterion 5: plan law -------------------------------------------------------

def test_criterion_5_plan_sizing_law():
    t0 = time.time()
    rng = np.random.default_rng(52000)
    d = 2000
    multiplicity_ok = True
    for trial in range(200):
        x_size = int(rng.integers(1, d + 1))
        labeled = rng.choice(d, size=x_size, replace=False)
        unlabeled = np.setdiff1d(np.arange(d), labeled)
        seed = int(rng.integers(0, 2**31))
        if len(unlabeled) == 0:
            continue
        plan = build_epoch_plan(labeled, unlabeled, d, seed=(seed,))
        assert plan.x_ops == d and plan.u_ops == d
        assert np.isin(plan.x_anchor, labeled).all()
        assert np.isin(plan.u_anchor, unlabeled).all()
        compat = build_epoch_plan(labeled, unlabeled, d, seed=(seed,), longmix=False)
        assert compat.x_ops == x_size and compat.u_ops == x_size
        if x_size <= d // 10:
            counts = np.bincount(np.searchsorted(np.sort(labeled), plan.x_anchor),
                                 minlength=x_size)
            expect = d / x_size
            sigma = np.sqrt(d * (1 / x_size) * (1 - 1 / x_size))
            multiplicity_ok &= bool((np.abs(counts - expect) <= 4 * sigma).all())
    elapsed = time.time() - t0
    _report("criterion-5 plan-law", multiplicity_ok, elapsed,
            "200 randomized clean-set sizes, exact plan sizes, "
            f"multiplicity within 4 sigma={multiplicity_ok}")


# -- criterion 6: ordinal mode ladder --------------------------------------------

LADDER_SEEDS = (1, 2, 3, 4, 5)
LADDER_MODES = ("ce", "baseline", "longmix", "full-longremix")


def _ladder_run(mode, eta, seed):
    # train's run of this config under --seed N: the default dataset and network
    exp = config.build_experiment(config.apply_seed_override(
        {"noise.kind": "symmetric", "noise.eta": str(eta), "train.mode": mode,
         "train.tau": "0.7", "train.warmup": "20"}, seed))
    ds, test = data.training_sets(exp, fits_mixture=mode != "ce")
    return trainer.run_training(exp.train, ds, test)[-1].record.best_acc


def test_criterion_6_mode_ladder():
    t0 = time.time()
    detail = []
    ok = True
    gap_at_90 = None
    for eta in (0.8, 0.9):
        medians = {}
        for mode in LADDER_MODES:
            accs = [_ladder_run(mode, eta, seed) for seed in LADDER_SEEDS]
            medians[mode] = float(np.median(accs))
        ladder = (medians["full-longremix"] >= medians["longmix"]
                  >= medians["baseline"] >= medians["ce"])
        ok &= ladder
        if eta == 0.9:
            gap_at_90 = medians["full-longremix"] - medians["ce"]
            ok &= gap_at_90 >= 0.05
        detail.append(f"eta={eta}: " + " ".join(f"{m}={medians[m]:.3f}" for m in LADDER_MODES)
                      + f" ladder={ladder}")
    elapsed = time.time() - t0
    ok &= elapsed < 900
    _report("criterion-6 mode-ladder", ok, elapsed,
            "; ".join(detail) + f"; full-ce gap at 90%={gap_at_90:.3f}")


# -- criterion 7: precision/recall trade-off at 40% asymmetric noise ---------------


def test_criterion_7_asymmetric_pr_tradeoff():
    t0 = time.time()
    precision_wins = recall_wins = 0
    points = []
    for seed in LADDER_SEEDS:
        ds = data.make_synthetic_dataset("blobs", n=2000, classes=2, spread=0.5, seed=seed)
        test = data.make_synthetic_dataset("blobs", n=1000, classes=2, spread=0.5,
                                           seed=seed + 1000003)
        noisy = data.apply_noise(ds, data.NoiseSpec(kind="asymmetric", eta=0.4, mapping={0: 1},
                                                    seed=seed + 101))
        cfg = trainer.TrainConfig(
            mode="full-longremix", tau=0.5, zeta=5, alpha=0.2, lambda_u=0.0,
            lambda_reg=0.0, epochs=20, warmup=5, lr=0.05,
            data_seed=seed, model1_seed=seed + 11, model2_seed=seed + 22,
            plan_seed=seed + 33)
        stage1 = trainer.run_stage(cfg, noisy, test, 1, *trainer.STAGE1_HCT)
        rows = report.pr_curve(stage1.window, noisy.mask, [0.5])
        row = rows[0]
        precision_wins += row["hct_precision"] >= row["baseline_precision"]
        recall_wins += row["hct_recall"] <= row["baseline_recall"]
        points.append((round(row["baseline_precision"], 3), round(row["hct_precision"], 3)))
    elapsed = time.time() - t0
    ok = precision_wins >= 4 and recall_wins >= 4
    _report("criterion-7 pr-tradeoff", ok, elapsed,
            f"precision wins {precision_wins}/5, recall wins {recall_wins}/5, "
            f"(baseline, windowed) precision per seed: {points}")


# -- criterion 8: determinism ------------------------------------------------------

DETERMINISM_CONF = """
dataset.kind = blobs
dataset.n = 400
dataset.test_n = 200
dataset.classes = 4
dataset.spread = 0.15
noise.kind = symmetric
noise.eta = 0.6
noise.seed = 5
train.mode = full-longremix
train.epochs = 8
train.warmup = 3
train.zeta = 3
report.gmm_dump = true
report.plan_digests = true
report.checkpoints = true
"""


def test_criterion_8_determinism(tmp_path):
    from longremix import cli
    t0 = time.time()
    conf = tmp_path / "exp.conf"
    conf.write_text(DETERMINISM_CONF)
    args = ["train", "--config", str(conf), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert cli.main(args) == 0
    second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    elapsed = time.time() - t0
    _report("criterion-8 determinism", identical, elapsed,
            f"{len(first)} bundle files byte-identical across reruns "
            "(metrics, CSVs, GMM dump, plan digests, checkpoints)")
