"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the numbers that decided it
and asserts its own wall-clock budget.  The expensive fixtures are module
scoped and shared: one 150-episode policy training backs criteria 4-6, and
one tampering sweep backs criteria 7-8.  Ablation cells deploy the same
trained policy with only the aggregation weighting changed, so the paired
comparisons isolate the weighting itself rather than retraining noise.
"""

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from vecafl import ddpg
from vecafl.channel import (advance_position, bessel_j0,
                            channel_correlation, complex_gaussian,
                            doppler_freq, evolve_gain, lane_geometry,
                            transmission_rate)
from vecafl.config import SimConfig
from vecafl.ddpg import (AgentNets, OUNoise, actor_forward, actor_update,
                         critic_forward, critic_update, soft_update)
from vecafl.engine import (GlobalModel, compute_reward, global_update,
                           local_delay, staleness_weight, upload_delay,
                           weighted_upload)
from vecafl.harness import attack_sweep, run_experiment
from reference import gradient
from vecafl.model import (LabeledBatch, ModelParams, cross_entropy,
                          init_params, params_copy)
from vecafl.world import build_dataset

pytestmark = pytest.mark.slow  # minutes of training; `-m "not slow"` skips


def _verdict(index, label, ok, detail):
    line = f"[{index}/9] {label}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def trained():
    """One 150-episode policy training at the desk-scale configuration."""
    cfg = replace(SimConfig(), train_episodes=150, test_episodes=3)
    t0 = time.monotonic()
    dataset = build_dataset(cfg, 7)
    result = ddpg.train(cfg, dataset, 7)
    return SimpleNamespace(cfg=cfg, dataset=dataset, result=result,
                           elapsed=time.monotonic() - t0)


@pytest.fixture(scope="module")
def deployed(trained):
    """The trained policy against the undefended baselines, same seed."""
    t0 = time.monotonic()
    runs = {
        "ddafl": run_experiment("ddafl", trained.cfg, 7,
                                pretrained=trained.result),
        "plain_afl": run_experiment("plain_afl", trained.cfg, 7),
        "sync_fl": run_experiment("sync_fl", trained.cfg, 7),
    }
    return SimpleNamespace(runs=runs, elapsed=time.monotonic() - t0)


@pytest.fixture(scope="module")
def sweep():
    """Tampered-fraction sweep: one training, defended vs undefended cells."""
    cfg = replace(SimConfig(), train_episodes=150, test_episodes=4,
                  bad_vehicle=-1, loss_avg_accepted_only=True)
    t0 = time.monotonic()
    cells, rows, train_res = attack_sweep(cfg, 42, (0.0, 0.4), "class_flip")
    return SimpleNamespace(cfg=cfg, cells=cells, rows=rows,
                           train_res=train_res,
                           elapsed=time.monotonic() - t0)


@pytest.fixture(scope="module")
def flip_pair(sweep):
    """Input-tampering twin of the sweep's 0.4 cell, defended and not:
    the deployment slots of each."""
    ids = sweep.cells[2].attacked_ids
    cfg = replace(sweep.cfg, attack="data_flip", attacked_vehicles=ids)
    t0 = time.monotonic()
    slots = {}
    for scheme in ("ddafl", "ddafl_no_defense"):
        run = run_experiment(scheme, cfg, 42, pretrained=sweep.train_res)
        assert run.attacked_ids == ids
        slots[scheme] = run.test_slot_results
    return SimpleNamespace(ids=ids, defended=slots["ddafl"],
                           undefended=slots["ddafl_no_defense"],
                           elapsed=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# criterion 1: closed-form kernels against a high-precision oracle


def _mp_rel(actual, oracle):
    return float(abs(mpmath.mpf(actual) - oracle) / abs(oracle))


def _mp_norm_rel(actual, oracle):
    diff = [mpmath.mpf(a) - o for a, o in zip(actual, oracle)]
    num = mpmath.sqrt(mpmath.fsum(d * d for d in diff))
    den = mpmath.sqrt(mpmath.fsum(o * o for o in oracle))
    return float(num / den)


def test_criterion1_kernel_oracle():
    t0 = time.monotonic()
    saved_dps = mpmath.mp.dps
    mpmath.mp.dps = 40
    try:
        worst = _kernel_oracle_errors()
    finally:
        mpmath.mp.dps = saved_dps
    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-9}
    top = max(worst, key=worst.get)
    ok = not bad and elapsed < 10.0
    _verdict(1, "closed-form kernels vs 40-digit oracle", ok,
             f"{len(worst)} kernels x 100 draws, worst {top} "
             f"{worst[top]:.2e} (limit 1e-9), {elapsed:.1f}s / 10s"
             + (f", over limit: {bad}" if bad else ""))


def _kernel_oracle_errors():
    mpf, mpc = mpmath.mpf, mpmath.mpc
    worst = {}

    def track(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    rng = np.random.default_rng(20260817)
    cfg = SimConfig()
    for _ in range(100):
        sx = rng.uniform(-400.0, 100.0)
        sp = rng.uniform(5.0, 40.0)
        n = int(rng.integers(0, 200))
        dt = rng.uniform(0.1, 1.0)
        track("position", _mp_rel(advance_position(sx, sp, n, dt),
                                  mpf(sx) + mpf(sp) * (mpf(n) * mpf(dt))))

        x = rng.uniform(-480.0, 480.0)
        dist, cos_theta = lane_geometry(np.array([x]), 5.0, 10.0)
        dist_o = mpmath.sqrt(mpf(x) ** 2 + mpf(5.0) ** 2 + mpf(10.0) ** 2)
        track("distance", _mp_rel(float(dist[0]), dist_o))
        track("bearing", _mp_rel(float(cos_theta[0]), mpf(-x) / dist_o))

        wl = rng.uniform(2.0, 10.0)
        cos_t = rng.uniform(-1.0, 1.0)
        track("doppler", _mp_rel(doppler_freq(sp, wl, cos_t),
                                 (mpf(sp) / mpf(wl)) * mpf(cos_t)))

        bx = rng.uniform(0.05, 55.0)
        track("bessel_j0", _mp_rel(bessel_j0(bx), mpmath.besselj(0, mpf(bx))))

        fd = rng.uniform(-6.0, 6.0)
        cd = rng.uniform(0.1, 1.0)
        corr_o = mpmath.besselj(0, 2 * mpmath.pi * mpf(fd) * mpf(cd))
        track("correlation", _mp_rel(channel_correlation(fd, cd), corr_o))

        rho = rng.uniform(-0.99, 0.99)
        gain = complex_gaussian(rng)
        inn = complex_gaussian(rng)
        new_gain = evolve_gain(gain, rho, inn)
        gain_o = (mpf(rho) * mpc(gain.real, gain.imag)
                  + mpc(inn.real, inn.imag)
                  * mpmath.sqrt(1 - mpf(rho) ** 2))
        track("evolution", float(abs(mpc(new_gain.real, new_gain.imag)
                                     - gain_o) / abs(gain_o)))

        g = complex_gaussian(rng)
        d = rng.uniform(5.0, 500.0)
        snr_o = (mpf(cfg.tx_power_w) * (mpf(g.real) ** 2 + mpf(g.imag) ** 2)
                 * mpf(d) ** mpf(-cfg.path_loss_exp)
                 / mpf(cfg.noise_power_w))
        rate_o = mpf(cfg.bandwidth_hz) * mpmath.log(1 + snr_o) / mpmath.log(2)
        track("rate", _mp_rel(transmission_rate(cfg, g, d), rate_o))

        samples = int(rng.integers(1, 5001))
        cyc = rng.uniform(1e5, 1e7)
        hz = rng.uniform(1e9, 3e9)
        track("local_delay", _mp_rel(local_delay(samples, cyc, hz),
                                     mpf(samples) * mpf(cyc) / mpf(hz)))

        bits = int(rng.integers(1000, 50001))
        rate = rng.uniform(100.0, 1e5)
        track("upload_delay", _mp_rel(upload_delay(bits, rate),
                                      mpf(bits) / mpf(rate)))

        base = rng.uniform(0.55, 0.95)
        delay = rng.uniform(0.0, 4.0)
        track("staleness", _mp_rel(staleness_weight(base, delay),
                                   mpmath.power(mpf(base),
                                                mpf(delay) - mpf("0.5"))))

        params = init_params((3, 4, 2), np.random.default_rng(
            int(rng.integers(1 << 30))))
        w_l, w_u = rng.uniform(0.2, 1.2, 2)
        scaled = weighted_upload(params, w_l, w_u).vector
        flat = params.vector
        track("upload_scale", _mp_norm_rel(
            scaled, [mpf(e) * (mpf(w_l) * mpf(w_u)) for e in flat]))

        sub = np.random.default_rng(int(rng.integers(1 << 30)))
        gm = GlobalModel(init_params((3, 2), sub))
        incoming = init_params((3, 2), sub)
        mix = rng.uniform(0.1, 0.9)
        old_flat = gm.params.vector
        inc_flat = incoming.vector
        global_update(gm, incoming, mix)
        track("global_mix", _mp_norm_rel(
            gm.params.vector,
            [mpf(mix) * mpf(a) + (1 - mpf(mix)) * mpf(b)
             for a, b in zip(old_flat, inc_flat)]))

        target = init_params((3, 2), sub)
        online = init_params((3, 2), sub)
        tau = rng.uniform(0.001, 0.1)
        tgt_flat = target.vector
        on_flat = online.vector
        track("soft_update", _mp_norm_rel(
            soft_update(target, online, tau).vector,
            [mpf(tau) * mpf(b) + (1 - mpf(tau)) * mpf(a)
             for a, b in zip(tgt_flat, on_flat)]))

        decay = rng.uniform(0.05, 0.95)
        sigma = rng.uniform(0.05, 0.5)
        twin_seed = int(rng.integers(1 << 30))
        noise = OUNoise(5, decay, sigma)
        g_impl = np.random.default_rng(twin_seed)
        g_twin = np.random.default_rng(twin_seed)
        state_o = [mpf(0)] * 5
        for _step in range(3):
            out = noise.sample(g_impl)
            z = g_twin.standard_normal(5)
            state_o = [s - mpf(decay) * s + mpf(sigma) * mpf(zi)
                       for s, zi in zip(state_o, z)]
            track("ou_noise", _mp_norm_rel(out, state_o))

        w = rng.uniform(0.05, 1.0, 5)
        avg_loss = rng.uniform(0.1, 3.0)
        mean_delay = rng.uniform(0.1, 3.0)
        reward_o = -(mpf(5) / mpmath.fsum(mpf(v) for v in w)) \
            * (mpf(cfg.loss_weight) * mpf(avg_loss)
               + mpf(cfg.delay_weight) * mpf(mean_delay))
        track("reward", _mp_rel(compute_reward(w, avg_loss, mean_delay, cfg),
                                reward_o))
    return worst


# ---------------------------------------------------------------------------
# criterion 2: fading-process statistics over long traces


def test_criterion2_fading_statistics():
    t0 = time.monotonic()
    rng = np.random.default_rng(90125)
    steps = 100_000
    fails, summary = [], []
    for rho in (0.9, 0.5, 0.2, -0.3):
        gains = np.empty(steps + 1, dtype=complex)
        gains[0] = gain = complex_gaussian(rng)
        for t in range(1, steps + 1):
            gain = evolve_gain(gain, rho, complex_gaussian(rng))
            gains[t] = gain
        power = np.abs(gains) ** 2
        second_moment = float(np.mean(power))
        lag1 = float(np.real(np.sum(gains[1:] * np.conj(gains[:-1])))
                     / np.sum(power[:-1]))
        summary.append(f"rho {rho:+.1f}: lag1 {lag1:+.4f}, "
                       f"power {second_moment:.4f}")
        if abs(lag1 - rho) > 0.02:
            fails.append(f"lag1 off by {abs(lag1 - rho):.4f} at rho {rho}")
        if abs(second_moment - 1.0) > 0.03:
            fails.append(f"power off by {abs(second_moment - 1.0):.4f} "
                         f"at rho {rho}")
    elapsed = time.monotonic() - t0
    ok = not fails and elapsed < 30.0
    _verdict(2, "autoregressive fading statistics", ok,
             "; ".join(summary) + f"; {elapsed:.1f}s / 30s"
             + ("; " + "; ".join(fails) if fails else ""))


# ---------------------------------------------------------------------------
# criterion 3: analytic gradients against central finite differences


def _central_diff(f, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def _norm_rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_criterion3_gradient_checks():
    t0 = time.monotonic()
    errs = {}

    arch = (6, 8, 10)
    rng = np.random.default_rng(31)
    params = init_params(arch, rng)
    batch = LabeledBatch(rng.normal(size=(20, 6)),
                         rng.integers(0, 10, size=20))
    analytic = gradient(params, batch).vector
    fd = _central_diff(
        lambda th: cross_entropy(ModelParams(th, arch), batch),
        params.vector)
    errs["classifier"] = _norm_rel(analytic, fd)

    actor_arch, critic_arch = (4, 6, 1), (5, 6, 1)
    nets = AgentNets(init_params(actor_arch, np.random.default_rng(5)),
                     init_params(critic_arch, np.random.default_rng(6)),
                     init_params(actor_arch, np.random.default_rng(7)),
                     init_params(critic_arch, np.random.default_rng(8)))
    svecs = rng.normal(size=(6, 4))
    avecs = rng.uniform(0.0, 1.0, size=(6, 1))
    targets = rng.normal(size=6)

    new_critic, _ = critic_update(nets, svecs, avecs, targets, 1.0)
    analytic = nets.critic.vector - new_critic.vector

    def critic_loss(theta):
        q = critic_forward(ModelParams(theta, critic_arch), svecs, avecs)
        return float(np.mean((q - targets) ** 2))

    errs["critic"] = _norm_rel(
        analytic, _central_diff(critic_loss, nets.critic.vector))

    new_actor = actor_update(nets, svecs, 1.0)
    analytic = new_actor.vector - nets.actor.vector

    def actor_value(theta):
        actions = actor_forward(ModelParams(theta, actor_arch), svecs)
        return float(np.mean(critic_forward(nets.critic, svecs, actions)))

    errs["chained_actor"] = _norm_rel(
        analytic, _central_diff(actor_value, nets.actor.vector))

    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in errs.items() if v > 1e-4}
    ok = not bad and elapsed < 60.0
    _verdict(3, "analytic vs finite-difference gradients", ok,
             ", ".join(f"{k} {v:.2e}" for k, v in errs.items())
             + f" (limit 1e-4), {elapsed:.1f}s / 60s")


# ---------------------------------------------------------------------------
# criterion 4: training rewards improve and stabilise


def test_criterion4_training_rewards(trained):
    rewards = trained.result.episode_rewards
    head, tail = rewards[:15], rewards[-15:]
    ok = (len(rewards) == 150 and float(np.mean(tail)) > float(np.mean(head))
          and float(np.std(tail)) < float(np.std(head))
          and trained.elapsed < 600.0)
    _verdict(4, "reward trend over 150 training episodes", ok,
             f"mean {np.mean(head):.1f} -> {np.mean(tail):.1f}, "
             f"std {np.std(head):.1f} -> {np.std(tail):.1f}, "
             f"{trained.elapsed:.0f}s / 600s")


# ---------------------------------------------------------------------------
# criterion 5: learned selection beats the baselines


def test_criterion5_beats_baselines(trained, deployed):
    finals = {name: run.test_slot_results[-1].avg_loss
              for name, run in deployed.runs.items()}
    ddafl = deployed.runs["ddafl"]
    rates = ddafl.admissions / len(ddafl.test_slot_results)
    bad = trained.cfg.bad_vehicle
    normal = np.delete(rates, bad)
    elapsed = trained.elapsed + deployed.elapsed
    ok = (finals["ddafl"] < finals["plain_afl"]
          and finals["ddafl"] < finals["sync_fl"]
          and rates[bad] < 0.5 * float(np.mean(normal))
          and elapsed < 600.0)
    _verdict(5, "final loss vs baselines, degraded vehicle shunned", ok,
             f"loss ddafl {finals['ddafl']:.3f} < plain "
             f"{finals['plain_afl']:.3f} and sync {finals['sync_fl']:.3f}; "
             f"admission {rates[bad]:.2f} vs mean {np.mean(normal):.2f}; "
             f"{elapsed:.0f}s / 600s")


# ---------------------------------------------------------------------------
# criterion 6: both staleness weights earn their keep


def test_criterion6_weighting_ablations(trained):
    t0 = time.monotonic()
    seeds = (7, 11, 23, 31, 42)
    schemes = ("ddafl", "ddafl_no_lt", "ddafl_no_ct")
    wins, lines = 0, []
    for seed in seeds:
        runs = {s: run_experiment(s, trained.cfg, seed,
                                  pretrained=trained.result)
                for s in schemes}
        digests = [tuple(runs[s].test_digests) for s in schemes]
        assert digests[0] == digests[1] == digests[2], \
            "ablation cells must share the seed's realisation"
        finals = {s: runs[s].test_slot_results[-1].avg_loss for s in schemes}
        won = (finals["ddafl"] <= finals["ddafl_no_lt"]
               and finals["ddafl"] <= finals["ddafl_no_ct"])
        wins += won
        lines.append(f"s{seed} {finals['ddafl']:.3f} vs "
                     f"{finals['ddafl_no_lt']:.3f}/"
                     f"{finals['ddafl_no_ct']:.3f}"
                     + ("" if won else " MISS"))
    elapsed = trained.elapsed + time.monotonic() - t0
    ok = wins >= 4 and elapsed < 900.0
    _verdict(6, "full weighting beats both ablations", ok,
             f"{wins}/5 seeds ({'; '.join(lines)}); {elapsed:.0f}s / 900s")


# ---------------------------------------------------------------------------
# criterion 7: the upload filter defends against tampering


def _sweep_losses(rows, run_id):
    return [r.avg_loss for r in rows if r.run_id == run_id and r.slot > 0]


def _last_half_var(losses):
    tail = losses[len(losses) // 2:]
    return float(np.var(tail))


def test_criterion7_defense_end_to_end(sweep, flip_pair):
    cells = {(c.fraction, c.scheme): c for c in sweep.cells}
    clean_def = cells[(0.0, "ddafl")]
    clean_off = cells[(0.0, "ddafl_no_defense")]
    hit_def = cells[(0.4, "ddafl")]
    hit_off = cells[(0.4, "ddafl_no_defense")]

    fails = []
    if not (len(hit_def.attacked_ids) == 2
            and hit_def.attacked_ids == hit_off.attacked_ids
            and flip_pair.ids == hit_def.attacked_ids):
        fails.append(f"expected 2 paired tampered ids, got "
                     f"{hit_def.attacked_ids}/{hit_off.attacked_ids}")
    if abs(clean_def.final_error_rate - clean_off.final_error_rate) > 1e-12:
        fails.append("filter changed a clean run")
    gap = hit_off.final_error_rate - hit_def.final_error_rate
    if gap < 0.05:
        fails.append(f"defended gap {gap:.3f} under 5 points")
    drift = abs(hit_def.final_error_rate - clean_def.final_error_rate)
    if drift > 0.03:
        fails.append(f"defended drift {drift:.3f} over 3 points")

    var_def = _last_half_var(_sweep_losses(
        sweep.rows, "sweep-class_flip-f0.4-ddafl-s42"))
    var_off = _last_half_var(_sweep_losses(
        sweep.rows, "sweep-class_flip-f0.4-ddafl_no_defense-s42"))
    if not (hit_def.final_accuracy >= hit_off.final_accuracy
            and var_def < var_off):
        fails.append(f"label tampering: acc {hit_def.final_accuracy:.3f} vs "
                     f"{hit_off.final_accuracy:.3f}, var {var_def:.2e} vs "
                     f"{var_off:.2e}")

    acc_def = flip_pair.defended[-1].accuracy
    acc_off = flip_pair.undefended[-1].accuracy
    fvar_def = _last_half_var([r.avg_loss for r in flip_pair.defended])
    fvar_off = _last_half_var([r.avg_loss for r in flip_pair.undefended])
    if not (acc_def >= acc_off and fvar_def < fvar_off):
        fails.append(f"input tampering: acc {acc_def:.3f} vs {acc_off:.3f}, "
                     f"var {fvar_def:.2e} vs {fvar_off:.2e}")

    elapsed = sweep.elapsed + flip_pair.elapsed
    ok = not fails and elapsed < 1200.0
    _verdict(7, "filter gap, drift and stability under tampering", ok,
             f"gap {gap:.3f} >= 0.05, drift {drift:.3f} <= 0.03, "
             f"labels acc {hit_def.final_accuracy:.3f}/"
             f"{hit_off.final_accuracy:.3f} var {var_def:.2e}/{var_off:.2e}, "
             f"inputs acc {acc_def:.3f}/{acc_off:.3f} var "
             f"{fvar_def:.2e}/{fvar_off:.2e}; {elapsed:.0f}s / 1200s"
             + ("; " + "; ".join(fails) if fails else ""))


# ---------------------------------------------------------------------------
# criterion 8: no accepted upload ever breaches the loss limit


def test_criterion8_filter_soundness(deployed, flip_pair):
    audited, violations, structural = 0, 0, []
    sources = deployed.runs["ddafl"].test_slot_results + flip_pair.defended
    for res in sources:
        if not set(res.accepted_ids) <= set(res.reported):
            structural.append("accepted an upload that never arrived")
        if sorted(v for v, _, _ in res.accept_audit) \
                != sorted(res.accepted_ids):
            structural.append("audit trail does not cover the accepted set")
        for _vid, loss, limit in res.accept_audit:
            audited += 1
            if loss > limit:
                violations += 1
    ok = audited > 0 and violations == 0 and not structural
    _verdict(8, "every accepted upload within the loss limit", ok,
             f"{audited} accepted uploads over {len(sources)} defended "
             f"slots, {violations} over the limit"
             + ("; " + "; ".join(sorted(set(structural)))
                if structural else ""))


# ---------------------------------------------------------------------------
# criterion 9: metrics files reproduce byte for byte


def test_criterion9_metrics_reproducibility(tmp_path):
    t0 = time.monotonic()
    cfg = SimConfig()
    sizes, fails = [], []
    for scheme in ("plain_afl", "sync_fl"):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{scheme}-{tag}"
            run_experiment(scheme, cfg, 11, out_dir=str(out))
            blobs.append((out / "metrics.csv").read_bytes())
        if not blobs[0]:
            fails.append(f"{scheme} wrote an empty metrics file")
        if blobs[0] != blobs[1]:
            fails.append(f"{scheme} re-run differs")
        sizes.append(f"{scheme} {len(blobs[0])}B")
    elapsed = time.monotonic() - t0
    ok = not fails
    _verdict(9, "metrics byte-identical across re-runs", ok,
             f"{', '.join(sizes)} matched twice; {elapsed:.0f}s"
             + ("; " + "; ".join(fails) if fails else ""))
