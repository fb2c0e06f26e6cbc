//! The LSTM-MDN sequence model and its use as a black-box simulator
//! (§6, model (3)).
//!
//! The network consumes the previous (normalized) log-return and emits a
//! Gaussian-mixture distribution over the next one. Trained by truncated
//! BPTT with Adam on a daily price series, it then acts as a
//! [`SimulationModel`]: the state carries the LSTM hidden/cell vectors and
//! the current price — exactly the paper's "the state at time t includes
//! both v_t and h_t".
//!
//! Scale note (DESIGN.md substitution 2): the paper stacks 2×256 LSTM
//! units; we default to 1×32, which trains in seconds on a CPU while
//! remaining a genuinely learned black box — MLSS only ever calls
//! `step`, so network capacity does not change any code path.

use crate::adam::Adam;
use crate::lstm::{LstmCell, LstmGrads};
use crate::mdn::{MdnGrads, MdnHead};
use mlss_core::model::{SimulationModel, Time};
use mlss_core::rng::SimRng;

/// Network and training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// LSTM hidden units.
    pub hidden: usize,
    /// Mixture components.
    pub mixtures: usize,
    /// BPTT window length (the paper trains with sequence length 50).
    pub seq_len: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Global gradient-norm clip.
    pub grad_clip: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            mixtures: 3,
            seq_len: 50,
            epochs: 60,
            lr: 3e-3,
            grad_clip: 5.0,
        }
    }
}

/// LSTM + MDN network.
#[derive(Debug, Clone)]
pub struct LstmMdn {
    /// Recurrent cell.
    pub cell: LstmCell,
    /// Mixture head.
    pub head: MdnHead,
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Mean NLL per epoch.
    pub epoch_nll: Vec<f64>,
}

impl TrainingReport {
    /// Final-epoch mean NLL.
    pub fn final_nll(&self) -> f64 {
        *self.epoch_nll.last().unwrap_or(&f64::NAN)
    }
}

impl LstmMdn {
    /// Fresh randomly initialized network.
    pub fn new(cfg: &NetConfig, rng: &mut SimRng) -> Self {
        Self {
            cell: LstmCell::new(1, cfg.hidden, rng),
            head: MdnHead::new(cfg.hidden, cfg.mixtures, rng),
        }
    }

    /// Mean NLL of predicting `targets[t]` from inputs `inputs[..=t]`,
    /// rolling from a zero state.
    pub fn sequence_nll(&self, inputs: &[f64], targets: &[f64]) -> f64 {
        assert_eq!(inputs.len(), targets.len());
        let hsz = self.cell.hidden;
        let mut h = vec![0.0; hsz];
        let mut c = vec![0.0; hsz];
        let mut total = 0.0;
        for (&x, &y) in inputs.iter().zip(targets) {
            self.cell.forward_inference(&[x], &mut h, &mut c);
            let (params, _) = self.head.forward(&h);
            total += MdnHead::nll(&params, y);
        }
        total / inputs.len() as f64
    }

    /// One BPTT window: forward, backward, and flattened gradients.
    /// Returns the window's mean NLL.
    fn window_grads(
        &self,
        inputs: &[f64],
        targets: &[f64],
        cell_grads: &mut LstmGrads,
        head_grads: &mut MdnGrads,
    ) -> f64 {
        let hsz = self.cell.hidden;
        let steps = inputs.len();
        let mut h = vec![0.0; hsz];
        let mut c = vec![0.0; hsz];
        let mut caches = Vec::with_capacity(steps);
        let mut mdn_out = Vec::with_capacity(steps);
        let mut hs = Vec::with_capacity(steps);
        let mut loss = 0.0;

        for &x in inputs {
            let (h2, c2, cache) = self.cell.forward(&[x], &h, &c);
            h = h2;
            c = c2;
            caches.push(cache);
            let (params, acts) = self.head.forward(&h);
            mdn_out.push((params, acts));
            hs.push(h.clone());
        }
        for (t, &y) in targets.iter().enumerate() {
            loss += MdnHead::nll(&mdn_out[t].0, y);
        }

        let mut dh_next = vec![0.0; hsz];
        let mut dc_next = vec![0.0; hsz];
        for t in (0..steps).rev() {
            let (params, acts) = &mdn_out[t];
            let mut dh = self
                .head
                .backward(&hs[t], acts, params, targets[t], head_grads);
            for (a, b) in dh.iter_mut().zip(&dh_next) {
                *a += b;
            }
            let (_dx, dh_prev, dc_prev) = self.cell.backward(&caches[t], &dh, &dc_next, cell_grads);
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        loss / steps as f64
    }

    /// Train on a sequence of normalized returns by truncated BPTT with
    /// Adam, one window per update.
    pub fn train(&mut self, returns: &[f64], cfg: &NetConfig) -> TrainingReport {
        assert!(
            returns.len() > cfg.seq_len + 1,
            "need more data than one window"
        );
        let n_params = self.cell.num_params() + self.head.num_params();
        let mut opt = Adam::new(n_params, cfg.lr);
        let mut cell_grads = LstmGrads::zeros_like(&self.cell);
        let mut head_grads = MdnGrads::zeros_like(&self.head);
        let mut epoch_nll = Vec::with_capacity(cfg.epochs);

        for _epoch in 0..cfg.epochs {
            let mut epoch_loss = 0.0;
            let mut windows = 0;
            let mut start = 0;
            while start + cfg.seq_len < returns.len() {
                let inputs = &returns[start..start + cfg.seq_len];
                let targets = &returns[start + 1..start + cfg.seq_len + 1];
                cell_grads.zero();
                head_grads.zero();
                let loss = self.window_grads(inputs, targets, &mut cell_grads, &mut head_grads);
                epoch_loss += loss;
                windows += 1;

                // Flatten, scale by window length already folded in (grads
                // are sums over the window; normalize to per-step).
                let mut flat_g = Vec::with_capacity(n_params);
                LstmCell::write_grads(&cell_grads, &mut flat_g);
                MdnHead::write_grads(&head_grads, &mut flat_g);
                let inv = 1.0 / cfg.seq_len as f64;
                for g in &mut flat_g {
                    *g *= inv;
                }
                // Global norm clip.
                let norm: f64 = flat_g.iter().map(|g| g * g).sum::<f64>().sqrt();
                if norm > cfg.grad_clip {
                    let s = cfg.grad_clip / norm;
                    for g in &mut flat_g {
                        *g *= s;
                    }
                }

                let mut flat_p = Vec::with_capacity(n_params);
                self.cell.write_params(&mut flat_p);
                self.head.write_params(&mut flat_p);
                opt.step(&mut flat_p, &flat_g);
                let used = self.cell.read_params(&flat_p);
                self.head.read_params(&flat_p[used..]);

                start += cfg.seq_len;
            }
            epoch_nll.push(epoch_loss / windows.max(1) as f64);
        }
        TrainingReport { epoch_nll }
    }
}

/// State of the RNN stock simulator: hidden/cell vectors, the last
/// normalized return, and the current price.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnState {
    /// LSTM hidden vector.
    pub h: Vec<f64>,
    /// LSTM cell vector.
    pub c: Vec<f64>,
    /// Last normalized log-return (the next input).
    pub last_input: f64,
    /// Current price.
    pub price: f64,
}

/// The trained LSTM-MDN as a black-box price simulator.
#[derive(Debug, Clone)]
pub struct RnnStockModel {
    /// The trained network.
    pub net: LstmMdn,
    /// Price at t = 0 for simulations.
    pub initial_price: f64,
    /// Return normalization scale (std of training log-returns).
    pub scale: f64,
    /// Clamp on sampled normalized returns (stability guard; ±4 ≈ four
    /// standard deviations).
    pub return_clamp: f64,
}

impl RnnStockModel {
    /// Train a model on a raw daily price series.
    pub fn train_on_prices(
        prices: &[f64],
        cfg: &NetConfig,
        rng: &mut SimRng,
    ) -> (Self, TrainingReport) {
        assert!(prices.len() > cfg.seq_len + 2, "price series too short");
        assert!(prices.iter().all(|&p| p > 0.0), "prices must be positive");
        let returns: Vec<f64> = prices.windows(2).map(|w| (w[1] / w[0]).ln()).collect();
        let mean = mlss_core::stats::mean(&returns);
        let scale = mlss_core::stats::sample_variance(&returns).sqrt().max(1e-8);
        let normalized: Vec<f64> = returns.iter().map(|r| (r - mean) / scale).collect();

        let mut net = LstmMdn::new(cfg, rng);
        let report = net.train(&normalized, cfg);
        (
            Self {
                net,
                initial_price: *prices.last().expect("non-empty"),
                scale,
                return_clamp: 4.0,
            },
            report,
        )
        // Note: the mean return is folded into `scale`-normalized space;
        // simulation re-applies only the scale (drift is learned).
    }

    /// Hidden size of the underlying LSTM.
    pub fn hidden(&self) -> usize {
        self.net.cell.hidden
    }
}

impl SimulationModel for RnnStockModel {
    type State = RnnState;

    fn initial_state(&self) -> RnnState {
        RnnState {
            h: vec![0.0; self.net.cell.hidden],
            c: vec![0.0; self.net.cell.hidden],
            last_input: 0.0,
            price: self.initial_price,
        }
    }

    fn step(&self, state: &RnnState, _t: Time, rng: &mut SimRng) -> RnnState {
        let mut h = state.h.clone();
        let mut c = state.c.clone();
        self.net
            .cell
            .forward_inference(&[state.last_input], &mut h, &mut c);
        let (params, _) = self.net.head.forward(&h);
        let y = MdnHead::sample(&params, rng).clamp(-self.return_clamp, self.return_clamp);
        let price = state.price * (y * self.scale).exp();
        RnnState {
            h,
            c,
            last_input: y,
            price,
        }
    }

    /// Native batch kernel: the whole cohort's LSTM forward runs through
    /// [`crate::lstm::LstmCell::forward_inference_batch`] — a batched
    /// matrix product with the recurrent weight rows reused across lanes
    /// — and the per-step allocations of the scalar path (two hidden
    /// clones, a pre-activation buffer, and a fresh state per lane per
    /// step) collapse into three cohort-sized buffers per batch step.
    /// MDN sampling stays per lane on the lane's own RNG, so draws are
    /// identical to the scalar `step`.
    fn step_batch(
        &self,
        lanes: &mut [RnnState],
        _ts: &[Time],
        rngs: &mut [SimRng],
        alive: &[usize],
    ) {
        let hsz = self.net.cell.hidden;
        let n = alive.len();
        // Gather alive lanes into lane-major flat buffers.
        let mut xs = vec![0.0; n];
        let mut hs = vec![0.0; n * hsz];
        let mut cs = vec![0.0; n * hsz];
        for (k, &i) in alive.iter().enumerate() {
            xs[k] = lanes[i].last_input;
            hs[k * hsz..(k + 1) * hsz].copy_from_slice(&lanes[i].h);
            cs[k * hsz..(k + 1) * hsz].copy_from_slice(&lanes[i].c);
        }
        self.net
            .cell
            .forward_inference_batch(n, &xs, &mut hs, &mut cs);
        // Scatter back, then sample each lane's mixture on its own RNG.
        for (k, &i) in alive.iter().enumerate() {
            let lane = &mut lanes[i];
            lane.h.copy_from_slice(&hs[k * hsz..(k + 1) * hsz]);
            lane.c.copy_from_slice(&cs[k * hsz..(k + 1) * hsz]);
            let (params, _) = self.net.head.forward(&lane.h);
            let y =
                MdnHead::sample(&params, &mut rngs[i]).clamp(-self.return_clamp, self.return_clamp);
            lane.price *= (y * self.scale).exp();
            lane.last_input = y;
        }
    }
}

/// Score for RNN durability queries: the simulated price.
pub fn rnn_price_score(state: &RnnState) -> f64 {
    state.price
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlss_core::model::simulate_path;
    use mlss_core::rng::rng_from_seed;

    /// Tiny synthetic AR(1)-flavoured return series for fast tests.
    fn toy_prices(n: usize) -> Vec<f64> {
        use rand::RngExt;
        let mut rng = rng_from_seed(100);
        let mut p = 100.0_f64;
        let mut out = vec![p];
        for _ in 0..n {
            let r = 0.0005 + 0.01 * (rng.random::<f64>() * 2.0 - 1.0);
            p *= r.exp();
            out.push(p);
        }
        out
    }

    fn tiny_cfg() -> NetConfig {
        NetConfig {
            hidden: 8,
            mixtures: 2,
            seq_len: 20,
            epochs: 12,
            lr: 5e-3,
            grad_clip: 5.0,
        }
    }

    #[test]
    fn training_reduces_nll() {
        let prices = toy_prices(400);
        let cfg = tiny_cfg();
        let (_, report) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(1));
        let first = report.epoch_nll[0];
        let last = report.final_nll();
        assert!(
            last < first,
            "NLL should fall during training: {first} → {last}"
        );
    }

    #[test]
    fn simulation_produces_positive_finite_prices() {
        let prices = toy_prices(300);
        let cfg = tiny_cfg();
        let (model, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(2));
        let path = simulate_path(&model, 200, &mut rng_from_seed(3));
        for s in &path.states {
            assert!(s.price.is_finite() && s.price > 0.0, "price {}", s.price);
        }
    }

    #[test]
    fn initial_state_uses_last_training_price() {
        let prices = toy_prices(200);
        let cfg = tiny_cfg();
        let (model, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(4));
        assert_eq!(model.initial_state().price, *prices.last().unwrap());
    }

    #[test]
    fn steps_are_stochastic_but_reproducible() {
        let prices = toy_prices(200);
        let cfg = tiny_cfg();
        let (model, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(5));
        let a = simulate_path(&model, 50, &mut rng_from_seed(6));
        let b = simulate_path(&model, 50, &mut rng_from_seed(6));
        let c = simulate_path(&model, 50, &mut rng_from_seed(7));
        assert_eq!(
            a.states.last().unwrap().price,
            b.states.last().unwrap().price
        );
        assert_ne!(
            a.states.last().unwrap().price,
            c.states.last().unwrap().price
        );
    }

    #[test]
    fn batched_step_is_bit_identical_to_scalar() {
        use mlss_core::model::ScalarAdapter;
        use rand::RngExt;

        let prices = toy_prices(300);
        let cfg = tiny_cfg();
        let (model, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(21));

        const W: usize = 6;
        let mut native: Vec<RnnState> = (0..W).map(|_| model.initial_state()).collect();
        let mut adapted = native.clone();
        let mut rngs_n: Vec<mlss_core::rng::SimRng> =
            (0..W).map(|k| rng_from_seed(50 + k as u64)).collect();
        let mut rngs_a = rngs_n.clone();
        let ts: Vec<Time> = vec![1; W];
        let alive = [0usize, 1, 3, 4, 5];
        let wrapper = ScalarAdapter(&model);
        for _ in 0..25 {
            model.step_batch(&mut native, &ts, &mut rngs_n, &alive);
            wrapper.step_batch(&mut adapted, &ts, &mut rngs_a, &alive);
        }
        for k in 0..W {
            assert_eq!(native[k], adapted[k], "lane {k} state diverged");
            assert_eq!(
                rngs_n[k].random::<u64>(),
                rngs_a[k].random::<u64>(),
                "lane {k} RNG diverged"
            );
        }
        assert_eq!(native[2], model.initial_state(), "dead lane touched");
    }

    #[test]
    fn sampled_return_distribution_tracks_training_scale() {
        // Simulated one-step log-returns should have a spread within a
        // factor ~2.5 of the training returns' std.
        let prices = toy_prices(400);
        let cfg = tiny_cfg();
        let (model, _) = RnnStockModel::train_on_prices(&prices, &cfg, &mut rng_from_seed(8));
        let mut rng = rng_from_seed(9);
        let s0 = model.initial_state();
        let mut rets = Vec::new();
        for _ in 0..800 {
            let s1 = model.step(&s0, 1, &mut rng);
            rets.push((s1.price / s0.price).ln());
        }
        let sd = mlss_core::stats::sample_variance(&rets).sqrt();
        let ratio = sd / model.scale;
        assert!(
            (0.3..3.0).contains(&ratio),
            "simulated/training σ ratio = {ratio}"
        );
    }
}
