//! A small dense multi-layer perceptron with manual backpropagation.
//!
//! This is the function approximator behind the deep reinforcement learning
//! smart models (§6 of the paper) and the learned components of the warehouse
//! cost model (§5.2). Networks here are tiny (a few thousand parameters), so
//! the implementation favors clarity and determinism over raw throughput.

use crate::matrix::Matrix;
use crate::optim::Adam;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation applied to hidden layers. The output layer is always linear,
/// which suits both Q-value regression and scalar regression heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// max(0, x)
    Relu,
    /// tanh(x)
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *activated* output `y`.
    #[inline]
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
        }
    }
}

/// Network shape and hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Sizes of every layer, input first, output last. Must have >= 2 entries.
    pub layer_sizes: Vec<usize>,
    /// Hidden-layer activation.
    pub activation: Activation,
}

impl MlpConfig {
    /// Convenience constructor.
    pub fn new(layer_sizes: Vec<usize>) -> Self {
        Self {
            layer_sizes,
            activation: Activation::Relu,
        }
    }
}

/// One dense layer: `y = act(W x + b)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Layer {
    weights: Matrix, // out x in
    biases: Vec<f64>,
}

/// Gradients produced by one backward pass, shaped like the network.
#[derive(Debug, Clone)]
pub struct MlpGradients {
    weight_grads: Vec<Matrix>,
    bias_grads: Vec<Vec<f64>>,
}

impl MlpGradients {
    fn zeros_like(net: &Mlp) -> Self {
        Self {
            weight_grads: net
                .layers
                .iter()
                .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
                .collect(),
            bias_grads: net
                .layers
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect(),
        }
    }

    /// Accumulates another gradient in place (for mini-batch averaging).
    pub fn accumulate(&mut self, other: &MlpGradients) {
        for (a, b) in self.weight_grads.iter_mut().zip(&other.weight_grads) {
            a.add_scaled(b, 1.0);
        }
        for (a, b) in self.bias_grads.iter_mut().zip(&other.bias_grads) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales all gradients in place (e.g. by `1/batch_size`).
    pub fn scale(&mut self, s: f64) {
        for g in &mut self.weight_grads {
            for v in g.as_mut_slice() {
                *v *= s;
            }
        }
        for g in &mut self.bias_grads {
            for v in g {
                *v *= s;
            }
        }
    }

    /// Global L2 norm of the gradient, used for clipping.
    pub fn l2_norm(&self) -> f64 {
        let mut sum = 0.0;
        for g in &self.weight_grads {
            sum += g.as_slice().iter().map(|v| v * v).sum::<f64>();
        }
        for g in &self.bias_grads {
            sum += g.iter().map(|v| v * v).sum::<f64>();
        }
        sum.sqrt()
    }

    /// Clips the global norm to `max_norm` if it exceeds it.
    pub fn clip_l2_norm(&mut self, max_norm: f64) {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale(max_norm / norm);
        }
    }
}

/// Intermediate activations kept from a forward pass for backprop.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// `activations[0]` is the input; `activations[i]` the output of layer i-1.
    activations: Vec<Vec<f64>>,
}

impl ForwardTrace {
    /// The network output for this pass.
    pub fn output(&self) -> &[f64] {
        self.activations
            .last()
            // lint: allow(D5) — forward_trace always pushes the input row first
            .expect("trace has at least the input")
    }
}

/// Dense feed-forward network with linear output layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Initializes the network with He/Xavier-style scaled uniform weights
    /// drawn from `rng`. Deterministic for a seeded RNG.
    ///
    /// # Panics
    /// Panics if the config has fewer than two layers or a zero-width layer.
    pub fn new(config: MlpConfig, rng: &mut impl Rng) -> Self {
        assert!(
            config.layer_sizes.len() >= 2,
            "network needs at least input and output layers"
        );
        assert!(
            config.layer_sizes.iter().all(|&s| s > 0),
            "layer sizes must be positive"
        );
        let mut layers = Vec::with_capacity(config.layer_sizes.len() - 1);
        for w in config.layer_sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
            let weights = Matrix::from_fn(fan_out, fan_in, |_, _| rng.gen_range(-bound..bound));
            layers.push(Layer {
                weights,
                biases: vec![0.0; fan_out],
            });
        }
        Self { config, layers }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.config.layer_sizes[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        // lint: allow(D5) — the constructor asserts layer_sizes.len() >= 2
        *self.config.layer_sizes.last().unwrap()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.weights.rows() * l.weights.cols() + l.biases.len())
            .sum()
    }

    /// Forward pass returning only the output.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_trace(input)
            .activations
            .pop()
            .unwrap_or_default()
    }

    /// Forward pass that keeps every intermediate activation for backprop.
    ///
    /// # Panics
    /// Panics if `input.len()` differs from the configured input dimension.
    pub fn forward_trace(&self, input: &[f64]) -> ForwardTrace {
        assert_eq!(
            input.len(),
            self.input_dim(),
            "input dimension mismatch: got {}, network expects {}",
            input.len(),
            self.input_dim()
        );
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(input.to_vec());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let prev = activations.last().map(Vec::as_slice).unwrap_or(input);
            let mut z = layer.weights.matvec(prev);
            for (zv, b) in z.iter_mut().zip(&layer.biases) {
                *zv += b;
            }
            if i != last {
                for v in &mut z {
                    *v = self.config.activation.apply(*v);
                }
            }
            activations.push(z);
        }
        ForwardTrace { activations }
    }

    /// Backpropagates `output_grad` (dL/d output) through the trace,
    /// returning parameter gradients.
    pub fn backward(&self, trace: &ForwardTrace, output_grad: &[f64]) -> MlpGradients {
        assert_eq!(
            output_grad.len(),
            self.output_dim(),
            "output gradient dimension mismatch"
        );
        let mut grads = MlpGradients::zeros_like(self);
        // delta = dL/d(pre-activation) for the current layer, walking backwards.
        let mut delta = output_grad.to_vec();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let input = &trace.activations[i];
            let output = &trace.activations[i + 1];
            // Output layer is linear; hidden layers need the activation derivative.
            if i != self.layers.len() - 1 {
                for (d, &y) in delta.iter_mut().zip(output) {
                    *d *= self.config.activation.derivative_from_output(y);
                }
            }
            // dL/dW = delta (outer) input, dL/db = delta
            let wg = &mut grads.weight_grads[i];
            for (r, &d) in delta.iter().enumerate() {
                // lint: allow(D4) — exact-zero skip is a sparsity fast path, not a tolerance check
                if d == 0.0 {
                    continue;
                }
                let row = wg.row_mut(r);
                for (w, &x) in row.iter_mut().zip(input) {
                    *w += d * x;
                }
            }
            for (bg, &d) in grads.bias_grads[i].iter_mut().zip(&delta) {
                *bg += d;
            }
            // Propagate to the previous layer: delta_prev = W^T delta
            if i > 0 {
                let mut prev = vec![0.0; layer.weights.cols()];
                for (r, &d) in delta.iter().enumerate() {
                    // lint: allow(D4) — exact-zero skip is a sparsity fast path, not a tolerance check
                    if d == 0.0 {
                        continue;
                    }
                    for (p, &w) in prev.iter_mut().zip(layer.weights.row(r)) {
                        *p += w * d;
                    }
                }
                delta = prev;
            }
        }
        grads
    }

    /// Applies gradients with the given optimizer.
    pub fn apply_gradients(&mut self, grads: &MlpGradients, optimizer: &mut Adam) {
        let mut slot = 0;
        for (layer, (wg, bg)) in self
            .layers
            .iter_mut()
            .zip(grads.weight_grads.iter().zip(&grads.bias_grads))
        {
            optimizer.step(slot, layer.weights.as_mut_slice(), wg.as_slice());
            slot += 1;
            optimizer.step(slot, &mut layer.biases, bg);
            slot += 1;
        }
    }

    /// Number of optimizer parameter slots this network uses (two per layer).
    pub fn optimizer_slots(&self) -> usize {
        self.layers.len() * 2
    }

    /// Copies the parameters of `source` into `self` (target-network sync).
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn copy_parameters_from(&mut self, source: &Mlp) {
        assert_eq!(
            self.config.layer_sizes, source.config.layer_sizes,
            "cannot copy parameters between different architectures"
        );
        self.layers = source.layers.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse_loss, mse_loss_grad};
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(MlpConfig::new(vec![2, 8, 1]), &mut rng)
    }

    #[test]
    fn forward_output_has_configured_dimension() {
        let net = tiny_net(1);
        assert_eq!(net.forward(&[0.1, -0.2]).len(), 1);
        assert_eq!(net.input_dim(), 2);
        assert_eq!(net.output_dim(), 1);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let net = tiny_net(1);
        // 2*8 + 8 + 8*1 + 1 = 33
        assert_eq!(net.parameter_count(), 33);
    }

    #[test]
    fn identical_seeds_give_identical_networks() {
        let a = tiny_net(42);
        let b = tiny_net(42);
        assert_eq!(a.forward(&[0.3, 0.7]), b.forward(&[0.3, 0.7]));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Mlp::new(
            MlpConfig {
                layer_sizes: vec![3, 5, 2],
                activation: Activation::Tanh,
            },
            &mut rng,
        );
        let input = [0.2, -0.4, 0.9];
        let target = [0.5, -0.1];

        let trace = net.forward_trace(&input);
        let grad_out = mse_loss_grad(trace.output(), &target);
        let grads = net.backward(&trace, &grad_out);

        // Check the finite-difference gradient of a handful of weights.
        let eps = 1e-6;
        for layer_idx in 0..net.layers.len() {
            for flat in [0usize, 3] {
                let analytic = grads.weight_grads[layer_idx].as_slice()[flat];
                let orig = net.layers[layer_idx].weights.as_slice()[flat];
                net.layers[layer_idx].weights.as_mut_slice()[flat] = orig + eps;
                let up = mse_loss(&net.forward(&input), &target);
                net.layers[layer_idx].weights.as_mut_slice()[flat] = orig - eps;
                let down = mse_loss(&net.forward(&input), &target);
                net.layers[layer_idx].weights.as_mut_slice()[flat] = orig;
                let numeric = (up - down) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-6,
                    "layer {layer_idx} weight {flat}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn backward_matches_finite_differences_exhaustively_for_both_losses() {
        // Every weight and every bias of every layer, under both supported
        // losses, on a multi-hidden-layer Tanh network (smooth everywhere,
        // so central differences are trustworthy to ~eps^2). The spot-check
        // tests above stay as fast smoke; this is the authoritative one.
        use crate::loss::{huber_loss, huber_loss_grad};
        let delta = 0.5;
        let input = [0.3, -0.7, 0.15, 0.9];
        let target = [0.4, -0.9, 0.05];
        type LossFns = (
            &'static str,
            Box<dyn Fn(&[f64]) -> f64>,
            Box<dyn Fn(&[f64]) -> Vec<f64>>,
        );
        let losses: [LossFns; 2] = [
            (
                "mse",
                Box::new(move |p: &[f64]| mse_loss(p, &target)),
                Box::new(move |p: &[f64]| mse_loss_grad(p, &target)),
            ),
            (
                "huber",
                Box::new(move |p: &[f64]| huber_loss(p, &target, delta)),
                Box::new(move |p: &[f64]| huber_loss_grad(p, &target, delta)),
            ),
        ];
        for (loss_name, loss, loss_grad) in &losses {
            let mut rng = StdRng::seed_from_u64(19);
            let mut net = Mlp::new(
                MlpConfig {
                    layer_sizes: vec![4, 6, 5, 3],
                    activation: Activation::Tanh,
                },
                &mut rng,
            );
            let trace = net.forward_trace(&input);
            let grads = net.backward(&trace, &loss_grad(trace.output()));
            let eps = 1e-6;
            let mut checked = 0usize;
            for layer_idx in 0..net.layers.len() {
                let n_weights = net.layers[layer_idx].weights.as_slice().len();
                for flat in 0..n_weights {
                    let analytic = grads.weight_grads[layer_idx].as_slice()[flat];
                    let orig = net.layers[layer_idx].weights.as_slice()[flat];
                    net.layers[layer_idx].weights.as_mut_slice()[flat] = orig + eps;
                    let up = loss(&net.forward(&input));
                    net.layers[layer_idx].weights.as_mut_slice()[flat] = orig - eps;
                    let down = loss(&net.forward(&input));
                    net.layers[layer_idx].weights.as_mut_slice()[flat] = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    assert!(
                        (analytic - numeric).abs() <= 1e-6 * analytic.abs().max(1.0),
                        "{loss_name} layer {layer_idx} weight {flat}: \
                         analytic {analytic} vs numeric {numeric}"
                    );
                    checked += 1;
                }
                for b in 0..net.layers[layer_idx].biases.len() {
                    let analytic = grads.bias_grads[layer_idx][b];
                    let orig = net.layers[layer_idx].biases[b];
                    net.layers[layer_idx].biases[b] = orig + eps;
                    let up = loss(&net.forward(&input));
                    net.layers[layer_idx].biases[b] = orig - eps;
                    let down = loss(&net.forward(&input));
                    net.layers[layer_idx].biases[b] = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    assert!(
                        (analytic - numeric).abs() <= 1e-6 * analytic.abs().max(1.0),
                        "{loss_name} layer {layer_idx} bias {b}: \
                         analytic {analytic} vs numeric {numeric}"
                    );
                    checked += 1;
                }
            }
            assert_eq!(
                checked,
                net.parameter_count(),
                "{loss_name}: gradient check must cover every parameter"
            );
        }
    }

    #[test]
    fn relu_backward_matches_finite_differences_away_from_kink() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Mlp::new(MlpConfig::new(vec![2, 6, 1]), &mut rng);
        let input = [0.8, -0.3];
        let target = [0.25];
        let trace = net.forward_trace(&input);
        let grads = net.backward(&trace, &mse_loss_grad(trace.output(), &target));
        let eps = 1e-6;
        let analytic = grads.bias_grads[0][0];
        let orig = net.layers[0].biases[0];
        net.layers[0].biases[0] = orig + eps;
        let up = mse_loss(&net.forward(&input), &target);
        net.layers[0].biases[0] = orig - eps;
        let down = mse_loss(&net.forward(&input), &target);
        net.layers[0].biases[0] = orig;
        let numeric = (up - down) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-6);
    }

    #[test]
    fn training_fits_a_simple_function() {
        // Fit y = x0 + 2*x1 on a grid; a few hundred Adam steps should crush it.
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Mlp::new(MlpConfig::new(vec![2, 16, 1]), &mut rng);
        let mut opt = Adam::new(0.01, net.optimizer_slots());
        let data: Vec<([f64; 2], f64)> = (0..25)
            .map(|i| {
                let x0 = (i % 5) as f64 / 5.0;
                let x1 = (i / 5) as f64 / 5.0;
                ([x0, x1], x0 + 2.0 * x1)
            })
            .collect();
        for _ in 0..400 {
            let mut batch_grads: Option<MlpGradients> = None;
            for (x, y) in &data {
                let trace = net.forward_trace(x);
                let g_out = mse_loss_grad(trace.output(), &[*y]);
                let g = net.backward(&trace, &g_out);
                match &mut batch_grads {
                    Some(acc) => acc.accumulate(&g),
                    None => batch_grads = Some(g),
                }
            }
            let mut g = batch_grads.unwrap();
            g.scale(1.0 / data.len() as f64);
            net.apply_gradients(&g, &mut opt);
        }
        let mut total = 0.0;
        for (x, y) in &data {
            let p = net.forward(x)[0];
            total += (p - y).abs();
        }
        let mae = total / data.len() as f64;
        assert!(mae < 0.05, "network failed to fit linear target, MAE {mae}");
    }

    #[test]
    fn copy_parameters_makes_networks_identical() {
        let mut a = tiny_net(1);
        let b = tiny_net(2);
        assert_ne!(a.forward(&[0.5, 0.5]), b.forward(&[0.5, 0.5]));
        a.copy_parameters_from(&b);
        assert_eq!(a.forward(&[0.5, 0.5]), b.forward(&[0.5, 0.5]));
    }

    #[test]
    fn gradient_clipping_bounds_norm() {
        let net = tiny_net(5);
        let trace = net.forward_trace(&[10.0, -10.0]);
        let mut grads = net.backward(&trace, &[100.0]);
        grads.clip_l2_norm(1.0);
        assert!(grads.l2_norm() <= 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn forward_panics_on_bad_input() {
        let net = tiny_net(1);
        let _ = net.forward(&[1.0]);
    }
}
