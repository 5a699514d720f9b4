//! A small dense multi-layer perceptron with manual backpropagation.
//!
//! This is the function approximator behind the deep reinforcement learning
//! smart models (§6 of the paper) and the learned components of the warehouse
//! cost model (§5.2). Every control tick of every warehouse takes one
//! minibatch step through it, so there is one kernel and it is batched:
//!
//! * **Layout.** A [`ForwardTrace`] holds each layer's activations for the
//!   whole batch in blocks of [`BLOCK`] samples, a unit's samples contiguous
//!   within a block (`x[block][unit][lane]`); the `batch % BLOCK` samples left
//!   over follow as blocks of one, i.e. plain vectors (`x[sample][unit]`).
//! * **Forward** ([`Mlp::forward_batch`]) is one sweep per layer whose
//!   innermost loop runs over a block's samples: the compiler vectorises
//!   *across* samples while each sample's dot product keeps its own sum.
//! * **Backward** ([`Mlp::backward_batch`]) walks layer by layer over the
//!   whole batch: the layer's input activations are transposed to
//!   sample-major once, then each row of the weight gradient stays resident
//!   while every sample's `delta * input` is added to it, straight into a
//!   reused [`MlpGradients`].
//!
//! **Bit-identity rule.** Each output is what the scalar
//! `w.iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + bias` gives: same start
//! value, same left-to-right order, no fused multiply-add, no reassociation.
//! Two samples' sums never mix, so batch size and block width cannot move a
//! float, and [`Mlp::forward`] / [`Mlp::forward_trace`] / [`Mlp::backward`] are
//! batch-of-one calls into the same code.
//!
//! **Backward's order contract.** The batch gradient is what backpropagating
//! sample 0, then sample 1, ... one after another into one buffer gives.
//! Every gradient element receives its samples' terms in sample order
//! (a weight skips the samples whose delta is exactly zero, a bias skips
//! none), and every `delta_prev[sample][k]` starts from `+0.0` and receives
//! its rows' `w * delta` in row order, zero deltas skipped. Walking rows in
//! the outer loop and samples inside reorders additions *between* elements,
//! never the additions one element sees. The pinned hashes in
//! `crates/agent/tests/train_step_pinned.rs` hold any rewrite to both rules.

use crate::le;
use crate::matrix::Matrix;
use crate::optim::Adam;
use rand::Rng;
use serde::Serialize;

/// Samples per block of the forward sweep: eight `f64` running sums are four
/// SSE2 registers, leaving room for the broadcast weight and the loads.
const BLOCK: usize = 8;

/// Activation applied to hidden layers. The output layer is always linear,
/// which suits both Q-value regression and scalar regression heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
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
#[derive(Debug, Clone, Serialize)]
struct Layer {
    weights: Matrix, // out x in
    biases: Vec<f64>,
}

impl Layer {
    /// The dense layer sweep over blocks of `N` samples: for every neuron `o`
    /// and lane `s`, `out[o][s] = act(Σ_k w[o][k] * x[k][s] + b[o])` (`act`
    /// the identity when `None`), one running sum per lane.
    fn sweep<const N: usize>(&self, act: Option<Activation>, x: &[f64], out: &mut [f64]) {
        let (rows, cols) = (self.weights.rows(), self.weights.cols());
        debug_assert_eq!(x.len() * rows, out.len() * cols);
        // Whatever `Iterator::sum` starts from (-0.0 on current toolchains).
        let start: f64 = std::iter::empty::<f64>().sum();
        let blocks = x.chunks_exact(cols * N).zip(out.chunks_exact_mut(rows * N));
        for (xb, ob) in blocks {
            let neurons = (self.weights.as_slice().chunks_exact(cols)).zip(&self.biases);
            for ((w, &b), o) in neurons.zip(ob.chunks_exact_mut(N)) {
                let mut sums = [start; N];
                for (&wk, xk) in w.iter().zip(xb.chunks_exact(N)) {
                    for (sum, &xv) in sums.iter_mut().zip(xk) {
                        *sum += wk * xv;
                    }
                }
                for (o, sum) in o.iter_mut().zip(sums) {
                    *o = act.map_or(sum + b, |a| a.apply(sum + b));
                }
            }
        }
    }
}

/// Where sample `sample` sits in a blocked buffer of `width` units by `batch`
/// samples: the index of its unit 0 and the stride between its units.
fn locate(width: usize, batch: usize, sample: usize) -> (usize, usize) {
    let lane = sample % BLOCK;
    if sample - lane + BLOCK <= batch {
        ((sample - lane) * width + lane, BLOCK)
    } else {
        (sample * width, 1)
    }
}

/// Rewrites a blocked buffer of `width` units by `batch` samples as
/// sample-major rows (`out[sample][unit]`).
fn transpose_into(buf: &[f64], width: usize, batch: usize, out: &mut Vec<f64>) {
    out.clear();
    out.resize(width * batch, 0.0);
    let blocked = (batch - batch % BLOCK) * width;
    let blocks = buf[..blocked].chunks_exact(width * BLOCK);
    for (block, rows) in blocks.zip(out.chunks_exact_mut(width * BLOCK)) {
        for (unit, lanes) in block.chunks_exact(BLOCK).enumerate() {
            for (lane, &v) in lanes.iter().enumerate() {
                rows[lane * width + unit] = v;
            }
        }
    }
    // The left-over samples already are plain vectors.
    out[blocked..].copy_from_slice(&buf[blocked..]);
}

/// Parameter gradients shaped like the network, plus the per-batch scratch
/// backprop needs, so one reused value makes a training step allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MlpGradients {
    weight_grads: Vec<Matrix>,
    bias_grads: Vec<Vec<f64>>,
    /// dL/d(pre-activation) of the layer being walked, and of the one below,
    /// sample-major (`delta[sample][unit]`).
    delta: Vec<f64>,
    delta_prev: Vec<f64>,
    /// The walked layer's input activations, sample-major.
    input: Vec<f64>,
}

impl MlpGradients {
    /// Zeroes every gradient, reshaping the buffer first if it was built for
    /// another architecture (or not yet).
    pub fn reset(&mut self, net: &Mlp) {
        let shape = |m: &Matrix| (m.rows(), m.cols());
        let shapes = net.layers.iter().map(|l| shape(&l.weights));
        if self.weight_grads.iter().map(shape).eq(shapes.clone()) {
            (self.weight_grads.iter_mut()).for_each(|g| g.as_mut_slice().fill(0.0));
            self.bias_grads.iter_mut().for_each(|g| g.fill(0.0));
            return;
        }
        *self = Self {
            weight_grads: shapes.map(|(r, c)| Matrix::zeros(r, c)).collect(),
            bias_grads: (net.layers.iter().map(|l| vec![0.0; l.biases.len()])).collect(),
            ..Self::default()
        };
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

/// Every layer's activations for one batch, kept from a forward pass for
/// backprop. Reusable: a pass over the same shape allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ForwardTrace {
    batch: usize,
    /// `activations[0]` is the input; `activations[i]` the output of layer
    /// i-1; each in the blocked layout of the module docs.
    activations: Vec<Vec<f64>>,
}

impl ForwardTrace {
    /// Copies the network output for one sample of the batch into `out`.
    pub fn output_into(&self, sample: usize, out: &mut [f64]) {
        let (first, stride) = locate(out.len(), self.batch, sample);
        let last = self.activations.last().map_or(&[][..], Vec::as_slice);
        let units = last[first..].iter().step_by(stride);
        out.iter_mut().zip(units).for_each(|(o, &v)| *o = v);
    }
}

/// Dense feed-forward network with linear output layer.
#[derive(Debug, Clone, Serialize)]
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

    /// Appends the binary encoding: the config, then the counted layers.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        le::put_usizes(out, &self.config.layer_sizes);
        out.push(match self.config.activation {
            Activation::Relu => 0,
            Activation::Tanh => 1,
        });
        le::put_usize(out, self.layers.len());
        for layer in &self.layers {
            layer.weights.write_le(out);
            le::put_f64s(out, &layer.biases);
        }
    }

    /// The inverse of [`Mlp::write_le`]. Total, and checks no shape:
    /// [`Mlp::validate`] does, on whatever this returns.
    pub fn read_le(r: &mut le::Reader<'_>) -> Result<Self, String> {
        let layer_sizes = r.usizes()?;
        let activation = match r.u8()? {
            0 => Activation::Relu,
            1 => Activation::Tanh,
            b => return Err(format!("byte {b} names no activation")),
        };
        // A layer is at least its matrix's shape and two empty counts.
        let layers = r.seq(32, |r| {
            Ok(Layer {
                weights: Matrix::read_le(r)?,
                biases: r.f64s()?,
            })
        })?;
        Ok(Self {
            config: MlpConfig {
                layer_sizes,
                activation,
            },
            layers,
        })
    }

    /// Checks what decoding does not: at least two layer sizes, none zero,
    /// and every weight matrix and bias vector shaped as they dictate and
    /// holding `rows * cols` values — so the layers chain and every index
    /// below is in range. Call it on any decoded network.
    pub fn validate(&self) -> Result<(), String> {
        let sizes = &self.config.layer_sizes;
        let shape = |l: &Layer| {
            let (rows, cols) = (l.weights.rows(), l.weights.cols());
            (rows, cols, Some(l.weights.as_slice().len()), l.biases.len())
        };
        let fits = sizes.len() >= 2
            && !sizes.contains(&0)
            && (self.layers.iter().map(shape))
                .eq((sizes.windows(2)).map(|w| (w[1], w[0], w[1].checked_mul(w[0]), w[1])));
        if fits {
            return Ok(());
        }
        let shapes: Vec<_> = self.layers.iter().map(shape).collect();
        Err(format!(
            "layers (rows, cols, weights, biases) {shapes:?} do not fit layer sizes {sizes:?}"
        ))
    }

    /// Sizes of every layer, input first, output last.
    pub fn layer_sizes(&self) -> &[usize] {
        &self.config.layer_sizes
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.config.layer_sizes[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        #[expect(
            clippy::unwrap_used,
            reason = "the constructor asserts layer_sizes.len() >= 2"
        )]
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

    /// Forward pass of a batch of one that keeps every intermediate
    /// activation for backprop.
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
        let mut trace = ForwardTrace::default();
        self.forward_batch(&mut trace, std::iter::once(input));
        trace
    }

    /// Runs a whole batch through the network, one sweep per layer, leaving
    /// every activation in `trace` (reshaped to fit; reuse it across calls).
    /// Each input must be [`Mlp::input_dim`] long.
    pub fn forward_batch<'a>(
        &self,
        trace: &mut ForwardTrace,
        inputs: impl ExactSizeIterator<Item = &'a [f64]>,
    ) {
        let batch = inputs.len();
        trace.batch = batch;
        trace
            .activations
            .resize_with(self.layers.len() + 1, Vec::new);
        for (a, width) in trace.activations.iter_mut().zip(&self.config.layer_sizes) {
            a.resize(width * batch, 0.0);
        }
        for (sample, input) in inputs.enumerate() {
            debug_assert_eq!(input.len(), self.input_dim());
            let (first, stride) = locate(input.len(), batch, sample);
            let slots = trace.activations[0][first..].iter_mut().step_by(stride);
            slots.zip(input).for_each(|(slot, &v)| *slot = v);
        }
        let blocked = batch - batch % BLOCK;
        for (i, layer) in self.layers.iter().enumerate() {
            let act = (i + 1 != self.layers.len()).then_some(self.config.activation);
            let (below, above) = trace.activations.split_at_mut(i + 1);
            let (x, x_tail) = below[i].split_at(blocked * layer.weights.cols());
            let (out, out_tail) = above[0].split_at_mut(blocked * layer.weights.rows());
            layer.sweep::<BLOCK>(act, x, out);
            layer.sweep::<1>(act, x_tail, out_tail);
        }
    }

    /// Backpropagates `output_grad` (dL/d output) through a batch-of-one
    /// trace, returning parameter gradients.
    pub fn backward(&self, trace: &ForwardTrace, output_grad: &[f64]) -> MlpGradients {
        assert_eq!(
            output_grad.len(),
            self.output_dim(),
            "output gradient dimension mismatch"
        );
        let mut grads = MlpGradients::default();
        grads.reset(self);
        self.backward_batch(trace, output_grad, &mut grads);
        grads
    }

    /// Backpropagates the whole batch of `trace`, *adding* its parameter
    /// gradients to `grads` under the order contract of the module docs.
    /// `output_grads` holds dL/d output sample-major
    /// (`output_grads[sample][unit]`).
    ///
    /// # Panics
    /// Panics if `output_grads` is not [`Mlp::output_dim`] values per sample
    /// of the trace.
    pub fn backward_batch(
        &self,
        trace: &ForwardTrace,
        output_grads: &[f64],
        grads: &mut MlpGradients,
    ) {
        let batch = trace.batch;
        assert_eq!(
            output_grads.len(),
            self.output_dim() * batch,
            "output gradients do not fit a batch of {batch}"
        );
        if batch == 0 {
            return;
        }
        let MlpGradients {
            weight_grads,
            bias_grads,
            delta,
            delta_prev,
            input,
        } = grads;
        // Room for the widest layer, so no later resize reallocates.
        let widest = self.config.layer_sizes.iter().fold(0, |a, &w| a.max(w));
        for buf in [&mut *delta, &mut *delta_prev, &mut *input] {
            buf.clear();
            buf.reserve(widest * batch);
        }
        // delta = dL/d(pre-activation) for the current layer, walking
        // backwards; the output layer is linear.
        delta.extend_from_slice(output_grads);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (rows, cols) = (layer.weights.rows(), layer.weights.cols());
            transpose_into(&trace.activations[i], cols, batch, input);
            // dL/dW = delta (outer) input, dL/db = delta: one gradient row at
            // a time, every sample's term added to it while it is hot.
            let grad_rows = weight_grads[i].as_mut_slice().chunks_exact_mut(cols);
            for (r, (w_row, bg)) in grad_rows.zip(&mut bias_grads[i]).enumerate() {
                let deltas = delta[r..].iter().step_by(rows);
                for (&d, x) in deltas.zip(input.chunks_exact(cols)) {
                    *bg += d;
                    // Exact-zero skip: a sparsity fast path, not a tolerance check.
                    if d == 0.0 {
                        continue;
                    }
                    for (w, &x) in w_row.iter_mut().zip(x) {
                        *w += d * x;
                    }
                }
            }
            // Propagate to the previous (hidden) layer: W^T delta, times the
            // activation derivative at that layer's output — this one's input.
            if i > 0 {
                delta_prev.clear();
                delta_prev.resize(cols * batch, 0.0);
                let samples = delta.chunks_exact(rows).zip(input.chunks_exact(cols));
                for ((d_row, x), p_row) in samples.zip(delta_prev.chunks_exact_mut(cols)) {
                    let weight_rows = layer.weights.as_slice().chunks_exact(cols);
                    for (&d, w_row) in d_row.iter().zip(weight_rows) {
                        // Exact-zero skip: a sparsity fast path, not a tolerance check.
                        if d == 0.0 {
                            continue;
                        }
                        for (p, &w) in p_row.iter_mut().zip(w_row) {
                            *p += w * d;
                        }
                    }
                    for (p, &y) in p_row.iter_mut().zip(x) {
                        *p *= self.config.activation.derivative_from_output(y);
                    }
                }
                std::mem::swap(delta, delta_prev);
            }
        }
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

    /// Copies the parameters of `source` into `self` (target-network sync),
    /// in place.
    ///
    /// # Panics
    /// Panics if the architectures differ.
    pub fn copy_parameters_from(&mut self, source: &Mlp) {
        assert_eq!(
            self.config.layer_sizes, source.config.layer_sizes,
            "cannot copy parameters between different architectures"
        );
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            let weights = dst.weights.as_mut_slice();
            weights.copy_from_slice(src.weights.as_slice());
            dst.biases.copy_from_slice(&src.biases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse_loss, mse_loss_grad};
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The output of a batch-of-one pass.
    fn output(trace: &ForwardTrace) -> Vec<f64> {
        output_of(trace, 0)
    }

    fn output_of(trace: &ForwardTrace, sample: usize) -> Vec<f64> {
        let width = trace.activations.last().unwrap().len() / trace.batch;
        let mut out = vec![f64::NAN; width];
        trace.output_into(sample, &mut out);
        out
    }

    fn tiny_net(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(MlpConfig::new(vec![2, 8, 1]), &mut rng)
    }

    /// Sample `sample`'s values in a blocked buffer of `width` units by
    /// `batch` samples, gathered contiguous.
    fn column(buf: &[f64], width: usize, batch: usize, sample: usize) -> Vec<f64> {
        let (first, stride) = locate(width, batch, sample);
        (buf[first..].iter().step_by(stride).take(width))
            .copied()
            .collect()
    }

    /// The oracle [`Mlp::backward_batch`] is held to: the kernel as it was
    /// before it was batched, one sample at a time, *adding* that sample's
    /// parameter gradients to `grads`.
    fn backward_into(
        net: &Mlp,
        trace: &ForwardTrace,
        sample: usize,
        output_grad: &[f64],
        grads: &mut MlpGradients,
    ) {
        assert_eq!(output_grad.len(), net.output_dim());
        let mut delta = output_grad.to_vec();
        for (i, layer) in net.layers.iter().enumerate().rev() {
            let (rows, cols) = (layer.weights.rows(), layer.weights.cols());
            if i != net.layers.len() - 1 {
                let output = column(&trace.activations[i + 1], rows, trace.batch, sample);
                for (d, &y) in delta.iter_mut().zip(&output) {
                    *d *= net.config.activation.derivative_from_output(y);
                }
            }
            let input = column(&trace.activations[i], cols, trace.batch, sample);
            for (r, &d) in delta.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                for (w, &x) in grads.weight_grads[i].row_mut(r).iter_mut().zip(&input) {
                    *w += d * x;
                }
            }
            for (bg, &d) in grads.bias_grads[i].iter_mut().zip(&delta) {
                *bg += d;
            }
            if i > 0 {
                let mut delta_prev = vec![0.0; cols];
                for (r, &d) in delta.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    for (p, &w) in delta_prev.iter_mut().zip(layer.weights.row(r)) {
                        *p += w * d;
                    }
                }
                delta = delta_prev;
            }
        }
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
        let grad_out = mse_loss_grad(&output(&trace), &target);
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
            let grads = net.backward(&trace, &loss_grad(&output(&trace)));
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
        let grads = net.backward(&trace, &mse_loss_grad(&output(&trace), &target));
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
        let (mut trace, mut grads) = (ForwardTrace::default(), MlpGradients::default());
        for _ in 0..400 {
            net.forward_batch(&mut trace, data.iter().map(|(x, _)| &x[..]));
            grads.reset(&net);
            let preds = data
                .iter()
                .enumerate()
                .map(|(s, (_, y))| (output_of(&trace, s), y));
            let out_grads: Vec<f64> = preds.flat_map(|(p, y)| mse_loss_grad(&p, &[*y])).collect();
            net.backward_batch(&trace, &out_grads, &mut grads);
            grads.scale(1.0 / data.len() as f64);
            net.apply_gradients(&grads, &mut opt);
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

    fn grad_bits(g: &MlpGradients) -> Vec<u64> {
        let weights = g.weight_grads.iter().flat_map(|m| m.as_slice());
        let biases = g.bias_grads.iter().flatten();
        weights.chain(biases).map(|v| v.to_bits()).collect()
    }

    /// The minibatch kernel, bit for bit, against the single-sample entry
    /// points and against the per-sample backward it replaced: random shapes,
    /// both activations, batch sizes on every side of a block boundary,
    /// inputs and output gradients with exact zeros (dead ReLU units, the
    /// sparsity skips, a sample whose whole gradient row is zero) and without
    /// any (a `Tanh` net then has no zero delta). One trace and one gradient
    /// buffer serve every case, so reshaping over stale contents is covered.
    #[test]
    fn batched_kernel_equals_per_sample_passes_bit_for_bit() {
        let (mut trace, mut grads) = (ForwardTrace::default(), MlpGradients::default());
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let layer_sizes: Vec<usize> = (0..rng.gen_range(2..5))
                .map(|_| rng.gen_range(1..12))
                .collect();
            let activation = [Activation::Relu, Activation::Tanh][rng.gen_range(0..2usize)];
            let config = MlpConfig {
                layer_sizes,
                activation,
            };
            let mut net = Mlp::new(config, &mut rng);
            for b in net.layers.iter_mut().flat_map(|l| &mut l.biases) {
                *b = rng.gen_range(-0.5..0.5);
            }
            let batch = match case % 8 {
                0 => 1,
                1 => 8,
                2 => 13,
                3 => 32,
                _ => rng.gen_range(1..38),
            };
            let dense = case % 3 == 0;
            let mut values = |n: usize| -> Vec<f64> {
                (0..n)
                    .map(|_| match rng.gen_range(0..4) {
                        0 if !dense => 0.0,
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect()
            };
            let inputs: Vec<Vec<f64>> = (0..batch).map(|_| values(net.input_dim())).collect();
            let mut out_grads: Vec<Vec<f64>> =
                (0..batch).map(|_| values(net.output_dim())).collect();
            if case % 5 == 0 {
                out_grads[case as usize % batch].fill(0.0);
            }

            net.forward_batch(&mut trace, inputs.iter().map(Vec::as_slice));
            grads.reset(&net);
            net.backward_batch(&trace, &out_grads.concat(), &mut grads);

            // The per-sample walk over the same trace, in batch order.
            let mut walked = MlpGradients::default();
            walked.reset(&net);
            for (s, g) in out_grads.iter().enumerate() {
                backward_into(&net, &trace, s, g, &mut walked);
            }
            assert_eq!(
                grad_bits(&grads),
                grad_bits(&walked),
                "case {case}: batch of {batch} against the per-sample walk"
            );

            // Batch-of-one passes, their gradients summed in batch order.
            let mut expected: Option<MlpGradients> = None;
            for (s, (x, g)) in inputs.iter().zip(&out_grads).enumerate() {
                let single = net.forward_trace(x);
                let batched = output_of(&trace, s);
                let alone = output(&single);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&batched),
                    bits(&alone),
                    "case {case}: output of sample {s}/{batch}"
                );
                let g = net.backward(&single, g);
                match &mut expected {
                    None => expected = Some(g),
                    Some(sum) => {
                        let sums = (sum.weight_grads.iter_mut())
                            .flat_map(|m| m.as_mut_slice())
                            .chain(sum.bias_grads.iter_mut().flatten());
                        let terms = (g.weight_grads.iter())
                            .flat_map(|m| m.as_slice())
                            .chain(g.bias_grads.iter().flatten());
                        sums.zip(terms).for_each(|(a, b)| *a += b);
                    }
                }
            }
            assert_eq!(
                grad_bits(&grads),
                grad_bits(&expected.unwrap()),
                "case {case}: gradient of a batch of {batch}"
            );
        }
    }

    #[test]
    fn a_batch_of_zero_adds_nothing() {
        let net = tiny_net(1);
        let (mut trace, mut grads) = (ForwardTrace::default(), MlpGradients::default());
        net.forward_batch(&mut trace, std::iter::empty());
        grads.reset(&net);
        net.backward_batch(&trace, &[], &mut grads);
        assert_eq!(grads.l2_norm(), 0.0);
    }

    #[test]
    fn validate_accepts_built_networks_and_rejects_misshapen_ones() {
        let mut net = tiny_net(1);
        assert_eq!(net.validate(), Ok(()));
        net.layers[1].biases.push(0.0);
        let err = net.validate().unwrap_err();
        assert!(err.contains("(1, 8, Some(8), 2)] do not fit"), "{err}");
        let mut net = tiny_net(1);
        net.layers.pop();
        assert!(net.validate().is_err(), "a layer is missing");
        let mut net = tiny_net(1);
        net.layers[0].weights = Matrix::zeros(8, 3);
        assert!(net.validate().is_err(), "layers must chain");
        let mut net = tiny_net(1);
        net.config.layer_sizes = vec![2];
        assert!(net.validate().is_err(), "one layer size is no network");
    }

    #[test]
    fn binary_codec_round_trips_every_bit_and_refuses_every_cut() {
        // Weights no float printer is trusted with.
        let mut net = tiny_net(5);
        net.config.activation = Activation::Tanh;
        let odd = [
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
        ];
        net.layers[0].weights.as_mut_slice()[..4].copy_from_slice(&odd);
        net.layers[1].biases[0] = f64::from_bits(0xFFF0_0000_0000_0001);

        let mut bytes = Vec::new();
        net.write_le(&mut bytes);
        let mut r = le::Reader::new(&bytes);
        let net_back = Mlp::read_le(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(net_back.config.activation, Activation::Tanh);
        assert_eq!(net_back.validate(), Ok(()));
        let mut again = Vec::new();
        net_back.write_le(&mut again);
        assert_eq!(again, bytes, "decode then encode reproduces the bytes");

        for cut in 0..bytes.len() {
            let mut r = le::Reader::new(&bytes[..cut]);
            assert!(Mlp::read_le(&mut r).is_err(), "a {cut}-byte prefix decoded");
        }
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
