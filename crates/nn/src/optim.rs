//! The first-order optimizer.
//!
//! Updates are keyed by a *slot* index so that one optimizer instance can
//! own the state (moments) for every parameter tensor of a network: the MLP
//! uses two slots per layer (weights, biases).

use serde::Serialize;

/// Adam optimizer (Kingma & Ba) with bias correction, over flat parameter
/// buffers.
#[derive(Debug, Clone, Serialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas (0.9, 0.999) for
    /// `slots` parameter tensors.
    pub fn new(lr: f64, slots: usize) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![Vec::new(); slots],
            v: vec![Vec::new(); slots],
        }
    }

    /// Signals the start of a new update step. Called implicitly by slot 0;
    /// all slots updated between two slot-0 calls share one timestep.
    fn maybe_advance(&mut self, slot: usize) {
        if slot == 0 {
            self.t += 1;
        } else if self.t == 0 {
            // First use didn't start at slot 0; still need t >= 1 for bias
            // correction to be defined.
            self.t = 1;
        }
    }

    /// Applies one update to `params` given `grads` for parameter slot `slot`.
    ///
    /// # Panics
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&mut self, slot: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        self.maybe_advance(slot);
        let m = &mut self.m[slot];
        let v = &mut self.v[slot];
        if m.len() != params.len() {
            *m = vec![0.0; params.len()];
            *v = vec![0.0; params.len()];
        }
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, g), mi), vi) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / b1t;
            let v_hat = *vi / b2t;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 with the given optimizer.
    fn minimize(opt: &mut Adam, steps: usize) -> f64 {
        let mut x = [0.0];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1, 1);
        let x = minimize(&mut opt, 500);
        assert!((x - 3.0).abs() < 1e-3, "got {x}");
    }

    #[test]
    fn adam_first_step_magnitude_is_learning_rate() {
        // With bias correction, the first Adam step is ~lr * sign(grad).
        let mut opt = Adam::new(0.5, 1);
        let mut x = [0.0];
        opt.step(0, &mut x, &[10.0]);
        assert!((x[0] + 0.5).abs() < 1e-6, "got {}", x[0]);
    }

    #[test]
    fn multiple_slots_keep_independent_state() {
        let mut opt = Adam::new(0.1, 2);
        let mut a = [0.0];
        let mut b = [0.0];
        for _ in 0..300 {
            let ga = [2.0 * (a[0] - 1.0)];
            let gb = [2.0 * (b[0] + 2.0)];
            opt.step(0, &mut a, &ga);
            opt.step(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 1e-2);
        assert!((b[0] + 2.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "param/grad length mismatch")]
    fn step_panics_on_length_mismatch() {
        let mut opt = Adam::new(0.1, 1);
        let mut p = [0.0, 1.0];
        opt.step(0, &mut p, &[1.0]);
    }
}
