//! Loss functions for regression and Q-learning targets.

/// Mean squared error over paired predictions and targets.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn mse_loss(pred: &[f64], target: &[f64]) -> f64 {
    assert_eq!(
        pred.len(),
        target.len(),
        "prediction/target length mismatch"
    );
    assert!(!pred.is_empty(), "loss over empty slice");
    pred.iter()
        .zip(target)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64
}

/// Gradient of [`mse_loss`] with respect to the predictions.
pub fn mse_loss_grad(pred: &[f64], target: &[f64]) -> Vec<f64> {
    assert_eq!(
        pred.len(),
        target.len(),
        "prediction/target length mismatch"
    );
    let n = pred.len() as f64;
    pred.iter()
        .zip(target)
        .map(|(p, t)| 2.0 * (p - t) / n)
        .collect()
}

/// Huber loss with threshold `delta`; quadratic near zero, linear in the
/// tails. Standard choice for DQN targets because it bounds the gradient of
/// outlier temporal-difference errors.
pub fn huber_loss(pred: &[f64], target: &[f64], delta: f64) -> f64 {
    assert_eq!(
        pred.len(),
        target.len(),
        "prediction/target length mismatch"
    );
    assert!(!pred.is_empty(), "loss over empty slice");
    assert!(delta > 0.0, "huber delta must be positive");
    pred.iter()
        .zip(target)
        .map(|(p, t)| {
            let e = (p - t).abs();
            if e <= delta {
                0.5 * e * e
            } else {
                delta * (e - 0.5 * delta)
            }
        })
        .sum::<f64>()
        / pred.len() as f64
}

/// Gradient of [`huber_loss`] with respect to the predictions.
pub fn huber_loss_grad(pred: &[f64], target: &[f64], delta: f64) -> Vec<f64> {
    let mut grad = vec![0.0; pred.len()];
    huber_loss_grad_into(pred, target, delta, &mut grad);
    grad
}

/// [`huber_loss_grad`] written into a caller-owned buffer, for the
/// allocation-free training step.
pub fn huber_loss_grad_into(pred: &[f64], target: &[f64], delta: f64, grad: &mut [f64]) {
    assert_eq!(
        pred.len(),
        target.len(),
        "prediction/target length mismatch"
    );
    assert_eq!(
        pred.len(),
        grad.len(),
        "prediction/gradient length mismatch"
    );
    assert!(delta > 0.0, "huber delta must be positive");
    let n = pred.len() as f64;
    for ((g, p), t) in grad.iter_mut().zip(pred).zip(target) {
        let e = p - t;
        *g = if e.abs() <= delta {
            e / n
        } else {
            delta * e.signum() / n
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_exact_prediction_is_zero() {
        assert_eq!(mse_loss(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_matches_hand_computation() {
        // errors: 1 and -2 -> (1 + 4) / 2 = 2.5
        assert!((mse_loss(&[2.0, 0.0], &[1.0, 2.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mse_grad_points_toward_target() {
        let g = mse_loss_grad(&[2.0, 0.0], &[1.0, 2.0]);
        assert!(g[0] > 0.0, "over-prediction should have positive grad");
        assert!(g[1] < 0.0, "under-prediction should have negative grad");
    }

    #[test]
    fn huber_is_quadratic_inside_delta() {
        let l = huber_loss(&[0.5], &[0.0], 1.0);
        assert!((l - 0.125).abs() < 1e-12);
    }

    #[test]
    fn huber_is_linear_outside_delta() {
        // |e| = 3, delta = 1 -> 1 * (3 - 0.5) = 2.5
        let l = huber_loss(&[3.0], &[0.0], 1.0);
        assert!((l - 2.5).abs() < 1e-12);
    }

    #[test]
    fn huber_grad_is_clipped() {
        let g = huber_loss_grad(&[100.0], &[0.0], 1.0);
        assert!(
            (g[0] - 1.0).abs() < 1e-12,
            "tail gradient magnitude is delta"
        );
    }

    #[test]
    fn huber_grad_matches_finite_difference_inside() {
        let pred = [0.3];
        let target = [0.0];
        let eps = 1e-6;
        let fd = (huber_loss(&[pred[0] + eps], &target, 1.0)
            - huber_loss(&[pred[0] - eps], &target, 1.0))
            / (2.0 * eps);
        let g = huber_loss_grad(&pred, &target, 1.0);
        assert!((g[0] - fd).abs() < 1e-6);
    }
}
