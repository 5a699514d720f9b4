//! Minimal machine-learning substrate for the Keebo Warehouse Optimization
//! reproduction.
//!
//! The paper's data-learning platform relies on two families of models:
//!
//! * small feed-forward networks trained with experience replay for the deep
//!   reinforcement learning control loop (§6), and
//! * classical regression models for calibrating the warehouse cost model's
//!   parameters (§5.2): latency scaling across warehouse sizes, query-gap
//!   statistics, and cluster-count prediction.
//!
//! No suitable offline ML crates exist in this environment, so this crate
//! implements the required pieces from scratch: a dense [`Mlp`] with
//! backpropagation, [`optim`] (Adam) and ordinary least squares ([`ols`]).
//! Everything is deterministic given a seeded RNG, which the rest of the
//! workspace depends on for reproducible experiments. (The DQN's replay ring
//! lives with its one user, in the `agent` crate.)

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

pub mod le;
pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod ols;
pub mod optim;

pub use loss::{huber_loss, huber_loss_grad, huber_loss_grad_into, mse_loss, mse_loss_grad};
pub use matrix::Matrix;
pub use mlp::{Activation, ForwardTrace, Mlp, MlpConfig, MlpGradients};
pub use ols::{ols_fit, ridge_fit, LinearModel};
pub use optim::Adam;
