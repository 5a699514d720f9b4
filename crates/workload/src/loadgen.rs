//! Seeded load generators for the serving gateway.
//!
//! The gateway (`keebo::gateway`) admits client requests between control
//! ticks; this module produces those request streams without depending on
//! the control plane itself. Events are *abstract* — tenant/warehouse
//! names, a priority class, and an operation sketch — and the caller maps
//! them onto concrete gateway requests.
//!
//! Two classic shapes:
//!
//! * **open loop** ([`open_loop_plan`]): request counts per tenant per tick
//!   are drawn up front from the seed, independent of how the system
//!   responds — the load that exposes shedding and queue growth under
//!   overload;
//! * **closed loop** ([`ClosedLoopDriver`]): a fixed population of clients,
//!   each with at most one outstanding request, that only issues its next
//!   request after hearing the outcome of the previous one (admitted →
//!   think time; shed → backoff). Feedback arrives via
//!   [`ClosedLoopDriver::on_outcome`], so the request *sequence* adapts to
//!   the gateway's decisions while remaining a pure function of the seed
//!   and those decisions.
//!
//! Both are deterministic: same seed + same outcome feedback ⇒ the same
//! events in the same order, on any machine.

use cdw_sim::mix::{splitmix64, Fnv1a};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Priority class of a generated request (maps onto the gateway's classes;
/// kept separate so this crate stays independent of the control plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPriority {
    Interactive,
    Batch,
}

/// What the generated client asks for. Operation parameters are sketches;
/// the caller fleshes them out into full gateway requests.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadOp {
    /// Run a query of roughly this much work (ms on an X-Small).
    SubmitQuery { work_ms: f64 },
    /// Move the cost/performance slider to position `0..5`.
    SetSlider { position: u8 },
    /// Add a constraint rule.
    EditConstraint,
    /// Read the decision trace.
    TraceQuery,
}

/// One generated request: which tick window it arrives in, who it is from,
/// and what it asks.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEvent {
    /// Control-tick window the request arrives in (requests with
    /// `tick == k` are submitted after `k` ticks have run).
    pub tick: u64,
    pub tenant: String,
    pub warehouse: String,
    pub priority: LoadPriority,
    pub op: LoadOp,
    /// Closed-loop client index, for feedback routing; `None` for
    /// open-loop events.
    pub client: Option<usize>,
}

/// FNV-1a over a label from a basis that folds in `root`, then splitmix64
/// to decorrelate nearby hashes: a name-derived stream seed, like the
/// control plane's `derive_stream_seed` but mixing `root` in differently.
fn stream_seed(root: u64, label: &str) -> u64 {
    let basis = Fnv1a::OFFSET_BASIS ^ root.rotate_left(17);
    splitmix64(Fnv1a::with_basis(basis).write(label.as_bytes()).finish())
}

/// Draws one operation for a client of the given priority. Interactive
/// clients skew toward dashboards (short queries, traces, admin actions);
/// batch clients submit heavier work.
fn draw_op(rng: &mut StdRng, priority: LoadPriority) -> LoadOp {
    match priority {
        LoadPriority::Interactive => match rng.gen_range(0u32..10) {
            0..=5 => LoadOp::SubmitQuery {
                work_ms: rng.gen_range(500.0..5_000.0),
            },
            6..=7 => LoadOp::TraceQuery,
            8 => LoadOp::SetSlider {
                position: rng.gen_range(0..5),
            },
            _ => LoadOp::EditConstraint,
        },
        LoadPriority::Batch => LoadOp::SubmitQuery {
            work_ms: rng.gen_range(20_000.0..120_000.0),
        },
    }
}

/// An open-loop plan: for each of `ticks` windows, each tenant issues a
/// seed-drawn number of requests with mean `mean_per_tick`,
/// `interactive_fraction` of them interactive. Tenants are `(tenant,
/// warehouses)` pairs; each event picks one warehouse. Events are ordered
/// by (tick, tenant position, draw order) — the submission order the caller
/// replays.
pub fn open_loop_plan(
    seed: u64,
    tenants: &[(String, Vec<String>)],
    ticks: u64,
    mean_per_tick: f64,
    interactive_fraction: f64,
) -> Vec<LoadEvent> {
    assert!(mean_per_tick >= 0.0, "mean must be non-negative");
    assert!(
        (0.0..=1.0).contains(&interactive_fraction),
        "fraction must be in [0, 1]"
    );
    let mut events = Vec::new();
    for (tenant, warehouses) in tenants {
        assert!(!warehouses.is_empty(), "tenant {tenant} has no warehouses");
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, tenant));
        for tick in 0..ticks {
            // Poisson-ish: mean ± uniform half-width, never negative.
            let n = (mean_per_tick + (rng.gen::<f64>() - 0.5) * mean_per_tick).round() as usize;
            for _ in 0..n {
                let priority = if rng.gen::<f64>() < interactive_fraction {
                    LoadPriority::Interactive
                } else {
                    LoadPriority::Batch
                };
                let wh = &warehouses[rng.gen_range(0..warehouses.len())];
                events.push(LoadEvent {
                    tick,
                    tenant: tenant.clone(),
                    warehouse: wh.clone(),
                    priority,
                    op: draw_op(&mut rng, priority),
                    client: None,
                });
            }
        }
    }
    // Replay order: tick-major, then tenant spec order (stable sort keeps
    // per-tenant draw order).
    events.sort_by_key(|e| e.tick);
    events
}

/// One closed-loop client: at most one outstanding request; thinks for
/// `think_ticks` after an admitted request completes a tick, backs off
/// `backoff_ticks` after a shed.
#[derive(Debug, Clone)]
struct Client {
    tenant: String,
    warehouse: String,
    priority: LoadPriority,
    rng: StdRng,
    /// Next tick this client may issue at; `None` while a request is
    /// outstanding (waiting for `on_outcome`).
    ready_at: Option<u64>,
}

/// Fixed-population closed-loop load: see the module docs.
#[derive(Debug, Clone)]
pub struct ClosedLoopDriver {
    clients: Vec<Client>,
    think_ticks: u64,
    backoff_ticks: u64,
}

impl ClosedLoopDriver {
    /// `clients_per_tenant` clients per `(tenant, warehouses)` pair, each
    /// pinned to one warehouse round-robin. Even client indices are
    /// interactive, odd are batch.
    pub fn new(
        seed: u64,
        tenants: &[(String, Vec<String>)],
        clients_per_tenant: usize,
        think_ticks: u64,
        backoff_ticks: u64,
    ) -> Self {
        let mut clients = Vec::new();
        for (tenant, warehouses) in tenants {
            assert!(!warehouses.is_empty(), "tenant {tenant} has no warehouses");
            for c in 0..clients_per_tenant {
                let label = format!("{tenant}/client-{c}");
                clients.push(Client {
                    tenant: tenant.clone(),
                    warehouse: warehouses[c % warehouses.len()].clone(),
                    priority: if c % 2 == 0 {
                        LoadPriority::Interactive
                    } else {
                        LoadPriority::Batch
                    },
                    rng: StdRng::seed_from_u64(stream_seed(seed, &label)),
                    ready_at: Some(0),
                });
            }
        }
        Self {
            clients,
            think_ticks,
            backoff_ticks,
        }
    }

    /// Requests issued in tick window `tick`: every idle client whose
    /// think/backoff timer has expired, in client-index order. Each issuing
    /// client becomes outstanding until [`ClosedLoopDriver::on_outcome`].
    pub fn requests_for_tick(&mut self, tick: u64) -> Vec<LoadEvent> {
        let mut out = Vec::new();
        for (i, c) in self.clients.iter_mut().enumerate() {
            if c.ready_at.is_some_and(|at| at <= tick) {
                c.ready_at = None;
                out.push(LoadEvent {
                    tick,
                    tenant: c.tenant.clone(),
                    warehouse: c.warehouse.clone(),
                    priority: c.priority,
                    op: draw_op(&mut c.rng, c.priority),
                    client: Some(i),
                });
            }
        }
        out
    }

    /// Feedback for client `client`'s outstanding request: admitted
    /// requests think, shed requests back off. `tick` is the window the
    /// outcome landed in.
    pub fn on_outcome(&mut self, client: usize, admitted: bool, tick: u64) {
        let c = &mut self.clients[client];
        debug_assert!(c.ready_at.is_none(), "outcome for an idle client");
        let delay = if admitted {
            self.think_ticks
        } else {
            self.backoff_ticks
        };
        c.ready_at = Some(tick + 1 + delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> Vec<(String, Vec<String>)> {
        vec![
            ("t0".to_string(), vec!["A".to_string(), "B".to_string()]),
            ("t1".to_string(), vec!["C".to_string()]),
        ]
    }

    #[test]
    fn stream_seeds_are_pinned() {
        // Every tenant's and client's request stream hangs off these.
        assert_eq!(stream_seed(7, "WH"), 0xac19d7442a5a7cd8);
        assert_eq!(stream_seed(1009, "tenant-3/BI_WH"), 0x40874a8a34ecaa04);
    }

    #[test]
    fn open_loop_is_deterministic_and_tick_ordered() {
        let a = open_loop_plan(42, &two_tenants(), 10, 3.0, 0.5);
        let b = open_loop_plan(42, &two_tenants(), 10, 3.0, 0.5);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0].tick <= w[1].tick));
        let c = open_loop_plan(43, &two_tenants(), 10, 3.0, 0.5);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn open_loop_respects_interactive_fraction_extremes() {
        let all_i = open_loop_plan(7, &two_tenants(), 5, 4.0, 1.0);
        assert!(all_i
            .iter()
            .all(|e| e.priority == LoadPriority::Interactive));
        let all_b = open_loop_plan(7, &two_tenants(), 5, 4.0, 0.0);
        assert!(all_b.iter().all(|e| e.priority == LoadPriority::Batch));
    }

    #[test]
    fn closed_loop_waits_for_feedback() {
        let mut d = ClosedLoopDriver::new(9, &two_tenants(), 2, 1, 3);
        let first = d.requests_for_tick(0);
        assert_eq!(first.len(), 4, "every client issues at tick 0");
        // No feedback yet: nobody issues again.
        assert!(d.requests_for_tick(1).is_empty());
        // Client 0 admitted (thinks 1 tick), client 1 shed (backs off 3).
        d.on_outcome(0, true, 0);
        d.on_outcome(1, false, 0);
        let at2 = d.requests_for_tick(2);
        assert_eq!(at2.len(), 1);
        assert_eq!(at2[0].client, Some(0));
        assert!(d.requests_for_tick(3).is_empty());
        let at4 = d.requests_for_tick(4);
        assert_eq!(at4.len(), 1, "shed client returns after backoff");
        assert_eq!(at4[0].client, Some(1));
    }

    #[test]
    fn closed_loop_is_deterministic_under_identical_feedback() {
        let run = |seed| {
            let mut d = ClosedLoopDriver::new(seed, &two_tenants(), 3, 0, 1);
            let mut all = Vec::new();
            for tick in 0..5 {
                for e in d.requests_for_tick(tick) {
                    let client = e.client.unwrap();
                    all.push(e);
                    d.on_outcome(client, client % 2 == 0, tick);
                }
            }
            all
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
