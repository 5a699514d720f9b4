//! Request and admission-decision types for the serving gateway.
//!
//! One [`Request`] models one client call against the managed service
//! surface the paper describes: query submissions into a managed warehouse,
//! slider moves and constraint edits from the admin portal (§4.1), and
//! decision-trace lookups from the "why did it do that" dashboard. The
//! gateway classifies every request into a [`Priority`] class and answers
//! synchronously with an [`Admission`] — either a sequence number (the
//! request will execute on a control tick) or an explicit [`ShedReason`].
//! Backpressure is always a typed answer, never an unbounded queue.

use agent::{Rule, SliderPosition};
use cdw_sim::QuerySpec;

/// Admission priority class. Interactive traffic (dashboard queries, admin
/// actions) is drained ahead of batch/ETL traffic; a reserved-slot policy
/// keeps batch from starving outright (see `queue.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    Interactive,
    Batch,
}

impl Priority {
    /// Stable code folded into the gateway's decision digest.
    pub(crate) fn code(self) -> u64 {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }
}

/// What the client is asking for.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Run a query on one of the tenant's warehouses. The gateway rewrites
    /// the spec's id (to a gateway-unique one) and arrival time (to the
    /// dispatching tick) at execution; everything else is client-supplied.
    SubmitQuery { warehouse: String, spec: QuerySpec },
    /// Move the cost/performance slider (§4.1 "Optimization aggressiveness").
    SetSlider {
        warehouse: String,
        slider: SliderPosition,
    },
    /// Add a constraint rule (§4.1 "Constraints").
    EditConstraint { warehouse: String, rule: Rule },
    /// Read the decision trace ("why did WH_A downsize at hour 412?").
    TraceQuery { warehouse: String },
}

impl RequestKind {
    /// Stable code folded into the gateway's decision digest.
    pub(crate) fn code(&self) -> u64 {
        match self {
            RequestKind::SubmitQuery { .. } => 0,
            RequestKind::SetSlider { .. } => 1,
            RequestKind::EditConstraint { .. } => 2,
            RequestKind::TraceQuery { .. } => 3,
        }
    }
}

/// One client request: who is asking, how urgent it is, and what for.
#[derive(Debug, Clone)]
pub struct Request {
    pub tenant: String,
    pub priority: Priority,
    pub kind: RequestKind,
}

/// Why an arriving request was refused at the door. Shedding is the
/// gateway's only overload response: queues are bounded, so every refusal
/// is explicit and attributable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant is not part of this fleet.
    UnknownTenant,
    /// The tenant's token bucket is empty (short-term rate limit).
    RateLimited,
    /// The tenant's admitted-request quota for the run is spent.
    QuotaExhausted,
    /// The tenant's bounded admission queue is full (backpressure).
    QueueFull,
}

impl ShedReason {
    /// Stable code folded into the gateway's decision digest (0 is
    /// reserved for "admitted").
    pub(crate) fn code(self) -> u64 {
        match self {
            ShedReason::UnknownTenant => 1,
            ShedReason::RateLimited => 2,
            ShedReason::QuotaExhausted => 3,
            ShedReason::QueueFull => 4,
        }
    }
}

/// The gateway's synchronous answer to [`crate::gateway::Gateway::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued for the next control tick; `seq` is the fleet-global
    /// admission sequence number (dense over admitted requests).
    Admitted { seq: u64 },
    /// Refused, with the reason. The request had no effect.
    Shed { reason: ShedReason },
}

impl Admission {
    pub fn is_admitted(&self) -> bool {
        matches!(self, Admission::Admitted { .. })
    }
}
