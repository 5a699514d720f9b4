//! Bounded per-tenant admission queues with priority and anti-starvation.
//!
//! Each tenant owns one [`AdmissionQueue`] holding two bounded FIFO
//! classes, one per [`Priority`]. A full class sheds the *arriving*
//! request (`ShedReason::QueueFull`) — the gateway never blocks a
//! client and never buffers unboundedly.
//!
//! The per-tick drain gives interactive traffic strict preference but
//! reserves a configurable number of slots for the batch class whenever it
//! is non-empty, so a sustained interactive flood cannot starve batch/ETL
//! work forever (and vice versa: interactive never waits behind batch).
//! Draining pops in admission-sequence order within each class, which keeps
//! dispatch order a pure function of the admission sequence.

use super::request::{Priority, RequestKind};
use std::collections::VecDeque;

/// One admitted request waiting for dispatch.
#[derive(Debug, Clone)]
pub(crate) struct Ticket {
    /// Fleet-global admission sequence number.
    pub(crate) seq: u64,
    /// Control-tick count when the request was admitted (virtual time; the
    /// dispatch-tick delta is the deterministic queue-wait measure).
    pub(crate) enq_tick: u64,
    pub(crate) priority: Priority,
    pub(crate) kind: RequestKind,
}

/// Two bounded FIFO classes for one tenant.
#[derive(Debug, Default)]
pub(crate) struct AdmissionQueue {
    interactive: VecDeque<Ticket>,
    batch: VecDeque<Ticket>,
}

impl AdmissionQueue {
    /// True when the class has room for one more ticket — the queue's one
    /// capacity check. The gateway asks *before* the rate/quota meters, so
    /// a request the queue would refuse anyway never consumes a token or
    /// quota, and sheds the arrival itself when the answer is no.
    pub(crate) fn has_room(&self, priority: Priority, capacity: usize) -> bool {
        let class = match priority {
            Priority::Interactive => &self.interactive,
            Priority::Batch => &self.batch,
        };
        class.len() < capacity
    }

    /// Enqueues a ticket whose class [`AdmissionQueue::has_room`].
    pub(crate) fn push(&mut self, ticket: Ticket) {
        match ticket.priority {
            Priority::Interactive => self.interactive.push_back(ticket),
            Priority::Batch => self.batch.push_back(ticket),
        }
    }

    /// Total queued tickets across both classes.
    pub(crate) fn depth(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// Drains up to `slots` tickets for one tick: interactive first, but
    /// with `reserved_batch` slots guaranteed to the batch class while it
    /// has work. Leftover reserved slots flow back to interactive (and
    /// leftover interactive slots to batch), so no slot idles while any
    /// class has work.
    pub(crate) fn drain(&mut self, slots: usize, reserved_batch: usize) -> Vec<Ticket> {
        let mut out = Vec::new();
        if slots == 0 {
            return out;
        }
        let reserved = if self.batch.is_empty() {
            0
        } else {
            reserved_batch.min(slots)
        };
        let interactive_take = self.interactive.len().min(slots - reserved);
        for _ in 0..interactive_take {
            #[expect(clippy::expect_used, reason = "bounded by len() above")]
            out.push(self.interactive.pop_front().expect("len-checked"));
        }
        let batch_take = self.batch.len().min(slots - out.len());
        for _ in 0..batch_take {
            #[expect(clippy::expect_used, reason = "bounded by len() above")]
            out.push(self.batch.pop_front().expect("len-checked"));
        }
        // Reserved slots the batch class didn't fill go back to interactive.
        let backfill = self.interactive.len().min(slots - out.len());
        for _ in 0..backfill {
            #[expect(clippy::expect_used, reason = "bounded by len() above")]
            out.push(self.interactive.pop_front().expect("len-checked"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(seq: u64, priority: Priority) -> Ticket {
        Ticket {
            seq,
            enq_tick: 0,
            priority,
            kind: RequestKind::TraceQuery {
                warehouse: "W".to_string(),
            },
        }
    }

    #[test]
    fn full_class_sheds_arrival() {
        let mut q = AdmissionQueue::default();
        assert!(q.has_room(Priority::Batch, 1));
        q.push(ticket(0, Priority::Batch));
        assert!(!q.has_room(Priority::Batch, 1));
        // The other class has its own bound.
        assert!(q.has_room(Priority::Interactive, 1));
        q.push(ticket(2, Priority::Interactive));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn drain_prefers_interactive_but_reserves_batch_slots() {
        let mut q = AdmissionQueue::default();
        for s in 0..4 {
            q.push(ticket(s, Priority::Interactive));
        }
        for s in 4..8 {
            q.push(ticket(s, Priority::Batch));
        }
        let got = q.drain(4, 1);
        let seqs: Vec<u64> = got.iter().map(|t| t.seq).collect();
        // 3 interactive (seq order), then the reserved batch slot.
        assert_eq!(seqs, vec![0, 1, 2, 4]);
    }

    #[test]
    fn reserved_slots_backfill_interactive_when_batch_is_empty() {
        let mut q = AdmissionQueue::default();
        for s in 0..4 {
            q.push(ticket(s, Priority::Interactive));
        }
        let seqs: Vec<u64> = q.drain(4, 2).iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn interactive_slots_flow_to_batch_when_interactive_is_empty() {
        let mut q = AdmissionQueue::default();
        for s in 0..3 {
            q.push(ticket(s, Priority::Batch));
        }
        let seqs: Vec<u64> = q.drain(4, 1).iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
