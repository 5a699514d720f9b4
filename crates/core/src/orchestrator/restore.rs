//! Warm restart: rebuild an orchestrator from a durable store by loading the
//! latest snapshot and replaying the WAL on top. Replay goes through the
//! same functions the live path calls — [`Orchestrator::adopt`], the
//! optimizer's admin setters, and the tick's `retrain` stage — so there is
//! no second copy of any event's effect to keep in step.

use super::{Orchestrator, WarehouseOptimizer};
use crate::actuator::ActionLogEntry;
use crate::persist::{self, CtlState, PersistError, PersistRecord, RecoveryStats, TickEffects};
use crate::store::StateStore;
use cdw_sim::{SimTime, Simulator};
use std::time::Instant;

const STORE_LOAD_ATTEMPTS: u32 = 6;

impl WarehouseOptimizer {
    /// Replays one logged tick. Re-delivers the telemetry the live `sense`
    /// stage delivered (same fetcher function, by cursor range), re-runs a
    /// retrain under its recorded seed and re-appends its arrival count to
    /// the spike window, but never touches the account (fetch overhead and
    /// ALTERs already happened before the crash) and never advances the live
    /// RNG — assigning the journaled [`CtlState`] last puts every control
    /// scalar, RNG included, in its post-tick state.
    fn replay_tick(
        &mut self,
        sim: &Simulator,
        now: SimTime,
        effects: TickEffects,
        log_delta: Vec<ActionLogEntry>,
        ctl: CtlState,
    ) {
        if effects.fetched {
            self.ctl
                .fetcher
                .redeliver(sim.account(), &mut self.store, &ctl.fetcher);
        }
        if let Some(rt) = effects.retrain {
            self.retrain(now, rt.episodes, rt.seed);
        }
        if let Some(count) = effects.arrivals {
            self.monitor.push(count);
        }
        self.actuator.extend_log(log_delta);
        self.ctl = ctl;
        self.forget_read_events();
    }
}

impl Orchestrator {
    /// Rebuilds a warm orchestrator from a durable store: loads the latest
    /// snapshot, replays every WAL record on top and re-attaches the store.
    /// Restore only reads: it writes no snapshot, because the snapshot and
    /// the WAL behind it (its torn tail already truncated by the load) hold
    /// exactly the state just rebuilt. The journal resumes the snapshot's
    /// age — the distinct tick times the replayed WAL spans past the
    /// snapshot's — so the next compaction lands on the tick an
    /// uninterrupted run would use, and replay stays bounded by one
    /// interval. The compaction interval is configuration: set it again on
    /// the restored orchestrator if it is not the default.
    ///
    /// The simulator is the *surviving* warehouse side of the crash — only
    /// the control plane died — so replay resolves warehouses by name
    /// against it and re-reads telemetry by cursor range, but never charges
    /// it or re-issues ALTERs.
    ///
    /// A clean crash (at a tick boundary, after the append) recovers
    /// bit-identically; a torn WAL tail loses at most the last unflushed
    /// record and is reported in [`RecoveryStats::wal_truncated_bytes`].
    pub fn restore(
        mut store: Box<dyn StateStore>,
        sim: &Simulator,
    ) -> Result<(Self, RecoveryStats), PersistError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "recovery wall time is reported, never decided on"
        )]
        let t0 = Instant::now();
        let obs = keebo_obs::global();
        // A remote store can time out transiently; retry the load a bounded
        // number of times (counted) before giving up.
        let contents = {
            let mut attempt = 0;
            loop {
                match store.load() {
                    Ok(c) => break c,
                    Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                        obs.counter("keebo.store.read_timeouts").inc();
                        attempt += 1;
                        if attempt >= STORE_LOAD_ATTEMPTS {
                            return Err(e.into());
                        }
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        };
        let snapshot_len = contents.snapshot.as_ref().map_or(0, |s| s.len() as u64);
        // `since` is when the replayed WAL's base was taken: its ticks are
        // the ones after it.
        let (mut orch, replay_from, since) = match &contents.snapshot {
            Some(snapshot_bytes) => {
                let snap = persist::decode_snapshot(snapshot_bytes)?;
                let mut orch = Orchestrator::new(snap.seed);
                // One agent per optimizer: `decode_snapshot` refuses less.
                for (osnap, agent) in snap.optimizers.into_iter().zip(&snap.agents) {
                    // One optimizer per warehouse, as `adopt` insists.
                    if orch.optimizer(&osnap.name).is_some() {
                        return Err(PersistError::Corrupt(format!(
                            "snapshot names warehouse {} twice",
                            osnap.name
                        )));
                    }
                    let o = WarehouseOptimizer::from_snapshot(osnap, agent, sim)?;
                    orch.optimizers.push(o);
                }
                (orch, 0, snap.at)
            }
            None => {
                // No snapshot ever landed (every write failed, fail-open).
                // The WAL must then start at a genesis record, which is the
                // empty-orchestrator starting point replay needs.
                let first = contents.records.first().ok_or_else(|| {
                    PersistError::Corrupt(
                        "state store is empty (attach_store journals a genesis record; \
                         nothing to restore)"
                            .to_string(),
                    )
                })?;
                match persist::decode_record(first)? {
                    PersistRecord::Genesis { seed, at } => (Orchestrator::new(seed), 1, at),
                    _ => {
                        return Err(PersistError::Corrupt(
                            "state store has no snapshot and its WAL does not start with a \
                             genesis record"
                                .to_string(),
                        ))
                    }
                }
            }
        };
        let mut replayed_records = replay_from as u64;
        // Ticks since the base: records are in time order and every
        // optimizer due at a tick journals one, so each new time is one tick
        // of the live clock. Onboarding journals a record but is no tick; at
        // the base's time or at the tick just taken it adds no new time (off
        // the tick grid it would count one, and compaction would land a tick
        // early).
        let (mut age, mut last_tick) = (0, since);
        for bytes in &contents.records[replay_from..] {
            let record = persist::decode_record(bytes)?;
            if let PersistRecord::Tick { now, .. } = record {
                if now > last_tick {
                    (age, last_tick) = (age + 1, now);
                }
            }
            orch.apply_record(record, sim)?;
            replayed_records += 1;
        }
        orch.journal.attach(store, age);
        obs.counter("keebo.store.recoveries_total").inc();
        obs.counter("keebo.store.wal_truncated_bytes")
            .add(contents.truncated_bytes);
        let stats = RecoveryStats {
            replayed_records,
            wal_truncated_bytes: contents.truncated_bytes,
            snapshot_bytes: snapshot_len,
            recovery_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        Ok((orch, stats))
    }

    /// The optimizer a replayed `kind` record addresses.
    fn replay_target(
        &mut self,
        kind: &str,
        warehouse: &str,
    ) -> Result<&mut WarehouseOptimizer, PersistError> {
        self.optimizer_mut(warehouse).ok_or_else(|| {
            PersistError::Corrupt(format!("{kind} record for unmanaged warehouse {warehouse}"))
        })
    }

    /// Applies one replayed WAL record.
    fn apply_record(&mut self, record: PersistRecord, sim: &Simulator) -> Result<(), PersistError> {
        match record {
            PersistRecord::Genesis { .. } => {
                // Genesis is only valid as the very first record of a
                // snapshot-less store, and restore() consumes it before the
                // replay loop — reaching here means the WAL is malformed.
                return Err(PersistError::Corrupt(
                    "genesis record mid-stream (only valid as the first record of a \
                     snapshot-less store)"
                        .to_string(),
                ));
            }
            PersistRecord::Manage {
                warehouse,
                original_config,
                setup,
            } => {
                self.adopt(sim, &warehouse, Some(original_config), setup)
                    .map_err(|e| PersistError::Corrupt(format!("manage record: {e}")))?;
            }
            PersistRecord::Tick {
                warehouse,
                now,
                effects,
                log_delta,
                ctl,
            } => {
                self.replay_target("tick", &warehouse)?
                    .replay_tick(sim, now, effects, log_delta, ctl);
            }
            PersistRecord::SliderChanged { warehouse, slider } => {
                self.replay_target("slider", &warehouse)?.set_slider(slider);
            }
            PersistRecord::ConstraintAdded { warehouse, rule } => {
                let o = self.replay_target("constraint", &warehouse)?;
                let refused = |e| PersistError::Corrupt(format!("constraint record: {e}"));
                rule.validate().map_err(refused)?;
                o.add_constraint(rule);
            }
            PersistRecord::AdminResume {
                warehouse,
                expected_config,
            } => {
                self.replay_target("admin-resume", &warehouse)?
                    .resume(expected_config);
            }
        }
        Ok(())
    }
}
