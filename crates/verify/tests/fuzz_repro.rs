//! Fuzzer determinism and smoke guarantees.
//!
//! Reproducibility is the contract that makes a fuzz failure actionable:
//! the same seed must expand to the same genome, decode to the same command
//! sequence, produce the same verdict, and shrink to the same minimized
//! genome. The generator output for one seed is pinned byte-for-byte so
//! silent drift in the PRNG or decoder fails loudly here.

use verify::fuzz::probe_persist_decoders;
use verify::{
    decode, from_hex, generate_bytes, run_campaign, run_case_catching, shrink_with, to_hex,
    FuzzConfig, FuzzOp,
};

#[test]
fn same_seed_same_genome_same_sequence() {
    let cfg = FuzzConfig::default();
    for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
        let a = generate_bytes(seed, cfg.bytes_per_case);
        let b = generate_bytes(seed, cfg.bytes_per_case);
        assert_eq!(a, b, "seed {seed}: genome not reproducible");
        let ca = decode(seed, &a, &cfg);
        let cb = decode(seed, &b, &cfg);
        assert_eq!(ca, cb, "seed {seed}: decode not reproducible");
        // The verdict is a pure function of the case.
        let ra = run_case_catching(&ca).map(|s| (s.ops_applied, s.events_processed));
        let rb = run_case_catching(&cb).map(|s| (s.ops_applied, s.events_processed));
        assert_eq!(
            ra.as_ref().ok(),
            rb.as_ref().ok(),
            "seed {seed}: verdict not reproducible"
        );
    }
}

#[test]
fn generator_output_is_pinned_for_seed_42() {
    // Byte-for-byte pin of the first 16 genome bytes for seed 42. If this
    // fails, the PRNG or its seeding changed and every recorded repro
    // artifact in the wild is invalidated — bump deliberately or not at all.
    let bytes = generate_bytes(42, 16);
    assert_eq!(to_hex(&bytes), PINNED_SEED_42_HEX, "SplitMix64 drifted");
}

// Computed once from the reference SplitMix64; see rng.rs.
const PINNED_SEED_42_HEX: &str = "956eeb2f2632d7bd03f166b233e3ef28";

#[test]
fn shrinking_is_deterministic_and_minimizing() {
    // Drive the byte-level shrinker with a synthetic failure predicate
    // through the real decoder: "the decoded case still contains at least
    // two Submit ops and one Suspend/Resume alter". The shrinker must be
    // deterministic, must preserve the predicate, and must actually shrink.
    let cfg = FuzzConfig::default();
    let seed = 7u64;
    let bytes = generate_bytes(seed, cfg.bytes_per_case);
    let predicate = |candidate: &[u8]| {
        let case = decode(seed, candidate, &cfg);
        let submits = case
            .ops
            .iter()
            .filter(|o| matches!(o, FuzzOp::Submit { .. }))
            .count();
        let alters = case
            .ops
            .iter()
            .filter(|o| matches!(o, FuzzOp::Alter { .. }))
            .count();
        submits >= 2 && alters >= 1
    };
    assert!(
        predicate(&bytes),
        "seed must satisfy the predicate unshrunk"
    );
    let a = shrink_with(&bytes, predicate, 10_000);
    let b = shrink_with(&bytes, predicate, 10_000);
    assert_eq!(a, b, "shrinking not deterministic");
    assert!(predicate(&a), "shrunk genome no longer fails");
    assert!(
        a.len() < bytes.len(),
        "shrinker failed to reduce the genome"
    );
    // 1-minimality for chunk removal: dropping any single byte breaks it.
    for i in 0..a.len() {
        let mut cand = a.clone();
        cand.remove(i);
        assert!(
            !predicate(&cand),
            "byte {i} of the shrunk genome is removable"
        );
    }
}

#[test]
fn smoke_campaign_runs_clean() {
    // Mirrors the CI `fuzz --smoke` gate at reduced scale: a block of
    // seeds disjoint from the 1000-schedule oracle test, zero failures.
    let report = run_campaign(5_000, 64, &FuzzConfig::default());
    assert_eq!(report.cases, 64);
    assert_eq!(
        report.failure_count,
        0,
        "failures: {:?}",
        report
            .failures
            .iter()
            .map(|f| (f.seed, f.kind.clone()))
            .collect::<Vec<_>>()
    );
    assert!(report.ops_applied > 0);
    assert!(report.events_processed > 0);
}

/// A genome the binary agent-section decoder reads as a count of 2^60
/// layer sizes in eight bytes: the v10 section (online network, config,
/// counters) opens with the online network's layer sizes, as every earlier
/// layout did. The decoder must answer with an error — no panic, and no
/// attempt to reserve the claimed 8 EiB.
const AGENT_SECTION_GENOME_HEX: &str = "0000000000000010";

#[test]
fn agent_section_decoder_is_reached_and_refuses_a_lying_count() {
    let genome = from_hex(AGENT_SECTION_GENOME_HEX).expect("well-formed hex");
    probe_persist_decoders(&genome).expect("the decoders are total on this genome");
    let err = agent::DqnAgent::from_bytes(&genome)
        .map(|_| ())
        .expect_err("not an agent section");
    assert!(err.contains("cannot fit"), "{err}");
}
