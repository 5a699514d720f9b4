//! One planted violation per rule that moved to clippy, each under an
//! `#[expect]`; only clippy compiles it. Drop a `clippy.toml` entry, or let a
//! lint stop firing, and the expectation fails the clippy step. An `#[expect]`
//! enables its own lint, so `tests/clippy_config.rs` pins the lint levels.

#[allow(dead_code)]
fn plants(path: &str, file: &mut std::fs::File, n: u64, x: f64) {
    #[expect(clippy::float_cmp, reason = "canary: D4 must keep firing")]
    let _ = x == 1.5;
    #[expect(clippy::disallowed_methods, reason = "canary: D1 must keep firing")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_methods, reason = "canary: D1 must keep firing")]
    let _ = std::time::SystemTime::now();
    #[expect(clippy::disallowed_methods, reason = "canary: D2 must keep firing")]
    let _ = rand::thread_rng();
    #[expect(clippy::disallowed_methods, reason = "canary: D2 must keep firing")]
    let _: u64 = rand::random();
    #[expect(clippy::disallowed_methods, reason = "canary: D2 must keep firing")]
    let _: rand::rngs::StdRng = rand::SeedableRng::from_entropy();
    #[expect(clippy::disallowed_types, reason = "canary: D3 must keep firing")]
    let _ = std::collections::HashMap::<u8, u8>::new();
    #[expect(clippy::disallowed_types, reason = "canary: D3 must keep firing")]
    let _ = std::collections::HashSet::<u8>::new();
    #[expect(clippy::unwrap_used, reason = "canary: D5 and D7 must keep firing")]
    let _ = std::fs::File::open(path).unwrap();
    #[expect(clippy::expect_used, reason = "canary: D5 and D7 must keep firing")]
    let _ = std::fs::read_to_string(path).expect("canary");
    #[expect(clippy::panic, reason = "canary: D5 must keep firing")]
    let _ = || panic!("canary");
    #[expect(clippy::as_conversions, reason = "canary: D6 must keep firing")]
    let _ = n as f64;
    #[expect(unused_must_use, reason = "canary: D7 must keep firing")]
    std::io::Write::write_all(file, b"canary");
}
