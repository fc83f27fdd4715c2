//! Fault containment in the level-1 partition build.
//!
//! Armed fault plans are process-global, so this file holds only tests
//! that arm one: no unarmed executor caller shares the test binary and
//! could consume the armed rule.

use fastod_suite::discovery::snapshot::{build_level1, build_level1_per_attr};
use fastod_suite::discovery::{CancelToken, Executor, PassError};
use fastod_suite::faultkit;

/// A level's CSR buffers in key order, for exact comparison.
fn csr_bytes(
    level: &std::collections::HashMap<u64, fastod_suite::discovery::snapshot::Node>,
) -> Vec<(u64, Vec<u32>, Vec<u32>)> {
    let mut keys: Vec<u64> = level.keys().copied().collect();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| {
            let (rows, offsets) = level[&k].partition.raw_csr();
            (k, rows.to_vec(), offsets.to_vec())
        })
        .collect()
}

/// An injected panic in an executor worker fails the whole pass with
/// `PassError` — no partial level escapes — and a rebuild after the fault
/// clears is byte-identical to the sequential build.
#[test]
fn worker_panic_fails_the_pass_cleanly() {
    let enc = fastod_suite::datagen::ncvoter_like(300, 6, 0x5AD0).encode();
    let sequential = csr_bytes(&build_level1(&enc));
    let cancel = CancelToken::never();
    for threads in [1usize, 2, 4] {
        let exec = Executor::new(threads);
        let guard = faultkit::arm(
            faultkit::FaultPlan::new().rule(faultkit::EXECUTOR_WORKER, 0, faultkit::FaultAction::Panic),
        );
        let result = build_level1_per_attr(&enc, &exec, &cancel);
        match result {
            Err(PassError::Panicked { site, ref message }) => {
                assert_eq!(site, faultkit::EXECUTOR_WORKER, "t={threads}");
                assert!(message.contains("faultkit"), "t={threads}: {message}");
            }
            Err(other) => panic!("t={threads}: expected a contained panic, got {other:?}"),
            Ok(_) => panic!("t={threads}: pass must fail under an injected worker panic"),
        }
        drop(guard);
        // Nothing partial persisted: the same call now reproduces the
        // sequential CSR exactly.
        let rebuilt = build_level1_per_attr(&enc, &exec, &cancel).unwrap();
        assert_eq!(csr_bytes(&rebuilt), sequential, "t={threads} after heal");
    }
}
