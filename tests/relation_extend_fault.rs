//! The `relation.extend` failpoint reports itself as an injected fault.
//!
//! Armed fault plans are process-global, so this file holds only tests
//! that arm one: no unarmed `GrowableRelation::extend` caller shares the
//! test binary and could consume the armed rule.

use fastod_suite::faultkit::{self, FaultAction, FaultPlan};
use fastod_suite::relation::{GrowableRelation, RelationBuilder, RelationError};

#[test]
fn cancelled_extend_is_a_typed_injected_fault_and_changes_nothing() {
    let base = RelationBuilder::new()
        .column_i64("a", vec![3, 1])
        .column_str("b", vec!["x", "y"])
        .build()
        .unwrap();
    let batch = RelationBuilder::new()
        .column_i64("a", vec![2])
        .column_str("b", vec!["z"])
        .build()
        .unwrap();
    let mut grow = GrowableRelation::new(&base);
    let before: Vec<Vec<u32>> = (0..2).map(|a| grow.encoded().codes(a).to_vec()).collect();

    let guard =
        faultkit::arm(FaultPlan::new().rule(faultkit::RELATION_EXTEND, 0, FaultAction::Cancel));
    let err = grow.extend(&batch).unwrap_err();
    assert!(guard.fired_at(faultkit::RELATION_EXTEND));
    drop(guard);

    assert!(
        matches!(err, RelationError::Injected { site } if site == faultkit::RELATION_EXTEND),
        "{err}"
    );
    assert_eq!(err.to_string(), "fault injected at relation.extend");
    assert_eq!(grow.n_rows(), 2);
    for (a, codes) in before.iter().enumerate() {
        assert_eq!(grow.encoded().codes(a), codes.as_slice());
    }
    // Disarmed, the same batch goes through.
    grow.extend(&batch).unwrap();
    assert_eq!(grow.n_rows(), 3);
}
