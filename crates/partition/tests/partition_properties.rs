//! Property-based tests for the partition substrate: refinement against
//! ground-truth grouping, swap scans against the naive pairwise oracle,
//! error-measure consistency, and superkey behaviour — on random codes.

use fastod_partition::{
    check_constancy, check_order_compat, constancy_removal_error, swap_removal_error,
    ProductScratch, SortedColumn, StrippedPartition, SwapScratch,
};
use fastod_relation::{DataType, EncodedRelation, Schema};
use proptest::prelude::*;

/// Random dense-rank code column of length `n` with cardinality ≤ `card`.
fn arb_codes(n: usize, card: u32) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..card, n)
}

/// Ground-truth partition by exhaustive grouping.
fn partition_naive(codes: &[u32]) -> Vec<Vec<u32>> {
    let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
    for (row, &c) in codes.iter().enumerate() {
        groups.entry(c).or_default().push(row as u32);
    }
    let mut classes: Vec<Vec<u32>> = groups
        .into_values()
        .filter(|g| g.len() >= 2)
        .collect();
    classes.sort();
    classes
}

/// Naive pairwise swap oracle within context classes.
fn has_swap_naive(ctx: &StrippedPartition, a: &[u32], b: &[u32]) -> bool {
    ctx.classes().iter().any(|class| {
        class.iter().enumerate().any(|(i, &s)| {
            class[i + 1..].iter().any(|&t| {
                let (s, t) = (s as usize, t as usize);
                (a[s] < a[t] && b[s] > b[t]) || (a[s] > a[t] && b[s] < b[t])
            })
        })
    })
}

fn dense(codes: &[u32]) -> u32 {
    codes.iter().max().map_or(0, |&m| m + 1)
}

/// The code column of the combined key `(x, y)` (not dense; use
/// [`dense`] for its cardinality bound).
fn combine(x: &[u32], y: &[u32]) -> Vec<u32> {
    let width = dense(y).max(1);
    x.iter().zip(y).map(|(&a, &b)| a * width + b).collect()
}

/// `p` refined by `codes` through a fresh scratch.
fn refine(p: &StrippedPartition, codes: &[u32]) -> StrippedPartition {
    p.refine(codes, dense(codes), &mut ProductScratch::new())
}

/// Rows ascend inside every class — the order the incremental engine's
/// O(#classes) appended-row probe relies on.
fn rows_ascend(p: &StrippedPartition) -> bool {
    p.classes()
        .iter()
        .all(|class| class.windows(2).all(|w| w[0] < w[1]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn from_codes_matches_naive_grouping(codes in (1usize..=30).prop_flat_map(|n| arb_codes(n, 5))) {
        let p = StrippedPartition::from_codes(&codes, dense(&codes));
        prop_assert_eq!(p.normalized(), partition_naive(&codes));
    }

    #[test]
    fn refine_equals_combined_key_partition(
        (y1, y2, c) in (1usize..=30).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 3), arb_codes(n, 4))
        })
    ) {
        // Π*_Y for the two-attribute context Y = (y1, y2), refined by c,
        // is the partition of the combined (Y, c) key.
        let y = combine(&y1, &y2);
        let py = StrippedPartition::from_codes(&y, dense(&y));
        let refined = refine(&py, &c);
        let key = combine(&y, &c);
        let truth = StrippedPartition::from_codes(&key, dense(&key));
        prop_assert_eq!(refined.normalized(), truth.normalized());
        prop_assert!(rows_ascend(&refined));
    }

    #[test]
    fn refining_either_parent_agrees(
        (y, b, c) in (1usize..=25).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 3), arb_codes(n, 3))
        })
    ) {
        // X = Y∪{b}∪{c}: refining Π*_{Y∪b} by c and Π*_{Y∪c} by b must
        // give the same partition (the join may pick either parent).
        let yb = combine(&y, &b);
        let yc = combine(&y, &c);
        let from_yb = refine(&StrippedPartition::from_codes(&yb, dense(&yb)), &c);
        let from_yc = refine(&StrippedPartition::from_codes(&yc, dense(&yc)), &b);
        prop_assert_eq!(&from_yb, &from_yc);
        prop_assert!(rows_ascend(&from_yb) && rows_ascend(&from_yc));
        // Refining by an attribute already in the context changes nothing.
        let pb = StrippedPartition::from_codes(&b, dense(&b));
        prop_assert_eq!(refine(&pb, &b).raw_csr(), pb.raw_csr());
    }

    #[test]
    fn refine_of_masked_parent_is_the_masked_rebuild(
        (y, c, live) in (1usize..=30).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 4), prop::collection::vec(any::<bool>(), n))
        })
    ) {
        // Tombstoned rows are absent from the parent, so their codes must
        // never be read: poison them with an out-of-range code.
        let py = StrippedPartition::from_codes_masked(&y, dense(&y), &live);
        let card = dense(&c);
        let poisoned: Vec<u32> =
            c.iter().zip(&live).map(|(&code, &l)| if l { code } else { u32::MAX }).collect();
        let refined = py.refine(&poisoned, card, &mut ProductScratch::new());
        let key = combine(&y, &c);
        let truth = StrippedPartition::from_codes_masked(&key, dense(&key), &live);
        prop_assert_eq!(refined.normalized(), truth.normalized());
        prop_assert!(rows_ascend(&refined));
    }

    #[test]
    fn refine_by_packed_key_and_constant_columns(
        (y, cat, seed) in (2usize..=40).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 5), any::<u64>())
        })
    ) {
        let n = y.len();
        // A key column: a seeded permutation of 0..n.
        let mut key: Vec<u32> = (0..n as u32).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            key.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let schema = Schema::new(vec![
            ("cat".into(), DataType::Int),
            ("key".into(), DataType::Int),
            ("konst".into(), DataType::Int),
        ])
        .unwrap();
        let mut enc = EncodedRelation::from_codes(schema, vec![cat.clone(), key, vec![0; n]]);
        enc.pack();
        let py = StrippedPartition::from_codes(&y, dense(&y));
        let mut scratch = ProductScratch::new();
        for a in 0..3 {
            prop_assert!(enc.is_packed(a));
            let refined = py.refine(enc.codes(a), enc.cardinality(a), &mut scratch);
            let combined = combine(&y, enc.codes(a));
            let truth = StrippedPartition::from_codes(&combined, dense(&combined));
            prop_assert_eq!(refined.normalized(), truth.normalized(), "attr {}", a);
            prop_assert!(rows_ascend(&refined));
        }
        // A key splits every class into singletons; a constant keeps Π*_Y.
        prop_assert!(py.refine(enc.codes(1), enc.cardinality(1), &mut scratch).is_superkey());
        prop_assert_eq!(
            py.refine(enc.codes(2), enc.cardinality(2), &mut scratch).raw_csr(),
            py.raw_csr()
        );
    }

    #[test]
    fn swap_scan_matches_naive_oracle(
        (ctx_codes, a, b) in (2usize..=25).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 4), arb_codes(n, 4))
        })
    ) {
        let ctx = StrippedPartition::from_codes(&ctx_codes, dense(&ctx_codes));
        let tau = SortedColumn::build(&a, dense(&a));
        let mut scratch = SwapScratch::new();
        let compatible = check_order_compat(&ctx, &tau, &b, &mut scratch, None);
        prop_assert_eq!(compatible, !has_swap_naive(&ctx, &a, &b));
    }

    #[test]
    fn error_measures_agree_with_validity(
        (ctx_codes, a, b) in (2usize..=25).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 4), arb_codes(n, 4))
        })
    ) {
        let ctx = StrippedPartition::from_codes(&ctx_codes, dense(&ctx_codes));
        // Constancy error is zero iff the constancy scan passes.
        prop_assert_eq!(
            constancy_removal_error(&ctx, &a) == 0,
            check_constancy(&ctx, &a)
        );
        // Swap error is zero iff the swap scan passes.
        let tau = SortedColumn::build(&a, dense(&a));
        let mut scratch = SwapScratch::new();
        prop_assert_eq!(
            swap_removal_error(&ctx, &a, &b) == 0,
            check_order_compat(&ctx, &tau, &b, &mut scratch, None)
        );
    }

    #[test]
    fn tane_error_characterizes_fds(
        (a, b) in (2usize..=25).prop_flat_map(|n| (arb_codes(n, 4), arb_codes(n, 4)))
    ) {
        // e(Π_A) == e(Π_{AB}) iff A → B (checked by the constancy scan).
        let pa = StrippedPartition::from_codes(&a, dense(&a));
        let pab = refine(&pa, &b);
        prop_assert_eq!(pa.error() == pab.error(), check_constancy(&pa, &b));
    }

    #[test]
    fn superkey_iff_all_distinct(codes in (1usize..=25).prop_flat_map(|n| arb_codes(n, 30))) {
        let p = StrippedPartition::from_codes(&codes, dense(&codes));
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(p.is_superkey(), sorted.len() == codes.len());
    }

    #[test]
    fn scratch_reuse_is_transparent(
        (a, b, key) in (2usize..=20).prop_flat_map(|n| {
            (arb_codes(n, 3), arb_codes(n, 3), arb_codes(n, 40))
        })
    ) {
        // Interleaved refinements through one scratch, by columns of very
        // different cardinality, equal fresh computations byte for byte: the
        // code-indexed count arena is back to all-zero after every call.
        let pa = StrippedPartition::from_codes(&a, dense(&a));
        let pb = StrippedPartition::from_codes(&b, dense(&b));
        let mut scratch = ProductScratch::new();
        let r1 = pa.refine(&key, 40, &mut scratch);
        let r2 = pb.refine(&a, dense(&a), &mut scratch);
        let r3 = pa.refine(&b, dense(&b), &mut scratch);
        let r4 = pb.refine(&key, 40, &mut scratch);
        prop_assert_eq!(r1.raw_csr(), refine(&pa, &key).raw_csr());
        prop_assert_eq!(r2.raw_csr(), refine(&pb, &a).raw_csr());
        prop_assert_eq!(r3.raw_csr(), refine(&pa, &b).raw_csr());
        prop_assert_eq!(r4.raw_csr(), refine(&pb, &key).raw_csr());
    }
}
