//! Lattice levels and nodes (paper §4.1, Figure 3; Algorithm 2).

use crate::pairset::PairSet;
use crate::parallel::Executor;
use crate::{CancelToken, PassError};
use fastod_partition::{ProductScratch, StrippedPartition};
use fastod_relation::{AttrSet, EncodedRelation};
use std::collections::HashMap;

/// A lattice node: the attribute set is the map key; the node carries its
/// stripped partition `Π*_X` and candidate sets `C⁺c(X)` / `C⁺s(X)`.
pub struct Node {
    /// The stripped partition `Π*_X`.
    pub partition: StrippedPartition,
    /// Candidate attributes `C⁺c(X)` (Definition 7).
    pub cc: AttrSet,
    /// Candidate pairs `C⁺s(X)` (Definition 8).
    pub cs: PairSet,
}

impl Node {
    /// A node with empty candidate sets (they are filled by
    /// [`crate::snapshot::compute_candidate_sets`]).
    pub fn new(partition: StrippedPartition, n_attrs: usize) -> Node {
        Node {
            partition,
            cc: AttrSet::EMPTY,
            cs: PairSet::new(n_attrs),
        }
    }
}

/// One lattice level `L_l`, keyed by the node's attribute-set bits.
pub type Level = HashMap<u64, Node>;

/// The keys of a level in ascending bit order (deterministic iteration).
pub fn sorted_keys(level: &Level) -> Vec<u64> {
    let mut keys: Vec<u64> = level.keys().copied().collect();
    keys.sort_unstable();
    keys
}

/// `Π*_X` for one join `(X, Y∪{b}, Y∪{c})` of [`candidate_joins`]: the
/// parent with fewer covered rows is refined by the other parent's extra
/// attribute column (`X = (Y∪{b}) ∪ {c}`), so the cost is one pass over the
/// smaller parent. On a tie `Y∪{b}` is refined by `codes(c)`.
///
/// `enc` must hold a code for every row the parents cover; rows outside
/// them (singletons, or tombstones of a masked lattice) are never read.
pub fn join_partition(
    level: &Level,
    enc: &EncodedRelation,
    yb: AttrSet,
    yc: AttrSet,
    scratch: &mut ProductScratch,
) -> StrippedPartition {
    let (pb, pc) = (&level[&yb.bits()].partition, &level[&yc.bits()].partition);
    let extra = |from: AttrSet, other: AttrSet| {
        from.difference(other)
            .min_attr()
            .expect("joined parents differ in one attribute")
    };
    if pc.covered_rows() < pb.covered_rows() {
        let b = extra(yb, yc);
        pc.refine(enc.codes(b), enc.cardinality(b), scratch)
    } else {
        let c = extra(yc, yb);
        pb.refine(enc.codes(c), enc.cardinality(c), scratch)
    }
}

/// `calculateNextLevel(L_l)` — Algorithm 2, with each partition refined
/// from one generating parent (see [`join_partition`]).
pub fn calculate_next_level(
    level: &Level,
    enc: &EncodedRelation,
    scratch: &mut ProductScratch,
    cancel: &CancelToken,
) -> Result<Level, PassError> {
    generate_next_level(level, enc.n_attrs(), cancel, |_, pi, pj, lvl| {
        join_partition(lvl, enc, pi, pj, scratch)
    })
}

/// [`calculate_next_level`] with the refinements sharded across `exec`'s
/// worker threads.
///
/// `pool` holds one [`ProductScratch`] arena per worker and persists across
/// calls — the lattice driver passes the same pool for every level, so the
/// code-indexed count/cursor arenas and CSR output buffers grown at one
/// level are reused all the way to the deepest level instead of being
/// reallocated per node. The produced level is identical to the sequential
/// one at any thread count (refinement is pure; the join list is
/// deterministic).
pub fn calculate_next_level_parallel(
    level: &Level,
    enc: &EncodedRelation,
    exec: &Executor,
    pool: &mut Vec<ProductScratch>,
    cancel: &CancelToken,
) -> Result<Level, PassError> {
    cancel.check()?;
    let joins = candidate_joins(level);
    exec.obs().add("partition.products", joins.len() as u64);
    let partitions = exec.try_map_with(
        pool,
        ProductScratch::new,
        &joins,
        cancel,
        |scratch, _i, &(_x, pi, pj)| join_partition(level, enc, pi, pj, scratch),
    )?;
    let mut next = Level::with_capacity(joins.len());
    for ((x, _, _), partition) in joins.into_iter().zip(partitions) {
        next.insert(x.bits(), Node::new(partition, enc.n_attrs()));
    }
    Ok(next)
}

/// The structural half of Algorithm 2: every `(X, Y, Z)` with `X = Y ∪ Z`
/// where `Y, Z ∈ L_l` share a prefix block and all `l`-subsets of `X` are
/// present (the Apriori condition, Line 4). Deterministically ordered by
/// block, then member pair.
pub fn candidate_joins(level: &Level) -> Vec<(AttrSet, AttrSet, AttrSet)> {
    // Group by "set minus largest attribute" (`singleAttrDiffBlocks`).
    let mut blocks: HashMap<u64, Vec<AttrSet>> = HashMap::new();
    for &bits in level.keys() {
        let set = AttrSet::from_bits(bits);
        let largest = 63 - bits.leading_zeros() as usize;
        blocks.entry(set.without(largest).bits()).or_default().push(set);
    }
    let mut block_keys: Vec<u64> = blocks.keys().copied().collect();
    block_keys.sort_unstable();
    let mut joins = Vec::new();
    for key in block_keys {
        let members = &mut blocks.get_mut(&key).unwrap()[..];
        members.sort_unstable();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let x = members[i].union(members[j]);
                // Apriori: all l-subsets must be present.
                if !x.parents().all(|(_, sub)| level.contains_key(&sub.bits())) {
                    continue;
                }
                joins.push((x, members[i], members[j]));
            }
        }
    }
    joins
}

/// Algorithm 2 with the partition source abstracted.
///
/// The join structure comes from [`candidate_joins`]; `make_partition(x,
/// parent_i, parent_j, level)` supplies `Π*_X`: the one-shot algorithm
/// refines one parent by the other's extra attribute, while the incremental
/// engine may instead reuse a retained partition from a previous pass when
/// the batch provably left it unchanged.
pub fn generate_next_level<F>(
    level: &Level,
    n_attrs: usize,
    cancel: &CancelToken,
    mut make_partition: F,
) -> Result<Level, PassError>
where
    F: FnMut(AttrSet, AttrSet, AttrSet, &Level) -> StrippedPartition,
{
    let joins = candidate_joins(level);
    let mut next = Level::with_capacity(joins.len());
    for (i, (x, pi, pj)) in joins.into_iter().enumerate() {
        if i % 64 == 0 {
            cancel.check()?;
        }
        let partition = make_partition(x, pi, pj, level);
        next.insert(x.bits(), Node::new(partition, n_attrs));
    }
    Ok(next)
}

/// Builds level 1: one node per attribute with `Π*_{{A}}` from its codes.
pub fn build_level1(enc: &EncodedRelation) -> Level {
    let n_attrs = enc.n_attrs();
    let mut level = Level::with_capacity(n_attrs);
    for a in 0..n_attrs {
        level.insert(
            AttrSet::singleton(a).bits(),
            Node::new(
                StrippedPartition::from_codes(enc.codes(a), enc.cardinality(a)),
                n_attrs,
            ),
        );
    }
    level
}

/// [`build_level1`] with the attributes spread across `exec`'s workers:
/// one `from_codes` counting sort per whole column, so every partition is
/// the one `build_level1` builds, at any thread count.
pub fn build_level1_per_attr(
    enc: &EncodedRelation,
    exec: &Executor,
    cancel: &CancelToken,
) -> Result<Level, PassError> {
    cancel.check()?;
    let n_attrs = enc.n_attrs();
    let attrs: Vec<usize> = (0..n_attrs).collect();
    let partitions = exec.try_map_with(
        &mut Vec::new(),
        || (),
        &attrs,
        cancel,
        |(), _i, &a| StrippedPartition::from_codes(enc.codes(a), enc.cardinality(a)),
    )?;
    let mut level = Level::with_capacity(n_attrs);
    for (a, partition) in attrs.into_iter().zip(partitions) {
        level.insert(AttrSet::singleton(a).bits(), Node::new(partition, n_attrs));
    }
    Ok(level)
}

/// Builds level 0: the single `{}` node with the unit partition and
/// `C⁺c({}) = R` (Algorithm 1, lines 1–3).
pub fn build_level0(n_rows: usize, n_attrs: usize) -> Level {
    let mut level = Level::with_capacity(1);
    let mut node = Node::new(StrippedPartition::unit(n_rows), n_attrs);
    node.cc = AttrSet::full(n_attrs);
    level.insert(AttrSet::EMPTY.bits(), node);
    level
}

/// [`build_level0`] for a relation with tombstones: the unit partition
/// holds only the live rows (see
/// [`StrippedPartition::unit_masked`]). With an all-`true` mask this equals
/// `build_level0(live.len(), n_attrs)`.
pub fn build_level0_masked(live: &[bool], n_attrs: usize) -> Level {
    let mut level = Level::with_capacity(1);
    let mut node = Node::new(StrippedPartition::unit_masked(live), n_attrs);
    node.cc = AttrSet::full(n_attrs);
    level.insert(AttrSet::EMPTY.bits(), node);
    level
}


#[cfg(test)]
mod tests {
    use super::*;
    use fastod_relation::RelationBuilder;

    fn enc3() -> fastod_relation::EncodedRelation {
        RelationBuilder::new()
            .column_i64("a", vec![0, 0, 1, 1])
            .column_i64("b", vec![0, 1, 0, 1])
            .column_i64("c", vec![0, 1, 2, 3])
            .build()
            .unwrap()
            .encode()
    }

    #[test]
    fn level1_has_one_node_per_attr() {
        let l1 = build_level1(&enc3());
        assert_eq!(l1.len(), 3);
        assert!(l1.contains_key(&AttrSet::singleton(2).bits()));
        // c is a key: stripped partition empty.
        assert!(l1[&AttrSet::singleton(2).bits()].partition.is_superkey());
    }

    #[test]
    fn next_level_generates_all_pairs() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let mut scratch = ProductScratch::new();
        let l2 = calculate_next_level(&l1, &enc, &mut scratch, &CancelToken::never()).unwrap();
        assert_eq!(l2.len(), 3); // {a,b}, {a,c}, {b,c}
        // Partition of {a,b} refines both.
        let ab = &l2[&AttrSet::from_iter([0, 1]).bits()].partition;
        assert!(ab.is_superkey()); // (a,b) is a key here
    }

    #[test]
    fn apriori_condition_blocks_missing_parents() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let mut scratch = ProductScratch::new();
        let mut l2 = calculate_next_level(&l1, &enc, &mut scratch, &CancelToken::never()).unwrap();
        // Remove {b,c}: {a,b,c} then lacks a parent and must not be created.
        l2.remove(&AttrSet::from_iter([1, 2]).bits());
        let l3 = calculate_next_level(&l2, &enc, &mut scratch, &CancelToken::never()).unwrap();
        assert!(l3.is_empty());
    }

    #[test]
    fn full_lattice_from_complete_levels() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let mut scratch = ProductScratch::new();
        let l2 = calculate_next_level(&l1, &enc, &mut scratch, &CancelToken::never()).unwrap();
        let l3 = calculate_next_level(&l2, &enc, &mut scratch, &CancelToken::never()).unwrap();
        assert_eq!(l3.len(), 1);
        assert!(l3.contains_key(&AttrSet::full(3).bits()));
        let l4 = calculate_next_level(&l3, &enc, &mut scratch, &CancelToken::never()).unwrap();
        assert!(l4.is_empty());
    }

    #[test]
    fn cancellation_propagates() {
        let enc = enc3();
        let l1 = build_level1(&enc);
        let mut scratch = ProductScratch::new();
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        let result = calculate_next_level(&l1, &enc, &mut scratch, &token);
        assert!(matches!(result, Err(PassError::Cancelled)));
    }

    #[test]
    fn level0_unit_node() {
        let l0 = build_level0(4, 3);
        let node = &l0[&AttrSet::EMPTY.bits()];
        assert_eq!(node.cc, AttrSet::full(3));
        assert_eq!(node.partition.n_classes(), 1);
    }

    #[test]
    fn per_attr_level1_matches_sequential() {
        let mut packed = enc3();
        packed.pack();
        let seq = build_level1(&enc3());
        for threads in [1, 2, 4] {
            let exec = Executor::new(threads);
            let l1 = build_level1_per_attr(&packed, &exec, &CancelToken::never()).unwrap();
            assert_eq!(l1.len(), seq.len());
            for (bits, node) in &seq {
                assert_eq!(
                    l1[bits].partition.raw_csr(),
                    node.partition.raw_csr(),
                    "t={threads}"
                );
            }
        }
        let empty = RelationBuilder::new()
            .column_i64("a", vec![])
            .build()
            .unwrap()
            .encode();
        let l1 = build_level1_per_attr(&empty, &Executor::new(2), &CancelToken::never()).unwrap();
        assert!(l1[&AttrSet::singleton(0).bits()].partition.is_superkey());
        let cancelled = CancelToken::with_timeout(std::time::Duration::ZERO);
        let result = build_level1_per_attr(&enc3(), &Executor::new(2), &cancelled);
        assert!(matches!(result, Err(PassError::Cancelled)));
    }

    #[test]
    fn join_refines_the_smaller_parent() {
        // {a,b} from {a} (covers all 4 rows) and {b} (covers 4): tie, so
        // {a} is refined by b. {a,c} from {a} (4 rows) and the key {c}
        // (0 rows): {c} is refined by a and nothing is read.
        let enc = enc3();
        let l1 = build_level1(&enc);
        let mut scratch = ProductScratch::new();
        let (a, b, c) = (
            AttrSet::singleton(0),
            AttrSet::singleton(1),
            AttrSet::singleton(2),
        );
        assert!(join_partition(&l1, &enc, a, b, &mut scratch).is_superkey());
        assert!(join_partition(&l1, &enc, a, c, &mut scratch).is_superkey());
        let enc2 = RelationBuilder::new()
            .column_i64("a", vec![0, 0, 0, 1, 1])
            .column_i64("b", vec![0, 0, 1, 1, 1])
            .build()
            .unwrap()
            .encode();
        let l1 = build_level1(&enc2);
        let ab = join_partition(&l1, &enc2, a, b, &mut scratch);
        let ba = join_partition(&l1, &enc2, b, a, &mut scratch);
        assert_eq!(ab.normalized(), vec![vec![0, 1], vec![3, 4]]);
        assert_eq!(ab.raw_csr(), ba.raw_csr());
    }
}
