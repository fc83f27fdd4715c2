//! # fastod-suite
//!
//! Facade crate for the FASTOD order-dependency discovery suite — a complete
//! Rust reproduction of *"Effective and Complete Discovery of Order
//! Dependencies via Set-based Axiomatization"* (Szlichta et al., VLDB 2017).
//!
//! This crate re-exports every member crate so downstream users can depend on
//! a single package:
//!
//! * [`relation`] — schemas, typed columns, order-preserving encoding, CSV;
//! * [`partition`] — stripped partitions, refinement, sorted partitions τ;
//! * [`theory`] — list/canonical ODs, axioms, mapping, violations;
//! * [`discovery`] — the FASTOD algorithm (plus no-pruning and approximate
//!   variants);
//! * [`incremental`] — streaming maintenance of the discovered cover under
//!   appended tuple batches;
//! * [`serve`] — the concurrent serving layer: lock-free cover reads over
//!   many incrementally maintained relations;
//! * [`obs`] — the structured tracing/metrics runtime threaded through all
//!   of the above (`DiscoveryConfig::obs`, `fastod --trace`, `fastod
//!   stats`);
//! * [`baselines`] — the ORDER and TANE comparators;
//! * [`datagen`] — synthetic dataset generators for the paper's workloads.
//!
//! The crate map and data flow are documented in `ARCHITECTURE.md`;
//! `README.md` has a CSV-to-cover quickstart and the experiment-harness
//! knobs. Discovery is data-parallel: set
//! [`DiscoveryConfig::threads`](discovery::DiscoveryConfig) to shard
//! validation scans and partition refinements across worker threads — the
//! discovered cover is identical at every thread count.
//!
//! ## Quickstart
//!
//! ```
//! use fastod_suite::prelude::*;
//!
//! let table = fastod_suite::datagen::employee_table();
//! let result = Fastod::new(DiscoveryConfig::default()).discover(&table.encode());
//! // The paper's Example 4: bin is constant in the context of position.
//! let posit = table.schema().attr_id("posit").unwrap();
//! let bin = table.schema().attr_id("bin").unwrap();
//! assert!(result
//!     .ods
//!     .iter()
//!     .any(|od| matches!(od,
//!         CanonicalOd::Constancy { context, rhs }
//!             if *rhs == bin && context.contains(posit))));
//! ```

pub use fastod as discovery;
pub use fastod_faultkit as faultkit;
pub use fastod_baselines as baselines;
pub use fastod_datagen as datagen;
pub use fastod_incremental as incremental;
pub use fastod_obs as obs;
pub use fastod_partition as partition;
pub use fastod_relation as relation;
pub use fastod_serve as serve;
pub use fastod_theory as theory;

/// README code blocks are compiled (and, unless marked `no_run`, run) as
/// doctests, so the quickstart — including the mutation round-trip — can
/// never drift from the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
struct ReadmeDoctests;

/// Commonly used items in one import.
pub mod prelude {
    pub use fastod::{DiscoveryConfig, DiscoveryResult, Fastod};
    pub use fastod_incremental::{BatchReport, IncrementalDiscovery};
    pub use fastod_serve::{CoverSnapshot, ServeConfig, Server, Session};
    pub use fastod_relation::{
        AttrId, AttrSet, DataType, EncodedRelation, GrowableRelation, Relation, RelationBuilder,
        Schema, Value,
    };
    pub use fastod_theory::{CanonicalOd, OdSet};
}
