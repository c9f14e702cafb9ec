//! # dv-layout
//!
//! The virtualization compiler — the paper's core contribution (§4).
//! Given a resolved [`dv_descriptor::DatasetModel`] and a bound query,
//! it computes the set of **Aligned File Chunks (AFCs)**:
//!
//! ```text
//! { num_rows, {File_1, Offset_1, Num_Bytes_1}, ..., {File_m, Offset_m, Num_Bytes_m} }
//! ```
//!
//! and the decode schedule that materializes `num_rows` table rows by
//! reading the *m* chunks in lock-step. The two-phase structure follows
//! the paper:
//!
//! * **Phase 1 — [`plan::CompiledDataset::compile`]** runs once per
//!   descriptor (no query): it validates the model, loads `CHUNKED`
//!   index files, builds R-trees over chunk MBRs, and freezes
//!   per-file layout programs. This is the "generated index and
//!   extraction function" — in this Rust reproduction, a specialized
//!   plan object rather than emitted C++ source (see DESIGN.md;
//!   [`codegen`] renders the equivalent source for inspection).
//! * **Phase 2 — [`plan::CompiledDataset::plan_query`]** runs per
//!   query: range analysis prunes files, outer loop iterations and
//!   chunks; surviving segments are grouped (`Find_File_Groups`) and
//!   aligned (`Process_File_Groups`) into AFCs.
//!
//! [`extract::Extractor`] then executes AFCs against the filesystem,
//! producing working rows for the filtering service. By default reads
//! flow through the [`io`] scheduler, which coalesces AFC byte runs
//! into large sequential reads, prefetches the next working set on a
//! background thread, and serves repeated ranges from a cross-query
//! segment cache.

pub mod afc;
pub mod codegen;
pub mod cost;
pub mod extract;
pub mod groups;
pub mod io;
pub mod morsel;
pub mod plan;
pub mod prune;
pub mod segment;

pub use afc::{Afc, AfcEntry, ImplicitValue};
pub use cost::{
    afc_group_bound, CostBound, CostParams, CostReport, CostViolation, RuntimeCounters,
};
pub use extract::{Extractor, SharedHandles};
pub use io::{IoOptions, IoScheduler, IoSnapshot, IoStats, SegmentCache};
pub use morsel::{adaptive_morsel_bytes, Morsel, MorselPlan, MORSELS_PER_THREAD};
pub use plan::{AggPrep, Certificate, CompiledDataset, FileIssue, NodePlan, QueryPlan, QueryPrep};
pub use prune::{PruneCertificate, PruneVerdict};
pub use segment::{InnerSig, Segment};
