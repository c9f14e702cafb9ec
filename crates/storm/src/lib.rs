//! # dv-storm
//!
//! The runtime middleware, mirroring the paper's STORM architecture
//! (§2.3) as "a suite of loosely coupled services":
//!
//! * **query service** ([`service::QueryService`]) — the long-lived
//!   front end: admits queries (priority-then-FIFO, bounded by
//!   [`ServiceConfig::max_concurrent`]), assigns [`QueryId`]s, tracks
//!   sessions, and threads a sticky [`CancelToken`] + deadline through
//!   every stage;
//! * **data source service** — the generated extraction function,
//!   executed per node by [`executor::ExecutorService`]s running plan
//!   fragments off the [`cluster::Cluster`] workers. There is one scan
//!   path: every morsel of either engine walks its coalesce groups,
//!   obtains bytes through [`dv_layout::io::IoScheduler::fetch`], and
//!   decodes them with [`dv_layout::Extractor`];
//! * **indexing service** — embedded in plan generation
//!   (`dv-layout` file/chunk pruning with implicit extents + R-trees);
//! * **filtering service** ([`filter`]) — evaluates the residual
//!   predicate (including user-defined filters) on working rows;
//! * **partition generation service** ([`partition`]) — assigns
//!   selected rows to the client program's processors;
//! * **data mover service** ([`mover`]) — the only inter-stage
//!   transport: bounded typed channels, so a slow absorber
//!   back-pressures node pipelines; remote (wide-area) clients charge
//!   a bandwidth/latency model on the absorbing side, so concurrent
//!   sessions overlap their simulated transfer stalls.
//!
//! The cluster is simulated: each logical node is a worker thread that
//! owns that node's directory tree, so per-node work (I/O, decoding,
//! filtering) runs in parallel exactly as data-parallel STORM nodes
//! would (see DESIGN.md §2 for the substitution argument and §10 for
//! the service plane: admission, sessions, cancellation, transport).

pub mod admission;
pub mod cluster;
pub mod executor;
pub mod filter;
pub mod mover;
pub mod options;
pub mod partition;
pub mod service;
pub mod stats;

pub use admission::{Admission, AdmissionSlot};
pub use dv_layout::{IoOptions, IoSnapshot};
pub use dv_types::{CancelReason, CancelToken};
pub use executor::ExecutorService;
pub use mover::{BandwidthModel, MoverSnapshot};
pub use options::{default_intra_node_threads, ExecMode, QueryOptions};
pub use partition::PartitionStrategy;
pub use service::{QueryId, QueryService, ServiceConfig, SessionHandle, SubmitOptions};
pub use stats::{MorselSnapshot, QueryStats};
