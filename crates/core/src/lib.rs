//! # gvdb-core
//!
//! The graphVizdb platform core: everything between the graph file and the
//! browser canvas.
//!
//! * [`preprocess()`] — the offline pipeline of Fig. 1 (partition → layout →
//!   organize → abstract → store & index) with per-step timing.
//! * [`organizer`] — Step 3's greedy partition placement.
//! * [`query`] — the Query Manager: window queries, keyword search,
//!   focus-on-node, measured stage by stage as in Fig. 3.
//! * [`session`] — per-user exploration state (pan/zoom/layers/filters/
//!   edits).
//! * [`service`] — the typed entry point: [`GraphService`] executes
//!   `gvdb_api::ApiRequest`s against a [`QueryManager`] (one dataset)
//!   or a [`SharedWorkspace`] (many, each isolated).
//! * [`registry`] — per-dataset session registries (LRU min-heap +
//!   idle-TTL eviction) behind stateless protocols.
//! * [`json`] / [`client`] — client payload building and the simulated
//!   communication + rendering pipeline.
//! * [`stats`] / [`birdview`] — the Statistics and Birdview panels.
//!
//! ## End-to-end example
//!
//! ```
//! use gvdb_core::{preprocess, PreprocessConfig, QueryManager, Session};
//! use gvdb_graph::generators::{wikidata_like, RdfConfig};
//! use gvdb_spatial::Rect;
//!
//! let graph = wikidata_like(RdfConfig { entities: 200, ..Default::default() });
//! let mut path = std::env::temp_dir();
//! path.push(format!("gvdb-doc-{}.db", std::process::id()));
//! let (db, report) = preprocess(&graph, &path, &PreprocessConfig::default()).unwrap();
//! assert!(report.layer_sizes.len() >= 2);
//!
//! let qm = QueryManager::new(db);
//! let mut session = Session::new(Rect::new(0.0, 0.0, 1000.0, 1000.0));
//! let view = session.view(&qm).unwrap();
//! assert!(view.total_ms() >= 0.0);
//! # gvdb_core::remove_database(&path).ok();
//! ```

pub mod birdview;
pub mod cache;
pub mod client;
pub mod filter;
pub mod json;
pub mod organizer;
pub mod outbox;
pub mod preprocess;
pub mod query;
pub mod registry;
pub mod repl;
pub mod service;
pub mod session;
pub mod stats;
pub mod workspace;

pub use birdview::Birdview;
pub use cache::{CacheConfig, CacheStats, WindowCache};
pub use client::{ClientCost, ClientModel};
pub use filter::{aggregate_rows, AccessPath, CompiledFilter, FilterMode};
pub use json::{build_graph_json, FrameBody, GraphFrame, GraphJson, GraphJsonBuilder};
pub use organizer::{organize_partitions, OrganizedLayout, OrganizerConfig};
pub use outbox::{Outbox, OutboxStatus, PushError};
pub use preprocess::{
    layer_rows, preprocess, LayoutChoice, PreprocessConfig, PreprocessReport, StageThreads,
    StepTimes,
};
pub use query::{QueryManager, SearchHit, WindowResponse};
pub use registry::{SessionHandle, SessionId, SessionRegistry, SessionStats};
pub use repl::ReplProvider;
pub use service::{
    ApiOutcome, FrameBuffer, FrameSink, GraphService, WindowOutcome, DEFAULT_DATASET,
};
pub use session::{Filters, Session};
pub use workspace::SharedWorkspace;

/// Remove a preprocessed database with its WAL and WAL archives.
pub use gvdb_storage::wal::remove_database;
