//! Multi-dataset workspaces: the demo's dataset selector (§IV: "attendees
//! will first select a dataset from a number of real-word datasets (e.g.,
//! ACM, DBLP, DBpedia)").
//!
//! [`SharedWorkspace`] is the thread-safe container the server binds:
//! datasets live behind `Arc<QueryManager>` in an `RwLock`ed map, so any
//! number of worker threads resolve names concurrently while datasets can
//! still be registered at runtime. It implements [`crate::GraphService`],
//! giving every dataset its own session registry, epochs and cache
//! isolation.
//!
//! It rejects duplicate names ([`gvdb_storage::StorageError::LayerExists`])
//! and lists the available names in its not-found errors, so a typo'd
//! `dataset=` selector is self-explanatory.

use crate::query::QueryManager;
use gvdb_api::ApiError;
use gvdb_storage::{GraphDb, Result, StorageError};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// The "available: …" tail of every missing-dataset error.
fn available(names: &[String]) -> String {
    if names.is_empty() {
        "none".to_string()
    } else {
        names.join(", ")
    }
}

/// "dataset 'x' (available: a, b)".
fn not_found(name: &str, names: &[String]) -> StorageError {
    StorageError::LayerNotFound(format!(
        "dataset '{name}' (available: {})",
        available(names)
    ))
}

/// A thread-safe, shared multi-dataset workspace (see module docs): what
/// `gvdb serve` binds when given several `<name>=<path>` datasets.
#[derive(Debug, Default)]
pub struct SharedWorkspace {
    datasets: RwLock<BTreeMap<String, Arc<QueryManager>>>,
}

impl SharedWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        SharedWorkspace::default()
    }

    /// Register an already-open database under `name` (duplicate names
    /// are rejected).
    pub fn add(&self, name: impl Into<String>, db: GraphDb) -> Result<()> {
        self.add_manager(name, Arc::new(QueryManager::new(db)))
    }

    /// Register an existing manager under `name` (duplicate names are
    /// rejected). Lets callers share a manager with embedded readers or
    /// configure its cache before serving.
    pub fn add_manager(&self, name: impl Into<String>, qm: Arc<QueryManager>) -> Result<()> {
        let name = name.into();
        let mut datasets = self.datasets.write();
        if datasets.contains_key(&name) {
            return Err(StorageError::LayerExists(format!("dataset '{name}'")));
        }
        datasets.insert(name, qm);
        Ok(())
    }

    /// Open a database file and register it under `name`.
    pub fn open(&self, name: impl Into<String>, path: &Path) -> Result<()> {
        let db = GraphDb::open(path)?;
        self.add(name, db)
    }

    /// Dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.datasets.read().keys().cloned().collect()
    }

    /// Number of datasets.
    pub fn len(&self) -> usize {
        self.datasets.read().len()
    }

    /// Whether the workspace is empty.
    pub fn is_empty(&self) -> bool {
        self.datasets.read().is_empty()
    }

    /// The query manager for `name`.
    pub fn dataset(&self, name: &str) -> Result<Arc<QueryManager>> {
        let datasets = self.datasets.read();
        datasets
            .get(name)
            .cloned()
            .ok_or_else(|| not_found(name, &datasets.keys().cloned().collect::<Vec<_>>()))
    }

    /// Remove a dataset, returning its manager.
    pub fn remove(&self, name: &str) -> Option<Arc<QueryManager>> {
        self.datasets.write().remove(name)
    }

    /// Every `(name, manager)` pair, name-sorted (snapshot).
    pub fn entries(&self) -> Vec<(String, Arc<QueryManager>)> {
        self.datasets
            .read()
            .iter()
            .map(|(name, qm)| (name.clone(), Arc::clone(qm)))
            .collect()
    }

    /// Resolve a request's dataset selector: an explicit name must exist;
    /// no name is allowed only when exactly one dataset is registered.
    pub fn resolve(
        &self,
        name: Option<&str>,
    ) -> std::result::Result<(String, Arc<QueryManager>), ApiError> {
        let datasets = self.datasets.read();
        match name {
            Some(n) => match datasets.get(n) {
                Some(qm) => Ok((n.to_string(), Arc::clone(qm))),
                None => {
                    let names: Vec<String> = datasets.keys().cloned().collect();
                    Err(ApiError::not_found(format!(
                        "dataset '{n}' not found (available: {})",
                        available(&names)
                    )))
                }
            },
            None if datasets.len() == 1 => {
                let (name, qm) = datasets.iter().next().expect("len checked");
                Ok((name.clone(), Arc::clone(qm)))
            }
            None => Err(ApiError::bad_request(format!(
                "this workspace serves {} datasets; pass dataset=<name> (available: {})",
                datasets.len(),
                datasets.keys().cloned().collect::<Vec<_>>().join(", ")
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{preprocess, PreprocessConfig};
    use crate::session::Session;
    use gvdb_graph::generators::{patent_like, wikidata_like, CitationConfig, RdfConfig};
    use gvdb_spatial::Rect;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gvdb-ws-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn select_between_datasets() {
        let rdf_path = tmp("rdf");
        let cite_path = tmp("cite");
        let rdf = wikidata_like(RdfConfig {
            entities: 200,
            ..Default::default()
        });
        let cite = patent_like(CitationConfig {
            nodes: 300,
            ..Default::default()
        });
        let cfg = PreprocessConfig {
            k: Some(2),
            ..Default::default()
        };
        let (rdf_db, _) = preprocess(&rdf, &rdf_path, &cfg).unwrap();
        let (cite_db, _) = preprocess(&cite, &cite_path, &cfg).unwrap();

        let ws = SharedWorkspace::new();
        ws.add("Patents", cite_db).unwrap();
        ws.add("DBpedia-like", rdf_db).unwrap();
        assert_eq!(ws.names(), vec!["DBpedia-like", "Patents"], "name order");

        // One session per dataset; both serve window queries independently.
        let everything = Rect::new(-1e12, -1e12, 1e12, 1e12);
        let s1 = Session::new(everything);
        let s2 = Session::new(everything);
        let v1 = s1.view(&ws.dataset("DBpedia-like").unwrap()).unwrap();
        let v2 = s2.view(&ws.dataset("Patents").unwrap()).unwrap();
        // Patent rows are citations (plus empty-labelled isolated-node rows).
        assert!(v2
            .rows
            .iter()
            .all(|(_, r)| &*r.edge_label == "cites" || r.edge_label.is_empty()));
        assert!(v1
            .rows
            .iter()
            .any(|(_, r)| r.edge_label.starts_with("wdt:") || r.edge_label.starts_with("rdfs:")));

        // Unknown dataset errors cleanly — and names the alternatives.
        let err = ws.dataset("ACM").unwrap_err().to_string();
        assert!(
            err.contains("DBpedia-like") && err.contains("Patents"),
            "{err}"
        );
        // Removal.
        assert!(ws.remove("Patents").is_some());
        assert_eq!(ws.len(), 1);

        std::fs::remove_file(&rdf_path).ok();
        std::fs::remove_file(&cite_path).ok();
    }

    #[test]
    fn open_from_disk() {
        let path = tmp("open");
        let g = patent_like(CitationConfig {
            nodes: 100,
            ..Default::default()
        });
        {
            let cfg = PreprocessConfig {
                k: Some(1),
                ..Default::default()
            };
            let (mut db, _) = preprocess(&g, &path, &cfg).unwrap();
            db.flush().unwrap();
        }
        let ws = SharedWorkspace::new();
        ws.open("patents", &path).unwrap();
        assert_eq!(ws.dataset("patents").unwrap().layer_count(), 5);
        assert!(ws.open("missing", &tmp("nonexistent")).is_err());
        assert_eq!(ws.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_workspace_is_shareable_and_duplicate_safe() {
        let path = tmp("shared");
        let g = patent_like(CitationConfig {
            nodes: 150,
            ..Default::default()
        });
        {
            let cfg = PreprocessConfig {
                k: Some(1),
                ..Default::default()
            };
            let (mut db, _) = preprocess(&g, &path, &cfg).unwrap();
            db.flush().unwrap();
        }
        let ws = Arc::new(SharedWorkspace::new());
        ws.open("patents", &path).unwrap();
        assert!(matches!(
            ws.open("patents", &path),
            Err(StorageError::LayerExists(_))
        ));

        // Resolution from several threads at once.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ws = Arc::clone(&ws);
                std::thread::spawn(move || {
                    let (name, qm) = ws.resolve(None).unwrap();
                    assert_eq!(name, "patents");
                    qm.layer_count()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 5);
        }

        // Unknown names list the alternatives.
        let err = ws.resolve(Some("acm")).unwrap_err();
        assert!(err.message.contains("patents"), "{}", err.message);
        std::fs::remove_file(&path).ok();
    }
}
