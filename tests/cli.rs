//! The `gvdb` binary end to end: exit codes and output of the paper's
//! offline pipeline (`preprocess`, `info`) and window queries.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gvdb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gvdb"))
        .args(args)
        .output()
        .expect("run gvdb")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A 300-edge `src dst label` list over 100 nodes, preprocessed into a
/// database; both files are removed on drop.
struct Db {
    edges: PathBuf,
    db: PathBuf,
    preprocess: Output,
}

impl Db {
    fn new(tag: &str) -> Db {
        let base = std::env::temp_dir().join(format!("gvdb-cli-{tag}-{}", std::process::id()));
        let edges = base.with_extension("txt");
        let db = base.with_extension("db");
        let list: String = (0..100)
            .flat_map(|i| {
                [
                    (i, (i + 1) % 100),
                    (i, (i * 7 + 3) % 100),
                    (i, (i * 13 + 5) % 100),
                ]
            })
            .map(|(s, d)| format!("n{s} n{d} cites\n"))
            .collect();
        std::fs::write(&edges, list).unwrap();
        let preprocess = gvdb(&["preprocess", path(&edges), path(&db), "--k", "4"]);
        Db {
            edges,
            db,
            preprocess,
        }
    }

    fn path(&self) -> &str {
        path(&self.db)
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        std::fs::remove_file(&self.edges).ok();
        gvdb_storage::wal::remove_database(&self.db).ok();
    }
}

fn path(p: &std::path::Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn preprocess_then_info_lists_every_layer() {
    let db = Db::new("info");
    assert!(db.preprocess.status.success(), "{:?}", db.preprocess);
    let built = stdout(&db.preprocess);
    assert!(built.contains("loaded"), "{built}");
    assert!(built.contains(" 300 edges"), "{built}");

    let info = gvdb(&["info", db.path()]);
    assert!(info.status.success(), "{info:?}");
    let text = stdout(&info);
    let layers: usize = text
        .lines()
        .next()
        .and_then(|head| head.strip_suffix(" layers"))
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no layer count in {text}"));
    assert!(layers >= 1);
    assert!(built.contains(&format!("built {layers} layers")), "{built}");
    assert_eq!(text.matches("  layer ").count(), layers, "{text}");
}

#[test]
fn window_prints_the_payload() {
    let db = Db::new("window");
    let out = gvdb(&["window", db.path(), "0", "-1e9", "-1e9", "1e9", "1e9"]);
    assert!(out.status.success(), "{out:?}");
    let json = stdout(&out);
    assert!(json.starts_with("{\"nodes\":[{"), "{json}");
    assert!(json.contains("\"edges\":[{"), "{json}");
}

/// An inverted or NaN viewport is the same 400 `/v1` gives: an error on
/// stderr and exit code 1, never an empty payload.
#[test]
fn inverted_or_nan_window_is_an_error() {
    let db = Db::new("badwindow");
    for rect in [["900", "900", "0", "0"], ["NaN", "0", "900", "900"]] {
        let mut args = vec!["window", db.path(), "0"];
        args.extend(rect);
        let out = gvdb(&args);
        assert_eq!(out.status.code(), Some(1), "{rect:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{rect:?}: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("min_x <= max_x"), "{rect:?}: {err}");
    }
}

#[test]
fn unknown_subcommand_prints_usage() {
    let out = gvdb(&["bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("usage:") && err.contains("gvdb serve"),
        "{err}"
    );
}
