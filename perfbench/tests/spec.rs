//! `BENCHMARK.json` and `layers.json` agree with what the benchmark
//! reports.

use gvdb_api::Json;
use perfbench::runner::{END_TO_END, PER_LAYER};
use perfbench::workload::Workload;

fn load(path: &str) -> Json {
    let dir = env!("CARGO_MANIFEST_DIR");
    let text = std::fs::read_to_string(format!("{dir}/{path}")).expect("readable spec file");
    Json::parse(&text).expect("valid JSON")
}

fn names<'a>(spec: &'a Json, key: &str) -> Vec<&'a str> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_are_well_formed_and_match_the_code() {
    let spec = load("../BENCHMARK.json");
    let e2e = names(&spec, "end_to_end");
    let layers = names(&spec, "per_layer");
    assert_eq!(e2e, END_TO_END);
    assert_eq!(layers, PER_LAYER);
    for name in e2e.iter().chain(&layers) {
        assert!(valid_name(name), "bad metric name {name}");
    }
    let workloads = names(&spec, "workloads");
    let code: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, code);
}

#[test]
fn every_per_layer_link_names_an_end_to_end_metric_and_workload() {
    let spec = load("../BENCHMARK.json");
    let e2e = names(&spec, "end_to_end");
    let workloads = names(&spec, "workloads");
    let links = load("layers.json");
    let links = links.get("links").and_then(Json::as_arr).expect("links");
    let linked: Vec<&str> = links
        .iter()
        .map(|l| l.get("metric").and_then(Json::as_str).expect("metric"))
        .collect();
    assert_eq!(
        linked,
        names(&spec, "per_layer"),
        "one link entry per per-layer metric"
    );
    for link in links {
        let moves = link.get("moves").and_then(Json::as_arr).expect("moves");
        assert!(!moves.is_empty());
        let unchanged = link.get("unchanged").and_then(Json::as_arr).unwrap_or(&[]);
        for target in moves.iter().chain(unchanged) {
            let metric = target.get("metric").and_then(Json::as_str).expect("metric");
            let workload = target
                .get("workload")
                .and_then(Json::as_str)
                .expect("workload");
            assert!(e2e.contains(&metric), "unknown end-to-end metric {metric}");
            assert!(workloads.contains(&workload), "unknown workload {workload}");
        }
    }
}
