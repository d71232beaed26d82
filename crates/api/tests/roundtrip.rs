//! Round-trip tests of the v1 wire protocol: every [`ApiRequest`] and
//! [`ApiResponse`] variant must survive `to_json` → `from_json` exactly.

use gvdb_api::{
    AggOp, AggregateDto, ApiError, ApiRequest, ApiResponse, CacheStatsDto, DatasetInfo,
    DatasetStats, EdgeDto, ErrorKind, Field, HistogramDto, LayerInfo, PackedRows, PoolStatsDto,
    Predicate, RectDto, SearchHitDto, SessionStatsDto, Source, StatsDto, WindowMeta,
};

fn rect() -> RectDto {
    RectDto {
        min_x: -10.25,
        min_y: 0.0,
        max_x: 1500.5,
        max_y: 2e6,
    }
}

fn edge() -> EdgeDto {
    EdgeDto {
        node1_id: 900_001,
        node1_label: "node \"A\" — draft".into(),
        node2_id: u64::MAX - 7, // above i64::MAX: must ride Json::UInt
        node2_label: "node B\nsecond line".into(),
        edge_label: "hand-drawn".into(),
        x1: 1.5,
        y1: -2.25,
        x2: 100.0,
        y2: 200.0,
        directed: true,
    }
}

#[track_caller]
fn roundtrip_request(req: ApiRequest) {
    let text = req.to_json();
    let parsed = ApiRequest::from_json(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(parsed, req, "wire form: {text}");
    // The wire form is itself stable (canonical writer).
    assert_eq!(parsed.to_json(), text);
    // The streamable requests also survive their GET query-string form.
    if matches!(
        req,
        ApiRequest::Window { .. } | ApiRequest::Search { .. } | ApiRequest::Aggregate { .. }
    ) {
        let query = req.to_query().unwrap_or_else(|e| panic!("{text}: {e}"));
        let path = format!("/{}", req.op());
        let parsed = ApiRequest::from_query(&path, &query_params(&query))
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        assert_eq!(parsed, req, "query form: {query}");
        assert_eq!(parsed.to_query().unwrap(), query);
    }
}

/// Split a query string the way the server's request parser does:
/// `&`-separated `key=value` pairs, values verbatim.
fn query_params(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[track_caller]
fn roundtrip_response(resp: ApiResponse) {
    let text = resp.to_json();
    let parsed = ApiResponse::from_json(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(parsed, resp, "wire form: {text}");
    assert_eq!(parsed.to_json(), text);
}

#[test]
fn every_request_variant_roundtrips() {
    roundtrip_request(ApiRequest::ListDatasets);
    roundtrip_request(ApiRequest::ListLayers { dataset: None });
    roundtrip_request(ApiRequest::ListLayers {
        dataset: Some("patents".into()),
    });
    roundtrip_request(ApiRequest::Window {
        dataset: Some("dblp".into()),
        layer: Some(2),
        window: rect(),
        session: Some(41),
        packed: false,
        predicate: None,
        rid_range: None,
    });
    roundtrip_request(ApiRequest::Window {
        dataset: None,
        layer: None,
        window: rect(),
        session: None,
        packed: true,
        predicate: None,
        rid_range: Some((1024, 2047)),
    });
    roundtrip_request(ApiRequest::Window {
        dataset: None,
        layer: Some(0),
        window: rect(),
        session: None,
        packed: false,
        predicate: Some(Predicate::And(vec![
            Predicate::Range {
                field: Field::Degree,
                min: Some(2.0),
                max: Some(10.0),
            },
            Predicate::NodeLabelPrefix("Q1".into()),
        ])),
        rid_range: None,
    });
    roundtrip_request(ApiRequest::Search {
        dataset: None,
        layer: 0,
        query: "Faloutsos \"graph mining\"".into(),
        predicate: None,
    });
    roundtrip_request(ApiRequest::Search {
        dataset: Some("dblp".into()),
        layer: 1,
        query: "graph".into(),
        predicate: Some(Predicate::Range {
            field: Field::Rank,
            min: Some(0.01),
            max: None,
        }),
    });
    roundtrip_request(ApiRequest::Aggregate {
        dataset: Some("dblp".into()),
        layer: Some(1),
        window: rect(),
        predicate: Some(Predicate::NodeLabelEq("Q17".into())),
        agg: AggOp::Histogram {
            field: Field::Degree,
            buckets: 16,
        },
    });
    roundtrip_request(ApiRequest::Aggregate {
        dataset: None,
        layer: None,
        window: rect(),
        predicate: None,
        agg: AggOp::Count,
    });
    roundtrip_request(ApiRequest::Focus {
        dataset: Some("acm".into()),
        layer: 1,
        node: u64::from(u32::MAX) + 5,
    });
    roundtrip_request(ApiRequest::InsertEdge {
        dataset: Some("dblp".into()),
        layer: 0,
        edge: edge(),
    });
    roundtrip_request(ApiRequest::DeleteEdge {
        dataset: None,
        layer: 3,
        rid: (77u64 << 16) | 12, // a packed RowId
    });
    roundtrip_request(ApiRequest::SessionNew {
        dataset: None,
        window: None,
    });
    roundtrip_request(ApiRequest::SessionNew {
        dataset: Some("patents".into()),
        window: Some(rect()),
    });
    roundtrip_request(ApiRequest::SessionClose {
        dataset: None,
        session: 9,
    });
    roundtrip_request(ApiRequest::Flush { dataset: None });
    roundtrip_request(ApiRequest::Flush {
        dataset: Some("patents".into()),
    });
    roundtrip_request(ApiRequest::Stats);
}

/// The query strings clients have always sent for streamed requests,
/// byte for byte: the codec must keep emitting exactly these.
#[test]
fn query_strings_match_the_established_request_lines() {
    let cases = [
        (
            ApiRequest::Window {
                dataset: Some("dblp".into()),
                layer: Some(2),
                window: rect(),
                session: Some(41),
                packed: true,
                predicate: Some(Predicate::And(vec![
                    Predicate::Range {
                        field: Field::Degree,
                        min: Some(2.0),
                        max: Some(10.0),
                    },
                    Predicate::NodeLabelPrefix("Q1".into()),
                ])),
                rid_range: Some((1024, 2047)),
            },
            "minx=-10.25&miny=0&maxx=1500.5&maxy=2000000&dataset=dblp&layer=2&session=41\
             &encoding=packed&filter={\"kind\":\"and\",\"preds\":[{\"kind\":\"range\",\
             \"field\":\"degree\",\"min\":2.0,\"max\":10.0},{\"kind\":\"node_label_prefix\",\
             \"value\":\"Q1\"}]}&rid_lo=1024&rid_hi=2047&stream=1",
        ),
        (
            ApiRequest::Search {
                dataset: Some("dblp".into()),
                layer: 1,
                query: "graph mining".into(),
                predicate: None,
            },
            "layer=1&q=graph+mining&stream=1&dataset=dblp",
        ),
        (
            ApiRequest::Aggregate {
                dataset: Some("dblp".into()),
                layer: Some(1),
                window: rect(),
                predicate: Some(Predicate::NodeLabelEq("Q17".into())),
                agg: AggOp::Histogram {
                    field: Field::Degree,
                    buckets: 16,
                },
            },
            "minx=-10.25&miny=0&maxx=1500.5&maxy=2000000&dataset=dblp&layer=1&agg=histogram\
             &field=degree&buckets=16&filter={\"kind\":\"node_label_eq\",\"value\":\"Q17\"}\
             &stream=1",
        ),
    ];
    for (req, expected) in cases {
        assert_eq!(req.to_query().unwrap(), expected);
        roundtrip_request(req);
    }
}

#[test]
fn mutation_classification_feeds_the_write_gate() {
    assert!(ApiRequest::InsertEdge {
        dataset: None,
        layer: 0,
        edge: edge(),
    }
    .is_mutation());
    assert!(ApiRequest::DeleteEdge {
        dataset: None,
        layer: 0,
        rid: 1,
    }
    .is_mutation());
    // Flush persists state without changing rows; reads obviously don't.
    assert!(!ApiRequest::Flush { dataset: None }.is_mutation());
    assert!(!ApiRequest::Stats.is_mutation());
    assert!(!ApiRequest::Search {
        dataset: None,
        layer: 0,
        query: "q".into(),
        predicate: None,
    }
    .is_mutation());
}

#[test]
fn every_response_variant_roundtrips() {
    roundtrip_response(ApiResponse::Datasets {
        datasets: vec![
            DatasetInfo {
                name: "acm".into(),
                layers: 5,
            },
            DatasetInfo {
                name: "dblp".into(),
                layers: 3,
            },
        ],
    });
    roundtrip_response(ApiResponse::Layers {
        dataset: "acm".into(),
        layers: vec![
            LayerInfo {
                index: 0,
                rows: 150_000,
                epoch: 2,
                rid_max: (8191u64 << 16) | 9,
            },
            LayerInfo {
                index: 1,
                rows: 45_000,
                epoch: 0,
                rid_max: 0,
            },
        ],
    });
    roundtrip_response(ApiResponse::Window {
        meta: WindowMeta {
            dataset: "default".into(),
            layer: 0,
            epoch: 7,
            source: Source::Delta,
            rows_reused: 812,
            rows_fetched: 44,
            session: Some(3),
        },
        // Canonical payload text (handed through byte for byte).
        graph: r#"{"nodes":[{"id":1,"label":"a","x":1.5,"y":2.5}],"edges":[]}"#.into(),
    });
    roundtrip_response(ApiResponse::Window {
        meta: WindowMeta {
            dataset: "patents".into(),
            layer: 4,
            epoch: 0,
            source: Source::Cold,
            rows_reused: 0,
            rows_fetched: 1203,
            session: None,
        },
        graph: r#"{"nodes":[],"edges":[]}"#.into(),
    });
    roundtrip_response(ApiResponse::Hits {
        hits: vec![SearchHitDto {
            node: 42,
            label: "C. Faloutsos".into(),
            x: -17.25,
            y: 3300.5,
        }],
    });
    roundtrip_response(ApiResponse::Focus {
        rows: 6,
        graph: r#"{"nodes":[{"id":9,"label":"hub","x":0.5,"y":0.5}],"edges":[]}"#.into(),
    });
    roundtrip_response(ApiResponse::Mutated {
        dataset: "default".into(),
        layer: 0,
        epoch: 3,
        rid: Some((8191u64 << 16) | 3),
    });
    roundtrip_response(ApiResponse::Mutated {
        dataset: "acm".into(),
        layer: 2,
        epoch: 11,
        rid: None,
    });
    roundtrip_response(ApiResponse::Session { id: 77 });
    roundtrip_response(ApiResponse::Closed);
    roundtrip_response(ApiResponse::Stats(StatsDto {
        served: 1_234,
        rejected: 5,
        workers: 4,
        backlog: 64,
        active_workers: 2,
        open_connections: 37,
        cpus: 8,
        shards_policy: "min(16, max(2, 2*cpus))".into(),
        replication: Some(gvdb_api::repl::ReplStatsDto {
            role: gvdb_api::repl::ReplRole::Follower,
            last_shipped_seq: 0,
            last_applied_seq: 12,
            lag: vec![1, 0, 0],
            shipped: 0,
            applied: 12,
            resyncs: 1,
        }),
        datasets: vec![DatasetStats {
            name: "default".into(),
            epochs: vec![3, 0, 0],
            cache: CacheStatsDto {
                hits: 100,
                partial_hits: 20,
                misses: 30,
                entries: 12,
                bytes: 1 << 20,
                shards: vec![(6, 1 << 19), (6, 1 << 19)],
            },
            pool: PoolStatsDto {
                hits: 9_000,
                misses: 120,
                evictions: 7,
                logical_bytes: 3 << 20,
                physical_bytes: 1 << 20,
                shards: vec![
                    (4_500, 60, 3, 3 << 19, 1 << 19),
                    (4_500, 60, 4, 3 << 19, 1 << 19),
                ],
            },
            sessions: SessionStatsDto {
                live: 2,
                created: 10,
                evictions: 3,
                expired: 5,
            },
            layers: vec![
                gvdb_api::LayerStatsDto {
                    index: 0,
                    rows: 150_000,
                    sidecar_nodes: 40_000,
                },
                gvdb_api::LayerStatsDto {
                    index: 1,
                    rows: 45_000,
                    sidecar_nodes: 0,
                },
            ],
            chooser: gvdb_api::ChooserStatsDto { index: 7, scan: 2 },
        }],
    }));
    roundtrip_response(ApiResponse::Flushed {
        dataset: "patents".into(),
        pages: 512,
    });
    roundtrip_response(ApiResponse::Aggregate {
        dataset: "default".into(),
        layer: 0,
        epoch: 4,
        result: AggregateDto {
            agg: AggOp::Count,
            rows: 812,
            nodes: 340,
            value: None,
            histogram: None,
        },
    });
    roundtrip_response(ApiResponse::Aggregate {
        dataset: "dblp".into(),
        layer: 2,
        epoch: 0,
        result: AggregateDto {
            agg: AggOp::Histogram {
                field: Field::Rank,
                buckets: 3,
            },
            rows: 40,
            nodes: 11,
            value: None,
            histogram: Some(HistogramDto {
                lo: 0.01,
                hi: 0.5,
                counts: vec![9, 0, 2],
            }),
        },
    });
    roundtrip_response(ApiResponse::Aggregate {
        dataset: "default".into(),
        layer: 0,
        epoch: 1,
        result: AggregateDto {
            agg: AggOp::Max(Field::Y),
            rows: 3,
            nodes: 4,
            value: Some(912.25),
            histogram: None,
        },
    });
    roundtrip_response(ApiResponse::Error(ApiError::new(
        ErrorKind::NotFound,
        "dataset 'acm' not found (available: dblp, patents)",
    )));
    roundtrip_response(ApiResponse::Error(ApiError::unauthorized(
        "mutations require 'Authorization: Bearer <api-key>'",
    )));
    roundtrip_response(ApiResponse::Error(ApiError::forbidden(
        "dataset 'patents' is read-only",
    )));
}

#[test]
fn error_kinds_map_to_http_statuses() {
    let cases = [
        (ErrorKind::BadRequest, "400"),
        (ErrorKind::NotFound, "404"),
        (ErrorKind::Conflict, "409"),
        (ErrorKind::TooLarge, "413"),
        (ErrorKind::Unauthorized, "401"),
        (ErrorKind::Forbidden, "403"),
        (ErrorKind::Unavailable, "503"),
        (ErrorKind::Internal, "500"),
    ];
    for (kind, status) in cases {
        assert!(kind.http_status().starts_with(status));
        assert_eq!(ErrorKind::parse(kind.as_str()), Some(kind));
    }
}

#[test]
fn malformed_requests_are_typed_errors() {
    for bad in [
        "",
        "not json",
        "{}",                                                      // no op
        r#"{"op":"frobnicate"}"#,                                  // unknown op
        r#"{"op":"window"}"#,                                      // missing window
        r#"{"op":"search","layer":0}"#,                            // missing q
        r#"{"op":"delete_edge","layer":0}"#,                       // missing rid
        r#"{"op":"insert_edge","layer":0,"edge":{"node1_id":1}}"#, // truncated edge
    ] {
        let err = ApiRequest::from_json(bad).expect_err(bad);
        assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
    }
    // The query-string form: text it cannot carry verbatim, and ops it
    // has no form for, are typed errors at encode time — never a
    // corrupted request line.
    let search = |dataset: Option<&str>, query: &str, predicate| ApiRequest::Search {
        dataset: dataset.map(String::from),
        layer: 0,
        query: query.into(),
        predicate,
    };
    for req in [
        search(None, "a&b", None),
        search(None, "100%", None),
        search(None, "tab\there", None),
        search(Some("my data"), "x", None),
        search(None, "x", Some(Predicate::NodeLabelEq("two words".into()))),
        ApiRequest::Focus {
            dataset: None,
            layer: 0,
            node: 1,
        },
    ] {
        let err = req.to_query().expect_err("uncarried request");
        assert_eq!(err.kind, ErrorKind::BadRequest, "{req:?}");
    }
    // A query missing a required parameter names the endpoint's needs.
    let err = ApiRequest::from_query("/window", &query_params("minx=0&miny=0")).unwrap_err();
    assert_eq!(err.kind, ErrorKind::BadRequest);
    assert!(err.message.contains("minx,miny,maxx,maxy"));
}

#[test]
fn window_graph_payload_is_validated_json() {
    let text = r#"{"kind":"window","window":{"dataset":"d","layer":0,"epoch":0,"source":"cold","rows_reused":0,"rows_fetched":0},"graph":{"nodes":[],"edges":"#;
    assert!(ApiResponse::from_json(text).is_err());
}

#[track_caller]
fn roundtrip_predicate(pred: Predicate) {
    let text = pred.to_json();
    let parsed = Predicate::from_json(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    assert_eq!(parsed, pred, "wire form: {text}");
    assert_eq!(parsed.to_json(), text);
}

#[test]
fn every_predicate_operator_roundtrips() {
    roundtrip_predicate(Predicate::Range {
        field: Field::X,
        min: Some(-10.5),
        max: Some(99.25),
    });
    roundtrip_predicate(Predicate::Range {
        field: Field::Y,
        min: None,
        max: Some(0.0),
    });
    roundtrip_predicate(Predicate::Range {
        field: Field::Degree,
        min: Some(3.0),
        max: None,
    });
    roundtrip_predicate(Predicate::Range {
        field: Field::Rank,
        min: Some(0.001),
        max: Some(0.9),
    });
    roundtrip_predicate(Predicate::NodeLabelEq("C. Faloutsos".into()));
    roundtrip_predicate(Predicate::NodeLabelPrefix("\"quoted\" prefix".into()));
    roundtrip_predicate(Predicate::EdgeLabelEq("cites".into()));
    roundtrip_predicate(Predicate::EdgeLabelPrefix("co".into()));
    roundtrip_predicate(Predicate::And(vec![
        Predicate::NodeLabelPrefix("Q".into()),
        Predicate::Or(vec![
            Predicate::Range {
                field: Field::Degree,
                min: Some(5.0),
                max: None,
            },
            Predicate::EdgeLabelEq("knows".into()),
        ]),
    ]));
    roundtrip_predicate(Predicate::Or(vec![Predicate::NodeLabelEq("lone".into())]));
}

#[test]
fn malformed_predicates_are_typed_errors() {
    for bad in [
        r#"{"kind":"range","field":"x"}"#,              // no bound at all
        r#"{"kind":"range","field":"volume","min":1}"#, // unknown field
        r#"{"kind":"node_label_eq"}"#,                  // missing value
        r#"{"kind":"and","preds":[]}"#,                 // empty conjunction
        r#"{"kind":"between","field":"x","min":0}"#,    // unknown operator
        r#"{"field":"x","min":0}"#,                     // untagged
    ] {
        let err = Predicate::from_json(bad).expect_err(bad);
        assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
    }
    // Nesting is depth-bounded: a 64-deep AND tower must be rejected, not
    // overflow the parser's stack.
    let deep = format!(
        "{}{}{}",
        r#"{"kind":"and","preds":["#.repeat(64),
        r#"{"kind":"node_label_eq","value":"x"}"#,
        "]}".repeat(64)
    );
    assert_eq!(
        Predicate::from_json(&deep).unwrap_err().kind,
        ErrorKind::BadRequest
    );
}

#[test]
fn edge_label_detection_sees_through_composition() {
    let node_only = Predicate::And(vec![
        Predicate::NodeLabelEq("a".into()),
        Predicate::Range {
            field: Field::Degree,
            min: Some(1.0),
            max: None,
        },
    ]);
    assert!(!node_only.references_edge_labels());
    let nested_edge = Predicate::Or(vec![
        Predicate::NodeLabelEq("a".into()),
        Predicate::And(vec![Predicate::EdgeLabelPrefix("ci".into())]),
    ]);
    assert!(nested_edge.references_edge_labels());
}

#[test]
fn stats_without_access_path_fields_still_parse() {
    // Payloads from pre-attribute-query servers carry no layers/chooser
    // members; the parser must default them instead of failing.
    let text = r#"{"kind":"stats","served":1,"rejected":0,"workers":2,"backlog":4,"active_workers":0,"open_connections":0,"cpus":2,"shards_policy":"p","datasets":[{"name":"d","epochs":[0],"cache":{"hits":0,"partial_hits":0,"misses":0,"entries":0,"bytes":0,"shards":[]},"pool":{"hits":0,"misses":0,"evictions":0,"shards":[]},"sessions":{"live":0,"created":0,"evictions":0,"expired":0}}]}"#;
    match ApiResponse::from_json(text).expect("lenient stats parse") {
        ApiResponse::Stats(stats) => {
            assert!(stats.datasets[0].layers.is_empty());
            assert_eq!(
                stats.datasets[0].chooser,
                gvdb_api::ChooserStatsDto::default()
            );
        }
        other => panic!("unexpected response {other:?}"),
    }
}

// Folded in from the PR 8 scratch test file (tmp_overflow_check.rs):
// hostile packed images with length fields near u64::MAX must come back
// as decode errors, never panics or huge allocations.
#[test]
fn hostile_packed_suffix_len_is_a_decode_error() {
    // 1 node, 0 edges, 1 dict entry with shared=0, suffix_len=u64::MAX.
    let mut img = vec![1u8, 0u8, 1u8, 0u8];
    img.extend(std::iter::repeat_n(0xFF, 9)); // varint u64::MAX
    img.push(0x01);
    assert!(PackedRows::decode(&img).is_err());
}

#[test]
fn hostile_packed_node_count_is_a_decode_error() {
    // node_count = u64::MAX, edge_count = 2, dict_len = 0.
    let mut img = Vec::new();
    img.extend(std::iter::repeat_n(0xFF, 9));
    img.push(0x01);
    img.push(2);
    img.push(0);
    assert!(PackedRows::decode(&img).is_err());
}
