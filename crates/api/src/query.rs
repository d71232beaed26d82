//! The `GET` query-string form of the streamable requests (`window`,
//! `search`, `aggregate`): [`ApiRequest::to_query`] writes it and
//! [`ApiRequest::from_query`] reads it — one codec for the client that
//! opens a stream and the server that answers one.
//!
//! Values travel verbatim: the server does no percent-decoding and splits
//! the request line on whitespace, so text the form cannot carry is a
//! [`ErrorKind::BadRequest`](crate::ErrorKind::BadRequest) at encode time
//! instead of a silently corrupted request. The one exception is the
//! search text, whose spaces travel as `+`. Requests the form cannot
//! express ride the `POST /v1` form ([`ApiRequest::to_json`]).

use crate::{rid_range, AggOp, ApiError, ApiRequest, ApiResult, Field, Predicate, RectDto};

impl ApiRequest {
    /// The query string of this request's streamed `GET /v1/<op>` form
    /// (`stream=1` included), parameters in the order clients have
    /// always sent them, so request lines stay byte-stable.
    pub fn to_query(&self) -> ApiResult<String> {
        let filter = |p: &Option<Predicate>| p.as_ref().map(Predicate::to_json);
        let stream = ("stream", Some("1".to_string()));
        let params: Vec<(&str, Option<String>)> = match self {
            ApiRequest::Window {
                dataset,
                layer,
                window,
                session,
                packed,
                predicate,
                rid_range,
            } => rect_params(window)
                .into_iter()
                .chain([
                    ("dataset", dataset.clone()),
                    ("layer", text(*layer)),
                    ("session", text(*session)),
                    ("encoding", packed.then(|| "packed".to_string())),
                    ("filter", filter(predicate)),
                    ("rid_lo", text(rid_range.map(|r| r.0))),
                    ("rid_hi", text(rid_range.map(|r| r.1))),
                    stream,
                ])
                .collect(),
            ApiRequest::Search {
                dataset,
                layer,
                query,
                predicate,
            } => vec![
                ("layer", text(Some(layer))),
                ("q", Some(query.clone())),
                stream,
                ("dataset", dataset.clone()),
                ("filter", filter(predicate)),
            ],
            ApiRequest::Aggregate {
                dataset,
                layer,
                window,
                predicate,
                agg,
            } => {
                let (field, buckets) = match agg {
                    AggOp::Count => (None, None),
                    AggOp::Min(f) | AggOp::Max(f) => (Some(f), None),
                    AggOp::Histogram { field, buckets } => (Some(field), Some(buckets)),
                };
                rect_params(window)
                    .into_iter()
                    .chain([
                        ("dataset", dataset.clone()),
                        ("layer", text(*layer)),
                        ("agg", Some(agg.op().to_string())),
                        ("field", text(field.map(Field::as_str))),
                        ("buckets", text(buckets)),
                        ("filter", filter(predicate)),
                        stream,
                    ])
                    .collect()
            }
            other => {
                return Err(ApiError::bad_request(format!(
                    "op '{}' has no query-string form; use POST /v1",
                    other.op()
                )))
            }
        };
        let mut pairs = Vec::new();
        for (key, value) in params {
            let Some(value) = value else { continue };
            // Only the search text may hold spaces: they travel as '+'.
            if !value.chars().all(|c| carried(c) || key == "q" && c == ' ') {
                return Err(ApiError::bad_request(format!(
                    "{key} '{value}' contains characters the v1 query string cannot carry; \
                     use POST /v1 instead"
                )));
            }
            pairs.push(format!("{key}={}", value.replace(' ', "+")));
        }
        Ok(pairs.join("&"))
    }

    /// Parse the query-string form of `GET /v1<path>` (`path` is
    /// `/window`, `/search` or `/aggregate`). Transport parameters
    /// (`stream`) are the server's business and ignored here; a missing
    /// or malformed required parameter is a
    /// [`ErrorKind::BadRequest`](crate::ErrorKind::BadRequest) naming the
    /// endpoint's needs.
    pub fn from_query(path: &str, params: &[(String, String)]) -> ApiResult<ApiRequest> {
        let q = Params(params);
        let (request, needs) = match path {
            "/window" => (
                q.window(),
                "need minx,miny,maxx,maxy (and a well-formed filter)",
            ),
            "/search" => (q.search(), "need q (and a well-formed filter)"),
            "/aggregate" => (
                q.aggregate(),
                "need minx,miny,maxx,maxy and agg=count|min|max|histogram \
                 (min/max/histogram also need field=x|y|degree|rank)",
            ),
            other => {
                return Err(ApiError::not_found(format!(
                    "no query-string form for '{other}'"
                )))
            }
        };
        request.ok_or_else(|| ApiError::bad_request(needs))
    }
}

impl RectDto {
    /// The `minx`, `miny`, `maxx`, `maxy` query parameters, if all four
    /// are present and numeric.
    pub fn from_query(params: &[(String, String)]) -> Option<RectDto> {
        let q = Params(params);
        Some(RectDto {
            min_x: q.parse("minx")?,
            min_y: q.parse("miny")?,
            max_x: q.parse("maxx")?,
            max_y: q.parse("maxy")?,
        })
    }
}

fn rect_params(w: &RectDto) -> [(&'static str, Option<String>); 4] {
    [
        ("minx", Some(w.min_x.to_string())),
        ("miny", Some(w.min_y.to_string())),
        ("maxx", Some(w.max_x.to_string())),
        ("maxy", Some(w.max_y.to_string())),
    ]
}

fn text<T: ToString>(value: Option<T>) -> Option<String> {
    value.map(|v| v.to_string())
}

/// Whether `c` can travel verbatim in a query-string value.
fn carried(c: char) -> bool {
    !(c.is_control() || c.is_whitespace() || matches!(c, '&' | '#' | '?' | '+' | '=' | '%'))
}

/// Query parameters as the server's request parser leaves them. Each
/// request builder answers `None` when a required parameter is missing
/// or malformed (a malformed `filter` included).
struct Params<'a>(&'a [(String, String)]);

impl Params<'_> {
    /// First value of `key`.
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `key` parsed as `T` (`None` when absent or malformed).
    fn parse<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.get(key).and_then(|v| v.parse().ok())
    }

    /// The optional `filter`: `Some(None)` when absent, `None` when
    /// malformed.
    #[allow(clippy::option_option)]
    fn filter(&self) -> Option<Option<Predicate>> {
        self.get("filter")
            .map(Predicate::from_json)
            .transpose()
            .ok()
    }

    fn window(&self) -> Option<ApiRequest> {
        Some(ApiRequest::Window {
            dataset: self.get("dataset").map(String::from),
            layer: self.parse("layer"),
            window: RectDto::from_query(self.0)?,
            session: self.parse("session"),
            packed: self.get("encoding") == Some("packed"),
            predicate: self.filter()?,
            rid_range: rid_range(self.parse("rid_lo"), self.parse("rid_hi")),
        })
    }

    fn search(&self) -> Option<ApiRequest> {
        Some(ApiRequest::Search {
            dataset: self.get("dataset").map(String::from),
            layer: self.parse("layer").unwrap_or(0),
            query: self.get("q")?.replace('+', " "),
            predicate: self.filter()?,
        })
    }

    fn aggregate(&self) -> Option<ApiRequest> {
        let field = || Field::parse(self.get("field").unwrap_or(""));
        let agg = match self.get("agg")? {
            "count" => AggOp::Count,
            "min" => AggOp::Min(field()?),
            "max" => AggOp::Max(field()?),
            "histogram" => AggOp::Histogram {
                field: field()?,
                // Same bounds the JSON form enforces.
                buckets: self.parse("buckets").unwrap_or(10).clamp(1, 4096),
            },
            _ => return None,
        };
        Some(ApiRequest::Aggregate {
            dataset: self.get("dataset").map(String::from),
            layer: self.parse("layer"),
            window: RectDto::from_query(self.0)?,
            predicate: self.filter()?,
            agg,
        })
    }
}
