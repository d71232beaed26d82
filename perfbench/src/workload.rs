//! The three workloads and the inputs each one draws from `--seed`.
//!
//! Everything here is generated before the clock starts; the program
//! under test only ever sees the resulting requests.

use crate::stats::Rng;
use gvdb_spatial::Rect;

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop pan + zoom sessions on `patent_like`.
    Navigate,
    /// Open-loop sessionless windows at random places on `patent_like`.
    ColdJump,
    /// Closed-loop windows, searches, focus and edits on `wikidata_like`.
    SearchEdit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Navigate, Workload::ColdJump, Workload::SearchEdit];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Navigate => "navigate",
            Workload::ColdJump => "cold_jump",
            Workload::SearchEdit => "search_edit",
        }
    }
}

/// Window side of a `navigate` step, as a share of the plane's side.
pub const NAV_SIDE: f64 = 0.05;
/// Area overlap of consecutive `navigate` pans.
pub const NAV_OVERLAP: f64 = 0.8;
/// Every this-many-th `navigate` step is a zoom (a layer switch).
pub const ZOOM_EVERY: usize = 10;
/// `cold_jump` window sides, as shares of the plane's side.
pub const JUMP_SIDE: (f64, f64) = (0.02, 0.10);
/// Share of `cold_jump` windows on layer 0; the rest spread evenly over
/// the layers above.
pub const JUMP_LAYER0: f64 = 0.7;
/// Steps of one `navigate` pan episode.
pub const EPISODE: usize = 20;
/// Inputs spread over a `GRID` × `GRID` cut of the plane.
pub const GRID: usize = 6;
/// Hot viewports per `search_edit` client.
pub const HOT_VIEWPORTS: usize = 8;
/// Side of a hot viewport, as a share of the plane's side.
pub const HOT_SIDE: f64 = 0.05;

/// One window request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReq {
    /// Layer queried.
    pub layer: usize,
    /// The viewport.
    pub rect: Rect,
    /// Whether this step switched layers (a `navigate` zoom).
    pub zoom: bool,
}

fn side(bounds: &Rect, share: f64) -> f64 {
    bounds.width().min(bounds.height()) * share
}

/// `count` points spread over `region`: the region is cut into
/// `grid` × `grid` cells, visited in a seeded order (every cell once per
/// round) with a uniform point in each, so any seed covers the region
/// evenly.
pub fn stratified_points(
    region: &Rect,
    grid: usize,
    count: usize,
    rng: &mut Rng,
) -> Vec<(f64, f64)> {
    let cells = grid * grid;
    let (w, h) = (region.width() / grid as f64, region.height() / grid as f64);
    let mut order: Vec<usize> = (0..cells).collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        for i in (1..cells).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &cell in order.iter().take(count - out.len()) {
            let (cx, cy) = ((cell % grid) as f64, (cell / grid) as f64);
            out.push((
                region.min_x + (cx + rng.unit()) * w,
                region.min_y + (cy + rng.unit()) * h,
            ));
        }
    }
    out
}

/// The part of `bounds` where a square of side `s` can have its lower
/// left corner.
fn corners(bounds: &Rect, s: f64) -> Rect {
    Rect::new(
        bounds.min_x,
        bounds.min_y,
        (bounds.max_x - s).max(bounds.min_x),
        (bounds.max_y - s).max(bounds.min_y),
    )
}

/// Element `i` of a seeded Weyl sequence in `[0, 1)`: evenly spread
/// for any offset, so shares drawn from it barely vary with the seed.
fn weyl(i: usize, step: f64, offset: f64) -> f64 {
    (offset + i as f64 * step).fract()
}

/// The `navigate` users' walks, `steps` each: pan episodes of
/// [`EPISODE`] steps, each a boustrophedon `pan_trajectory` at
/// [`NAV_OVERLAP`] over a patch of six window sides. The episodes start
/// at [`stratified_points`] dealt to the users in turn, so together they
/// cross every part of the plane as often, whatever the seed. Every
/// [`ZOOM_EVERY`]-th step switches to layer 1 around the same centre.
pub fn navigate_walks(
    bounds: &Rect,
    layers: usize,
    users: usize,
    steps: usize,
    rng: &mut Rng,
) -> Vec<Vec<WindowReq>> {
    let s = side(bounds, NAV_SIDE);
    let patch = (6.0 * s).min(bounds.width()).min(bounds.height());
    let episodes = steps.div_ceil(EPISODE);
    let starts = stratified_points(&corners(bounds, patch), GRID, users * episodes, rng);
    (0..users)
        .map(|u| {
            starts
                .iter()
                .skip(u)
                .step_by(users)
                .flat_map(|&(x, y)| {
                    gvdb_bench::pan_trajectory(
                        &Rect::new(x, y, x + patch, y + patch),
                        s,
                        NAV_OVERLAP,
                        EPISODE,
                    )
                })
                .take(steps)
                .enumerate()
                .map(|(i, rect)| {
                    let zoom = layers > 1 && i % ZOOM_EVERY == ZOOM_EVERY - 1;
                    WindowReq {
                        layer: usize::from(zoom),
                        rect,
                        zoom,
                    }
                })
                .collect()
        })
        .collect()
}

/// A square of side `share` of the plane with its corner at `(x, y)`,
/// moved inside `bounds` if needed.
fn square_at(bounds: &Rect, share: f64, (x, y): (f64, f64)) -> Rect {
    let s = side(bounds, share);
    let c = corners(bounds, s);
    let (x, y) = (x.clamp(c.min_x, c.max_x), y.clamp(c.min_y, c.max_y));
    Rect::new(x, y, x + s, y + s)
}

/// `count` `cold_jump` windows: corners at [`stratified_points`], sides
/// spread evenly over [`JUMP_SIDE`], layer 0 for a [`JUMP_LAYER0`] share
/// and the layers above evenly for the rest.
pub fn cold_jumps(bounds: &Rect, layers: usize, count: usize, rng: &mut Rng) -> Vec<WindowReq> {
    let corners = stratified_points(
        &corners(bounds, side(bounds, JUMP_SIDE.0)),
        GRID,
        count,
        rng,
    );
    let (size_offset, layer_offset) = (rng.unit(), rng.unit());
    corners
        .into_iter()
        .enumerate()
        .map(|(i, corner)| {
            let share =
                JUMP_SIDE.0 + (JUMP_SIDE.1 - JUMP_SIDE.0) * weyl(i, 0.618_033_988_75, size_offset);
            let u = weyl(i, 0.754_877_666_25, layer_offset);
            let layer = if layers <= 1 || u < JUMP_LAYER0 {
                0
            } else {
                1 + ((u - JUMP_LAYER0) / (1.0 - JUMP_LAYER0) * (layers - 1) as f64) as usize
            };
            WindowReq {
                layer: layer.min(layers.saturating_sub(1)),
                rect: square_at(bounds, share, corner),
                zoom: false,
            }
        })
        .collect()
}

/// `count` hot viewports of side [`HOT_SIDE`], one per cell of a grid:
/// in each cell, the draw of lowest finite `cost` among 16 (see
/// [`stratified_points`]). A cell whose draws all cost infinity gives
/// none, so fewer than `count` may come back.
pub fn hot_viewports(
    bounds: &Rect,
    count: usize,
    rng: &mut Rng,
    cost: impl Fn(&Rect) -> f64,
) -> Vec<Rect> {
    const DRAWS: usize = 16;
    let grid = (count as f64).sqrt().ceil() as usize;
    let region = corners(bounds, side(bounds, HOT_SIDE));
    let cell_of = |(x, y): (f64, f64)| {
        let at =
            |v: f64, lo: f64, len: f64| (((v - lo) / len * grid as f64) as usize).min(grid - 1);
        at(y, region.min_y, region.height()) * grid + at(x, region.min_x, region.width())
    };
    let points = stratified_points(&region, grid, grid * grid * DRAWS, rng);
    let mut best: Vec<Option<(f64, Rect)>> = vec![None; grid * grid];
    for &p in &points {
        let r = square_at(bounds, HOT_SIDE, p);
        let c = cost(&r);
        let slot = &mut best[cell_of(p)];
        if c.is_finite() && slot.is_none_or(|(b, _)| c < b) {
            *slot = Some((c, r));
        }
    }
    points[..grid * grid]
        .iter()
        .filter_map(|&p| best[cell_of(p)].map(|(_, r)| r))
        .take(count)
        .collect()
}

/// One `search_edit` operation; indices point into the client's hot
/// viewports or the run's search terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A window on a hot viewport.
    Window(usize),
    /// A keyword search.
    Search(usize),
    /// Focus on a node from the client's last search.
    Focus,
    /// A window on a hot viewport with a label-prefix predicate.
    Filtered(usize),
    /// An edge insert in a hot viewport, or the delete of the client's
    /// pending insert.
    Edit(usize),
}

/// A `search_edit` client's operation sequence: ≈55% windows, 20%
/// searches, 10% focus, 5% filtered windows, 10% edits.
pub fn op_mix(count: usize, terms: usize, rng: &mut Rng) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let r = rng.unit();
            let v = rng.below(HOT_VIEWPORTS);
            if r < 0.55 {
                Op::Window(v)
            } else if r < 0.75 {
                Op::Search(rng.below(terms.max(1)))
            } else if r < 0.85 {
                Op::Focus
            } else if r < 0.90 {
                Op::Filtered(v)
            } else {
                Op::Edit(v)
            }
        })
        .collect()
}

/// Lowercased alphanumeric words of `text` — the tokenizer of the
/// storage label trie, restated so search hits can be checked against
/// the label set.
pub fn tokenize(text: &str) -> Vec<String> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(String::from)
        .collect()
}

/// The label set of layer 0, tokenized once: the oracle for keyword
/// search (a node matches when every query word is a substring of one of
/// its label's words).
pub struct LabelIndex {
    words: Vec<Vec<String>>,
}

impl LabelIndex {
    /// Index `labels`; node `i` is the `i`-th label.
    pub fn new<'a>(labels: impl Iterator<Item = &'a str>) -> Self {
        LabelIndex {
            words: labels.map(tokenize).collect(),
        }
    }

    /// Node ids whose label matches `term`, ascending.
    pub fn matches(&self, term: &str) -> Vec<u64> {
        let query = tokenize(term);
        if query.is_empty() {
            return Vec::new();
        }
        (0..self.words.len())
            .filter(|&i| {
                query
                    .iter()
                    .all(|q| self.words[i].iter().any(|w| w.contains(q.as_str())))
            })
            .map(|i| i as u64)
            .collect()
    }
}

/// A search term with the node ids it must return.
#[derive(Debug, Clone)]
pub struct Term {
    /// The query text.
    pub text: String,
    /// Expected hits, ascending.
    pub expect: Vec<u64>,
}

/// `count` search terms taken from real labels: ≈70% whole labels with
/// at most 50 hits, ≈30% four-letter prefixes of a label's first word
/// with 10 to 500 hits.
pub fn search_terms(labels: &[&str], index: &LabelIndex, count: usize, rng: &mut Rng) -> Vec<Term> {
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count && attempts < 100 * count {
        attempts += 1;
        let label = labels[rng.below(labels.len())];
        let prefix = rng.unit() < 0.3;
        let (text, range) = if prefix {
            let Some(word) = label
                .split(|c: char| !c.is_alphanumeric())
                .find(|w| w.len() >= 4)
            else {
                continue;
            };
            (word.chars().take(4).collect::<String>(), 10..=500)
        } else {
            (label.to_string(), 1..=50)
        };
        if text
            .chars()
            .any(|c| !(c.is_alphanumeric() || c == ' ' || c == '(' || c == ')'))
        {
            continue;
        }
        let expect = index.matches(&text);
        if range.contains(&expect.len()) {
            out.push(Term { text, expect });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_matches_the_trie() {
        assert_eq!(tokenize("Alan Turing (Q97)"), vec!["alan", "turing", "q97"]);
        assert_eq!(tokenize("\"literal 5-0\""), vec!["literal", "5", "0"]);
    }

    #[test]
    fn label_oracle_is_substring_of_any_word() {
        let labels = ["Alan Turing (Q97)", "Q970", "Q1", "Ada Lovelace (Q194)"];
        let index = LabelIndex::new(labels.iter().copied());
        assert_eq!(index.matches("q97"), vec![0, 1]);
        assert_eq!(index.matches("turing q97"), vec![0]);
        assert_eq!(index.matches("LOVE"), vec![3]);
        assert!(index.matches("").is_empty());
    }

    #[test]
    fn op_mix_shares() {
        let ops = op_mix(20_000, 4, &mut Rng::new(3));
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 20_000.0;
        assert!((0.53..0.57).contains(&share(|o| matches!(o, Op::Window(_)))));
        assert!((0.18..0.22).contains(&share(|o| matches!(o, Op::Search(_)))));
        assert!((0.08..0.12).contains(&share(|o| matches!(o, Op::Edit(_)))));
    }
}
