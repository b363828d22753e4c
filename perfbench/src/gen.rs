//! Seeded request streams for the daemon workloads.
//!
//! The benchmark draws every request from `--seed`; the daemon only ever
//! sees the generated lines. The same seed gives a byte-identical stream
//! (see [`dump`] and the determinism test below), and the stream replays
//! through `rlckit-server --stdin --workers 1` as plain NDJSON.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::rng::Rng;

/// One generated evaluation request.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Request id, unique within the stream.
    pub id: String,
    /// The NDJSON request line (no trailing newline).
    pub line: String,
    /// Identity of each cell's scenario, in cell-index order: the evaluator
    /// plus every parameter the cell sets, as written on the wire.
    pub cell_keys: Vec<String>,
}

impl GenRequest {
    fn new(
        id: String,
        evaluator: &'static str,
        base: &[(&str, String)],
        axis: (&str, Vec<String>),
    ) -> Self {
        let mut line = format!("{{\"id\":\"{id}\",\"evaluator\":\"{evaluator}\"");
        let mut base_key = String::from(evaluator);
        if !base.is_empty() {
            line.push_str(",\"base\":{");
            for (i, (name, value)) in base.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(line, "{sep}\"{name}\":{value}");
                let _ = write!(base_key, "|{name}={value}");
            }
            line.push('}');
        }
        let (param, values) = axis;
        let _ = write!(
            line,
            ",\"axes\":[{{\"param\":\"{param}\",\"values\":[{}]}}]}}",
            values.join(",")
        );
        let cell_keys = values.iter().map(|v| format!("{base_key}|{param}={v}")).collect();
        Self { id, line, cell_keys }
    }

    /// Number of cells the request expands to.
    pub fn cells(&self) -> usize {
        self.cell_keys.len()
    }
}

/// A topology of one transient evaluator: the parameters that fix the MNA
/// sparsity pattern.
type Topology = Vec<(&'static str, usize)>;

/// One transient evaluator of `cold_transient`: its small hot set of
/// topologies, and how to draw a fresh one.
struct TransientFamily {
    evaluator: &'static str,
    hot: &'static [&'static [(&'static str, usize)]],
    fresh: fn(&mut Rng) -> Topology,
}

/// Per-evaluator size caps keep every cell under roughly 150 ms on a 2-CPU
/// machine, and the mesh, SRAM and tree sizes are wide enough (factored
/// band wider than 64) that those cells resolve to the sparse kernel; the
/// bus and ladder families stay on the banded kernel. Tree cost grows as
/// `fanout^levels` sections: one `tree_levels=5, tree_fanout=3` cell took
/// about 17 s, and one with `tree_levels=7` was killed after about 121 s
/// without finishing, so trees stay at 2 levels (fan-out 22 to 32) or 3
/// levels with fan-out 6, at 2 or 3 sections per branch.
const TRANSIENT_FAMILIES: [TransientFamily; 6] = [
    TransientFamily {
        evaluator: "mesh_delay",
        hot: &[&[("mesh_rows", 24), ("mesh_cols", 24)], &[("mesh_rows", 22), ("mesh_cols", 28)]],
        fresh: |r| vec![("mesh_rows", r.range(22, 30)), ("mesh_cols", r.range(22, 30))],
    },
    TransientFamily {
        evaluator: "sram_read",
        hot: &[&[("sram_rows", 8), ("sram_cols", 16)], &[("sram_rows", 16), ("sram_cols", 12)]],
        fresh: |r| vec![("sram_rows", r.range(6, 18)), ("sram_cols", r.range(11, 20))],
    },
    TransientFamily {
        evaluator: "tree_delay",
        hot: &[
            &[("tree_levels", 2), ("tree_fanout", 24), ("ladder_sections", 2)],
            &[("tree_levels", 2), ("tree_fanout", 28), ("ladder_sections", 3)],
        ],
        fresh: |r| {
            if r.unit() < 0.8 {
                vec![
                    ("tree_levels", 2),
                    ("tree_fanout", r.range(22, 32)),
                    ("ladder_sections", r.range(2, 3)),
                ]
            } else {
                vec![("tree_levels", 3), ("tree_fanout", 6), ("ladder_sections", 2)]
            }
        },
    },
    TransientFamily {
        evaluator: "bus_crosstalk",
        hot: &[&[("bus_lines", 3), ("ladder_sections", 8)]],
        fresh: |r| vec![("bus_lines", r.range(2, 5)), ("ladder_sections", r.range(4, 8))],
    },
    TransientFamily {
        evaluator: "reduced_delay",
        hot: &[&[("ladder_sections", 16), ("reduction_order", 6)]],
        fresh: |r| vec![("ladder_sections", r.range(8, 32)), ("reduction_order", r.range(3, 8))],
    },
    TransientFamily {
        evaluator: "bus_repeater",
        hot: &[&[("bus_lines", 3), ("ladder_sections", 4)]],
        fresh: |r| vec![("bus_lines", r.range(2, 3)), ("ladder_sections", r.range(3, 5))],
    },
];

/// `cold_transient` draws its requests in blocks of this many, each block
/// holding exact shares of every family, of hot and fresh topologies and of
/// 1-, 2- and 3-cell sweeps in a seeded order. The mix is then the same for
/// every seed, so runs with different seeds measure the same work.
const BLOCK: usize = 20;

/// Requests per block of each family, in `TRANSIENT_FAMILIES` order.
const FAMILY_COUNTS: [usize; 6] = [6, 5, 4, 2, 2, 1];

/// Requests per block that take a hot-set topology. Fresh draws from the
/// capped ranges repeat a pattern now and then too.
const HOT_PER_BLOCK: usize = 7;

/// `items` in a seeded random order (Fisher–Yates).
fn shuffled<T>(rng: &mut Rng, mut items: Vec<T>) -> Vec<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i));
    }
    items
}

/// The `cold_transient` stream: small sweeps (1 to 3 cells) of fresh
/// scenarios over the transient evaluators. Every cell has a distinct
/// scenario, so the result cache never hits. Some requests take a topology
/// from a small hot set (their MNA pattern repeats), the rest draw a fresh
/// topology (their pattern is often new).
///
/// The stream has no end: requests are generated a block at a time when
/// first asked for, so a closed loop never runs out however fast the daemon
/// answers or however long the run is.
pub struct ColdStream {
    rng: Rng,
    seen: HashSet<String>,
    requests: Vec<GenRequest>,
}

impl ColdStream {
    /// The stream of `seed`, nothing generated yet.
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng::new(seed, "cold_transient"), seen: HashSet::new(), requests: Vec::new() }
    }

    /// Request `i`, generating blocks up to it as needed.
    pub fn get(&mut self, i: usize) -> &GenRequest {
        while self.requests.len() <= i {
            self.block();
        }
        &self.requests[i]
    }

    /// The first `count` requests, generated if need be.
    pub fn take(mut self, count: usize) -> Vec<GenRequest> {
        if count > 0 {
            self.get(count - 1);
        }
        self.requests.truncate(count);
        self.requests
    }

    fn block(&mut self) {
        let rng = &mut self.rng;
        let families: Vec<usize> = FAMILY_COUNTS
            .iter()
            .enumerate()
            .flat_map(|(f, &n)| std::iter::repeat_n(f, n))
            .collect();
        let families = shuffled(rng, families);
        let hot = shuffled(rng, (0..BLOCK).map(|k| k < HOT_PER_BLOCK).collect());
        let cells = shuffled(rng, (0..BLOCK).map(|k| 1 + k % 3).collect());
        for k in 0..BLOCK {
            let family = &TRANSIENT_FAMILIES[families[k]];
            let topology: Topology = if hot[k] {
                family.hot[rng.range(0, family.hot.len() - 1)].to_vec()
            } else {
                (family.fresh)(rng)
            };
            let mut base: Vec<(&str, String)> =
                topology.iter().map(|&(name, v)| (name, v.to_string())).collect();
            base.push(("driver_size", format!("{:.4}", 40.0 + 160.0 * rng.unit())));
            let mut lengths = Vec::with_capacity(cells[k]);
            while lengths.len() < cells[k] {
                let length = format!("{:.6}", 2.0 + 8.0 * rng.unit());
                let key = format!("{}|{base:?}|{length}", family.evaluator);
                if self.seen.insert(key) {
                    lengths.push(length);
                }
            }
            self.requests.push(GenRequest::new(
                format!("ct-{:05}", self.requests.len()),
                family.evaluator,
                &base,
                ("line_length_mm", lengths),
            ));
        }
    }
}

/// The first `count` requests of the `cold_transient` stream of `seed`.
pub fn cold_transient(seed: u64, count: usize) -> Vec<GenRequest> {
    ColdStream::new(seed).take(count)
}

/// Hot scenarios of `reuse_closed` per evaluator: Zipf ranks up to this
/// one name a fixed scenario that the warm-up answers first, so every later
/// draw of it reads the memo. A rank beyond it stands for a fresh scenario
/// that no earlier request had. Under the Zipf law below, about 73% of the
/// cells fall on the hot set, and that share stays the same however many
/// requests a run gets through.
const REUSE_HOT: usize = 6144;

/// Zipf ranks per evaluator that cells of `reuse_closed` are drawn from.
const REUSE_UNIVERSE: usize = 200_000;

/// Zipf exponent of `reuse_closed` cell draws.
const REUSE_ZIPF_S: f64 = 1.1;

/// Cells per warm-up request; the warm-up answers every hot scenario once.
const REUSE_WARMUP_CELLS: usize = 256;

/// The closed-form evaluators of `reuse_closed`, with their request shares.
const CLOSED_FORM: [(&str, f64); 3] =
    [("delay_model", 0.4), ("repeater_optimum", 0.3), ("repeater_design_point", 0.3)];

/// Line length of the hot scenario at Zipf rank `rank` (1-based).
fn hot_length(rank: usize) -> String {
    format!("{}", 1.0 + rank as f64 * 2.5e-4)
}

/// Line length of the `k`-th fresh scenario of a stream: distinct for every
/// `k` and longer than every hot length.
fn fresh_length(k: usize) -> String {
    format!("{}", 10.0 + k as f64 * 1e-6)
}

fn reuse_request(id: String, evaluator: &'static str, lengths: Vec<String>) -> GenRequest {
    GenRequest::new(id, evaluator, &[], ("line_length_mm", lengths))
}

/// The `reuse_closed` warm-up: every hot scenario of every evaluator once,
/// in requests of [`REUSE_WARMUP_CELLS`] cells, sent before measuring.
pub fn reuse_warmup() -> Vec<GenRequest> {
    CLOSED_FORM
        .iter()
        .flat_map(|&(evaluator, _)| {
            (0..REUSE_HOT / REUSE_WARMUP_CELLS).map(move |k| {
                let ranks = k * REUSE_WARMUP_CELLS + 1..=(k + 1) * REUSE_WARMUP_CELLS;
                reuse_request(
                    format!("rw-{evaluator}-{k}"),
                    evaluator,
                    ranks.map(hot_length).collect(),
                )
            })
        })
        .collect()
}

/// The `reuse_closed` stream: 16–256-cell sweeps of one closed-form
/// evaluator each, whose cells are distinct Zipf draws — a hot scenario
/// (a memo read) or a fresh one (a memo write).
///
/// Like [`ColdStream`], it has no end. It keeps only the requests generated
/// but not yet handed out, since a run at the daemon's full rate asks for
/// tens of thousands of them; [`ReuseStream::get`] gives each index once.
pub struct ReuseStream {
    rng: Rng,
    fresh: usize,
    next: usize,
    pending: std::collections::BTreeMap<usize, GenRequest>,
}

impl ReuseStream {
    /// The stream of `seed`, nothing generated yet.
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng::new(seed, "reuse_closed"), fresh: 0, next: 0, pending: Default::default() }
    }

    /// Request `i`, generating up to it as needed. Each index is handed out
    /// once; asking again for one already given out is a bug.
    pub fn get(&mut self, i: usize) -> GenRequest {
        while self.next <= i {
            let request = self.generate();
            self.pending.insert(self.next, request);
            self.next += 1;
        }
        self.pending.remove(&i).expect("each reuse_closed request is taken once")
    }

    /// The first `count` requests.
    pub fn take(mut self, count: usize) -> Vec<GenRequest> {
        (0..count).map(|i| self.get(i)).collect()
    }

    fn generate(&mut self) -> GenRequest {
        let weights: Vec<f64> = CLOSED_FORM.iter().map(|&(_, w)| w).collect();
        let evaluator = CLOSED_FORM[self.rng.weighted(&weights)].0;
        let cells = self.rng.range(16, 256);
        let mut lengths = Vec::with_capacity(cells);
        let mut hot_in_request = HashSet::new();
        while lengths.len() < cells {
            let rank = self.rng.zipf(REUSE_UNIVERSE, REUSE_ZIPF_S);
            if rank > REUSE_HOT {
                lengths.push(fresh_length(self.fresh));
                self.fresh += 1;
            } else if hot_in_request.insert(rank) {
                lengths.push(hot_length(rank));
            }
        }
        reuse_request(format!("rc-{:05}", self.next), evaluator, lengths)
    }
}

/// The NDJSON text of a stream, one request per line.
pub fn dump(requests: &[GenRequest]) -> String {
    requests.iter().map(|r| format!("{}\n", r.line)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(dump(&cold_transient(3, 200)), dump(&cold_transient(3, 200)));
        assert_ne!(dump(&cold_transient(3, 200)), dump(&cold_transient(4, 200)));
        let a = ReuseStream::new(3).take(300);
        assert_eq!(dump(&a), dump(&ReuseStream::new(3).take(300)));
        assert_ne!(dump(&a), dump(&ReuseStream::new(4).take(300)));
        // Handing requests out in any order gives the same stream.
        let mut lazy = ReuseStream::new(3);
        let late = lazy.get(120);
        assert_eq!(late.line, a[120].line);
        assert_eq!(lazy.get(7).line, a[7].line);
    }

    #[test]
    fn cold_stream_never_repeats_a_scenario() {
        let stream = cold_transient(11, 2000);
        let mut keys = HashSet::new();
        for r in &stream {
            assert!((1..=3).contains(&r.cells()));
            for k in &r.cell_keys {
                assert!(keys.insert(k.clone()), "scenario {k} repeats");
            }
        }
    }

    #[test]
    fn a_long_closed_loop_cannot_exhaust_the_cold_stream() {
        // 100 000 requests is a 20 s run at 5000 req/s, hundreds of times
        // the rate the daemon sustains on 2 vCPUs; blocks keep coming after
        // that too.
        let mut stream = ColdStream::new(7);
        assert_eq!(stream.get(99_999).id, "ct-99999");
        assert_eq!(stream.get(150_000).id, "ct-150000");
        // Generating lazily, in any order, gives the same stream as up front.
        let eager = cold_transient(7, 300);
        let mut lazy = ColdStream::new(7);
        let late = lazy.get(299).line.clone();
        assert_eq!(late, eager[299].line);
        assert_eq!(dump(&lazy.take(300)), dump(&eager));
    }

    #[test]
    fn every_generated_line_is_a_valid_request() {
        use rlckit_server::request::{parse_line, Request};
        let reuse = ReuseStream::new(5).take(100);
        let cold = cold_transient(5, 100);
        for r in reuse_warmup().iter().chain(&reuse).chain(&cold) {
            match parse_line(&r.line) {
                Ok(Request::Evaluate(job)) => assert_eq!(job.cells.len(), r.cells()),
                _ => panic!("invalid request line {}", r.line),
            }
        }
    }

    #[test]
    fn reuse_cells_repeat_only_the_warmed_hot_set() {
        let hot: HashSet<String> =
            reuse_warmup().iter().flat_map(|r| r.cell_keys.clone()).collect();
        assert_eq!(hot.len(), CLOSED_FORM.len() * REUSE_HOT);
        let longest_hot: f64 = hot_length(REUSE_HOT).parse().unwrap();
        assert!(fresh_length(0).parse::<f64>().unwrap() > longest_hot);
        let mut fresh = HashSet::new();
        let (mut cells, mut hits) = (0, 0);
        for r in ReuseStream::new(9).take(2000) {
            assert!((16..=256).contains(&r.cells()));
            for k in &r.cell_keys {
                cells += 1;
                if hot.contains(k) {
                    hits += 1;
                } else {
                    assert!(fresh.insert(k.clone()), "fresh scenario {k} repeats");
                }
            }
        }
        let share = hits as f64 / cells as f64;
        assert!((0.68..0.78).contains(&share), "hot share {share}");
    }
}
