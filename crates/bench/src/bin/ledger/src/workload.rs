//! The four workloads: what each loads, sends, and is checked against.
//! The `why` strings are the ones `BENCHMARK.json` records.

use crate::gen::{chung_lu_graph, uniform_graph, Edge, Rng};

pub enum Graph {
    /// Power-law Chung–Lu graph, edges oriented low → high.
    ChungLu {
        nodes: u32,
        edges: usize,
        gamma: f64,
    },
    /// Uniform random directed graph.
    Uniform { nodes: u32, edges: usize },
}

/// The join a workload's request computes, for the harness-side oracle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// `R(a,b), S(b,c), T(a,c)` over one edge set.
    Triangle,
    /// `E(x,y), E(y,z)`.
    TwoHop,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: Graph,
    /// Relation names the generated graph is loaded under.
    pub relations: &'static [&'static str],
    /// `(name, nodes)`: also load the subgraph induced on the first `nodes`
    /// node ids under `name` — the instance the LFTJ ratio runs on when the
    /// workload's own request is a `limit` prefix LFTJ cannot stream.
    pub sample: Option<(&'static str, u32)>,
    /// Lines sent once on every new connection (`PREPARE …`).
    pub prepare: &'static [&'static str],
    /// The measured request.
    pub request: &'static str,
    /// `Some(k)` when `request` asks for the first `k` rows only.
    pub limit: Option<u64>,
    /// The same full query with the default engine and with
    /// `algo=leapfrog`: the oracle cross-check and the `ms_over_lftj` pair.
    pub default_request: &'static str,
    pub lftj_request: &'static str,
    pub shape: Shape,
    /// Header line of every answer body.
    pub header: &'static str,
    /// Durable server whose paced writer targets the relation being read, so
    /// every read re-plans; elsewhere the server is in-memory and the writer
    /// targets the scratch relation, which no query touches.
    pub write_mix: bool,
    /// Requests the traced pass replays in-process.
    pub traced_requests: usize,
}

/// Rate of the paced writer, writes per second.
pub const WRITE_RATE: u64 = 200;
/// The relation the read-only workloads' writer targets.
pub const SCRATCH: &str = "W";

pub const ALL: [Workload; 4] = [
    Workload {
        name: "triangle_list",
        why: "cyclic query, General-mode CDS, few output rows: cds does nearly all the work, \
              render and server nearly none",
        graph: Graph::ChungLu {
            nodes: 200,
            edges: 1_600,
            gamma: 2.3,
        },
        relations: &["R", "S", "T"],
        sample: None,
        prepare: &[],
        request: "Q R(a,b), S(b,c), T(a,c)",
        limit: None,
        default_request: "Q R(a,b), S(b,c), T(a,c)",
        lftj_request: "Q algo=leapfrog R(a,b), S(b,c), T(a,c)",
        shape: Shape::Triangle,
        header: "# a\tb\tc",
        write_mix: false,
        traced_requests: 30,
    },
    Workload {
        name: "path_scan",
        why: "prepared acyclic 2-hop, output-dominated: per-row allocation, render, flushing and \
              the post-reindex sort do the work, parse and plan none",
        graph: Graph::Uniform {
            nodes: 900,
            edges: 2_000,
        },
        relations: &["E"],
        sample: None,
        prepare: &[
            "PREPARE hot -- E(x,y), E(y,z)",
            "PREPARE lftj algo=leapfrog -- E(x,y), E(y,z)",
        ],
        request: "EXEC hot",
        limit: None,
        default_request: "EXEC hot",
        lftj_request: "EXEC lftj",
        shape: Shape::TwoHop,
        header: "# x\ty\tz",
        write_mix: false,
        traced_requests: 30,
    },
    Workload {
        name: "first_page",
        why: "limit=64 over 1M edges: early termination makes the work independent of N; the \
              smallest request, so per-request costs (parse, plan cache, stream open, wire) weigh \
              most here",
        graph: Graph::Uniform {
            nodes: 250_000,
            edges: 1_000_000,
        },
        relations: &["E"],
        sample: Some(("P", 16_384)),
        prepare: &[],
        request: "Q limit=64 E(x,y), E(y,z)",
        limit: Some(64),
        default_request: "Q P(x,y), P(y,z)",
        lftj_request: "Q algo=leapfrog P(x,y), P(y,z)",
        shape: Shape::TwoHop,
        header: "# x\ty\tz",
        write_mix: false,
        traced_requests: 2_000,
    },
    Workload {
        name: "write_mix",
        why: "durable server, paced open-loop writer beside a closed-loop reader: every read \
              re-plans against a new version; compaction, WAL and checkpoints run",
        graph: Graph::Uniform {
            nodes: 400,
            edges: 1_400,
        },
        relations: &["E"],
        sample: None,
        prepare: &[
            "PREPARE hot -- E(x,y), E(y,z)",
            "PREPARE lftj algo=leapfrog -- E(x,y), E(y,z)",
        ],
        request: "EXEC hot",
        limit: None,
        default_request: "EXEC hot",
        lftj_request: "EXEC lftj",
        shape: Shape::TwoHop,
        header: "# x\ty\tz",
        write_mix: true,
        traced_requests: 30,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's graph for `seed`.
    pub fn edges(&self, seed: u64) -> Vec<Edge> {
        let mut rng = Rng::new(seed);
        match self.graph {
            Graph::ChungLu {
                nodes,
                edges,
                gamma,
            } => chung_lu_graph(&mut rng, nodes, edges, gamma),
            Graph::Uniform { nodes, edges } => uniform_graph(&mut rng, nodes, edges),
        }
    }

    pub fn nodes(&self) -> u32 {
        match self.graph {
            Graph::ChungLu { nodes, .. } | Graph::Uniform { nodes, .. } => nodes,
        }
    }
}
