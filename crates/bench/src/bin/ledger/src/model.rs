//! The harness-side oracle: a naive evaluation of each workload's join over
//! the generated edges, rendered exactly as the server renders a body, and
//! the set model of `E` the write phases are checked against.

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::gen::{Edge, Rng};
use crate::wire::{fnv1a, Reply, FNV_OFFSET};
use crate::workload::Shape;

/// What a correct reply looks like: its data-row count and body hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub rows: u64,
    pub hash: u64,
}

impl Expected {
    pub fn matches(&self, reply: &Reply) -> bool {
        reply.status == Ok(self.rows) && reply.data_lines == self.rows && reply.hash == self.hash
    }
}

/// The join's rows, ascending in the query's attribute order.
pub fn join_rows(shape: Shape, edges: &[Edge]) -> Vec<[u32; 3]> {
    let mut out: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in edges {
        out.entry(a).or_default().push(b);
    }
    let set: HashSet<Edge> = edges.iter().copied().collect();
    let mut rows = Vec::new();
    for &(a, b) in edges {
        for &c in out.get(&b).map_or(&[][..], Vec::as_slice) {
            if shape == Shape::TwoHop || set.contains(&(a, c)) {
                rows.push([a, b, c]);
            }
        }
    }
    rows.sort_unstable();
    rows
}

/// The body the server must send for `rows` under `header`: `|`-prefixed
/// header line, then tab-separated rows.
pub fn render_body(header: &str, rows: &[[u32; 3]]) -> Vec<u8> {
    let mut body = format!("|{header}\n").into_bytes();
    for [a, b, c] in rows {
        body.extend_from_slice(format!("|{a}\t{b}\t{c}\n").as_bytes());
    }
    body
}

pub fn expected(shape: Shape, header: &str, edges: &[Edge]) -> Expected {
    let rows = join_rows(shape, edges);
    Expected {
        rows: rows.len() as u64,
        hash: fnv1a(FNV_OFFSET, &render_body(header, &rows)),
    }
}

/// Parses the data rows of a kept body (`|a\tb…` lines, `|#` lines
/// skipped). `None` on any malformed line.
pub fn parse_rows(body: &[u8]) -> Option<Vec<Vec<u32>>> {
    let text = std::str::from_utf8(body).ok()?;
    text.lines()
        .filter(|l| !l.starts_with("|#"))
        .map(|l| {
            l.strip_prefix('|')?
                .split('\t')
                .map(|c| c.parse().ok())
                .collect()
        })
        .collect()
}

/// Checks a `limit=k` prefix of the 2-hop join structurally (which prefix
/// the server streams depends on its attribute order, so there is no one
/// expected body): header, exactly `k` distinct rows, each a real path, and
/// the truncation marker.
pub fn is_valid_two_hop_page(body: &[u8], header: &str, k: u64, edges: &HashSet<Edge>) -> bool {
    let text = String::from_utf8_lossy(body);
    let marker = format!("|# … output truncated at {k}");
    let Some(rows) = parse_rows(body) else {
        return false;
    };
    let distinct: HashSet<&Vec<u32>> = rows.iter().collect();
    text.lines().next() == Some(&format!("|{header}"))
        && text.lines().last() == Some(&marker)
        && rows.len() as u64 == k
        && distinct.len() == rows.len()
        && rows
            .iter()
            .all(|r| r.len() == 3 && edges.contains(&(r[0], r[1])) && edges.contains(&(r[1], r[2])))
}

/// True when the kept body's rows ascend strictly — the integrity check on
/// reads whose exact snapshot the harness cannot know (a writer is running).
pub fn rows_ascend(body: &[u8]) -> bool {
    parse_rows(body).is_some_and(|rows| rows.windows(2).all(|w| w[0] < w[1]))
}

/// One paced write and the wire line that performs it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOp {
    pub insert: bool,
    pub edge: Edge,
}

impl WriteOp {
    pub fn line(&self, relation: &str) -> String {
        let verb = if self.insert { "INSERT" } else { "DELETE" };
        format!("W {verb} {relation} {} {}", self.edge.0, self.edge.1)
    }
}

/// The set model of one relation under writes.
pub struct Model {
    live: Vec<Edge>,
    set: HashSet<Edge>,
    nodes: u32,
}

impl Model {
    pub fn new(edges: &[Edge], nodes: u32) -> Self {
        Model {
            live: edges.to_vec(),
            set: edges.iter().copied().collect(),
            nodes,
        }
    }

    /// Draws the next `count` writes — alternately an insert of an edge not
    /// present and a delete of a live one, so the size stays steady and
    /// every write answers `OK 1` — and applies them to the model.
    pub fn schedule(&mut self, rng: &mut Rng, count: usize) -> Vec<WriteOp> {
        (0..count)
            .map(|i| {
                let op = if i % 2 == 0 || self.live.is_empty() {
                    let edge = loop {
                        let e = (
                            rng.below(self.nodes as u64) as u32,
                            rng.below(self.nodes as u64) as u32,
                        );
                        if e.0 != e.1 && !self.set.contains(&e) {
                            break e;
                        }
                    };
                    WriteOp { insert: true, edge }
                } else {
                    let edge = self.live[rng.below(self.live.len() as u64) as usize];
                    WriteOp {
                        insert: false,
                        edge,
                    }
                };
                self.apply(&op);
                op
            })
            .collect()
    }

    /// Applies one write under set semantics.
    pub fn apply(&mut self, op: &WriteOp) {
        if op.insert {
            if self.set.insert(op.edge) {
                self.live.push(op.edge);
            }
        } else if self.set.remove(&op.edge) {
            let at = self.live.iter().position(|e| *e == op.edge);
            self.live.swap_remove(at.expect("live mirrors set"));
        }
    }

    pub fn edges(&self) -> Vec<Edge> {
        let mut v = self.live.clone();
        v.sort_unstable();
        v
    }

    /// Rows missing from plus rows extra in a kept `Q E(x,y)` body, against
    /// the model; a malformed body counts as every row missing.
    pub fn diff(&self, body: &[u8]) -> u64 {
        let Some(rows) = parse_rows(body) else {
            return self.live.len() as u64;
        };
        let got: BTreeSet<Edge> = rows
            .iter()
            .filter(|r| r.len() == 2)
            .map(|r| (r[0], r[1]))
            .collect();
        let missing = self.set.iter().filter(|e| !got.contains(e)).count();
        let extra = rows.len() - got.iter().filter(|e| self.set.contains(e)).count();
        (missing + extra) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: [Edge; 5] = [(1, 2), (1, 3), (2, 3), (3, 4), (2, 4)];

    #[test]
    fn joins_and_rendering() {
        assert_eq!(join_rows(Shape::Triangle, &G), vec![[1, 2, 3], [2, 3, 4]]);
        assert_eq!(
            join_rows(Shape::TwoHop, &G),
            vec![[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]
        );
        assert_eq!(
            render_body("# a\tb\tc", &[[1, 2, 3]]),
            b"|# a\tb\tc\n|1\t2\t3\n"
        );
        assert_eq!(expected(Shape::Triangle, "# a\tb\tc", &G).rows, 2);
    }

    #[test]
    fn page_check_rejects_fake_duplicate_and_short_pages() {
        let set: HashSet<Edge> = G.iter().copied().collect();
        let good = "|# x\ty\tz\n|1\t2\t3\n|2\t3\t4\n|# … output truncated at 2\n";
        assert!(is_valid_two_hop_page(good.as_bytes(), "# x\ty\tz", 2, &set));
        let fake = good.replace("2\t3\t4", "2\t3\t9");
        assert!(!is_valid_two_hop_page(
            fake.as_bytes(),
            "# x\ty\tz",
            2,
            &set
        ));
        let dup = good.replace("2\t3\t4", "1\t2\t3");
        assert!(!is_valid_two_hop_page(dup.as_bytes(), "# x\ty\tz", 2, &set));
        assert!(!is_valid_two_hop_page(
            good.as_bytes(),
            "# x\ty\tz",
            3,
            &set
        ));
        assert!(rows_ascend(good.as_bytes()) && !rows_ascend(dup.as_bytes()));
    }

    #[test]
    fn schedule_alternates_and_the_diff_counts_both_directions() {
        let mut model = Model::new(&G, 10);
        let ops = model.schedule(&mut Rng::new(1), 6);
        assert!(ops.iter().step_by(2).all(|o| o.insert));
        assert!(ops.iter().skip(1).step_by(2).all(|o| !o.insert));
        assert_eq!(model.edges().len(), G.len(), "steady size");
        assert_eq!(
            ops[0].line("E"),
            format!("W INSERT E {} {}", ops[0].edge.0, ops[0].edge.1)
        );

        let model = Model::new(&G, 10);
        let exact = "|# x\ty\n|1\t2\n|1\t3\n|2\t3\n|2\t4\n|3\t4\n";
        assert_eq!(model.diff(exact.as_bytes()), 0);
        let one_missing_one_extra = exact.replace("|3\t4\n", "|9\t9\n");
        assert_eq!(model.diff(one_missing_one_extra.as_bytes()), 2);
        assert_eq!(model.diff(b"|garbage\n"), 5);
    }
}
