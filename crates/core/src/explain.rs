//! Structured, serializable plan explanations.
//!
//! [`ExplainPlan`] is the machine-readable form of every decision a
//! [`crate::Plan`] made (GAO, probe mode, elimination width, re-index
//! need, runtime bound) plus the execution-level context an engine layers
//! on top (attribute/relation names, shard strategy, plan-cache
//! hit/miss). The human-readable string [`crate::Plan::explain`] and the
//! CLI's `--explain` output are both *rendered from* this structure
//! ([`ExplainPlan::render`]); `--explain-json` serializes it with
//! [`ExplainPlan::to_json`] (hand-rolled — this workspace builds offline,
//! so no serde).

use minesweeper_cds::ProbeMode;

/// One atom of the explained query: its GAO attribute positions, plus the
/// relation name when the explaining layer knows the catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainAtom {
    /// Relation name (filled by layers that hold the catalog; `None` from
    /// a bare [`crate::Plan::explain_plan`]).
    pub relation: Option<String>,
    /// The atom's attribute positions in the *original* numbering.
    pub attrs: Vec<usize>,
}

/// The parallel strategy attached by a sharded executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainShards {
    /// Worker-thread count.
    pub threads: usize,
    /// Number of shard tasks the split produced against the bound
    /// database (tasks can exceed workers — a worker that finishes early
    /// claims the next one).
    pub tasks: usize,
    /// Partitioning strategy variant: `"equi-depth"` (plain first-
    /// attribute split, one task per worker), `"nested"` (a heavy
    /// duplicate run was additionally split on the second GAO
    /// attribute), or `"oversplit"` (more tasks than workers). See
    /// [`crate::shard_strategy`].
    pub strategy: String,
    /// Human description of the shard pipeline.
    pub detail: String,
}

/// Physical leaf-representation summary attached by layers that hold the
/// catalog (see `minesweeper_storage::LeafPolicy` and the hybrid
/// `BitLeafRelation`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainStorage {
    /// Leaf policy label: `"sorted"`, `"auto"`, or `"dense"`.
    pub leaf: String,
    /// Packed bitset runs across the relations the query touches.
    pub dense_leaves: u64,
    /// Total `u64` words those runs hold.
    pub bitset_words: u64,
}

/// Plan-cache provenance attached by an engine front door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainCache {
    /// True when the plan (and any re-indexed relations) came from the
    /// engine's statement cache rather than being built for this call.
    pub hit: bool,
    /// Stable identity of the cached plan: two statements whose explain
    /// reports the same `plan_id` share one plan and one set of
    /// re-indexed indexes.
    pub plan_id: u64,
}

/// A structured description of a plan (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainPlan {
    /// Evaluator name (`"minesweeper"` for the planned engine).
    pub algorithm: String,
    /// Number of attributes in the query.
    pub n_attrs: usize,
    /// Attribute names in original-numbering order, when known.
    pub attr_names: Option<Vec<String>>,
    /// The query's atoms.
    pub atoms: Vec<ExplainAtom>,
    /// `gao_order[i]` = original attribute at GAO position `i`.
    pub gao_order: Vec<usize>,
    /// The probe mode the GAO supports.
    pub probe_mode: ProbeMode,
    /// Elimination width of the chosen order.
    pub width: usize,
    /// True when execution must build re-indexed copies of the stored
    /// relations (the GAO is not the identity).
    pub reindexed: bool,
    /// The paper's runtime bound for this plan, e.g. `Õ(|C| + Z)`.
    pub runtime_bound: String,
    /// Parallel strategy, when a sharded executor will run the plan.
    pub shards: Option<ExplainShards>,
    /// Plan-cache provenance, when an engine front door produced this.
    pub cache: Option<ExplainCache>,
    /// Leaf-representation summary, when a catalog-holding layer produced
    /// this.
    pub storage: Option<ExplainStorage>,
}

impl ExplainPlan {
    /// Short lowercase name of the probe mode (`"chain"` / `"general"`).
    pub fn probe_mode_name(&self) -> &'static str {
        match self.probe_mode {
            ProbeMode::Chain => "chain",
            ProbeMode::General => "general",
        }
    }

    /// The longer probe-mode description used in rendered output.
    pub fn probe_mode_detail(&self) -> &'static str {
        match self.probe_mode {
            ProbeMode::Chain => "chain (nested elimination order, β-acyclic)",
            ProbeMode::General => "general (minimum elimination width order)",
        }
    }

    /// Renders the human-readable explanation the CLI and
    /// [`crate::Plan::explain`] print. Without attribute names the layout
    /// is positional (the historical `Plan::explain` string); with names
    /// it leads with the `query:` / `gao:` lines and drops the positional
    /// duplicates — the shape `msj --explain` has always printed.
    pub fn render(&self) -> String {
        let named = self.attr_names.is_some();
        let name_of = |a: usize| -> String {
            match &self.attr_names {
                Some(names) => names.get(a).cloned().unwrap_or_else(|| "?".to_string()),
                None => a.to_string(),
            }
        };
        let mut lines: Vec<String> = Vec::new();
        if named {
            let atoms: Vec<String> = self
                .atoms
                .iter()
                .map(|atom| {
                    let attrs: Vec<String> = atom.attrs.iter().map(|&a| name_of(a)).collect();
                    format!(
                        "{}({})",
                        atom.relation.as_deref().unwrap_or("?"),
                        attrs.join(", ")
                    )
                })
                .collect();
            let order: Vec<String> = self.gao_order.iter().map(|&a| name_of(a)).collect();
            let reindex = if self.reindexed {
                "re-indexed copies built at execution"
            } else {
                "stored indexes used directly"
            };
            lines.push(format!("query: {}", atoms.join(" ⋈ ")));
            lines.push(format!("gao: {}  ({reindex})", order.join(", ")));
        }
        lines.push(format!("plan: {}", self.algorithm));
        lines.push(format!("attributes: {}", self.n_attrs));
        if !named {
            let atoms: Vec<String> = self
                .atoms
                .iter()
                .map(|a| format!("{:?}", a.attrs))
                .collect();
            lines.push(format!("atoms (GAO positions): {}", atoms.join(" ")));
            lines.push(format!("gao order: {:?}", self.gao_order));
        }
        lines.push(format!("probe mode: {}", self.probe_mode_detail()));
        lines.push(format!("elimination width: {}", self.width));
        if !named {
            let indexes = if self.reindexed {
                format!("re-index {} atom(s) to match the GAO", self.atoms.len())
            } else {
                "stored indexes already consistent with the GAO".to_string()
            };
            lines.push(format!("indexes: {indexes}"));
        }
        lines.push(format!("runtime bound: {}", self.runtime_bound));
        if let Some(s) = &self.storage {
            lines.push(format!(
                "storage: leaf policy {} ({} dense leaves, {} bitset words)",
                s.leaf, s.dense_leaves, s.bitset_words
            ));
        }
        if let Some(c) = &self.cache {
            lines.push(format!(
                "cache: {} (plan {})",
                if c.hit { "hit" } else { "miss" },
                c.plan_id
            ));
        }
        if let Some(s) = &self.shards {
            lines.push(format!(
                "parallel: up to {} worker(s), {} shard task(s), strategy {} — {}",
                s.threads, s.tasks, s.strategy, s.detail
            ));
        }
        lines.join("\n")
    }

    /// Serializes the full structure as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("algorithm", &self.algorithm);
        o.num("n_attrs", self.n_attrs as f64);
        match &self.attr_names {
            Some(names) => o.raw(
                "attr_names",
                &json_array(names.iter().map(|n| json_string(n))),
            ),
            None => o.raw("attr_names", "null"),
        }
        o.raw(
            "atoms",
            &json_array(self.atoms.iter().map(|a| {
                let mut ao = JsonObj::new();
                match &a.relation {
                    Some(r) => ao.str("relation", r),
                    None => ao.raw("relation", "null"),
                }
                ao.raw("attrs", &json_array(a.attrs.iter().map(|x| x.to_string())));
                ao.finish()
            })),
        );
        o.raw(
            "gao_order",
            &json_array(self.gao_order.iter().map(|x| x.to_string())),
        );
        o.str("probe_mode", self.probe_mode_name());
        o.num("width", self.width as f64);
        o.bool("reindexed", self.reindexed);
        o.str("runtime_bound", &self.runtime_bound);
        match &self.shards {
            Some(s) => {
                let mut so = JsonObj::new();
                so.num("threads", s.threads as f64);
                so.num("tasks", s.tasks as f64);
                so.str("strategy", &s.strategy);
                so.str("detail", &s.detail);
                o.raw("shards", &so.finish());
            }
            None => o.raw("shards", "null"),
        }
        match &self.cache {
            Some(c) => {
                let mut co = JsonObj::new();
                co.bool("hit", c.hit);
                co.num("plan_id", c.plan_id as f64);
                o.raw("cache", &co.finish());
            }
            None => o.raw("cache", "null"),
        }
        match &self.storage {
            Some(s) => {
                let mut so = JsonObj::new();
                so.str("leaf", &s.leaf);
                so.num("dense_leaves", s.dense_leaves as f64);
                so.num("bitset_words", s.bitset_words as f64);
                o.raw("storage", &so.finish());
            }
            None => o.raw("storage", "null"),
        }
        o.finish()
    }
}

/// Escapes and quotes a string for JSON — shared by [`ExplainPlan::to_json`]
/// and any caller hand-assembling small JSON fragments around it (e.g. the
/// CLI's baseline `--explain-json` object).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// Minimal ordered JSON-object builder.
struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    fn new() -> Self {
        JsonObj { fields: Vec::new() }
    }

    fn str(&mut self, k: &str, v: &str) {
        self.fields.push((k.to_string(), json_string(v)));
    }

    fn num(&mut self, k: &str, v: f64) {
        let rendered = if v.fract() == 0.0 && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        };
        self.fields.push((k.to_string(), rendered));
    }

    fn bool(&mut self, k: &str, v: bool) {
        self.fields.push((k.to_string(), v.to_string()));
    }

    fn raw(&mut self, k: &str, v: &str) {
        self.fields.push((k.to_string(), v.to_string()));
    }

    fn finish(self) -> String {
        let body: Vec<String> = self
            .fields
            .into_iter()
            .map(|(k, v)| format!("{}:{v}", json_string(&k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExplainPlan {
        ExplainPlan {
            algorithm: "minesweeper".to_string(),
            n_attrs: 3,
            attr_names: None,
            atoms: vec![
                ExplainAtom {
                    relation: None,
                    attrs: vec![0, 1],
                },
                ExplainAtom {
                    relation: None,
                    attrs: vec![1, 2],
                },
            ],
            gao_order: vec![0, 1, 2],
            probe_mode: ProbeMode::Chain,
            width: 1,
            reindexed: false,
            runtime_bound: "Õ(|C| + Z)  [Theorem 2.7]".to_string(),
            shards: None,
            cache: None,
            storage: None,
        }
    }

    #[test]
    fn render_has_stable_line_prefixes() {
        let text = sample().render();
        for prefix in [
            "plan: ",
            "attributes: ",
            "atoms (GAO positions): ",
            "gao order: ",
            "probe mode: ",
            "elimination width: ",
            "indexes: ",
            "runtime bound: ",
        ] {
            assert!(
                text.lines().any(|l| l.starts_with(prefix)),
                "missing {prefix:?} in {text}"
            );
        }
        assert!(text.contains("chain"));
    }

    #[test]
    fn render_with_names_cache_and_shards() {
        let mut e = sample();
        e.attr_names = Some(vec!["x".into(), "y".into(), "z".into()]);
        e.atoms[0].relation = Some("R".into());
        e.atoms[1].relation = Some("S".into());
        e.cache = Some(ExplainCache {
            hit: true,
            plan_id: 7,
        });
        e.shards = Some(ExplainShards {
            threads: 4,
            tasks: 8,
            strategy: "oversplit".into(),
            detail: "equi-depth shard tasks of the first GAO attribute".into(),
        });
        let text = e.render();
        assert!(text.starts_with("query: R(x, y) ⋈ S(y, z)"), "{text}");
        assert!(text.contains("gao: x, y, z"), "{text}");
        assert!(text.contains("cache: hit (plan 7)"), "{text}");
        assert!(
            text.contains(
                "parallel: up to 4 worker(s), 8 shard task(s), strategy oversplit \
                 — equi-depth shard tasks"
            ),
            "{text}"
        );
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut e = sample();
        e.attr_names = Some(vec!["x".into(), "y\"q".into(), "z".into()]);
        e.cache = Some(ExplainCache {
            hit: false,
            plan_id: 1,
        });
        let json = e.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"algorithm\":\"minesweeper\""), "{json}");
        assert!(json.contains("\"probe_mode\":\"chain\""), "{json}");
        assert!(json.contains("\"gao_order\":[0,1,2]"), "{json}");
        assert!(json.contains("\"reindexed\":false"), "{json}");
        assert!(json.contains("\"hit\":false"), "{json}");
        assert!(json.contains("\"y\\\"q\""), "escaped quote: {json}");
        assert!(json.contains("\"shards\":null"), "{json}");
        assert!(json.contains("\"storage\":null"), "{json}");
        // Balanced braces/brackets (cheap well-formedness proxy).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn storage_field_renders_and_serializes() {
        let mut e = sample();
        e.storage = Some(ExplainStorage {
            leaf: "auto".into(),
            dense_leaves: 3,
            bitset_words: 17,
        });
        let text = e.render();
        assert!(
            text.contains("storage: leaf policy auto (3 dense leaves, 17 bitset words)"),
            "{text}"
        );
        let json = e.to_json();
        assert!(
            json.contains("\"storage\":{\"leaf\":\"auto\",\"dense_leaves\":3,\"bitset_words\":17}"),
            "{json}"
        );
    }

    #[test]
    fn probe_mode_names() {
        let mut e = sample();
        assert_eq!(e.probe_mode_name(), "chain");
        e.probe_mode = ProbeMode::General;
        assert_eq!(e.probe_mode_name(), "general");
        assert!(e.probe_mode_detail().contains("minimum elimination width"));
    }
}
