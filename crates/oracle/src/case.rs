//! Self-contained, replayable fuzz cases.
//!
//! A [`Case`] is everything needed to reproduce one differential-testing
//! run bit-for-bit: the base graph (explicit edges and labels, so the
//! shrinker can drop them one by one), the update schedule (a sequence of
//! `ΔG` batches) and the query classes under test with their parameters.
//! Cases serialize to a line-oriented plain-text format (no external
//! deps, diff-friendly in `tests/corpus/`) and parse back losslessly:
//!
//! ```text
//! # free-form comment lines
//! incgraph-case v1
//! seed 42                      # provenance only; replay never re-derives
//! directed 1
//! nodes 8
//! labels 0 1 0 2 1 0 0 1       # optional; omitted => all zero
//! source 3                     # sssp/reach query source
//! pattern-labels 0 1           # only when sim is under test
//! pattern-edge 0 1
//! classes sssp,cc,sim,reach,lcc,dfs,bc
//! plan d = sssp(source=3); n = count(d)   # optional dataflow-oracle plan
//! edge 0 1 5                   # base graph: src dst weight
//! batch                        # schedule: batches of +/- ops
//! + 0 2 3
//! - 1 2
//! end
//! ```

use crate::runner::{ClassId, Fault};
use incgraph_durable::CrashPoint;
use incgraph_graph::{DynamicGraph, Label, NodeId, Pattern, UpdateBatch, Weight};
use std::fmt::Write as _;

/// A parse failure with line context.
#[derive(Debug)]
pub struct CaseParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CaseParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CaseParseError {}

/// One replayable differential-testing case.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    /// Seed the generator derived this case from (provenance only — the
    /// case is self-contained and replay never re-derives from it).
    pub seed: u64,
    /// Whether the base graph is directed.
    pub directed: bool,
    /// Node count of the base graph.
    pub nodes: usize,
    /// Node labels; `None` means all-zero.
    pub labels: Option<Vec<Label>>,
    /// Base graph edges `(src, dst, weight)` in insertion order.
    pub edges: Vec<(NodeId, NodeId, Weight)>,
    /// The update schedule: batches applied in order.
    pub schedule: Vec<UpdateBatch>,
    /// Query classes under test.
    pub classes: Vec<ClassId>,
    /// Source node for SSSP/Reach.
    pub source: NodeId,
    /// Simulation pattern, required iff `classes` contains `sim`.
    pub pattern: Option<Pattern>,
    /// Fault to inject on replay. `Some` marks an intentional-fault
    /// reproducer (expected to *fail*, proving the oracles still have
    /// teeth); `None` marks a real-divergence regression case (expected
    /// to *pass* once the bug is fixed).
    pub fault: Option<Fault>,
    /// When set, replay runs the crash-recovery oracle
    /// ([`run_crash_case`](crate::crash::run_crash_case)) at this
    /// injection point instead of sweeping all four.
    pub crash_at: Option<CrashPoint>,
    /// Also drive the micro-batch coalescing oracle: a fourth session
    /// per class sees the schedule's ΔG batches merged through
    /// [`coalesce_batches`](incgraph_core::coalesce_batches) every couple
    /// of rounds and must still match the batch ground truth. Stamped into
    /// corpus files so coalesce-mode reproducers replay in coalesce mode.
    pub coalesce: bool,
    /// An `incgraph-plan/1` program to drive the dataflow oracle with:
    /// a standing [`DataflowSession`](incgraph_dataflow::DataflowSession)
    /// follows the schedule and must land on exactly the view a fresh
    /// plan evaluation computes on every intermediate graph. Validated
    /// at parse time against [`Plan::parse`](incgraph_dataflow::Plan).
    pub plan: Option<String>,
}

impl Case {
    /// Materializes the base graph.
    pub fn build_graph(&self) -> DynamicGraph {
        let mut g = match &self.labels {
            Some(labels) => {
                debug_assert_eq!(labels.len(), self.nodes);
                DynamicGraph::with_labels(self.directed, labels.clone())
            }
            None => DynamicGraph::new(self.directed, self.nodes),
        };
        for &(u, v, w) in &self.edges {
            g.insert_edge(u, v, w);
        }
        g
    }

    /// Total unit updates across the schedule.
    pub fn schedule_len(&self) -> usize {
        self.schedule.iter().map(|b| b.len()).sum()
    }

    /// Renders the case file, prefixed by `comments` (one `#` line each).
    pub fn render(&self, comments: &[String]) -> String {
        let mut out = String::new();
        for c in comments {
            let _ = writeln!(out, "# {c}");
        }
        let _ = writeln!(out, "incgraph-case v1");
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "directed {}", self.directed as u8);
        let _ = writeln!(out, "nodes {}", self.nodes);
        if let Some(labels) = &self.labels {
            let rendered: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
            let _ = writeln!(out, "labels {}", rendered.join(" "));
        }
        let _ = writeln!(out, "source {}", self.source);
        if let Some(p) = &self.pattern {
            let labels: Vec<String> = (0..p.node_count())
                .map(|u| p.label(u).to_string())
                .collect();
            let _ = writeln!(out, "pattern-labels {}", labels.join(" "));
            for (a, b) in p.edges() {
                let _ = writeln!(out, "pattern-edge {a} {b}");
            }
        }
        let classes: Vec<&str> = self.classes.iter().map(|c| c.name()).collect();
        let _ = writeln!(out, "classes {}", classes.join(","));
        if let Some(fault) = self.fault {
            let _ = writeln!(out, "inject-fault {}", fault.name());
        }
        if let Some(point) = self.crash_at {
            let _ = writeln!(out, "crash-at {}", point.name());
        }
        if self.coalesce {
            let _ = writeln!(out, "coalesce 1");
        }
        if let Some(plan) = &self.plan {
            let _ = writeln!(out, "plan {plan}");
        }
        for &(u, v, w) in &self.edges {
            let _ = writeln!(out, "edge {u} {v} {w}");
        }
        for batch in &self.schedule {
            let _ = writeln!(out, "batch");
            for u in batch.updates() {
                match *u {
                    incgraph_graph::Update::Insert { src, dst, weight } => {
                        let _ = writeln!(out, "+ {src} {dst} {weight}");
                    }
                    incgraph_graph::Update::Delete { src, dst } => {
                        let _ = writeln!(out, "- {src} {dst}");
                    }
                }
            }
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parses a case file.
    pub fn parse(text: &str) -> Result<Case, CaseParseError> {
        let err = |line: usize, message: String| CaseParseError { line, message };
        let mut seed = 0u64;
        let mut directed = false;
        let mut nodes: Option<usize> = None;
        let mut labels: Option<Vec<Label>> = None;
        let mut edges: Vec<(NodeId, NodeId, Weight)> = Vec::new();
        let mut schedule: Vec<UpdateBatch> = Vec::new();
        let mut classes: Vec<ClassId> = Vec::new();
        let mut source: NodeId = 0;
        let mut pattern_labels: Option<Vec<Label>> = None;
        let mut pattern_edges: Vec<(usize, usize)> = Vec::new();
        let mut fault: Option<Fault> = None;
        let mut crash_at: Option<CrashPoint> = None;
        let mut coalesce = false;
        let mut plan: Option<String> = None;
        let mut saw_header = false;
        let mut saw_end = false;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if !saw_header {
                if line == "incgraph-case v1" {
                    saw_header = true;
                    continue;
                }
                return Err(err(lineno, "expected header `incgraph-case v1`".into()));
            }
            if saw_end {
                return Err(err(lineno, "content after `end`".into()));
            }
            let mut it = line.split_whitespace();
            let key = it.next().expect("non-empty trimmed line");
            let mut num = |what: &str| -> Result<u64, CaseParseError> {
                it.next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| err(lineno, format!("expected `{what}`")))
            };
            match key {
                "seed" => seed = num("seed <u64>")?,
                "directed" => directed = num("directed <0|1>")? != 0,
                "nodes" => nodes = Some(num("nodes <count>")? as usize),
                "source" => source = num("source <node>")? as NodeId,
                "labels" => {
                    let parsed: Result<Vec<Label>, _> = it.map(|t| t.parse()).collect();
                    labels = Some(parsed.map_err(|_| err(lineno, "bad label list".into()))?);
                }
                "pattern-labels" => {
                    let parsed: Result<Vec<Label>, _> = it.map(|t| t.parse()).collect();
                    pattern_labels =
                        Some(parsed.map_err(|_| err(lineno, "bad pattern labels".into()))?);
                }
                "pattern-edge" => {
                    let a = num("pattern-edge <a> <b>")? as usize;
                    let b = num("pattern-edge <a> <b>")? as usize;
                    pattern_edges.push((a, b));
                }
                "classes" => {
                    let list = it
                        .next()
                        .ok_or_else(|| err(lineno, "expected class list".into()))?;
                    for name in list.split(',') {
                        classes.push(
                            ClassId::from_name(name)
                                .ok_or_else(|| err(lineno, format!("unknown class `{name}`")))?,
                        );
                    }
                }
                "inject-fault" => {
                    let name = it
                        .next()
                        .ok_or_else(|| err(lineno, "expected fault name".into()))?;
                    fault = Some(
                        Fault::from_name(name)
                            .ok_or_else(|| err(lineno, format!("unknown fault `{name}`")))?,
                    );
                }
                "crash-at" => {
                    let name = it
                        .next()
                        .ok_or_else(|| err(lineno, "expected crash point name".into()))?;
                    crash_at = Some(
                        CrashPoint::parse(name)
                            .ok_or_else(|| err(lineno, format!("unknown crash point `{name}`")))?,
                    );
                }
                "coalesce" => coalesce = num("coalesce <0|1>")? != 0,
                "plan" => {
                    // The plan program is the raw remainder of the line
                    // (it contains spaces); validate it against the
                    // grammar so corpus typos fail loudly at parse time.
                    let text = line
                        .split_once(char::is_whitespace)
                        .map(|(_, rest)| rest.trim())
                        .filter(|t| !t.is_empty())
                        .ok_or_else(|| err(lineno, "expected plan text".into()))?;
                    incgraph_dataflow::Plan::parse(text)
                        .map_err(|e| err(lineno, format!("bad plan: {e}")))?;
                    plan = Some(text.to_string());
                }
                "edge" => {
                    let u = num("edge <u> <v> <w>")? as NodeId;
                    let v = num("edge <u> <v> <w>")? as NodeId;
                    let w = num("edge <u> <v> <w>")? as Weight;
                    edges.push((u, v, w));
                }
                "batch" => schedule.push(UpdateBatch::new()),
                "+" => {
                    let batch = schedule
                        .last_mut()
                        .ok_or_else(|| err(lineno, "`+` before any `batch`".into()))?;
                    let u = num("+ <u> <v> <w>")? as NodeId;
                    let v = num("+ <u> <v> <w>")? as NodeId;
                    let w = num("+ <u> <v> <w>")? as Weight;
                    batch.insert(u, v, w);
                }
                "-" => {
                    let batch = schedule
                        .last_mut()
                        .ok_or_else(|| err(lineno, "`-` before any `batch`".into()))?;
                    let u = num("- <u> <v>")? as NodeId;
                    let v = num("- <u> <v>")? as NodeId;
                    batch.delete(u, v);
                }
                "end" => saw_end = true,
                other => return Err(err(lineno, format!("unknown key `{other}`"))),
            }
        }
        if !saw_header {
            return Err(err(1, "missing header `incgraph-case v1`".into()));
        }
        if !saw_end {
            return Err(err(text.lines().count(), "missing `end`".into()));
        }
        let nodes = nodes.ok_or_else(|| err(1, "missing `nodes`".into()))?;
        if let Some(l) = &labels {
            if l.len() != nodes {
                return Err(err(1, format!("{} labels for {nodes} nodes", l.len())));
            }
        }
        if classes.is_empty() {
            return Err(err(1, "missing `classes`".into()));
        }
        let pattern = pattern_labels.map(|pl| Pattern::new(pl, &pattern_edges));
        if classes.contains(&ClassId::Sim) && pattern.is_none() {
            return Err(err(1, "class `sim` needs pattern-labels".into()));
        }
        if let Some(text) = &plan {
            let parsed = incgraph_dataflow::Plan::parse(text).expect("validated above");
            for s in parsed.sources() {
                if let incgraph_dataflow::Source::Class { class, .. } = s {
                    if class == ClassId::Sim && pattern.is_none() {
                        return Err(err(1, "plan uses `sim` but no pattern-labels".into()));
                    }
                    if directed && class.requires_undirected() {
                        return Err(err(
                            1,
                            format!("plan uses `{}` on a directed graph", class.name()),
                        ));
                    }
                }
            }
        }
        if directed {
            if let Some(c) = classes.iter().find(|c| c.requires_undirected()) {
                return Err(err(
                    1,
                    format!("class `{}` is undefined on directed graphs", c.name()),
                ));
            }
        }
        if (source as usize) >= nodes {
            return Err(err(1, format!("source {source} out of range")));
        }
        Ok(Case {
            seed,
            directed,
            nodes,
            labels,
            edges,
            schedule,
            classes,
            source,
            pattern,
            fault,
            crash_at,
            coalesce,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Case {
        let mut b1 = UpdateBatch::new();
        b1.insert(0, 2, 3).delete(1, 2);
        let mut b2 = UpdateBatch::new();
        b2.insert(3, 0, 1);
        Case {
            seed: 99,
            directed: true,
            nodes: 4,
            labels: Some(vec![0, 1, 0, 2]),
            edges: vec![(0, 1, 5), (1, 2, 1), (2, 3, 2)],
            schedule: vec![b1, b2],
            classes: vec![ClassId::Sssp, ClassId::Sim, ClassId::Dfs],
            source: 1,
            pattern: Some(Pattern::new(vec![0, 1], &[(0, 1)])),
            fault: Some(Fault::SkipOp),
            crash_at: Some(CrashPoint::WalPostFsync),
            coalesce: true,
            plan: Some("d = sssp(source=1); f = filter(d, val < 9); n = count(f)".into()),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let case = sample();
        let text = case.render(&["minimized from seed 99".into()]);
        let parsed = Case::parse(&text).expect("roundtrip parse");
        // Pattern lacks PartialEq; compare the rest plus pattern shape.
        assert_eq!(parsed.seed, case.seed);
        assert_eq!(parsed.directed, case.directed);
        assert_eq!(parsed.nodes, case.nodes);
        assert_eq!(parsed.labels, case.labels);
        assert_eq!(parsed.edges, case.edges);
        assert_eq!(parsed.schedule, case.schedule);
        assert_eq!(parsed.classes, case.classes);
        assert_eq!(parsed.source, case.source);
        assert_eq!(parsed.fault, case.fault);
        assert_eq!(parsed.crash_at, case.crash_at);
        assert_eq!(parsed.coalesce, case.coalesce);
        assert_eq!(parsed.plan, case.plan);
        let (p, q) = (parsed.pattern.unwrap(), case.pattern.unwrap());
        assert_eq!(p.node_count(), q.node_count());
        assert_eq!(p.edges().collect::<Vec<_>>(), q.edges().collect::<Vec<_>>());
        assert_eq!(p.label(0), q.label(0));
    }

    #[test]
    fn build_graph_matches_edges() {
        let case = sample();
        let g = case.build_graph();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert!(g.is_directed());
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.label(3), 2);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Case::parse("").is_err(), "empty file");
        assert!(Case::parse("incgraph-case v1\nend\n").is_err(), "no nodes");
        let no_end = "incgraph-case v1\nnodes 2\nclasses cc\n";
        assert!(Case::parse(no_end).is_err(), "missing end");
        let bad_class = "incgraph-case v1\nnodes 2\nclasses zap\nend\n";
        assert!(Case::parse(bad_class).is_err(), "unknown class");
        let op_outside = "incgraph-case v1\nnodes 2\nclasses cc\n+ 0 1 1\nend\n";
        assert!(Case::parse(op_outside).is_err(), "op before batch");
        let sim_no_pattern = "incgraph-case v1\nnodes 2\nclasses sim\nend\n";
        assert!(Case::parse(sim_no_pattern).is_err(), "sim needs pattern");
        let bad_plan = "incgraph-case v1\nnodes 2\nclasses cc\nplan x = zap(q)\nend\n";
        assert!(Case::parse(bad_plan).is_err(), "plan must parse");
        let sim_plan = "incgraph-case v1\nnodes 2\nclasses cc\nplan s = sim; n = count(s)\nend\n";
        assert!(Case::parse(sim_plan).is_err(), "sim plan needs pattern");
        let dir_plan =
            "incgraph-case v1\ndirected 1\nnodes 2\nclasses cc\nplan a = lcc; n = count(a)\nend\n";
        assert!(Case::parse(dir_plan).is_err(), "lcc plan needs undirected");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header comment\n\nincgraph-case v1\n# mid comment\nnodes 3\nclasses cc\nedge 0 1 1\nbatch\n+ 1 2 1\nend\n";
        let case = Case::parse(text).expect("parse");
        assert_eq!(case.nodes, 3);
        assert_eq!(case.edges.len(), 1);
        assert_eq!(case.schedule_len(), 1);
    }

    #[test]
    fn schedule_len_counts_units() {
        assert_eq!(sample().schedule_len(), 3);
    }
}
