//! Plain-text graph and update-stream I/O.
//!
//! The format is the whitespace-separated edge list used by the SNAP /
//! KONECT dumps the paper's datasets come from, extended with optional
//! weights and a label header, so real downloads can be dropped in as a
//! replacement for the synthetic stand-ins:
//!
//! ```text
//! # comment lines start with '#'
//! % or '%' (KONECT style)
//! n <node-count>            (optional; otherwise inferred)
//! l <node-id> <label>       (optional label lines)
//! <src> <dst> [weight]      (edge lines; weight defaults to 1)
//! ```
//!
//! Update streams use one op per line: `+ src dst [weight]` or
//! `- src dst`.

use crate::ids::{NodeId, Weight};
use crate::store::DynamicGraph;
use crate::update::UpdateBatch;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Parse error with line context.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors from graph I/O.
#[derive(Debug)]
pub enum IoError {
    /// Underlying reader/writer failure.
    Io(std::io::Error),
    /// Malformed input.
    Parse(ParseError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io: {e}"),
            IoError::Parse(e) => write!(f, "parse: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn perr(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse(ParseError {
        line,
        message: message.into(),
    })
}

/// Reads an edge-list graph.
pub fn read_graph<R: Read>(reader: R, directed: bool) -> Result<DynamicGraph, IoError> {
    let mut edges: Vec<(NodeId, NodeId, Weight)> = Vec::new();
    let mut labels: Vec<(NodeId, u32)> = Vec::new();
    let mut declared_n: Option<usize> = None;
    let mut max_node: NodeId = 0;

    let mut buf = String::new();
    let mut r = BufReader::new(reader);
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        // A trimmed non-empty line always yields a token, but a parse
        // error beats a panic if the filtering above ever drifts.
        let first = it
            .next()
            .ok_or_else(|| perr(lineno, "expected `n`, `l`, or an edge line"))?;
        match first {
            "n" => {
                let n: usize = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| perr(lineno, "expected `n <count>`"))?;
                declared_n = Some(n);
            }
            "l" => {
                let v: NodeId = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| perr(lineno, "expected `l <node> <label>`"))?;
                let l: u32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| perr(lineno, "expected `l <node> <label>`"))?;
                labels.push((v, l));
                max_node = max_node.max(v);
            }
            tok => {
                let u: NodeId = tok
                    .parse()
                    .map_err(|_| perr(lineno, format!("bad node id `{tok}`")))?;
                let v: NodeId = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| perr(lineno, "expected `<src> <dst> [w]`"))?;
                let w: Weight = match it.next() {
                    Some(t) => t
                        .parse()
                        .map_err(|_| perr(lineno, format!("bad weight `{t}`")))?,
                    None => 1,
                };
                max_node = max_node.max(u).max(v);
                edges.push((u, v, w));
            }
        }
    }

    let n = declared_n.unwrap_or(0).max(max_node as usize + 1);
    let mut node_labels = vec![0; n];
    for (v, l) in labels {
        node_labels[v as usize] = l;
    }
    // A repeated edge line keeps its first weight, as an insert would.
    Ok(DynamicGraph::from_edges(directed, node_labels, edges).0)
}

/// Writes a graph in the edge-list format (round-trips with
/// [`read_graph`]).
pub fn write_graph<W: Write>(g: &DynamicGraph, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# incgraph edge list; directed={}", g.is_directed())?;
    writeln!(w, "n {}", g.node_count())?;
    for v in g.nodes() {
        if g.label(v) != 0 {
            writeln!(w, "l {} {}", v, g.label(v))?;
        }
    }
    for (u, v, wt) in g.edges() {
        writeln!(w, "{u} {v} {wt}")?;
    }
    w.flush()?;
    Ok(())
}

/// Reads an update stream (`+ u v [w]` / `- u v` lines).
pub fn read_updates<R: Read>(reader: R) -> Result<UpdateBatch, IoError> {
    let mut batch = UpdateBatch::new();
    let mut r = BufReader::new(reader);
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            break;
        }
        lineno += 1;
        let line = buf.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        // Same defensive stance as `read_graph`: never panic on input.
        let op = it
            .next()
            .ok_or_else(|| perr(lineno, "expected `(+|-) <src> <dst> [w]`"))?;
        let u: NodeId = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| perr(lineno, "expected `(+|-) <src> <dst> [w]`"))?;
        let v: NodeId = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| perr(lineno, "expected `(+|-) <src> <dst> [w]`"))?;
        match op {
            "+" => {
                let w: Weight = match it.next() {
                    Some(t) => t
                        .parse()
                        .map_err(|_| perr(lineno, format!("bad weight `{t}`")))?,
                    None => 1,
                };
                batch.insert(u, v, w);
            }
            "-" => {
                batch.delete(u, v);
            }
            other => return Err(perr(lineno, format!("unknown op `{other}`"))),
        }
    }
    Ok(batch)
}

/// Writes an update stream (round-trips with [`read_updates`]).
pub fn write_updates<W: Write>(batch: &UpdateBatch, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    for u in batch.updates() {
        match *u {
            crate::update::Update::Insert { src, dst, weight } => {
                writeln!(w, "+ {src} {dst} {weight}")?;
            }
            crate::update::Update::Delete { src, dst } => {
                writeln!(w, "- {src} {dst}")?;
            }
        }
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_roundtrip() {
        let mut g = DynamicGraph::with_labels(true, vec![0, 0, 7, 0, 0]);
        g.insert_edge(0, 1, 3);
        g.insert_edge(4, 2, 9);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let h = read_graph(&buf[..], true).unwrap();
        assert_eq!(h.node_count(), 5);
        assert_eq!(h.label(2), 7);
        assert_eq!(h.edge_weight(0, 1), Some(3));
        assert_eq!(h.edge_weight(4, 2), Some(9));
        assert_eq!(h.edge_count(), 2);
    }

    #[test]
    fn reads_snap_style_lists() {
        let text = "# Directed graph\n% konect header\n3 7\n7 3\n1 2 5\n";
        let g = read_graph(text.as_bytes(), true).unwrap();
        assert_eq!(g.node_count(), 8);
        assert!(g.has_edge(3, 7) && g.has_edge(7, 3));
        assert_eq!(g.edge_weight(1, 2), Some(5));
    }

    #[test]
    fn updates_roundtrip() {
        let mut b = UpdateBatch::new();
        b.insert(1, 2, 4).delete(3, 0).insert(0, 5, 1);
        let mut buf = Vec::new();
        write_updates(&b, &mut buf).unwrap();
        let b2 = read_updates(&buf[..]).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = read_graph("0 1\nnot-a-node x\n".as_bytes(), true).unwrap_err();
        match err {
            IoError::Parse(p) => assert_eq!(p.line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        let err = read_updates("+ 0 1\n? 2 3\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse(p) => {
                assert_eq!(p.line, 2);
                assert!(p.message.contains("unknown op"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn a_repeated_edge_line_keeps_its_first_weight() {
        let text = "0 1 5\n2 1 3\n0 1 9\n1 2 8\n";
        let g = read_graph(text.as_bytes(), true).unwrap();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        let u = read_graph(text.as_bytes(), false).unwrap();
        assert_eq!(u.edge_count(), 2);
        assert_eq!(u.edge_weight(0, 1), Some(5));
        assert_eq!(u.edge_weight(1, 2), Some(3), "(1, 2) repeats (2, 1)");
    }

    #[test]
    fn declared_node_count_wins_when_larger() {
        let g = read_graph("n 10\n0 1\n".as_bytes(), false).unwrap();
        assert_eq!(g.node_count(), 10);
    }
}
