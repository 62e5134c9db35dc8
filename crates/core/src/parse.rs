//! Instance file parser.
//!
//! Plain-text format, one directive per line, `#` comments:
//!
//! ```text
//! # a 5-agent ring
//! ring
//! weights: 3 1 4 1/2 5
//! ```
//!
//! ```text
//! # an arbitrary graph
//! graph
//! weights: 1 2 3 4
//! edges: 0-1 1-2 2-3 3-0 0-2
//! ```
//!
//! Weights accept the same literals as [`Rational::from_str`]: integers,
//! `p/q` fractions, and exact decimals. Failures come back as
//! [`Error::Parse`] carrying the offending line number: a graph-construction
//! error points at the `weights:` or `edges:` line it comes from, and only a
//! missing line is reported at line 0.

use crate::error::Error;
use prs_graph::{builders, Graph, GraphError};
use prs_numeric::Rational;

fn err(line: usize, message: impl Into<String>) -> Error {
    Error::Parse {
        line,
        message: message.into(),
    }
}

/// Locate a graph-construction error on the directive it comes from: edge
/// errors on the `edges:` line, weight and vertex-count errors on the
/// `weights:` line.
fn graph_err(e: GraphError, weights_line: usize, edges_line: usize) -> Error {
    let line = match e {
        GraphError::VertexOutOfRange { .. }
        | GraphError::SelfLoop { .. }
        | GraphError::DuplicateEdge { .. }
        | GraphError::MissingEdge { .. } => edges_line,
        GraphError::NegativeWeight { .. }
        | GraphError::NonPositiveWeight { .. }
        | GraphError::WeightCountMismatch { .. }
        | GraphError::TooFewVertices { .. } => weights_line,
    };
    err(line, e.to_string())
}

/// Parse an instance file into a [`Graph`].
pub fn parse_instance(text: &str) -> Result<Graph, Error> {
    let mut kind: Option<&str> = None;
    // Each directive with the line it was read from.
    let mut weights: Option<(Vec<Rational>, usize)> = None;
    let mut edges: Option<(Vec<(usize, usize)>, usize)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("weights:") {
            let parsed: Result<Vec<Rational>, _> = rest
                .split_whitespace()
                .map(|tok| {
                    tok.parse::<Rational>()
                        .map_err(|_| err(lineno, format!("invalid weight `{tok}`")))
                })
                .collect();
            weights = Some((parsed?, lineno));
        } else if let Some(rest) = line.strip_prefix("edges:") {
            let mut list = Vec::new();
            for tok in rest.split_whitespace() {
                let (a, b) = tok
                    .split_once('-')
                    .ok_or_else(|| err(lineno, format!("invalid edge `{tok}` (want `u-v`)")))?;
                let a: usize = a
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid endpoint `{a}`")))?;
                let b: usize = b
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid endpoint `{b}`")))?;
                list.push((a, b));
            }
            edges = Some((list, lineno));
        } else if kind.is_none() && (line == "ring" || line == "path" || line == "graph") {
            kind = Some(match line {
                "ring" => "ring",
                "path" => "path",
                _ => "graph",
            });
        } else {
            return Err(err(lineno, format!("unrecognized directive `{line}`")));
        }
    }

    let kind = kind.ok_or_else(|| err(0, "missing topology line (`ring`, `path` or `graph`)"))?;
    let (weights, weights_line) = weights.ok_or_else(|| err(0, "missing `weights:` line"))?;
    match kind {
        "ring" => builders::ring(weights).map_err(|e| graph_err(e, weights_line, 0)),
        "path" => builders::path(weights).map_err(|e| graph_err(e, weights_line, 0)),
        _ => {
            let (edges, edges_line) =
                edges.ok_or_else(|| err(0, "`graph` instances need an `edges:` line"))?;
            Graph::new(weights, &edges).map_err(|e| graph_err(e, weights_line, edges_line))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prs_numeric::{int, ratio};

    fn parse_err(text: &str) -> (usize, String) {
        match parse_instance(text).unwrap_err() {
            Error::Parse { line, message } => (line, message),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parses_ring() {
        let g = parse_instance("# demo\nring\nweights: 3 1 4 1/2 5\n").unwrap();
        assert!(g.is_ring());
        assert_eq!(g.weight(3), &ratio(1, 2));
    }

    #[test]
    fn parses_path_and_decimals() {
        let g = parse_instance("path\nweights: 0.5 2 0.25").unwrap();
        assert!(g.is_path());
        assert_eq!(g.weight(0), &ratio(1, 2));
        assert_eq!(g.weight(2), &ratio(1, 4));
    }

    #[test]
    fn parses_general_graph() {
        let g = parse_instance("graph\nweights: 1 2 3\nedges: 0-1 1-2 2-0").unwrap();
        assert_eq!(g.m(), 3);
        assert_eq!(g.weight(2), &int(3));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_instance("\n# heading\nring  # inline\nweights: 1 1 1 # w\n\n").unwrap();
        assert_eq!(g.n(), 3);
    }

    #[test]
    fn error_reporting() {
        assert!(parse_instance("").is_err());
        assert!(parse_instance("ring\n").is_err());
        let (line, message) = parse_err("ring\nweights: 1 x 3");
        assert_eq!(line, 2);
        assert!(message.contains('x'));
        let (_, message) = parse_err("graph\nweights: 1 2\nedges: 0_1");
        assert!(message.contains("0_1"));
        assert!(parse_instance("torus\nweights: 1 2 3").is_err());
        // Graphs need edges.
        assert!(parse_instance("graph\nweights: 1 2").is_err());
        // Invalid topology bubbles up the GraphError text.
        let (_, message) = parse_err("graph\nweights: 1 2\nedges: 0-0");
        assert!(message.contains("self-loop"));
    }

    #[test]
    fn weight_errors_point_at_the_weights_line() {
        assert_eq!(
            parse_err("ring\nweights: 3 -1 4 1 5"),
            (2, "negative weight at vertex 1".to_string())
        );
        // Comments and blank lines still count towards the line number.
        let (line, message) = parse_err("# demo\n\npath\nweights: 2 -3");
        assert_eq!(line, 4);
        assert!(message.contains("negative weight"), "{message}");
        // Too few weights for a ring is a weight-count problem.
        let (line, _) = parse_err("ring\nweights: 1 2");
        assert_eq!(line, 2);
        let (line, _) = parse_err("graph\nedges: 0-1\nweights: 1 -2");
        assert_eq!(line, 3);
    }

    #[test]
    fn edge_errors_point_at_the_edges_line() {
        let (line, message) = parse_err("graph\nweights: 1 2\nedges: 0-0");
        assert_eq!(line, 3);
        assert!(message.contains("self-loop"), "{message}");
        let (line, message) = parse_err("graph\nweights: 1 2 3\n# edges next\nedges: 0-1 1-5");
        assert_eq!(line, 4);
        assert!(message.contains("out of range"), "{message}");
        let (line, _) = parse_err("graph\nedges: 0-1 1-0\nweights: 1 2");
        assert_eq!(line, 2);
        // A missing directive has no line to point at.
        let (line, _) = parse_err("graph\nweights: 1 2");
        assert_eq!(line, 0);
    }
}
