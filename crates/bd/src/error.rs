//! Errors surfaced by the decomposition / allocation pipeline.

use prs_graph::GraphError;
use std::fmt;

/// Why a bottleneck decomposition or BD allocation could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BdError {
    /// The graph has no vertices.
    EmptyGraph,
    /// Some subgraph reached during the decomposition has a set `S` with
    /// `w(Γ(S)) = 0 < w(S)` (α-ratio 0), e.g. an isolated positive-weight
    /// vertex. The sharing model assigns such agents no exchange partner, so
    /// the decomposition is undefined (Proposition 3 requires `α₁ > 0`).
    ZeroAlpha {
        /// Decomposition round at which the degenerate set appeared.
        round: usize,
    },
    /// Zero-weight vertices that no bottleneck pair can hold: either a
    /// residual subgraph consists solely of zero-weight vertices (every
    /// α-ratio in it is undefined), or the round's maximal bottleneck
    /// absorbed zero-weight vertices that break its pair — an isolated one
    /// at `α = 1` (so `B ≠ C`), or two adjacent ones at `α < 1` (so
    /// `B ∩ C ≠ ∅`). Leaving such vertices out of `B` would only strand
    /// them in a later all-zero residue.
    ZeroWeightResidue {
        /// Decomposition round at which the zero-weight vertices surfaced.
        round: usize,
    },
    /// A [`Delta`](crate::Delta) mutation was rejected by the graph layer
    /// (out-of-range vertex, negative weight, self-loop, …). The session it
    /// was applied to is left untouched.
    InvalidDelta {
        /// The underlying graph-mutation error.
        source: GraphError,
    },
    /// A delta-API call ([`apply`](crate::DecompositionSession::apply),
    /// [`current`](crate::DecompositionSession::current), …) reached a
    /// session constructed without an owned instance
    /// ([`DecompositionSession::detached`](crate::DecompositionSession::detached)).
    DetachedSession,
}

impl From<GraphError> for BdError {
    fn from(source: GraphError) -> Self {
        BdError::InvalidDelta { source }
    }
}

impl fmt::Display for BdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BdError::EmptyGraph => write!(f, "cannot decompose the empty graph"),
            BdError::ZeroAlpha { round } => write!(
                f,
                "α-ratio 0 encountered at decomposition round {round} \
                 (a vertex set has a zero-weight neighborhood)"
            ),
            BdError::ZeroWeightResidue { round } => write!(
                f,
                "zero-weight vertices at decomposition round {round} fit in no \
                 bottleneck pair (an all-zero residue, or zero-weight vertices \
                 the round's bottleneck absorbs but its pair cannot hold)"
            ),
            BdError::InvalidDelta { source } => write!(f, "invalid delta: {source}"),
            BdError::DetachedSession => write!(
                f,
                "delta API called on a detached session (no owned instance); \
                 construct with DecompositionSession::new(graph) or call \
                 replace_instance first"
            ),
        }
    }
}

impl std::error::Error for BdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BdError::InvalidDelta { source } => Some(source),
            _ => None,
        }
    }
}
