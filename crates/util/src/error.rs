//! The crate-spanning structured error type.
//!
//! The paper's reference code is a research harness that trusts its input;
//! a production service cannot. Every untrusted-input path (graph readers,
//! the builder, CLI parsing, configuration) and every runtime invariant
//! guard reports through [`PcdError`] instead of panicking, so one
//! malformed graph or one miscompiled kernel cannot take a whole serving
//! process down. Hand-rolled (`Display` + `std::error::Error`) — no new
//! dependencies.

use std::fmt;

/// Which phase of the agglomerative loop a runtime invariant guard was
/// protecting when it fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Edge scoring (scores must be finite).
    Score,
    /// Matching (must be a valid matching: symmetric, self-free, each
    /// vertex used at most once, maximal over positive scores).
    Match,
    /// Contraction (must conserve weight and relabel onto dense new ids).
    Contract,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Score => write!(f, "score"),
            Phase::Match => write!(f, "match"),
            Phase::Contract => write!(f, "contract"),
        }
    }
}

/// Structured error for every fallible path in the workspace.
#[derive(Debug)]
pub enum PcdError {
    /// An underlying I/O failure (file missing, short read, ...).
    Io(std::io::Error),
    /// Malformed text input at a 1-based line number.
    Parse {
        /// 1-based line of the offending input.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// Structurally corrupt input (bad magic, implausible header, ids or
    /// weights out of range) not attributable to one text line.
    Corrupt {
        /// What was wrong.
        msg: String,
    },
    /// An invalid [`Config`](https://docs.rs/pcd-core)-style configuration.
    Config {
        /// What was wrong.
        msg: String,
    },
    /// A command-line usage error (unknown flag, missing argument).
    Usage {
        /// What was wrong.
        msg: String,
    },
    /// A runtime invariant guard fired: the hierarchy state at `level`
    /// would have been corrupted by the `phase` kernel.
    InvariantViolation {
        /// Contraction level (1-based) at which the guard fired.
        level: usize,
        /// The kernel phase the guard was protecting.
        phase: Phase,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A resource budget was breached under strict mode. Non-strict runs
    /// never surface this: they return the best-effort partition from
    /// completed levels instead.
    BudgetExceeded {
        /// Which budget fired: `"deadline"` or `"max-levels"`.
        resource: &'static str,
        /// Contraction levels completed before the breach was detected.
        levels_completed: usize,
        /// Human-readable description of the breached limit.
        detail: String,
    },
    /// A detection engine was poisoned by a panicking worker. The engine
    /// has been torn down and rebuilt; only the panicking graph's result
    /// is lost.
    EnginePoisoned {
        /// The panic payload, when it carried a message.
        detail: String,
    },
    /// An error wrapped with higher-level context (e.g. a file path).
    Context {
        /// The added context.
        context: String,
        /// The underlying error.
        source: Box<PcdError>,
    },
}

impl PcdError {
    /// Builds a [`PcdError::Parse`] with a 0-based line index as produced
    /// by `lines().enumerate()`.
    pub fn parse_at(lineno0: usize, msg: impl Into<String>) -> Self {
        PcdError::Parse {
            line: lineno0 + 1,
            msg: msg.into(),
        }
    }

    /// Builds a [`PcdError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        PcdError::Corrupt { msg: msg.into() }
    }

    /// Builds a [`PcdError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        PcdError::Config { msg: msg.into() }
    }

    /// Builds a [`PcdError::Usage`].
    pub fn usage(msg: impl Into<String>) -> Self {
        PcdError::Usage { msg: msg.into() }
    }

    /// Builds a [`PcdError::InvariantViolation`].
    pub fn invariant(level: usize, phase: Phase, detail: impl Into<String>) -> Self {
        PcdError::InvariantViolation {
            level,
            phase,
            detail: detail.into(),
        }
    }

    /// Builds a [`PcdError::BudgetExceeded`].
    pub fn budget(
        resource: &'static str,
        levels_completed: usize,
        detail: impl Into<String>,
    ) -> Self {
        PcdError::BudgetExceeded {
            resource,
            levels_completed,
            detail: detail.into(),
        }
    }

    /// Builds a [`PcdError::EnginePoisoned`].
    pub fn poisoned(detail: impl Into<String>) -> Self {
        PcdError::EnginePoisoned {
            detail: detail.into(),
        }
    }

    /// Wraps `self` with context (typically a file path or command name).
    #[must_use]
    pub fn context(self, context: impl Into<String>) -> Self {
        PcdError::Context {
            context: context.into(),
            source: Box::new(self),
        }
    }

    /// True if this error (or the error it wraps) is a
    /// [`PcdError::BudgetExceeded`].
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(self.root(), PcdError::BudgetExceeded { .. })
    }

    /// True if this error (or the error it wraps) is an
    /// [`PcdError::EnginePoisoned`].
    pub fn is_engine_poisoned(&self) -> bool {
        matches!(self.root(), PcdError::EnginePoisoned { .. })
    }

    /// The innermost error, unwrapping any [`PcdError::Context`] layers.
    /// Callers that classify errors (the CLI's exit codes) branch on this
    /// so wrapping never changes a classification.
    pub fn root(&self) -> &PcdError {
        match self {
            PcdError::Context { source, .. } => source.root(),
            other => other,
        }
    }
}

impl fmt::Display for PcdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcdError::Io(e) => write!(f, "io error: {e}"),
            PcdError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            PcdError::Corrupt { msg } => write!(f, "corrupt input: {msg}"),
            PcdError::Config { msg } => write!(f, "invalid configuration: {msg}"),
            PcdError::Usage { msg } => write!(f, "{msg}"),
            PcdError::InvariantViolation {
                level,
                phase,
                detail,
            } => {
                write!(
                    f,
                    "invariant violation at level {level} in {phase} phase: {detail}"
                )
            }
            PcdError::BudgetExceeded {
                resource,
                levels_completed,
                detail,
            } => {
                write!(
                    f,
                    "budget exceeded ({resource}) after {levels_completed} completed level(s): \
                     {detail}"
                )
            }
            PcdError::EnginePoisoned { detail } => {
                write!(f, "detection engine poisoned by a worker panic: {detail}")
            }
            PcdError::Context { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for PcdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PcdError::Io(e) => Some(e),
            PcdError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PcdError {
    fn from(e: std::io::Error) -> Self {
        PcdError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_formats() {
        let e = PcdError::parse_at(4, "unparsable weight");
        assert_eq!(e.to_string(), "line 5: unparsable weight");
        let e = PcdError::invariant(2, Phase::Contract, "weight lost");
        assert_eq!(
            e.to_string(),
            "invariant violation at level 2 in contract phase: weight lost"
        );
        let e = PcdError::corrupt("bad magic").context("graph.bin");
        assert_eq!(e.to_string(), "graph.bin: corrupt input: bad magic");
    }

    #[test]
    fn io_source_is_preserved() {
        let inner = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "short");
        let e: PcdError = inner.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("short"));
    }

    #[test]
    fn budget_and_poison_classify_through_context() {
        let e = PcdError::budget("deadline", 3, "5ms elapsed").context("detect");
        assert!(e.is_budget_exceeded());
        assert!(e.to_string().contains("budget exceeded (deadline)"));
        assert!(e.to_string().contains("3 completed level(s)"));

        let p = PcdError::poisoned("index out of bounds").context("batch");
        assert!(p.is_engine_poisoned());
        assert!(!p.is_budget_exceeded());
        assert!(p.to_string().contains("poisoned"));
        assert!(matches!(p.root(), PcdError::EnginePoisoned { .. }));
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::Score.to_string(), "score");
        assert_eq!(Phase::Match.to_string(), "match");
        assert_eq!(Phase::Contract.to_string(), "contract");
    }
}
