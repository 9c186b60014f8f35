//! Errors of the game crate.

use core::fmt;

/// Errors from building or running a pricing game.
///
/// Marked `#[non_exhaustive]`: the hardened decentralized runtime keeps
/// growing failure modes, and adding one must not be a semver break.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GameError {
    /// The scenario has no charging sections.
    NoSections,
    /// The scenario has no OLEVs.
    NoOlevs,
    /// A capacity, weight, or price parameter was non-positive or non-finite.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An OLEV index was out of range.
    UnknownOlev(usize),
    /// The distributed engine lost a worker thread. If the worker panicked,
    /// the captured panic payload is included in the message.
    WorkerFailed(String),
    /// A worker's reply failed validation (non-finite or negative total).
    InvalidReply {
        /// The offending OLEV.
        olev: usize,
        /// What was wrong with the reply.
        reason: String,
    },
    /// Every OLEV was evicted; the value is the last one removed. A game
    /// with no live players has no welfare to optimize.
    OlevEvicted(usize),
    /// Bytes on the wire failed to decode into a protocol frame — a bad
    /// checksum, a truncated stream, an oversized length prefix, or a
    /// payload the token codec rejected. The transport layer resynchronizes
    /// and the offending session takes a strike; this variant surfaces when
    /// the damage has to be reported upward.
    MalformedFrame {
        /// What the framing or codec layer rejected.
        detail: String,
    },
    /// The scenario falls outside the mean-field contract (see
    /// ARCHITECTURE.md "Mean-field fast path"): a non-strictly-convex cost,
    /// a forced non-water-filling scheduler, or overlapping unequal section
    /// windows. The exact engines still handle it.
    MeanFieldUnsupported {
        /// Which part of the contract the scenario violates.
        reason: &'static str,
    },
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSections => write!(f, "scenario has no charging sections"),
            Self::NoOlevs => write!(f, "scenario has no OLEVs"),
            Self::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name}: {value}")
            }
            Self::UnknownOlev(n) => write!(f, "unknown OLEV index {n}"),
            Self::WorkerFailed(msg) => write!(f, "distributed worker failed: {msg}"),
            Self::InvalidReply { olev, reason } => {
                write!(f, "invalid reply from OLEV {olev}: {reason}")
            }
            Self::OlevEvicted(n) => {
                write!(
                    f,
                    "all OLEVs evicted (last was OLEV {n}); no live players remain"
                )
            }
            Self::MalformedFrame { detail } => {
                write!(f, "malformed protocol frame: {detail}")
            }
            Self::MeanFieldUnsupported { reason } => {
                write!(f, "mean-field fast path unsupported: {reason}")
            }
        }
    }
}

impl std::error::Error for GameError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            GameError::NoSections.to_string(),
            "scenario has no charging sections"
        );
        let e = GameError::InvalidParameter {
            name: "eta",
            value: -1.0,
        };
        assert!(e.to_string().contains("eta"));
        assert!(GameError::UnknownOlev(3).to_string().contains('3'));
    }

    #[test]
    fn display_covers_resilience_variants() {
        let i = GameError::InvalidReply {
            olev: 1,
            reason: "total is NaN".into(),
        };
        assert!(i.to_string().contains("OLEV 1"));
        assert!(i.to_string().contains("NaN"));

        let e = GameError::OlevEvicted(4);
        assert!(e.to_string().contains("OLEV 4"));

        let w = GameError::WorkerFailed("olev 1 panicked: boom".into());
        assert!(w.to_string().contains("boom"));

        let m = GameError::MalformedFrame {
            detail: "checksum mismatch".into(),
        };
        assert!(m.to_string().contains("malformed"));
        assert!(m.to_string().contains("checksum mismatch"));
    }
}
