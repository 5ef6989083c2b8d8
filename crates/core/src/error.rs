//! The typed error surface of the profiling software.
//!
//! Everything the [`Session`](crate::Session) API and the database
//! snapshot/merge layer can fail with is one enum, so callers match on
//! causes instead of downcasting `Box<dyn Error>`.

use profileme_uarch::SimError;
use std::error::Error;
use std::fmt;

/// Any failure of the profiling software layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProfileError {
    /// A configuration value was rejected at [`build()`] time (for
    /// example a zero sampling interval, which would select every
    /// fetched instruction and never re-arm meaningfully).
    ///
    /// [`build()`]: crate::SessionBuilder::build
    Config {
        /// Which knob was invalid.
        field: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The pipeline simulator failed underneath the profiling run.
    Sim(SimError),
    /// A profile snapshot failed to serialize or deserialize.
    Snapshot {
        /// What the serializer reported.
        reason: String,
    },
    /// Two databases could not be merged or differenced because they
    /// describe different programs or sampling setups.
    Mismatch {
        /// Which property disagreed.
        what: &'static str,
    },
    /// A shard aggregator worker died and could not be recovered: it
    /// panicked outside supervision, exhausted its recovery budget, or
    /// failed to rebuild from its checkpoint.
    WorkerCrashed {
        /// Which shard's worker crashed.
        shard: usize,
    },
    /// A deadline-bounded operation (`ingest_deadline`,
    /// `snapshot_deadline`, `shutdown_deadline`) ran out of budget
    /// before the service made the required progress.
    DeadlineExceeded {
        /// Which operation timed out.
        what: &'static str,
        /// The deadline that was exceeded, in milliseconds.
        millis: u64,
    },
    /// The durable profile store failed: an I/O error on the segment
    /// log or a snapshot image, or an on-disk layout the recovery
    /// path refuses to trust (for example a torn record followed by
    /// later segments).
    Store {
        /// What the store layer reported.
        reason: String,
        /// The file the failure was observed in, when one is known.
        path: Option<std::path::PathBuf>,
        /// The byte offset within `path` where the failure was
        /// observed (for torn records, the end of the last valid
        /// record), when one is known.
        offset: Option<u64>,
    },
    /// The fleet TCP front-end failed: a connect, read, or write error
    /// the retry policy could not absorb, or a malformed protocol
    /// frame.
    Net {
        /// What the network layer reported.
        reason: String,
    },
}

impl ProfileError {
    /// Convenience constructor for configuration rejections.
    pub fn config(field: &'static str, reason: impl Into<String>) -> ProfileError {
        ProfileError::Config {
            field,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for store failures with no file context.
    pub fn store(reason: impl Into<String>) -> ProfileError {
        ProfileError::Store {
            reason: reason.into(),
            path: None,
            offset: None,
        }
    }

    /// Convenience constructor for network failures.
    pub fn net(reason: impl Into<String>) -> ProfileError {
        ProfileError::Net {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for store failures pinned to a file
    /// and, optionally, a byte offset within it.
    pub fn store_at(
        reason: impl Into<String>,
        path: impl Into<std::path::PathBuf>,
        offset: Option<u64>,
    ) -> ProfileError {
        ProfileError::Store {
            reason: reason.into(),
            path: Some(path.into()),
            offset,
        }
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Config { field, reason } => {
                write!(f, "invalid configuration: `{field}` {reason}")
            }
            ProfileError::Sim(e) => write!(f, "simulation failed: {e}"),
            ProfileError::Snapshot { reason } => write!(f, "profile snapshot failed: {reason}"),
            ProfileError::Mismatch { what } => {
                write!(f, "databases are incompatible: {what} differs")
            }
            ProfileError::WorkerCrashed { shard } => {
                write!(f, "shard {shard} worker crashed and was not recovered")
            }
            ProfileError::DeadlineExceeded { what, millis } => {
                write!(f, "`{what}` exceeded its {millis} ms deadline")
            }
            ProfileError::Store {
                reason,
                path,
                offset,
            } => {
                write!(f, "durable store failed: {reason}")?;
                if let Some(p) = path {
                    write!(f, " in {}", p.display())?;
                }
                if let Some(o) = offset {
                    write!(f, " at byte offset {o}")?;
                }
                Ok(())
            }
            ProfileError::Net { reason } => {
                write!(f, "fleet network failed: {reason}")
            }
        }
    }
}

impl Error for ProfileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProfileError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ProfileError {
    fn from(e: SimError) -> ProfileError {
        ProfileError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_cause() {
        let e = ProfileError::config("mean_interval", "must be at least 1 (got 0)");
        assert!(e.to_string().contains("mean_interval"));
        let e = ProfileError::from(SimError::CycleLimit { limit: 7 });
        assert!(e.to_string().contains("7 cycles"));
        assert!(Error::source(&e).is_some());
        let e = ProfileError::Mismatch { what: "interval" };
        assert!(e.to_string().contains("interval"));
        let e = ProfileError::WorkerCrashed { shard: 3 };
        assert!(e.to_string().contains("shard 3"));
        let e = ProfileError::DeadlineExceeded {
            what: "snapshot",
            millis: 250,
        };
        assert!(e.to_string().contains("snapshot") && e.to_string().contains("250"));
        let e = ProfileError::store("segment vanished");
        assert!(e.to_string().contains("segment vanished"));
        let e = ProfileError::store_at("record CRC mismatch", "wal-00000003.seg", Some(96));
        let shown = e.to_string();
        assert!(
            shown.contains("wal-00000003.seg") && shown.contains("offset 96"),
            "path and offset surfaced: {shown}"
        );
    }
}
