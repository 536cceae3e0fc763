//! Error type for the routing tier.

use starj_service::ServiceError;
use std::fmt;

/// One shard's failure inside a cross-shard fan-out, reported in
/// deterministic `(shard, dataset)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardFailure {
    /// The shard that failed.
    pub shard: u32,
    /// The dataset whose sub-request failed.
    pub dataset: String,
    /// The underlying service refusal or failure.
    pub error: ServiceError,
}

/// Errors a [`crate::Router`] can return.
///
/// Routing errors (`UnknownDataset`, `UnknownTable`, `AmbiguousTable`,
/// `MixedDatasets`) are raised before any shard is touched — no budget
/// moves anywhere. `Shard` wraps a single owning shard's
/// [`ServiceError`]; `Fanout` collects every failing shard of a
/// multi-dataset request in shard order.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterError {
    /// The router was configured with zero shards.
    NoShards,
    /// No shard with this id is on the ring.
    UnknownShard(u32),
    /// Removing this shard would leave the ring empty with datasets
    /// still placed.
    LastShard(u32),
    /// No dataset with this name is hosted.
    UnknownDataset(String),
    /// A dataset with this name is already hosted.
    DuplicateDataset(String),
    /// Fan-out planning: no hosted dataset owns this table.
    UnknownTable(String),
    /// Fan-out planning: more than one dataset hosts a table with this
    /// name, so table-based routing is ambiguous — address the dataset
    /// explicitly instead.
    AmbiguousTable(String),
    /// Fan-out planning: one query references tables owned by different
    /// datasets; a star-join query must resolve within a single dataset.
    MixedDatasets {
        /// The query's label.
        query: String,
        /// The distinct owning datasets, sorted.
        datasets: Vec<String>,
    },
    /// Fan-out planning: the query names no tables at all, so ownership
    /// cannot be inferred — address the dataset explicitly.
    Unroutable(String),
    /// The owning shard refused or failed a single-dataset request.
    Shard {
        /// The dataset the request addressed.
        dataset: String,
        /// The shard hosting it.
        shard: u32,
        /// The underlying service error.
        source: ServiceError,
    },
    /// One or more shards failed during a cross-shard fan-out, in
    /// deterministic `(shard, dataset)` order. Shards that succeeded have
    /// already committed their members' budget — per-shard budget domains
    /// are independent, so there is no cross-shard rollback.
    Fanout(Vec<ShardFailure>),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::NoShards => write!(f, "router needs at least one shard"),
            RouterError::UnknownShard(s) => write!(f, "no shard {s} on the ring"),
            RouterError::LastShard(s) => {
                write!(f, "cannot remove shard {s}: it is the last shard and datasets are placed")
            }
            RouterError::UnknownDataset(d) => write!(f, "unknown dataset `{d}`"),
            RouterError::DuplicateDataset(d) => write!(f, "dataset `{d}` already hosted"),
            RouterError::UnknownTable(t) => write!(f, "no hosted dataset owns table `{t}`"),
            RouterError::AmbiguousTable(t) => write!(
                f,
                "table `{t}` exists in more than one dataset; address the dataset explicitly"
            ),
            RouterError::MixedDatasets { query, datasets } => write!(
                f,
                "query `{query}` references tables from multiple datasets ({})",
                datasets.join(", ")
            ),
            RouterError::Unroutable(q) => {
                write!(f, "query `{q}` names no tables; address the dataset explicitly")
            }
            RouterError::Shard { dataset, shard, source } => {
                write!(f, "shard {shard} (dataset `{dataset}`): {source}")
            }
            RouterError::Fanout(failures) => {
                write!(f, "{} shard(s) failed during fan-out: ", failures.len())?;
                for (i, fail) in failures.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "shard {} (`{}`): {}", fail.shard, fail.dataset, fail.error)?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RouterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_parts() {
        let e = RouterError::Shard {
            dataset: "ssb-1".into(),
            shard: 3,
            source: ServiceError::UnknownTenant("alice".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("ssb-1") && msg.contains('3') && msg.contains("alice"));

        let e = RouterError::Fanout(vec![
            ShardFailure {
                shard: 0,
                dataset: "a".into(),
                error: ServiceError::UnknownTenant("t".into()),
            },
            ShardFailure {
                shard: 2,
                dataset: "c".into(),
                error: ServiceError::StaleDataVersion { submitted: 0, current: 1 },
            },
        ]);
        let msg = e.to_string();
        assert!(msg.contains("2 shard(s)") && msg.contains("`a`") && msg.contains("`c`"));
    }

    #[test]
    fn mixed_datasets_lists_owners() {
        let e = RouterError::MixedDatasets {
            query: "q7".into(),
            datasets: vec!["sales".into(), "web".into()],
        };
        assert!(e.to_string().contains("sales, web"));
    }
}
