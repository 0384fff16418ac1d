//! Per-query execution statistics.

use hstorage_storage::RequestClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Statistics of one query execution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Query name ("Q1", "Q18", "RF1", …).
    pub name: String,
    /// Total simulated execution time (I/O + CPU).
    pub elapsed: Duration,
    /// Simulated I/O time (storage-clock delta attributable to the query).
    pub io_time: Duration,
    /// Simulated CPU time.
    pub cpu_time: Duration,
    /// Number of storage I/O requests issued, per request class.
    pub requests_by_class: BTreeMap<String, u64>,
    /// Number of blocks requested from storage, per request class.
    pub blocks_by_class: BTreeMap<String, u64>,
    /// Buffer-pool hits during the query.
    pub buffer_pool_hits: u64,
    /// Buffer-pool misses during the query.
    pub buffer_pool_misses: u64,
}

impl QueryStats {
    /// Creates empty statistics for a named query.
    pub fn new(name: impl Into<String>) -> Self {
        QueryStats {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Records one storage request of `blocks` blocks of the given class.
    ///
    /// Runs once per storage request, so the label is looked up by
    /// reference and a key `String` is allocated only on the class's first
    /// sighting; both maps always gain their keys together.
    pub fn record_request(&mut self, class: RequestClass, blocks: u64) {
        let label = class.label();
        match (
            self.requests_by_class.get_mut(label),
            self.blocks_by_class.get_mut(label),
        ) {
            (Some(requests), Some(total)) => {
                *requests += 1;
                *total += blocks;
            }
            _ => {
                *self.requests_by_class.entry(label.to_string()).or_default() += 1;
                *self.blocks_by_class.entry(label.to_string()).or_default() += blocks;
            }
        }
    }

    /// Total storage requests.
    pub fn total_requests(&self) -> u64 {
        self.requests_by_class.values().sum()
    }

    /// Total blocks requested from storage.
    pub fn total_blocks(&self) -> u64 {
        self.blocks_by_class.values().sum()
    }

    /// Requests of one class.
    pub fn requests(&self, class: RequestClass) -> u64 {
        self.requests_by_class
            .get(class.label())
            .copied()
            .unwrap_or(0)
    }

    /// Blocks of one class.
    pub fn blocks(&self, class: RequestClass) -> u64 {
        self.blocks_by_class
            .get(class.label())
            .copied()
            .unwrap_or(0)
    }

    /// Fraction of requests belonging to `class` (0 when nothing was issued).
    pub fn request_fraction(&self, class: RequestClass) -> f64 {
        let total = self.total_requests();
        if total == 0 {
            0.0
        } else {
            self.requests(class) as f64 / total as f64
        }
    }

    /// Fraction of blocks belonging to `class` (0 when nothing was issued).
    pub fn block_fraction(&self, class: RequestClass) -> f64 {
        let total = self.total_blocks();
        if total == 0 {
            0.0
        } else {
            self.blocks(class) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_fractions() {
        let mut s = QueryStats::new("Q1");
        s.record_request(RequestClass::Sequential, 64);
        s.record_request(RequestClass::Sequential, 64);
        s.record_request(RequestClass::Random, 1);
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.total_blocks(), 129);
        assert_eq!(s.requests(RequestClass::Sequential), 2);
        assert_eq!(s.blocks(RequestClass::Random), 1);
        assert!((s.request_fraction(RequestClass::Random) - 1.0 / 3.0).abs() < 1e-9);
        assert!((s.block_fraction(RequestClass::Sequential) - 128.0 / 129.0).abs() < 1e-9);
        assert_eq!(s.request_fraction(RequestClass::Update), 0.0);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let s = QueryStats::new("empty");
        assert_eq!(s.total_requests(), 0);
        assert_eq!(s.request_fraction(RequestClass::Sequential), 0.0);
        assert_eq!(s.block_fraction(RequestClass::Sequential), 0.0);
    }
}
