//! Execution statistics.
//!
//! The paper's efficiency claims are about *operation counts*, not
//! wall-clock time on 1989 hardware: how often each relation is searched,
//! how many tuples are accessed, how many tuple comparisons are performed,
//! and how large intermediate results grow. Every physical operator reports
//! into this accumulator so benches can verify the claims directly.

use std::fmt;

/// Counters accumulated during plan evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples read from *base* relations (each scan of a base relation
    /// counts its cardinality — claim C1 is about this number).
    pub base_tuples_read: usize,
    /// Number of base-relation scans performed.
    pub base_scans: usize,
    /// Tuple comparisons: one per candidate pair examined by a join-family
    /// operator, per predicate evaluation, and per set-membership test.
    pub comparisons: usize,
    /// Hash-index probes performed by join-family operators.
    pub probes: usize,
    /// Tuples emitted by all operators (including the final result).
    pub tuples_emitted: usize,
    /// Total tuples materialized into intermediate results.
    pub intermediate_tuples: usize,
    /// Cardinality of the largest single intermediate result.
    pub max_intermediate: usize,
    /// High-water mark of *simultaneously live* intermediate tuples: the
    /// peak of (tuples materialized − tuples released) over the query.
    /// A watermark, not a sum — merged with `max`. Only pipeline breakers
    /// materialize, and they are charged and released on the coordinating
    /// thread in structural plan order, so the mark is bit-identical
    /// across 1/2/8 worker threads and the determinism checks compare it
    /// like any other counter.
    pub peak_intermediate_tuples: usize,
    /// Byte-estimate sibling of `peak_intermediate_tuples` (tuples ×
    /// `gq_governor::estimate_tuple_bytes` at materialization arity).
    pub peak_intermediate_bytes: usize,
    /// Number of operator evaluations.
    pub operators_evaluated: usize,
    /// Morsels dispatched to parallel kernels (zero on the sequential
    /// path). Unlike every other counter this one depends on the
    /// execution *configuration* (morsel size), not on the plan, so
    /// determinism checks across thread counts compare it separately.
    pub morsels: usize,
    /// OS threads spawned by the dispatcher, one count per spawn. A
    /// dispatch counter like `morsels`: it depends on the thread count
    /// and morsel size, never on the plan alone, and is how start-up
    /// cost is shown without timing anything — a query whose every
    /// input fits in one morsel reports zero at any thread count.
    pub workers_spawned: usize,
}

impl ExecStats {
    /// Fresh (all-zero) stats.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Record the materialization of an intermediate result of `n` tuples.
    pub fn record_intermediate(&mut self, n: usize) {
        self.intermediate_tuples += n;
        self.max_intermediate = self.max_intermediate.max(n);
    }

    /// Counter deltas since `earlier` (which must be a snapshot of this
    /// accumulator taken earlier, so every field is `>=` its counterpart).
    ///
    /// Used by per-node attribution: snapshot before and after a
    /// breaker's own work, and the diff is the work it did.
    /// `max_intermediate` is a high-water mark, not a sum, so the diff
    /// keeps the current value when it grew and is zero otherwise.
    pub fn diff(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            base_tuples_read: self.base_tuples_read - earlier.base_tuples_read,
            base_scans: self.base_scans - earlier.base_scans,
            comparisons: self.comparisons - earlier.comparisons,
            probes: self.probes - earlier.probes,
            tuples_emitted: self.tuples_emitted - earlier.tuples_emitted,
            intermediate_tuples: self.intermediate_tuples - earlier.intermediate_tuples,
            max_intermediate: if self.max_intermediate > earlier.max_intermediate {
                self.max_intermediate
            } else {
                0
            },
            peak_intermediate_tuples: if self.peak_intermediate_tuples
                > earlier.peak_intermediate_tuples
            {
                self.peak_intermediate_tuples
            } else {
                0
            },
            peak_intermediate_bytes: if self.peak_intermediate_bytes
                > earlier.peak_intermediate_bytes
            {
                self.peak_intermediate_bytes
            } else {
                0
            },
            operators_evaluated: self.operators_evaluated - earlier.operators_evaluated,
            morsels: self.morsels - earlier.morsels,
            workers_spawned: self.workers_spawned - earlier.workers_spawned,
        }
    }

    /// Merge another stats record into this one (max fields use max).
    pub fn merge(&mut self, other: &ExecStats) {
        self.base_tuples_read += other.base_tuples_read;
        self.base_scans += other.base_scans;
        self.comparisons += other.comparisons;
        self.probes += other.probes;
        self.tuples_emitted += other.tuples_emitted;
        self.intermediate_tuples += other.intermediate_tuples;
        self.max_intermediate = self.max_intermediate.max(other.max_intermediate);
        self.peak_intermediate_tuples = self
            .peak_intermediate_tuples
            .max(other.peak_intermediate_tuples);
        self.peak_intermediate_bytes = self
            .peak_intermediate_bytes
            .max(other.peak_intermediate_bytes);
        self.operators_evaluated += other.operators_evaluated;
        self.morsels += other.morsels;
        self.workers_spawned += other.workers_spawned;
    }

    /// This record with the configuration-dependent counters zeroed —
    /// what determinism tests compare across thread counts: the morsel
    /// and spawn counters legitimately differ with the thread count and
    /// morsel size; everything else, the peak watermarks included, is a
    /// property of the plan and the data.
    pub fn without_dispatch_counters(&self) -> ExecStats {
        ExecStats {
            morsels: 0,
            workers_spawned: 0,
            ..self.clone()
        }
    }
}

/// Exclusive figures for one operator: what a worker accumulated for a
/// fused pipeline operator over the batches it ran, or a plan node's
/// running total inside the profiler.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpProfile {
    pub(crate) rows_out: u64,
    pub(crate) elapsed_ns: u64,
    pub(crate) stats: ExecStats,
}

impl OpProfile {
    /// Credit a closed attribution window (stats delta, nanoseconds) and
    /// the rows emitted during it.
    pub(crate) fn add(&mut self, (delta, ns): (ExecStats, u64), rows: usize) {
        self.stats.merge(&delta);
        self.elapsed_ns += ns;
        self.rows_out += rows as u64;
    }

    pub(crate) fn merge(&mut self, other: &OpProfile) {
        self.stats.merge(&other.stats);
        self.elapsed_ns += other.elapsed_ns;
        self.rows_out += other.rows_out;
    }
}

/// Per-worker statistics accumulated by a parallel kernel between two
/// barrier points.
///
/// Workers never touch the evaluator's shared [`ExecStats`] accumulator —
/// each owns a `WorkerStats`, charges into it lock-free, and the kernel
/// merges all of them into the shared accumulator at the barrier that ends
/// the phase. Because every counter is a sum over tuples (or a max, for
/// the high-water mark), the merged totals are independent of how tuples
/// were distributed across workers — which is exactly what the
/// cross-thread-count determinism tests assert.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Worker index within the pool (0-based).
    pub worker: usize,
    /// Morsels this worker processed in the phase.
    pub morsels: usize,
    /// Counters accumulated by this worker alone.
    pub stats: ExecStats,
    /// Per-operator attribution, one slot per fused operator of the
    /// pipeline plus one for its source; empty unless a profiler is
    /// attached.
    pub(crate) ops: Vec<OpProfile>,
}

impl WorkerStats {
    /// Fresh stats for worker `worker`.
    pub fn new(worker: usize) -> Self {
        WorkerStats {
            worker,
            ..WorkerStats::default()
        }
    }

    /// Fold this worker's counters into the shared accumulator (called at
    /// a barrier, on the coordinating thread).
    pub fn merge_into(&self, shared: &mut ExecStats) {
        shared.merge(&self.stats);
        shared.morsels += self.morsels;
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scans={} base_reads={} probes={} comparisons={} emitted={} intermediates={} max_intermediate={} peak_tuples={} peak_bytes={} operators={} morsels={} workers_spawned={}",
            self.base_scans,
            self.base_tuples_read,
            self.probes,
            self.comparisons,
            self.tuples_emitted,
            self.intermediate_tuples,
            self.max_intermediate,
            self.peak_intermediate_tuples,
            self.peak_intermediate_bytes,
            self.operators_evaluated,
            self.morsels,
            self.workers_spawned
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn record_intermediate_tracks_max() {
        let mut s = ExecStats::new();
        s.record_intermediate(10);
        s.record_intermediate(3);
        assert_eq!(s.intermediate_tuples, 13);
        assert_eq!(s.max_intermediate, 10);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = ExecStats {
            base_tuples_read: 5,
            max_intermediate: 7,
            ..ExecStats::new()
        };
        let b = ExecStats {
            base_tuples_read: 3,
            max_intermediate: 2,
            comparisons: 9,
            ..ExecStats::new()
        };
        a.merge(&b);
        assert_eq!(a.base_tuples_read, 8);
        assert_eq!(a.max_intermediate, 7);
        assert_eq!(a.comparisons, 9);
    }

    #[test]
    fn display_mentions_all_counters() {
        let s = ExecStats::new().to_string();
        for key in [
            "scans",
            "probes",
            "comparisons",
            "max_intermediate",
            "peak_tuples",
            "peak_bytes",
            "operators",
            "workers_spawned",
        ] {
            assert!(s.contains(key));
        }
    }

    #[test]
    fn diff_subtracts_counters() {
        let earlier = ExecStats {
            base_tuples_read: 5,
            base_scans: 1,
            comparisons: 10,
            probes: 2,
            tuples_emitted: 3,
            intermediate_tuples: 4,
            max_intermediate: 4,
            peak_intermediate_tuples: 4,
            peak_intermediate_bytes: 320,
            operators_evaluated: 2,
            morsels: 0,
            workers_spawned: 0,
        };
        let mut later = earlier.clone();
        later.base_tuples_read += 7;
        later.comparisons += 20;
        later.probes += 1;
        later.operators_evaluated += 3;
        let d = later.diff(&earlier);
        assert_eq!(d.base_tuples_read, 7);
        assert_eq!(d.base_scans, 0);
        assert_eq!(d.comparisons, 20);
        assert_eq!(d.probes, 1);
        assert_eq!(d.operators_evaluated, 3);
        assert_eq!(d.max_intermediate, 0, "high-water mark did not move");
        assert_eq!(d.peak_intermediate_tuples, 0, "watermark did not move");
        assert_eq!(d.peak_intermediate_bytes, 0, "watermark did not move");
    }

    #[test]
    fn peak_watermarks_merge_as_max_and_diff_when_grown() {
        let mut a = ExecStats {
            peak_intermediate_tuples: 10,
            peak_intermediate_bytes: 800,
            ..ExecStats::new()
        };
        let b = ExecStats {
            peak_intermediate_tuples: 25,
            peak_intermediate_bytes: 500,
            ..ExecStats::new()
        };
        a.merge(&b);
        assert_eq!(a.peak_intermediate_tuples, 25);
        assert_eq!(a.peak_intermediate_bytes, 800);
        let earlier = ExecStats {
            peak_intermediate_tuples: 5,
            peak_intermediate_bytes: 100,
            ..ExecStats::new()
        };
        let d = a.diff(&earlier);
        assert_eq!(d.peak_intermediate_tuples, 25);
        assert_eq!(d.peak_intermediate_bytes, 800);
    }

    #[test]
    fn without_dispatch_counters_keeps_peaks() {
        let s = ExecStats {
            peak_intermediate_tuples: 7,
            peak_intermediate_bytes: 560,
            probes: 3,
            morsels: 9,
            workers_spawned: 4,
            ..ExecStats::new()
        };
        let stripped = s.without_dispatch_counters();
        assert_eq!(stripped.peak_intermediate_tuples, 7);
        assert_eq!(stripped.peak_intermediate_bytes, 560);
        assert_eq!(stripped.morsels, 0);
        assert_eq!(stripped.workers_spawned, 0);
        assert_eq!(stripped.probes, 3);
    }

    #[test]
    fn diff_reports_new_high_water_mark() {
        let earlier = ExecStats {
            max_intermediate: 4,
            ..ExecStats::new()
        };
        let later = ExecStats {
            max_intermediate: 9,
            ..earlier.clone()
        };
        assert_eq!(later.diff(&earlier).max_intermediate, 9);
    }

    #[test]
    fn worker_stats_merge_at_barrier() {
        let mut shared = ExecStats::new();
        let mut w0 = WorkerStats::new(0);
        w0.stats.probes = 5;
        w0.stats.comparisons = 7;
        w0.morsels = 2;
        let mut w1 = WorkerStats::new(1);
        w1.stats.probes = 3;
        w1.stats.max_intermediate = 4;
        w1.morsels = 1;
        w0.merge_into(&mut shared);
        w1.merge_into(&mut shared);
        assert_eq!(shared.probes, 8);
        assert_eq!(shared.comparisons, 7);
        assert_eq!(shared.max_intermediate, 4);
        assert_eq!(shared.morsels, 3);
        // dispatch counters are excluded from determinism comparisons
        assert_eq!(shared.without_dispatch_counters().morsels, 0);
        assert_eq!(shared.without_dispatch_counters().probes, 8);
    }

    #[test]
    fn diff_then_merge_roundtrips() {
        let earlier = ExecStats {
            comparisons: 3,
            probes: 1,
            ..ExecStats::new()
        };
        let later = ExecStats {
            comparisons: 8,
            probes: 4,
            tuples_emitted: 2,
            ..ExecStats::new()
        };
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&later.diff(&earlier));
        assert_eq!(rebuilt, later);
    }
}
