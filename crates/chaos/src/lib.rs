//! # gq-chaos — deterministic, seed-driven fault injection
//!
//! A process-global fault-injection registry for robustness testing.
//! Production crates host *injection sites* behind their `chaos` cargo
//! feature: scan errors, index-build failures, artificial per-morsel
//! delays, forced worker panics, and persistence I/O errors. Whether a
//! given site fires is a pure function of `(seed, site, occurrence)` — a
//! splitmix64-style hash compared against the configured probability —
//! so a run is reproducible from its seed alone and, for morsel-indexed
//! sites, independent of thread scheduling.
//!
//! ```
//! use gq_chaos::{ChaosConfig, Site};
//!
//! let _guard = gq_chaos::install(ChaosConfig::with_seed(42).scan_error(1.0));
//! assert!(gq_chaos::fail_scan("student").is_some());
//! drop(_guard); // uninstalls; sites stop firing
//! assert!(gq_chaos::fail_scan("student").is_none());
//! ```
//!
//! Injection decisions for counter-based sites (scans, index builds,
//! persistence I/O) consume a per-site occurrence counter, so tests that
//! care about exact sequences must serialize access to the registry
//! (e.g. behind a `Mutex`) — the registry itself is process-global.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// An injection site in the production pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// A base-relation scan in the evaluator.
    Scan,
    /// An artificial delay at a morsel boundary.
    MorselDelay,
    /// A forced panic inside a parallel worker.
    WorkerPanic,
    /// A persistence-layer I/O operation (save/load).
    PersistIo,
    /// A durability-layer crash point (WAL append, fsync, checkpoint
    /// rename, manifest swap).
    CrashPoint,
    /// A server connection abruptly dropped mid-session.
    ConnDrop,
    /// A wire frame torn mid-write (a strict prefix is sent, then the
    /// connection dies).
    TornFrame,
    /// A slow-loris writer: artificial delay between frame bytes.
    SlowLoris,
    /// Applying an incremental-view-maintenance delta to a materialized
    /// extent. A fired fault forces the maintainer down its full-recompute
    /// fallback path.
    DeltaApply,
}

impl Site {
    fn salt(self) -> u64 {
        match self {
            Site::Scan => 0x5343_414e,
            Site::MorselDelay => 0x4d44_4c59,
            Site::WorkerPanic => 0x5750_414e,
            Site::PersistIo => 0x5053_494f,
            Site::CrashPoint => 0x4352_5348,
            Site::ConnDrop => 0x4344_5250,
            Site::TornFrame => 0x5446_524d,
            Site::SlowLoris => 0x534c_4f57,
            Site::DeltaApply => 0x4456_4150,
        }
    }
}

/// What the durability layer should do when a crash point fires.
///
/// A *clean* crash dies before the I/O operation touches the file — the
/// previous state is intact. A *torn* crash dies halfway through a write
/// — the file gains a partial record, exactly the state a power loss
/// leaves behind on a real disk. Which of the two fires at a given crash
/// point is a seed-keyed deterministic decision, so a crash-matrix sweep
/// exercises both shapes reproducibly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashAction {
    /// Die before performing the operation.
    Clean,
    /// For write sites: write a strict prefix of the bytes, then die.
    /// Non-write sites treat this like [`CrashAction::Clean`].
    Torn,
}

/// Fault probabilities and parameters for one chaos session. All
/// probabilities default to 0.0 (never fire).
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed for the deterministic decision hash.
    pub seed: u64,
    /// Probability a base-relation scan fails.
    pub scan_error: f64,
    /// Probability a persistence I/O operation fails.
    pub persist_io_error: f64,
    /// Probability a worker panics on a given morsel.
    pub worker_panic: f64,
    /// Probability a morsel boundary sleeps for [`ChaosConfig::morsel_delay`].
    pub morsel_delay_prob: f64,
    /// Sleep duration for a fired morsel delay.
    pub morsel_delay: Duration,
    /// Probability a server connection is abruptly dropped mid-session
    /// (keyed by connection index).
    pub conn_drop: f64,
    /// Probability a wire frame is torn mid-write (keyed by frame index).
    pub torn_frame: f64,
    /// Probability a connection writes slow-loris style, sleeping
    /// [`ChaosConfig::slow_loris_delay`] between chunks (keyed by
    /// connection index).
    pub slow_loris_prob: f64,
    /// Per-chunk delay for a fired slow-loris connection.
    pub slow_loris_delay: Duration,
    /// Probability an IVM delta-apply fails (forcing the maintainer's
    /// recompute fallback).
    pub delta_apply_error: f64,
    /// Simulate a process crash at the k-th durability operation (0-based
    /// WAL write/fsync/checkpoint/rename site, in execution order). After
    /// the crash fires, *every* subsequent durability operation fails —
    /// the process is dead until the registry is reinstalled ("reboot").
    /// `None` (the default) never crashes but still counts operations,
    /// which is how the crash-matrix harness discovers how many points
    /// there are to sweep.
    pub crash_at_durability_op: Option<u64>,
}

impl ChaosConfig {
    /// A config with the given seed and every probability at zero.
    pub fn with_seed(seed: u64) -> Self {
        ChaosConfig {
            seed,
            scan_error: 0.0,
            persist_io_error: 0.0,
            worker_panic: 0.0,
            morsel_delay_prob: 0.0,
            morsel_delay: Duration::ZERO,
            conn_drop: 0.0,
            torn_frame: 0.0,
            slow_loris_prob: 0.0,
            slow_loris_delay: Duration::ZERO,
            delta_apply_error: 0.0,
            crash_at_durability_op: None,
        }
    }

    /// Set the scan-error probability.
    pub fn scan_error(mut self, p: f64) -> Self {
        self.scan_error = p;
        self
    }

    /// Set the persistence I/O failure probability.
    pub fn persist_io_error(mut self, p: f64) -> Self {
        self.persist_io_error = p;
        self
    }

    /// Set the worker-panic probability.
    pub fn worker_panic(mut self, p: f64) -> Self {
        self.worker_panic = p;
        self
    }

    /// Set the per-morsel delay and its firing probability.
    pub fn morsel_delay(mut self, delay: Duration, prob: f64) -> Self {
        self.morsel_delay = delay;
        self.morsel_delay_prob = prob;
        self
    }

    /// Set the connection-drop probability.
    pub fn conn_drop(mut self, p: f64) -> Self {
        self.conn_drop = p;
        self
    }

    /// Set the torn-frame probability.
    pub fn torn_frame(mut self, p: f64) -> Self {
        self.torn_frame = p;
        self
    }

    /// Set the slow-loris per-chunk delay and its firing probability.
    pub fn slow_loris(mut self, delay: Duration, prob: f64) -> Self {
        self.slow_loris_delay = delay;
        self.slow_loris_prob = prob;
        self
    }

    /// Set the IVM delta-apply failure probability.
    pub fn delta_apply_error(mut self, p: f64) -> Self {
        self.delta_apply_error = p;
        self
    }

    /// Crash at the k-th durability operation (see
    /// [`ChaosConfig::crash_at_durability_op`]).
    pub fn crash_at_durability_op(mut self, k: u64) -> Self {
        self.crash_at_durability_op = Some(k);
        self
    }
}

struct State {
    config: ChaosConfig,
    // Per-site occurrence counters for sites without a natural index.
    scan_count: AtomicU64,
    persist_count: AtomicU64,
    delta_apply_count: AtomicU64,
    durability_count: AtomicU64,
    // Latched once the crash point fires: the simulated process is dead
    // and every later durability operation fails until reinstall.
    crashed: AtomicBool,
}

fn registry() -> &'static Mutex<Option<Arc<State>>> {
    static REGISTRY: OnceLock<Mutex<Option<Arc<State>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn current() -> Option<Arc<State>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    registry().lock().ok().and_then(|g| g.clone())
}

/// Uninstalls the chaos configuration when dropped.
#[must_use = "chaos uninstalls when the guard is dropped"]
pub struct ChaosGuard(());

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        if let Ok(mut slot) = registry().lock() {
            *slot = None;
        }
        ENABLED.store(false, Ordering::Relaxed);
    }
}

/// Install `config` process-wide, replacing any previous installation.
/// Faults fire until the returned guard is dropped.
pub fn install(config: ChaosConfig) -> ChaosGuard {
    if let Ok(mut slot) = registry().lock() {
        *slot = Some(Arc::new(State {
            config,
            scan_count: AtomicU64::new(0),
            persist_count: AtomicU64::new(0),
            delta_apply_count: AtomicU64::new(0),
            durability_count: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        }));
    }
    ENABLED.store(true, Ordering::Relaxed);
    ChaosGuard(())
}

/// Is a chaos configuration currently installed?
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// splitmix64 finalizer — a strong 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic decision: does occurrence `k` of `site` fire under
/// probability `p`? Uses the top 53 bits of the mixed hash as a uniform
/// draw in [0, 1).
fn fires(seed: u64, site: Site, k: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let draw = (mix(seed ^ site.salt().wrapping_mul(0x6a09_e667_f3bc_c909) ^ k) >> 11) as f64
        / (1u64 << 53) as f64;
    draw < p
}

/// Should the next scan of `relation` fail? Returns the injected error
/// message. Consumes one occurrence of the [`Site::Scan`] counter.
pub fn fail_scan(relation: &str) -> Option<String> {
    let st = current()?;
    let k = st.scan_count.fetch_add(1, Ordering::Relaxed);
    fires(st.config.seed, Site::Scan, k, st.config.scan_error)
        .then(|| format!("chaos: injected scan error on `{relation}` (occurrence {k})"))
}

/// Should the next persistence I/O operation (`op` describes it) fail?
/// Returns the injected error message.
pub fn fail_persist_io(op: &str) -> Option<String> {
    let st = current()?;
    let k = st.persist_count.fetch_add(1, Ordering::Relaxed);
    fires(
        st.config.seed,
        Site::PersistIo,
        k,
        st.config.persist_io_error,
    )
    .then(|| format!("chaos: injected I/O error during {op} (occurrence {k})"))
}

/// Should the next IVM delta-apply for `view` fail? Returns the injected
/// error message. Consumes one occurrence of the [`Site::DeltaApply`]
/// counter. The maintenance path treats a fired fault as an incremental
/// failure and falls back to full recompute, so consistency must hold
/// under any seed.
pub fn fail_delta_apply(view: &str) -> Option<String> {
    let st = current()?;
    let k = st.delta_apply_count.fetch_add(1, Ordering::Relaxed);
    fires(
        st.config.seed,
        Site::DeltaApply,
        k,
        st.config.delta_apply_error,
    )
    .then(|| format!("chaos: injected delta-apply failure on view `{view}` (occurrence {k})"))
}

/// Consult the crash plan at a durability operation (WAL append/fsync,
/// checkpoint write/rename, manifest swap). Returns `None` to proceed
/// normally. Returns `Some(action)` when this operation is the configured
/// crash point — or when a crash already fired, in which case every
/// subsequent operation gets [`CrashAction::Clean`] (the process is dead
/// until the registry is reinstalled). Whether the firing crash is clean
/// or torn is a seed-keyed deterministic decision.
///
/// Every call consumes one occurrence of the durability-operation
/// counter (readable via [`durability_ops_observed`]), so a fault-free
/// run with `crash_at_durability_op: None` enumerates the crash matrix.
pub fn durability_crash() -> Option<CrashAction> {
    let st = current()?;
    if st.crashed.load(Ordering::Relaxed) {
        return Some(CrashAction::Clean);
    }
    let k = st.durability_count.fetch_add(1, Ordering::Relaxed);
    if st.config.crash_at_durability_op == Some(k) {
        st.crashed.store(true, Ordering::Relaxed);
        Some(if fires(st.config.seed, Site::CrashPoint, k, 0.5) {
            CrashAction::Torn
        } else {
            CrashAction::Clean
        })
    } else {
        None
    }
}

/// Number of durability operations seen by the installed registry so far
/// (0 when no registry is installed). A fault-free run of a workload with
/// no crash point configured leaves the size of its crash matrix here.
pub fn durability_ops_observed() -> u64 {
    current().map_or(0, |st| st.durability_count.load(Ordering::Relaxed))
}

/// Has the configured crash point fired?
pub fn durability_crashed() -> bool {
    current().is_some_and(|st| st.crashed.load(Ordering::Relaxed))
}

/// Should connection `conn` be abruptly dropped? Keyed on the connection
/// index (not a counter), so the decision is independent of accept order
/// races and identical on every sweep of the same seed.
pub fn drop_conn(conn: u64) -> bool {
    current().is_some_and(|st| fires(st.config.seed, Site::ConnDrop, conn, st.config.conn_drop))
}

/// Should frame `frame` be torn mid-write (send a strict prefix, then
/// die)? Keyed on the frame index.
pub fn tear_frame(frame: u64) -> bool {
    current().is_some_and(|st| fires(st.config.seed, Site::TornFrame, frame, st.config.torn_frame))
}

/// Should connection `conn` write slow-loris style? Returns the per-chunk
/// delay. Keyed on the connection index.
pub fn slow_loris(conn: u64) -> Option<Duration> {
    let st = current()?;
    fires(
        st.config.seed,
        Site::SlowLoris,
        conn,
        st.config.slow_loris_prob,
    )
    .then_some(st.config.slow_loris_delay)
}

/// Should morsel `morsel` be delayed? Returns the sleep duration. Keyed
/// on the morsel index (not a counter), so the decision is independent
/// of which worker claims the morsel.
pub fn morsel_delay(morsel: u64) -> Option<Duration> {
    let st = current()?;
    fires(
        st.config.seed,
        Site::MorselDelay,
        morsel,
        st.config.morsel_delay_prob,
    )
    .then_some(st.config.morsel_delay)
}

/// Panic if the worker processing `morsel` is chosen to fail. Keyed on
/// the morsel index for scheduling independence. The panic is expected
/// to be contained by the executor's `catch_unwind`.
pub fn maybe_panic_worker(morsel: u64) {
    if let Some(st) = current() {
        if fires(
            st.config.seed,
            Site::WorkerPanic,
            morsel,
            st.config.worker_panic,
        ) {
            panic!("chaos: injected worker panic on morsel {morsel}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    // The registry is process-global; serialize tests touching it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_by_default() {
        let _l = lock();
        assert!(!is_enabled());
        assert!(fail_scan("r").is_none());
        assert!(morsel_delay(0).is_none());
    }

    #[test]
    fn guard_uninstalls() {
        let _l = lock();
        let g = install(ChaosConfig::with_seed(7).scan_error(1.0));
        assert!(is_enabled());
        assert!(fail_scan("r").is_some());
        drop(g);
        assert!(!is_enabled());
        assert!(fail_scan("r").is_none());
    }

    #[test]
    fn decisions_are_deterministic_in_seed() {
        let _l = lock();
        let outcomes = |seed: u64| -> Vec<bool> {
            let _g = install(ChaosConfig::with_seed(seed).scan_error(0.5));
            (0..64).map(|_| fail_scan("r").is_some()).collect()
        };
        let a = outcomes(123);
        let b = outcomes(123);
        let c = outcomes(456);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ somewhere");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn morsel_sites_are_keyed_by_index() {
        let _l = lock();
        let _g = install(ChaosConfig::with_seed(9).morsel_delay(Duration::from_millis(1), 0.5));
        let first: Vec<bool> = (0..32).map(|m| morsel_delay(m).is_some()).collect();
        let second: Vec<bool> = (0..32).map(|m| morsel_delay(m).is_some()).collect();
        assert_eq!(first, second, "same morsel index → same decision");
    }

    #[test]
    fn probability_extremes() {
        let _l = lock();
        {
            let _g = install(ChaosConfig::with_seed(1).worker_panic(0.0));
            maybe_panic_worker(0); // must not panic
        }
        let _g = install(ChaosConfig::with_seed(1).persist_io_error(1.0));
        for _ in 0..8 {
            assert!(fail_persist_io("write").is_some());
        }
    }

    #[test]
    fn crash_point_fires_once_then_stays_dead() {
        let _l = lock();
        let _g = install(ChaosConfig::with_seed(11).crash_at_durability_op(3));
        for _ in 0..3 {
            assert_eq!(durability_crash(), None);
        }
        assert!(!durability_crashed());
        let action = durability_crash();
        assert!(action.is_some(), "op 3 must crash");
        assert!(durability_crashed());
        // Dead process: every further op fails cleanly.
        for _ in 0..4 {
            assert_eq!(durability_crash(), Some(CrashAction::Clean));
        }
    }

    #[test]
    fn crash_action_is_seed_deterministic() {
        let _l = lock();
        let action_for = |seed: u64| {
            let _g = install(ChaosConfig::with_seed(seed).crash_at_durability_op(0));
            durability_crash()
        };
        assert_eq!(action_for(7), action_for(7));
        // Over a spread of seeds both shapes must occur.
        let shapes: Vec<Option<CrashAction>> = (0..32).map(action_for).collect();
        assert!(shapes.contains(&Some(CrashAction::Clean)));
        assert!(shapes.contains(&Some(CrashAction::Torn)));
    }

    #[test]
    fn op_counter_enumerates_without_a_crash_plan() {
        let _l = lock();
        let _g = install(ChaosConfig::with_seed(5));
        for _ in 0..17 {
            assert_eq!(durability_crash(), None);
        }
        assert_eq!(durability_ops_observed(), 17);
        assert!(!durability_crashed());
    }

    #[test]
    fn crash_sites_inert_when_uninstalled() {
        let _l = lock();
        assert_eq!(durability_crash(), None);
        assert_eq!(durability_ops_observed(), 0);
        assert!(!durability_crashed());
    }

    #[test]
    fn connection_sites_are_keyed_by_index() {
        let _l = lock();
        let _g = install(
            ChaosConfig::with_seed(13)
                .conn_drop(0.5)
                .torn_frame(0.5)
                .slow_loris(Duration::from_millis(2), 0.5),
        );
        let drops: Vec<bool> = (0..32).map(drop_conn).collect();
        let tears: Vec<bool> = (0..32).map(tear_frame).collect();
        let loris: Vec<bool> = (0..32).map(|c| slow_loris(c).is_some()).collect();
        // Re-querying the same indexes gives the same answers: no hidden
        // counters, so concurrent sessions can't perturb each other.
        assert_eq!(drops, (0..32).map(drop_conn).collect::<Vec<_>>());
        assert_eq!(tears, (0..32).map(tear_frame).collect::<Vec<_>>());
        assert!(drops.iter().any(|&x| x) && drops.iter().any(|&x| !x));
        assert!(tears.iter().any(|&x| x) && tears.iter().any(|&x| !x));
        assert!(loris.iter().any(|&x| x) && loris.iter().any(|&x| !x));
        assert_eq!(slow_loris(0).is_some(), loris[0]);
    }

    #[test]
    fn connection_sites_inert_when_uninstalled() {
        let _l = lock();
        assert!(!drop_conn(0));
        assert!(!tear_frame(0));
        assert!(slow_loris(0).is_none());
    }

    #[test]
    fn injected_panic_is_catchable() {
        let _l = lock();
        let _g = install(ChaosConfig::with_seed(3).worker_panic(1.0));
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(|| maybe_panic_worker(5));
        std::panic::set_hook(prev);
        assert!(r.is_err());
    }
}
