//! The parallel experiment engine.
//!
//! A [`Sweep`] fans a list of independent simulation *cells* (one cell =
//! one self-contained set of runs, e.g. a heatmap pixel) across worker
//! threads. Three properties make it safe to use for paper results:
//!
//! 1. **Deterministic seeding.** Every cell's RNG seed is derived from
//!    the sweep's base seed and the cell's *index* — never from the
//!    thread that happens to execute it. `FANCY_THREADS=1` and
//!    `FANCY_THREADS=64` produce bit-identical results.
//! 2. **Indexed result slots.** Each worker writes its result into the
//!    slot owned by the cell index, so the output order is the input
//!    order regardless of completion order.
//! 3. **Observational telemetry.** Per-cell kernels count their own
//!    events (see `fancy_sim::telemetry`); each attempt buffers its
//!    counters privately and only the attempt that *completes the cell*
//!    commits them, once, to the aggregate the final [`SweepReport`]
//!    reads — a panicked attempt contributes nothing (no double
//!    counting).
//!
//! A panicking cell is caught and retried once; a cell that fails twice
//! fails the sweep only after every other cell has run (see
//! [`Sweep::run`]). [`Sweep::try_run_cached`] additionally consults the
//! content-addressed result store ([`crate::cache`]), so an interrupted
//! or edited sweep re-runs only what changed.
//!
//! Workers pull the next cell from a shared counter, so slow cells do
//! not stall the rest of the grid (dynamic load balancing).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fancy_net::mix64;
use fancy_sim::metrics::Snapshot;
use fancy_sim::{trace::Profiler, JsonlWriter, Network, TelemetryCounters, TraceSink};
use fancy_trace::TraceEvent;

use crate::cache::{
    self, CacheCodec, CacheKey, CacheKeyed, CachedCell, CellCache, Fingerprint, Record,
};
use crate::env::BenchEnv;

/// An error raised by sweep infrastructure (as opposed to a cell's own
/// experiment logic). Propagate it through [`Sweep::try_run`].
#[derive(Debug)]
pub enum SweepError {
    /// The per-sweep trace directory could not be created.
    TraceDir {
        /// The directory that could not be created.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A cell's trace file could not be created.
    TraceFile {
        /// The file that could not be created.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::TraceDir { path, source } => {
                write!(f, "cannot create trace dir {}: {source}", path.display())
            }
            SweepError::TraceFile { path, source } => {
                write!(f, "cannot create trace file {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::TraceDir { source, .. } | SweepError::TraceFile { source, .. } => {
                Some(source)
            }
        }
    }
}

/// One cell that panicked on both attempts of the one-retry policy.
struct FailedCell {
    index: usize,
    seed: u64,
    attempts: u32,
    /// The final attempt's panic message.
    message: String,
}

/// Per-cell context handed to the sweep's work function.
#[derive(Clone)]
pub struct CellCtx {
    /// Index of this cell in the sweep's input order.
    pub index: usize,
    /// Deterministic seed for this cell, independent of thread count
    /// and scheduling: `mix64(base_seed ^ index)`.
    pub seed: u64,
    pending: Option<Arc<Mutex<PendingStats>>>,
    trace_dir: Option<Arc<PathBuf>>,
}

impl CellCtx {
    /// A context outside any sweep (direct cell-function calls, unit
    /// tests): carries the seed, discards telemetry.
    pub fn detached(seed: u64) -> CellCtx {
        CellCtx {
            index: 0,
            seed,
            pending: None,
            trace_dir: None,
        }
    }

    /// Fold a finished network's kernel telemetry into this attempt's
    /// private buffer. Call once per simulated network, after its last
    /// `run_until`. The buffer reaches the sweep's aggregate report
    /// only if this attempt completes its cell — a panicked attempt's
    /// absorbs are dropped with it. No-op on a detached context.
    pub fn absorb(&self, net: &Network) {
        let Some(pending) = &self.pending else { return };
        let snap = net.kernel.telemetry_snapshot();
        let mut p = pending.lock().expect("pending stats poisoned");
        p.telemetry.absorb(&net.kernel.telemetry);
        p.sim_nanos += snap.sim_elapsed.as_nanos();
        p.wall_nanos += snap.wall_elapsed.as_nanos() as u64;
        p.networks += 1;
        // A metrics hub on the kernel rides along: its registry snapshot
        // merges into the attempt buffer and ultimately into
        // [`SweepReport::metrics`]. Attach a fresh hub per network —
        // absorbing the same hub twice double-counts its counters.
        if let Some(hub) = net.kernel.metrics_hub() {
            p.metrics.merge(&hub.snapshot());
        }
    }

    /// Wall-clock a span of cell work under `label`; spans merge by
    /// label across cells and surface in [`SweepReport::phases`]. Like
    /// [`CellCtx::absorb`], spans are buffered per attempt and only
    /// committed when the attempt completes its cell. On a detached
    /// context the closure still runs, untimed.
    pub fn time<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        let Some(pending) = &self.pending else {
            return f();
        };
        let start = Instant::now();
        let r = f();
        pending
            .lock()
            .expect("pending stats poisoned")
            .phases
            .add(label, start.elapsed());
        r
    }

    /// Where this cell's trace lands when the sweep has a trace
    /// directory ([`Sweep::trace_dir`]): `<dir>/cell-<index>.jsonl`.
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.trace_dir
            .as_ref()
            .map(|d| d.join(format!("cell-{:04}.jsonl", self.index)))
    }

    /// A JSONL flight-recorder sink writing this cell's trace file, or
    /// `Ok(None)` when the sweep records no traces. Install it with
    /// `net.kernel.set_tracer(...)` at the top of the cell. The trace
    /// directory is created lazily here; an unwritable directory or
    /// file surfaces as [`SweepError`] so fallible cells can propagate
    /// it through [`Sweep::try_run`] instead of crashing the sweep.
    pub fn tracer(&self) -> Result<Option<Box<dyn TraceSink>>, SweepError> {
        let Some(path) = self.trace_path() else {
            return Ok(None);
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|source| SweepError::TraceDir {
                path: dir.to_path_buf(),
                source,
            })?;
        }
        let w = JsonlWriter::create(&path).map_err(|source| SweepError::TraceFile {
            path: path.clone(),
            source,
        })?;
        Ok(Some(Box::new(w)))
    }

    /// Leave a one-line `cache_hit` marker trace for a warm cell — but
    /// only when the cell has no trace file yet: a cold run's full
    /// trace is strictly more useful than the marker, so it is never
    /// clobbered. Best effort; trace I/O can never fail a warm hit.
    fn write_cache_hit_stub(&self, key: CacheKey, hit: &CachedCell) {
        let Some(path) = self.trace_path() else {
            return;
        };
        if path.exists() {
            return;
        }
        let ev = TraceEvent::CacheHit {
            t: 0,
            cell: self.index as u64,
            key_hi: key.hi,
            key_lo: key.lo,
            saved_events: hit.telemetry.events_dispatched,
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&path, format!("{}\n", ev.to_jsonl()));
    }
}

/// Sweep accounting: kernel telemetry, cache lookup outcomes, timed
/// spans and merged metrics. Each attempt buffers its own privately;
/// only the attempt that completes its cell folds it, once, into the
/// sweep's aggregate (another `PendingStats`), so a panicked attempt
/// contributes nothing.
#[derive(Debug, Default)]
struct PendingStats {
    telemetry: TelemetryCounters,
    sim_nanos: u64,
    wall_nanos: u64,
    networks: u64,
    cache_hits: u64,
    cache_misses: u64,
    phases: Profiler,
    metrics: Snapshot,
}

impl PendingStats {
    /// Fold a completed attempt's buffer into this aggregate. Every
    /// part is a sum, a max or an associative, commutative merge, so
    /// commit order (i.e. thread scheduling) cannot affect the result.
    fn commit(&mut self, p: &PendingStats) {
        self.telemetry.absorb(&p.telemetry);
        self.sim_nanos += p.sim_nanos;
        self.wall_nanos += p.wall_nanos;
        self.networks += p.networks;
        self.cache_hits += p.cache_hits;
        self.cache_misses += p.cache_misses;
        for (label, d) in p.phases.spans() {
            self.phases.add(label, *d);
        }
        self.metrics.merge(&p.metrics);
    }
}

/// Aggregate progress/throughput report of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The sweep's label.
    pub label: String,
    /// Number of cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Telemetry summed (high-water: maxed) over every absorbed network.
    pub telemetry: TelemetryCounters,
    /// Simulated seconds summed over every absorbed network.
    pub sim_seconds: f64,
    /// Wall-clock summed over every absorbed kernel's run loops. With
    /// `threads` workers this exceeds [`SweepReport::wall`]; the ratio
    /// is the effective parallelism.
    pub kernel_wall: Duration,
    /// Networks folded in via [`CellCtx::absorb`] (0 when the work
    /// function never absorbs — telemetry fields are then all zero).
    /// Warm cache hits restore the network count they saved with, so
    /// this matches the cold run.
    pub networks: u64,
    /// Cells served warm from the content-addressed result cache.
    /// Always 0 for the plain `run`/`try_run` entry points and for
    /// [`Sweep::try_run_cached`] sweeps with no cache attached.
    pub cache_hits: u64,
    /// Cells that executed under [`Sweep::try_run_cached`] because the
    /// cache held no usable record for them.
    pub cache_misses: u64,
    /// Wall-clock spans recorded via [`CellCtx::time`], merged by label
    /// in first-seen order. Empty when cells never time anything.
    pub phases: Vec<(String, Duration)>,
    /// Metrics snapshots merged over every absorbed network (counters
    /// add, gauges max, histograms merge exactly). Because the merge is
    /// associative and commutative, this is bit-identical at any thread
    /// count and on warm cache replays. Empty when cells attach no
    /// [`fancy_sim::metrics::MetricsHub`].
    pub metrics: Snapshot,
}

impl SweepReport {
    /// Events dispatched per wall-clock second, across all workers.
    pub fn events_per_wall_sec(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w > 0.0 {
            self.telemetry.events_dispatched as f64 / w
        } else {
            0.0
        }
    }

    /// Multi-line human-readable summary for experiment footers.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "sweep '{}': {} cells on {} thread(s) in {:.2}s",
            self.label,
            self.cells,
            self.threads,
            self.wall.as_secs_f64(),
        );
        // Throughput on the headline so every sweep doubles as a perf
        // canary (events ÷ sweep wall clock, all workers combined).
        if self.telemetry.events_dispatched > 0 {
            s.push_str(&format!(
                " ({:.2} Mevents/s)",
                self.events_per_wall_sec() / 1e6
            ));
        }
        if self.networks > 0 {
            s.push_str(&format!(
                "\n  {} networks, {:.1} sim-s, {} events ({:.0} events/wall-s), queue high-water {} (timers {})\
                 \n  packets: {} forwarded, {} gray-dropped, {} control-dropped, {} congestion-dropped",
                self.networks,
                self.sim_seconds,
                self.telemetry.events_dispatched,
                self.events_per_wall_sec(),
                self.telemetry.queue_high_water,
                self.telemetry.timer_high_water,
                self.telemetry.packets_forwarded,
                self.telemetry.packets_gray_dropped,
                self.telemetry.control_drops,
                self.telemetry.congestion_drops,
            ));
            s.push_str(&format!(
                "\n  chaos: {} drops, {} dups, {} reorders ({} on control), {} degraded entries",
                self.telemetry.chaos_drops,
                self.telemetry.chaos_dups,
                self.telemetry.chaos_reorders,
                self.telemetry.chaos_control_faults,
                self.telemetry.degraded_entries,
            ));
        }
        // Cells that absorbed a sharded executor leave per-shard gauges
        // in the merged metrics plane; render them as one breakdown row
        // per shard, next to the throughput headline. Gauges max-merge
        // across cells, so each row shows the busiest cell's shard.
        let shard_rows: Vec<String> = (0..)
            .map_while(|i| {
                let l = fancy_sim::metrics::Labels::new().with("shard", format!("{i}"));
                let events = self.metrics.gauge("fancy_shard_events", &l)?;
                let sim_ns = self.metrics.gauge("fancy_shard_sim_ns", &l).unwrap_or(0);
                let windows = self.metrics.gauge("fancy_shard_windows", &l).unwrap_or(0);
                let nulls = self.metrics.gauge("fancy_shard_null_windows", &l).unwrap_or(0);
                let stall = self.metrics.gauge("fancy_shard_stall_pct", &l).unwrap_or(0);
                Some(format!(
                    "\n  shard {i}: {events} events, {:.1} sim-s, {windows} windows ({nulls} null, {stall}% stall)",
                    sim_ns as f64 / 1e9,
                ))
            })
            .collect();
        if !shard_rows.is_empty() {
            s.push_str(&format!(
                "\n  sharded executor ({} region(s), per-cell max):",
                shard_rows.len()
            ));
            for row in &shard_rows {
                s.push_str(row);
            }
        }
        let lookups = self.cache_hits + self.cache_misses;
        if lookups > 0 {
            s.push_str(&format!(
                "\n  cache: {} warm, {} cold ({:.0}% hit rate)",
                self.cache_hits,
                self.cache_misses,
                100.0 * self.cache_hits as f64 / lookups as f64,
            ));
        }
        if !self.phases.is_empty() {
            s.push_str("\n  phases:");
            for (label, d) in &self.phases {
                s.push_str(&format!(" {label} {:.2}s", d.as_secs_f64()));
            }
        }
        // One quantile line per histogram metric, merged across every
        // label set (values are nanoseconds for *_ns metrics).
        for name in self.metrics.names().collect::<Vec<_>>() {
            if let Some(h) = self.metrics.merged_histogram(name) {
                s.push_str(&format!(
                    "\n  {name}: n={} p50={} p99={} max={}",
                    h.count(),
                    h.quantile(0.5).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                ));
            }
        }
        s
    }
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn failure_diagnosis(label: &str, failed: &[FailedCell], total: usize) -> String {
    let mut s = format!(
        "sweep '{label}': {} of {total} cell(s) failed after retry \
         (rerun one with `f(&cells[index], &CellCtx::detached(seed))` to reproduce it):",
        failed.len(),
    );
    for c in failed {
        s.push_str(&format!(
            "\n  cell {:04} (seed {:#018x}) after {} attempt(s): panicked: {}",
            c.index, c.seed, c.attempts, c.message,
        ));
    }
    s
}

/// A parallel sweep over independent experiment cells.
///
/// ```
/// use fancy_bench::runner::Sweep;
///
/// let (squares, report) = Sweep::new("squares", (0..32u64).collect::<Vec<_>>())
///     .threads(8)
///     .run(|&cell, ctx| cell * cell + (ctx.seed & 0)); // seed is per-index
/// assert_eq!(squares[5], 25);
/// assert_eq!(report.cells, 32);
/// ```
pub struct Sweep<C> {
    label: String,
    cells: Vec<C>,
    threads: usize,
    base_seed: u64,
    trace_dir: Option<PathBuf>,
    cache: Option<SweepCache>,
}

/// A sweep-attached handle on the content-addressed result store: the
/// store itself plus the sweep-level salt (label, scale, grid shape —
/// everything that shapes a cell's work besides the cell value and
/// seed) folded into every cell's cache key.
struct SweepCache {
    store: CellCache,
    salt: Fingerprint,
}

impl<C: Sync> Sweep<C> {
    /// A sweep over `cells`, using `FANCY_THREADS` (or the machine's
    /// parallelism) workers and the default base seed.
    pub fn new(label: impl Into<String>, cells: Vec<C>) -> Self {
        Sweep {
            label: label.into(),
            cells,
            threads: BenchEnv::from_env().threads,
            base_seed: 0xFA9C,
            trace_dir: None,
            cache: None,
        }
    }

    /// Override the worker-thread count (values < 1 mean serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Override the base seed cells derive their seeds from.
    pub fn seed(mut self, base: u64) -> Self {
        self.base_seed = base;
        self
    }

    /// Persist per-cell flight-recorder traces under `dir` (created
    /// lazily by [`CellCtx::tracer`]): each cell writes
    /// `cell-<index>.jsonl`. Trace file names are index-keyed, so the
    /// directory layout is thread-count invariant too.
    pub fn trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Attach a content-addressed result store: [`Sweep::try_run_cached`]
    /// serves warm cells from `store` and persists cold ones on
    /// success. `salt` is the sweep-level key material — fold in the
    /// label, scale, grid shape, and anything else that shapes a
    /// cell's work besides the cell value and its seed (see
    /// [`crate::cache`] for the full key recipe and invalidation
    /// rules). The plain entry points ignore the cache entirely.
    pub fn cache(mut self, store: CellCache, salt: Fingerprint) -> Self {
        self.cache = Some(SweepCache { store, salt });
        self
    }

    /// Attach the store selected by `FANCY_CACHE_DIR`, if that
    /// variable is set and non-empty; a no-op (the sweep stays
    /// uncached) otherwise.
    pub fn cache_from_env(self, salt: Fingerprint) -> Self {
        match CellCache::from_env() {
            Some(store) => self.cache(store, salt),
            None => self,
        }
    }

    /// The deterministic seed cell `index` will receive.
    pub fn cell_seed(&self, index: usize) -> u64 {
        mix64(self.base_seed ^ index as u64)
    }

    /// Execute `f` once per cell and return the results in input order,
    /// plus the aggregate report. Results are identical for every
    /// thread count because seeds and result slots are keyed by cell
    /// index, not by worker. With one thread (or one cell) the cells
    /// run in the caller's thread.
    ///
    /// A panicking cell is caught and retried once; if it panics again
    /// the whole sweep panics *at the end* with a diagnosis naming
    /// every failed cell, its seed and its attempts (all other cells
    /// still run to completion first). Rerun a failed cell with
    /// `f(&cells[index], &CellCtx::detached(seed))` to reproduce it.
    pub fn run<R, F>(&self, f: F) -> (Vec<R>, SweepReport)
    where
        R: Send,
        F: Fn(&C, &CellCtx) -> R + Sync,
    {
        let start = Instant::now();
        let stats = Mutex::new(PendingStats::default());
        let n = self.cells.len();
        let trace_dir = self.trace_dir.clone().map(Arc::new);
        let failures: Mutex<Vec<FailedCell>> = Mutex::new(Vec::new());

        let guarded = |index: usize, cell: &C| -> Option<R> {
            let seed = self.cell_seed(index);
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                // Fresh buffer per attempt: only the attempt that
                // returns commits, so a panicked attempt's partial
                // absorbs never reach the aggregate.
                let pending = Arc::new(Mutex::new(PendingStats::default()));
                let ctx = CellCtx {
                    index,
                    seed,
                    pending: Some(pending.clone()),
                    trace_dir: trace_dir.clone(),
                };
                match catch_unwind(AssertUnwindSafe(|| f(cell, &ctx))) {
                    Ok(r) => {
                        stats
                            .lock()
                            .expect("sweep stats poisoned")
                            .commit(&pending.lock().expect("pending stats poisoned"));
                        return Some(r);
                    }
                    Err(_) if attempts < 2 => {} // one retry
                    Err(payload) => {
                        failures
                            .lock()
                            .expect("failure list poisoned")
                            .push(FailedCell {
                                index,
                                seed,
                                attempts,
                                message: panic_message(payload.as_ref()),
                            });
                        return None;
                    }
                }
            }
        };

        let results: Vec<Option<R>> = if self.threads <= 1 || n <= 1 {
            self.cells
                .iter()
                .enumerate()
                .map(|(index, cell)| guarded(index, cell))
                .collect()
        } else {
            let mut slots: Vec<Mutex<Option<Option<R>>>> = Vec::with_capacity(n);
            slots.resize_with(n, || Mutex::new(None));
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..self.threads.min(n) {
                    scope.spawn(|| loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = self.cells.get(index) else {
                            break;
                        };
                        let r = guarded(index, cell);
                        *slots[index].lock().expect("result slot poisoned") = Some(r);
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot poisoned")
                        .expect("worker exited without writing its slot")
                })
                .collect()
        };

        let mut failed = failures.into_inner().expect("failure list poisoned");
        failed.sort_by_key(|c| c.index);
        if !failed.is_empty() {
            panic!("{}", failure_diagnosis(&self.label, &failed, n));
        }

        let agg = stats.into_inner().expect("sweep stats poisoned");
        let report = SweepReport {
            label: self.label.clone(),
            cells: n,
            threads: self.threads.min(n.max(1)),
            wall: start.elapsed(),
            telemetry: agg.telemetry,
            sim_seconds: agg.sim_nanos as f64 / 1e9,
            kernel_wall: Duration::from_nanos(agg.wall_nanos),
            networks: agg.networks,
            cache_hits: agg.cache_hits,
            cache_misses: agg.cache_misses,
            phases: agg.phases.into_spans(),
            metrics: agg.metrics,
        };
        let results = results
            .into_iter()
            .map(|r| r.expect("cell produced neither result nor failure record"))
            .collect();
        (results, report)
    }

    /// Like [`Sweep::run`] for fallible cells: stops at the first error
    /// (in cell order) after the sweep completes. Cells keep their
    /// deterministic seeds, so a partial failure is reproducible.
    pub fn try_run<R, E, F>(&self, f: F) -> Result<(Vec<R>, SweepReport), E>
    where
        R: Send,
        E: Send,
        F: Fn(&C, &CellCtx) -> Result<R, E> + Sync,
    {
        let (results, report) = self.run(f);
        let mut ok = Vec::with_capacity(results.len());
        for r in results {
            ok.push(r?);
        }
        Ok((ok, report))
    }

    /// [`Sweep::try_run`] with the attached cache consulted per cell:
    /// warm cells return their stored result and stored telemetry
    /// without executing, cold cells execute and are stored on
    /// success. `Err` results are never stored, so an errored cell
    /// re-runs on the next sweep instead of caching its failure. The
    /// report's [`SweepReport::cache_hits`] / `cache_misses` count the
    /// lookup outcomes. With no cache attached this is exactly
    /// `try_run`.
    ///
    /// ```
    /// use fancy_bench::cache::Fingerprint;
    /// use fancy_bench::runner::Sweep;
    ///
    /// // Cold everywhere unless FANCY_CACHE_DIR is set; with it set,
    /// // the second identical invocation executes zero cells.
    /// let salt = Fingerprint::new().with("squares");
    /// let (squares, _report) = Sweep::new("squares", (0..8u64).collect::<Vec<_>>())
    ///     .cache_from_env(salt)
    ///     .try_run_cached(|&cell, _ctx| Ok::<_, String>(cell * cell))
    ///     .unwrap();
    /// assert_eq!(squares[5], 25);
    /// ```
    pub fn try_run_cached<R, E, F>(&self, f: F) -> Result<(Vec<R>, SweepReport), E>
    where
        C: CacheKeyed,
        R: Send + CacheCodec,
        E: Send,
        F: Fn(&C, &CellCtx) -> Result<R, E> + Sync,
    {
        let cache = self.cache.as_ref();
        self.try_run(|cell, ctx| run_cell_cached(cache, cell, ctx, &f))
    }
}

/// Run one cell through the cache: serve a warm hit (folding its
/// stored telemetry and a `cache_hits` tick into the attempt's
/// buffer), or execute `f` and persist the result on success.
/// Detached contexts and uncached sweeps fall straight through to `f`.
fn run_cell_cached<C, R, E, F>(
    cache: Option<&SweepCache>,
    cell: &C,
    ctx: &CellCtx,
    f: &F,
) -> Result<R, E>
where
    C: CacheKeyed + ?Sized,
    R: CacheCodec,
    F: Fn(&C, &CellCtx) -> Result<R, E>,
{
    let (Some(cache), Some(pending)) = (cache, &ctx.pending) else {
        return f(cell, ctx);
    };
    let key = cache::cell_key(&cache.salt, cell, ctx.seed);
    if let Some(hit) = cache.store.load(key) {
        // A record whose result (or stored metrics snapshot) no longer
        // decodes degrades to a miss, exactly like a corrupt record.
        let snap = if hit.metrics.is_empty() {
            Some(Snapshot::default())
        } else {
            Snapshot::parse_jsonl(&hit.metrics).ok()
        };
        if let (Some(r), Some(snap)) = (R::decode(&hit.result), snap) {
            {
                let mut p = pending.lock().expect("pending stats poisoned");
                p.telemetry.absorb(&hit.telemetry);
                p.sim_nanos += hit.sim_nanos;
                p.networks += hit.networks;
                p.metrics.merge(&snap);
                p.cache_hits += 1;
            }
            ctx.write_cache_hit_stub(key, &hit);
            return Ok(r);
        }
    }
    pending.lock().expect("pending stats poisoned").cache_misses += 1;
    let r = f(cell, ctx)?;
    // The attempt buffer holds exactly this attempt's absorbs, so it
    // doubles as the per-cell record. Kernel wall-clock is deliberately
    // not stored: a warm run honestly reports its own (near-zero) wall.
    let (telemetry, sim_nanos, networks, metrics) = {
        let p = pending.lock().expect("pending stats poisoned");
        (p.telemetry, p.sim_nanos, p.networks, p.metrics.to_jsonl())
    };
    let mut result = Record::default();
    r.encode(&mut result);
    let _ = cache.store.store(
        key,
        &CachedCell {
            telemetry,
            sim_nanos,
            networks,
            metrics,
            result,
        },
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fancy_sim::{LinkConfig, Network, SimDuration, SimTime, SinkNode};

    #[test]
    fn results_keep_input_order_at_any_thread_count() {
        let cells: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 8] {
            let (out, report) =
                Sweep::new("order", cells.clone())
                    .threads(threads)
                    .run(|&c, ctx| {
                        assert_eq!(c, ctx.index);
                        c * 10
                    });
            assert_eq!(out, (0..37).map(|c| c * 10).collect::<Vec<_>>());
            assert_eq!(report.cells, 37);
        }
    }

    #[test]
    fn seeds_are_index_keyed_and_thread_invariant() {
        let sweep = |threads| {
            Sweep::new("seeds", (0..64usize).collect::<Vec<_>>())
                .seed(0xC0FFEE)
                .threads(threads)
                .run(|_, ctx| ctx.seed)
                .0
        };
        let serial = sweep(1);
        assert_eq!(serial, sweep(8));
        assert_eq!(serial[3], mix64(0xC0FFEE ^ 3));
        // All seeds distinct.
        let set: std::collections::HashSet<_> = serial.iter().collect();
        assert_eq!(set.len(), 64);
    }

    /// A tiny 2-node network that dispatches exactly one event over
    /// one simulated second — cheap deterministic telemetry for tests.
    fn one_packet_net(seed: u64) -> Network {
        let mut net = Network::new(seed);
        let a = net.add_node(Box::new(SinkNode::default()));
        let b = net.add_node(Box::new(SinkNode::default()));
        net.connect(a, b, LinkConfig::default());
        let pkt = fancy_sim::PacketBuilder::new(
            1,
            2,
            100,
            fancy_sim::PacketKind::Udp { flow: 0, seq: 0 },
        )
        .build();
        net.kernel.inject(a, 0, pkt, SimTime::ZERO);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        net
    }

    /// A FANcY linear scenario whose gray-failure rate and chaos plan
    /// vary with the cell, so every cell leaves distinct gray, chaos,
    /// control and high-water counters behind.
    fn chaotic_cell(cell: u64, ctx: &CellCtx) -> TelemetryCounters {
        use fancy_apps::ScenarioSpec;
        use fancy_net::Prefix;
        use fancy_sim::{FaultPlan, FaultStage, FaultTarget, GrayFailure};
        use fancy_tcp::{FlowConfig, ScheduledFlow};

        let entry = Prefix(0x0A_40_00 + cell as u32);
        let mut sc = ScenarioSpec::linear()
            .seed(ctx.seed)
            .flows(vec![ScheduledFlow {
                start: SimTime(0),
                dst: entry.host(1),
                cfg: FlowConfig::for_rate(2_000_000, 1.0),
            }])
            .high_priority(vec![entry])
            .build()
            .expect("scenario builds");
        sc.fail(GrayFailure::single_entry(
            entry,
            0.2 + 0.1 * cell as f64,
            SimTime(300_000_000),
        ));
        let edge = sc.monitored_edge();
        let (link, s1) = (edge.link, edge.a);
        sc.net.kernel.add_fault_plan(
            link,
            s1,
            FaultPlan::new(ctx.seed)
                .stage(FaultStage::new(FaultTarget::Control(None)).bernoulli(0.05))
                .stage(FaultStage::new(FaultTarget::All).duplicate(0.02).reorder(
                    0.02,
                    SimDuration::from_micros(30),
                    SimDuration::from_millis(1),
                )),
        );
        sc.net.run_until(SimTime(1_000_000_000));
        ctx.absorb(&sc.net);
        sc.net.kernel.telemetry
    }

    #[test]
    fn telemetry_aggregates_across_cells() {
        // Each cell runs a tiny 2-node network pushing one packet.
        let (_, report) = Sweep::new("telemetry", vec![(); 5])
            .threads(2)
            .run(|_, ctx| {
                let net = one_packet_net(ctx.seed);
                ctx.absorb(&net);
            });
        assert_eq!(report.networks, 5);
        // One injected arrival per cell (the packet sinks at `a`).
        assert_eq!(report.telemetry.events_dispatched, 5);
        assert_eq!(report.sim_seconds, 5.0);
        assert!(report.summary().contains("5 cells"));
        // The headline doubles as a perf canary: absorbing sweeps print
        // their event throughput, non-absorbing ones stay quiet.
        assert!(
            report.summary().contains("Mevents/s"),
            "{}",
            report.summary()
        );
        let (_, quiet) = Sweep::new("quiet", vec![(); 2]).threads(1).run(|_, _| {});
        assert!(!quiet.summary().contains("Mevents/s"));

        // Cells that differ in every counter: the aggregate must equal
        // the serial `absorb` fold of the per-cell kernels, field for
        // field, at any thread count.
        for threads in [1, 8] {
            let (per_cell, report) = Sweep::new("chaotic", (0..6u64).collect::<Vec<_>>())
                .threads(threads)
                .run(|&cell, ctx| chaotic_cell(cell, ctx));
            let mut fold = TelemetryCounters::default();
            for t in &per_cell {
                fold.absorb(t);
            }
            assert_eq!(report.telemetry, fold, "{threads} thread(s)");
            assert_eq!(report.networks, 6);
            assert!(
                per_cell.windows(2).all(|w| w[0] != w[1]),
                "cells must differ"
            );
            let covered = [
                "packets_gray_dropped",
                "control_drops",
                "chaos_drops",
                "chaos_dups",
                "chaos_reorders",
                "chaos_control_faults",
                "queue_high_water",
                "timer_high_water",
                "pool_high_water",
            ];
            for (name, value) in fold.to_pairs() {
                assert!(
                    value > 0 || !covered.contains(&name),
                    "{name} is zero: the sweep does not exercise it"
                );
            }
        }
    }

    #[test]
    fn failed_attempts_do_not_commit_telemetry() {
        use std::sync::atomic::AtomicU32;
        // Cell 1 absorbs a network and *then* panics on its first
        // attempt; only the successful retry's absorb may reach the
        // aggregate — the aborted attempt's buffer must be dropped.
        let first_attempt = AtomicU32::new(0);
        let (_, report) = Sweep::new("buffered", vec![(); 3])
            .threads(1)
            .run(|_, ctx| {
                let net = one_packet_net(ctx.seed);
                ctx.absorb(&net);
                if ctx.index == 1 && first_attempt.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("post-absorb transient");
                }
            });
        assert_eq!(
            report.networks, 3,
            "panicked attempt's absorb must not count"
        );
        assert_eq!(report.telemetry.events_dispatched, 3);
        assert_eq!(report.sim_seconds, 3.0);
    }

    #[test]
    fn uncached_sweeps_report_zero_cache_counters() {
        // `try_run_cached` without an attached cache is exactly
        // `try_run`: no lookups, no counters, no summary line.
        let (out, report) = Sweep::new("plain", (0..4u64).collect::<Vec<_>>())
            .threads(2)
            .try_run_cached(|&c, _| Ok::<_, String>(c + 1))
            .unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!((report.cache_hits, report.cache_misses), (0, 0));
        assert!(!report.summary().contains("cache:"));
    }

    #[test]
    fn try_run_surfaces_first_error_by_cell_order() {
        let r: Result<(Vec<usize>, SweepReport), String> =
            Sweep::new("fallible", (0..10usize).collect::<Vec<_>>())
                .threads(4)
                .try_run(|&c, _| {
                    if c % 4 == 3 {
                        Err(format!("cell {c}"))
                    } else {
                        Ok(c)
                    }
                });
        assert_eq!(r.err(), Some("cell 3".to_string()));
    }

    #[test]
    fn run_retries_a_flaky_cell_once() {
        use std::sync::atomic::AtomicU32;
        // Cell 2 panics on its first attempt only; the retry succeeds,
        // so the sweep completes with no failure on record.
        let first_attempt = AtomicU32::new(0);
        let (out, _) = Sweep::new("flaky", (0..8usize).collect::<Vec<_>>())
            .threads(4)
            .run(|&c, _| {
                if c == 2 && first_attempt.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient failure");
                }
                c
            });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(first_attempt.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_panics_at_end_with_per_cell_diagnosis() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Sweep::new("doomed", (0..6usize).collect::<Vec<_>>())
                .threads(2)
                .seed(7)
                .run(|&c, _| {
                    if c == 3 {
                        panic!("cell three is cursed");
                    }
                    c
                })
        }));
        let msg = panic_message(
            caught
                .expect_err("sweep must propagate the failure")
                .as_ref(),
        );
        assert!(
            msg.contains("sweep 'doomed': 1 of 6 cell(s) failed"),
            "{msg}"
        );
        assert!(msg.contains("cell 0003"), "{msg}");
        assert!(msg.contains("cell three is cursed"), "{msg}");
        assert!(msg.contains(&format!("{:#018x}", mix64(7u64 ^ 3))), "{msg}");
    }
}
