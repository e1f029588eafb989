//! Measurement helpers shared by every workload: order statistics, the
//! counting allocator, peak resident memory, and the guarded operation
//! tally that feeds `attempted` / `failed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts heap allocations while [`count_allocs`] is on. Off in untraced
/// runs, so the end-to-end timings pay one relaxed load per allocation
/// and no shared-counter writes.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(p, l, new_size)
    }
}

/// Turn allocation counting on or off (traced runs only).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// The `q`-quantile of `v`, interpolating linearly between closest ranks.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest whole percentile with at least ten samples beyond it, or
/// `None` when there are too few samples for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    let p = (100.0 * (1.0 - 10.0 / n as f64)).floor();
    (p >= 50.0).then_some(p as u32)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `attempted` / `failed` bookkeeping. Every operation runs through
/// [`Tally::attempt`], which turns an error or a panic into a counted
/// failure with its reason kept for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Run one operation; `None` if it failed.
    pub fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let r = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => r,
            Err(p) => Err(format!("panicked: {}", panic_text(p.as_ref()))),
        };
        r.map_err(|e| self.fail(what, e)).ok()
    }

    /// Record a failed check that is not an operation of its own.
    pub fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.reasons.push(format!("{what}: {why}"));
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// FNV-1a over a list of words: the digest of a run's simulated outputs.
pub fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.25), 3.25);
        assert_eq!(quantile(&v, 0.75), 7.75);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(15), None);
        assert_eq!(tail_percentile(36), Some(72));
        assert_eq!(tail_percentile(1000), Some(99));
    }
}
