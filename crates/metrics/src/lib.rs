//! # fancy-metrics — the deterministic metrics plane
//!
//! A zero-dependency, label-aware metrics registry for the FANcY
//! reproduction: [`Counter`](snapshot::Value::Counter)s,
//! [`Gauge`](snapshot::Value::Gauge)s and exact-merge log2
//! [`Histogram`]s keyed by `(name, labels)`, snapshotted into a sorted
//! [`Snapshot`] and exported as Prometheus text or hand-rolled JSONL.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Everything is integer arithmetic over sorted
//!    containers; a [`Snapshot`] of equal state serializes to equal
//!    bytes. Histograms use a fixed log2 bucket layout so merging
//!    per-cell state across a parallel sweep is bit-identical at any
//!    `FANCY_THREADS` (see [`histogram`]).
//! 2. **Observational only.** Like `fancy-trace`, nothing in this crate
//!    can influence a simulation schedule: the kernel exposes a
//!    one-branch-when-off handle and instrumentation sites only *read*
//!    simulation state.
//! 3. **Zero deps.** The crate carries its own ~100-line JSON writer and
//!    parser rather than pulling in serde or even `fancy-trace`.
//!
//! Per-event instrumentation resolves a [`MetricId`] once per hub
//! ([`Registry::id`], cached by [`HubIds`]) and then updates through it
//! with an indexed add; the string-keyed calls resolve through the same
//! index, so there is one store and one set of rules (see [`Registry`]).
//!
//! The simulation-facing pieces (the kernel handle, the in-sim scrape
//! timer) live in `fancy-sim`, which re-exports this crate as
//! `fancy_sim::metrics`.

pub mod histogram;
pub mod snapshot;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

pub use histogram::{bucket_index, bucket_le, Histogram, BUCKET_COUNT};
pub use snapshot::{ParseError, Sample, Snapshot, Value};

/// A sorted label set (`edge="s3↔s7"`, `switch="s3"`, …).
///
/// Kept deliberately simple: a small sorted `Vec` of owned pairs.
/// Construction allocates, so per-event sites do not build labels at
/// all: they resolve a [`MetricId`] once per hub ([`Registry::id`]) and
/// update through it. Labels are built per update only at rare sites
/// (detections, reroute rising edges, incidents).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels {
    pairs: Vec<(String, String)>,
}

impl Labels {
    /// The empty label set.
    pub fn new() -> Self {
        Labels::default()
    }

    /// Add (or replace) one label, keeping the set sorted by key.
    pub fn with(mut self, key: &str, value: impl Into<String>) -> Self {
        let value = value.into();
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.pairs[i].1 = value,
            Err(i) => self.pairs.insert(i, (key.to_owned(), value)),
        }
        self
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.pairs[i].1.as_str())
    }

    /// Iterate `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pairs.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        write!(f, "}}")
    }
}

/// The kind of a metric series, fixed when the series is first resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A [`Value::Counter`].
    Counter,
    /// A [`Value::Gauge`].
    Gauge,
    /// A [`Value::Histogram`].
    Histogram,
}

impl Kind {
    /// The kind tag, as [`Value::kind`] spells it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }

    fn fresh(self) -> Value {
        match self {
            Kind::Counter => Value::Counter(0),
            Kind::Gauge => Value::Gauge(0),
            Kind::Histogram => Value::Histogram(Box::new(Histogram::new())),
        }
    }
}

/// A resolved handle to one `(name, labels)` series of a [`Registry`]:
/// an index into its dense series store. Only meaningful for the
/// registry that issued it (see [`HubIds`] for the per-hub cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

/// One slot of the dense store. `value` stays `None` until the first
/// update, so a resolved but never-updated series is invisible.
#[derive(Debug, Clone)]
struct Series {
    kind: Kind,
    value: Option<Value>,
}

/// The mutable metric store: a dense series store plus an index from
/// `(name, labels)` to [`MetricId`], sorted by key so snapshots come
/// out in deterministic order.
///
/// Two ways in, one store:
///
/// * **handles** — [`Registry::id`] resolves a series once;
///   [`Registry::add_id`], [`Registry::observe_id`],
///   [`Registry::gauge_set_id`] and [`Registry::gauge_max_id`] then
///   update it with an indexed add, no lookup and no allocation;
/// * **strings** — [`Registry::inc`], [`Registry::add`],
///   [`Registry::observe`], [`Registry::gauge_set`] and
///   [`Registry::gauge_max`] resolve through the same index on every
///   call (allocation-free once the series exists).
///
/// Rules shared by both:
///
/// * **first touch** — a series appears in [`Registry::snapshot`] (and so
///   in every exporter) only once it has been updated; resolving an id
///   creates nothing visible;
/// * **sticky kinds** — a series' kind is fixed when it is first
///   resolved; resolving the same `(name, labels)` as another kind
///   panics (an instrumentation bug, never a data condition).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    index: BTreeMap<String, BTreeMap<Labels, MetricId>>,
    series: Vec<Series>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Is the registry empty (no series updated yet)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of series updated at least once (what a snapshot holds).
    pub fn len(&self) -> usize {
        self.series.iter().filter(|s| s.value.is_some()).count()
    }

    /// Resolve the handle of `name{labels}` as a `kind` series,
    /// registering it on first use. Allocation-free when the series is
    /// already registered.
    ///
    /// # Panics
    /// Panics if the series is already registered with another kind.
    pub fn id(&mut self, name: &str, labels: &Labels, kind: Kind) -> MetricId {
        if let Some(&id) = self.index.get(name).and_then(|by| by.get(labels)) {
            let have = self.series[id.0 as usize].kind;
            assert!(
                have == kind,
                "metric {name}{labels} is a {}, not a {}",
                have.name(),
                kind.name()
            );
            return id;
        }
        let id = MetricId(u32::try_from(self.series.len()).expect("metric series overflow"));
        self.series.push(Series { kind, value: None });
        self.index
            .entry(name.to_owned())
            .or_default()
            .insert(labels.clone(), id);
        id
    }

    /// The value behind `id`, built on its first touch.
    fn touch(&mut self, id: MetricId) -> &mut Value {
        let s = &mut self.series[id.0 as usize];
        let kind = s.kind;
        s.value.get_or_insert_with(|| kind.fresh())
    }

    /// Increment the counter behind `id` by `delta`.
    pub fn add_id(&mut self, id: MetricId, delta: u64) {
        match self.touch(id) {
            Value::Counter(v) => *v += delta,
            other => panic!("metric #{} is a {}, not a counter", id.0, other.kind()),
        }
    }

    /// Set the gauge behind `id` to `v`.
    pub fn gauge_set_id(&mut self, id: MetricId, v: u64) {
        match self.touch(id) {
            Value::Gauge(g) => *g = v,
            other => panic!("metric #{} is a {}, not a gauge", id.0, other.kind()),
        }
    }

    /// Raise the gauge behind `id` to `v` if `v` is higher (high-water
    /// semantics, the same merge rule gauges use across cells).
    pub fn gauge_max_id(&mut self, id: MetricId, v: u64) {
        match self.touch(id) {
            Value::Gauge(g) => *g = (*g).max(v),
            other => panic!("metric #{} is a {}, not a gauge", id.0, other.kind()),
        }
    }

    /// Record one observation in the histogram behind `id`.
    pub fn observe_id(&mut self, id: MetricId, v: u64) {
        match self.touch(id) {
            Value::Histogram(h) => h.observe(v),
            other => panic!("metric #{} is a {}, not a histogram", id.0, other.kind()),
        }
    }

    /// Increment a counter by 1.
    pub fn inc(&mut self, name: &str, labels: Labels) {
        self.add(name, labels, 1);
    }

    /// Increment a counter by `delta`.
    pub fn add(&mut self, name: &str, labels: Labels, delta: u64) {
        let id = self.id(name, &labels, Kind::Counter);
        self.add_id(id, delta);
    }

    /// Set a gauge to `v`.
    pub fn gauge_set(&mut self, name: &str, labels: Labels, v: u64) {
        let id = self.id(name, &labels, Kind::Gauge);
        self.gauge_set_id(id, v);
    }

    /// Raise a gauge to `v` if `v` is higher.
    pub fn gauge_max(&mut self, name: &str, labels: Labels, v: u64) {
        let id = self.id(name, &labels, Kind::Gauge);
        self.gauge_max_id(id, v);
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, name: &str, labels: Labels, v: u64) {
        let id = self.id(name, &labels, Kind::Histogram);
        self.observe_id(id, v);
    }

    /// A sorted point-in-time copy of every series updated so far.
    pub fn snapshot(&self) -> Snapshot {
        let mut samples = Vec::new();
        for (name, by_labels) in &self.index {
            for (labels, id) in by_labels {
                if let Some(value) = &self.series[id.0 as usize].value {
                    samples.push(Sample {
                        name: name.clone(),
                        labels: labels.clone(),
                        value: value.clone(),
                    });
                }
            }
        }
        Snapshot { samples }
    }
}

/// A cloneable handle to one shared registry plus its scrape series.
///
/// The kernel holds one of these (when metrics are enabled), every
/// instrumentation site reaches it through `&mut Kernel`, and the
/// experiment harness keeps a clone to read results after the run — the
/// same ownership shape as `fancy-trace`'s `SharedRecorder`.
///
/// The scrape *series* is the deterministic time series: the in-sim
/// scrape timer calls [`MetricsHub::record_scrape`] at a fixed sim-time
/// cadence, appending `(sim nanos, Snapshot)` rows.
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<HubInner>>,
}

#[derive(Default)]
struct HubInner {
    registry: Registry,
    series: Vec<(u64, Snapshot)>,
}

impl MetricsHub {
    /// A hub with an empty registry and no scrape series.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        // A cell that panicked mid-update (crash-isolated sweeps) poisons
        // the mutex; metric state is merely observational, so recover the
        // guard rather than propagating the poison.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Run `f` against the registry.
    pub fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        f(&mut self.lock().registry)
    }

    /// Are `self` and `other` clones of one hub?
    fn same_hub(&self, other: &MetricsHub) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Snapshot the registry now.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().registry.snapshot()
    }

    /// Snapshot the registry and append the result to the scrape series
    /// at sim time `t_ns`. Returns the number of samples captured.
    pub fn record_scrape(&self, t_ns: u64) -> usize {
        let mut inner = self.lock();
        let snap = inner.registry.snapshot();
        let n = snap.len();
        inner.series.push((t_ns, snap));
        n
    }

    /// The scrape series so far (cloned).
    pub fn series(&self) -> Vec<(u64, Snapshot)> {
        self.lock().series.clone()
    }

    /// Number of scrapes recorded.
    pub fn series_len(&self) -> usize {
        self.lock().series.len()
    }
}

impl fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsHub")
            .field("metrics", &inner.registry.len())
            .field("scrapes", &inner.series.len())
            .finish()
    }
}

/// A set of [`MetricId`]s resolved against one hub, kept by an
/// instrumentation site between updates.
///
/// [`HubIds::get`] resolves on first use and again whenever a different
/// hub is passed in (re-attaching a hub re-resolves). The cache holds a
/// clone of the hub it resolved against, so hub identity cannot be
/// confused with a later hub at the same address.
pub struct HubIds<T>(Option<(MetricsHub, T)>);

impl<T> Default for HubIds<T> {
    fn default() -> Self {
        HubIds(None)
    }
}

impl<T> fmt::Debug for HubIds<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HubIds")
            .field("resolved", &self.0.is_some())
            .finish()
    }
}

impl<T> HubIds<T> {
    /// The ids for `hub` (`None` when no hub is attached), resolving them
    /// with `resolve` under the hub's lock if they were resolved against
    /// another hub or not at all.
    pub fn get(
        &mut self,
        hub: Option<&MetricsHub>,
        resolve: impl FnOnce(&mut Registry) -> T,
    ) -> Option<&T> {
        let hub = hub?;
        if !matches!(&self.0, Some((h, _)) if h.same_hub(hub)) {
            self.0 = Some((hub.clone(), hub.with(resolve)));
        }
        self.0.as_ref().map(|(_, ids)| ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sort_and_replace() {
        let l = Labels::new().with("b", "2").with("a", "1").with("b", "3");
        let pairs: Vec<(&str, &str)> = l.iter().collect();
        assert_eq!(pairs, vec![("a", "1"), ("b", "3")]);
        assert_eq!(l.get("b"), Some("3"));
        assert_eq!(l.get("z"), None);
        assert_eq!(l.to_string(), "{a=\"1\",b=\"3\"}");
        // Insertion order does not matter for equality or ordering.
        assert_eq!(l, Labels::new().with("a", "1").with("b", "3"));
    }

    #[test]
    fn registry_kinds_are_sticky() {
        let mut r = Registry::new();
        r.inc("x", Labels::new());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.observe("x", Labels::new(), 5)
        }));
        assert!(res.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn handle_and_string_paths_reach_one_series() {
        let mut r = Registry::new();
        let edge = Labels::new().with("edge", "s1↔s2");
        let c = r.id("c_total", &edge, Kind::Counter);
        r.add_id(c, 2);
        r.inc("c_total", edge.clone());
        assert_eq!(r.id("c_total", &edge, Kind::Counter), c);
        let g = r.id("g", &Labels::new(), Kind::Gauge);
        r.gauge_set("g", Labels::new(), 7);
        r.gauge_max_id(g, 5);
        r.gauge_max("g", Labels::new(), 9);
        let h = r.id("h", &Labels::new(), Kind::Histogram);
        r.observe_id(h, 3);
        r.observe("h", Labels::new(), 300);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.counter("c_total", &edge), Some(3));
        assert_eq!(snap.gauge("g", &Labels::new()), Some(9));
        assert_eq!(snap.histogram("h", &Labels::new()).unwrap().count(), 2);
        r.gauge_set_id(g, 1);
        assert_eq!(r.snapshot().gauge("g", &Labels::new()), Some(1));
    }

    #[test]
    fn resolved_but_untouched_series_is_invisible() {
        let mut r = Registry::new();
        r.inc("seen_total", Labels::new());
        let baseline = r.snapshot();
        for kind in [Kind::Counter, Kind::Gauge, Kind::Histogram] {
            let name = format!("unseen_{}", kind.name());
            r.id(&name, &Labels::new().with("k", "v"), kind);
        }
        assert_eq!(r.len(), 1);
        let snap = r.snapshot();
        assert_eq!(snap, baseline);
        assert_eq!(snap.to_jsonl(), baseline.to_jsonl());
        assert_eq!(snap.to_prometheus(), baseline.to_prometheus());
        assert!(!snap.to_prometheus().contains("unseen"));
        // The first update makes it appear.
        let id = r.id(
            "unseen_counter",
            &Labels::new().with("k", "v"),
            Kind::Counter,
        );
        r.add_id(id, 0);
        assert_eq!(r.snapshot().len(), 2);
    }

    #[test]
    fn kind_mismatch_panics_on_both_paths() {
        let panics = |f: &dyn Fn(&mut Registry)| {
            let mut r = Registry::new();
            r.id("x", &Labels::new(), Kind::Counter);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut r))).is_err()
        };
        assert!(panics(&|r| {
            r.id("x", &Labels::new(), Kind::Gauge);
        }));
        assert!(panics(&|r| {
            r.id("x", &Labels::new(), Kind::Histogram);
        }));
        assert!(panics(&|r| r.gauge_set("x", Labels::new(), 1)));
        assert!(panics(&|r| r.gauge_max("x", Labels::new(), 1)));
        assert!(panics(&|r| r.observe("x", Labels::new(), 1)));
        // The matching kind resolves fine on both paths.
        assert!(!panics(&|r| {
            r.id("x", &Labels::new(), Kind::Counter);
            r.inc("x", Labels::new());
        }));
    }

    #[test]
    fn resolution_order_does_not_change_merged_snapshots() {
        let keys: Vec<(&str, Labels, Kind)> = vec![
            ("a_total", Labels::new().with("role", "tx"), Kind::Counter),
            ("a_total", Labels::new().with("role", "rx"), Kind::Counter),
            ("depth", Labels::new().with("step", "leaf"), Kind::Histogram),
            ("level", Labels::new(), Kind::Gauge),
            ("never", Labels::new(), Kind::Counter),
        ];
        let fill = |order: &[usize]| {
            let hub = MetricsHub::new();
            let ids: Vec<MetricId> = hub.with(|r| {
                let mut ids = vec![MetricId(0); keys.len()];
                for &i in order {
                    ids[i] = r.id(keys[i].0, &keys[i].1, keys[i].2);
                }
                ids
            });
            hub.with(|r| {
                r.add_id(ids[0], 3);
                r.add_id(ids[1], 4);
                r.observe_id(ids[2], 17);
                r.gauge_max_id(ids[3], 9);
            });
            hub
        };
        let (x, y) = (fill(&[0, 1, 2, 3, 4]), fill(&[4, 3, 2, 1, 0]));
        assert_eq!(x.snapshot().to_jsonl(), y.snapshot().to_jsonl());
        let mut xy = x.snapshot();
        xy.merge(&y.snapshot());
        let mut yx = y.snapshot();
        yx.merge(&x.snapshot());
        assert_eq!(xy.to_jsonl(), yx.to_jsonl());
        assert_eq!(xy.to_prometheus(), yx.to_prometheus());
        assert_eq!(xy.len(), 4);
    }

    #[test]
    fn hub_ids_re_resolve_per_hub() {
        let resolve = |r: &mut Registry| r.id("ticks", &Labels::new(), Kind::Counter);
        let mut cache = HubIds::default();
        assert!(cache.get(None, resolve).is_none());
        let a = MetricsHub::new();
        a.with(|r| r.inc("other", Labels::new()));
        let id = *cache.get(Some(&a), resolve).unwrap();
        a.with(|r| r.add_id(id, 1));
        // A fresh hub lays its series out differently: the cache must
        // re-resolve rather than reuse `a`'s id.
        let b = MetricsHub::new();
        let id = *cache.get(Some(&b), resolve).unwrap();
        b.with(|r| r.add_id(id, 5));
        assert_eq!(a.snapshot().counter("ticks", &Labels::new()), Some(1));
        assert_eq!(b.snapshot().counter("ticks", &Labels::new()), Some(5));
        assert_eq!(b.snapshot().len(), 1);
        // Clones are the same hub: no re-resolution.
        let calls = std::cell::Cell::new(0);
        cache.get(Some(&b.clone()), |r| {
            calls.set(calls.get() + 1);
            resolve(r)
        });
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn hub_scrape_series_accumulates() {
        let hub = MetricsHub::new();
        hub.with(|r| r.inc("ticks", Labels::new()));
        assert_eq!(hub.record_scrape(1_000), 1);
        hub.with(|r| r.inc("ticks", Labels::new()));
        assert_eq!(hub.record_scrape(2_000), 1);
        let series = hub.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 1_000);
        assert_eq!(series[0].1.counter("ticks", &Labels::new()), Some(1));
        assert_eq!(series[1].1.counter("ticks", &Labels::new()), Some(2));
        // Clones share state.
        let other = hub.clone();
        assert_eq!(other.series_len(), 2);
    }
}
