//! Lock-free rolling-window aggregation for the serving read path.
//!
//! The cumulative registry answers "what happened since boot"; this module
//! answers "what is happening *right now*". It keeps a ring of
//! [`RING_SLICES`] per-second slices — each slice a log2-nanosecond
//! histogram (same bucket scheme as [`registry::Hist`], via the shared
//! [`registry::bucket_of`]) or a plain counter — and derives windowed
//! p50/p95/p99, request rate and error ratio over the standard
//! 10s/60s/300s windows from the slices whose second stamp falls inside
//! the window.
//!
//! ## Slice rotation protocol
//!
//! A slot is reused every [`RING_SLICES`] seconds. Writers never take a
//! lock: the first writer of a new second claims the reset through a CAS
//! on the slice's `claim` word, zeroes the slice, then *publishes* the new
//! second stamp with a release store — concurrent writers of the same
//! second spin (a handful of iterations: the winner performs ~40 plain
//! stores) until the stamp appears, so no sample is ever recorded into a
//! half-reset slice and none is lost or double counted. A writer that
//! stalls for a full ring revolution between stamping and recording would
//! fold its sample into the slot's newer second — a theoretical >5-minute
//! preemption, accepted and documented rather than locked against.
//!
//! Readers sum the slices whose published stamp is in-window. A slice in
//! the window cannot rotate underneath the reader (its slot is next reused
//! `RING_SLICES` seconds after its stamp, which is beyond every supported
//! window), so a snapshot is a consistent lower bound exactly like the
//! cumulative registry's relaxed reads.
//!
//! ## Labeled serving series
//!
//! The serving registry here is dimensioned by (route × status class ×
//! read path). All three axes are closed enums, so the cardinality is
//! compile-time bounded at [`MAX_SERIES`] — labels cannot explode the way
//! string-keyed registries do. Windowed latency histograms are kept per
//! route (the axis quantiles are read along); the full triple gets a
//! counter ring.

use crate::registry::{bucket_of, HistSnapshot, HIST_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Ring length in seconds. Must exceed the largest window (300s) by enough
/// slack that a snapshot never races a slot reuse.
pub const RING_SLICES: usize = 330;

/// The windows every consumer reports, in seconds.
pub const WINDOWS_S: [u64; 3] = [10, 60, 300];

/// Budgeted slow fraction for the latency SLO: a p99 target means 1% of
/// requests may exceed the threshold before burn rate reaches 1.0.
pub const LATENCY_SLO_BUDGET: f64 = 0.01;

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static START: OnceLock<Instant> = OnceLock::new();

/// Seconds since the process-global window clock started, **1-based** so
/// that a stamp of `0` always means "slice never written".
pub fn now_sec() -> u64 {
    START.get_or_init(Instant::now).elapsed().as_secs() + 1
}

// ---------------------------------------------------------------------------
// Histogram ring
// ---------------------------------------------------------------------------

struct HistSlice {
    /// Published second this slice holds; 0 = never written.
    sec: AtomicU64,
    /// Rotation claim token (CAS target); equals `sec` when quiescent.
    claim: AtomicU64,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const HIST_SLICE_ZERO: HistSlice = HistSlice {
    sec: AtomicU64::new(0),
    claim: AtomicU64::new(0),
    count: AtomicU64::new(0),
    sum_ns: AtomicU64::new(0),
    max_ns: AtomicU64::new(0),
    buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
};

/// A rolling-window histogram: [`RING_SLICES`] per-second log2-ns slices.
pub struct HistRing {
    slices: [HistSlice; RING_SLICES],
}

impl HistRing {
    pub const fn new() -> Self {
        Self {
            slices: [HIST_SLICE_ZERO; RING_SLICES],
        }
    }

    /// Records one nanosecond sample under second `sec` (from [`now_sec`],
    /// or any monotone test clock). Lock-free; see the module docs for the
    /// rotation protocol.
    pub fn record_at(&self, sec: u64, ns: u64) {
        let slice = &self.slices[(sec % RING_SLICES as u64) as usize];
        loop {
            let cur = slice.sec.load(Ordering::Acquire);
            if cur >= sec {
                // Live for our second — or already recycled for a newer one
                // (a writer stalled a whole ring revolution); fold the
                // sample into the newer second rather than lose it.
                break;
            }
            if slice
                .claim
                .compare_exchange(cur, sec, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slice.count.store(0, Ordering::Relaxed);
                slice.sum_ns.store(0, Ordering::Relaxed);
                slice.max_ns.store(0, Ordering::Relaxed);
                for b in &slice.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                slice.sec.store(sec, Ordering::Release);
                break;
            }
            std::hint::spin_loop();
        }
        slice.count.fetch_add(1, Ordering::Relaxed);
        slice.sum_ns.fetch_add(ns, Ordering::Relaxed);
        slice.max_ns.fetch_max(ns, Ordering::Relaxed);
        slice.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the slices covering the trailing `window_s` seconds — the
    /// half-complete current second included, so the window is live — into
    /// a [`HistSnapshot`] (reusing its quantile machinery).
    pub fn snapshot_at(&self, now_sec: u64, window_s: u64) -> HistSnapshot {
        debug_assert!(window_s >= 1 && (window_s as usize) < RING_SLICES);
        let lo = now_sec.saturating_sub(window_s - 1);
        let mut out = HistSnapshot {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: [0; HIST_BUCKETS],
        };
        for slice in &self.slices {
            let s = slice.sec.load(Ordering::Acquire);
            if s == 0 || s < lo || s > now_sec {
                continue;
            }
            out.count += slice.count.load(Ordering::Relaxed);
            out.sum_ns += slice.sum_ns.load(Ordering::Relaxed);
            out.max_ns = out.max_ns.max(slice.max_ns.load(Ordering::Relaxed));
            for (acc, b) in out.buckets.iter_mut().zip(&slice.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        out
    }
}

impl Default for HistRing {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Counter ring
// ---------------------------------------------------------------------------

struct CounterSlice {
    sec: AtomicU64,
    claim: AtomicU64,
    value: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const COUNTER_SLICE_ZERO: CounterSlice = CounterSlice {
    sec: AtomicU64::new(0),
    claim: AtomicU64::new(0),
    value: AtomicU64::new(0),
};

/// A rolling-window counter: [`RING_SLICES`] per-second slices, same
/// rotation protocol as [`HistRing`].
pub struct CounterRing {
    slices: [CounterSlice; RING_SLICES],
}

impl CounterRing {
    pub const fn new() -> Self {
        Self {
            slices: [COUNTER_SLICE_ZERO; RING_SLICES],
        }
    }

    pub fn add_at(&self, sec: u64, v: u64) {
        let slice = &self.slices[(sec % RING_SLICES as u64) as usize];
        loop {
            let cur = slice.sec.load(Ordering::Acquire);
            if cur >= sec {
                break;
            }
            if slice
                .claim
                .compare_exchange(cur, sec, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slice.value.store(0, Ordering::Relaxed);
                slice.sec.store(sec, Ordering::Release);
                break;
            }
            std::hint::spin_loop();
        }
        slice.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Total over the trailing `window_s` seconds (current second included).
    pub fn sum_at(&self, now_sec: u64, window_s: u64) -> u64 {
        debug_assert!(window_s >= 1 && (window_s as usize) < RING_SLICES);
        let lo = now_sec.saturating_sub(window_s - 1);
        let mut total = 0u64;
        for slice in &self.slices {
            let s = slice.sec.load(Ordering::Acquire);
            if s == 0 || s < lo || s > now_sec {
                continue;
            }
            total += slice.value.load(Ordering::Relaxed);
        }
        total
    }
}

impl Default for CounterRing {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Labeled serving series (route × status class × read path)
// ---------------------------------------------------------------------------

/// The closed set of serving routes. `Other` absorbs 404s and unparsable
/// requests so every request lands in exactly one series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Route {
    Recs,
    Similar,
    Score,
    Healthz,
    Metrics,
    AdminObs,
    AdminReload,
    AdminShutdown,
    Events,
    Other,
}

impl Route {
    pub const ALL: [Route; 10] = [
        Route::Recs,
        Route::Similar,
        Route::Score,
        Route::Healthz,
        Route::Metrics,
        Route::AdminObs,
        Route::AdminReload,
        Route::AdminShutdown,
        Route::Events,
        Route::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Route::Recs => "recs",
            Route::Similar => "similar",
            Route::Score => "score",
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::AdminObs => "admin_obs",
            Route::AdminReload => "admin_reload",
            Route::AdminShutdown => "admin_shutdown",
            Route::Events => "events",
            Route::Other => "other",
        }
    }
}

/// Status class of a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum StatusClass {
    Ok2xx,
    Client4xx,
    Server5xx,
}

impl StatusClass {
    pub const ALL: [StatusClass; 3] = [
        StatusClass::Ok2xx,
        StatusClass::Client4xx,
        StatusClass::Server5xx,
    ];

    pub fn of(status: u16) -> StatusClass {
        match status {
            0..=399 => StatusClass::Ok2xx,
            400..=499 => StatusClass::Client4xx,
            _ => StatusClass::Server5xx,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StatusClass::Ok2xx => "2xx",
            StatusClass::Client4xx => "4xx",
            StatusClass::Server5xx => "5xx",
        }
    }

    /// Errors for RED purposes: anything non-2xx.
    pub fn is_error(self) -> bool {
        !matches!(self, StatusClass::Ok2xx)
    }
}

/// Which scan answered the request: the read plan it was served on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ReadPath {
    Exact,
    Quant,
    Ann,
}

impl ReadPath {
    pub const ALL: [ReadPath; 3] = [ReadPath::Exact, ReadPath::Quant, ReadPath::Ann];

    pub fn name(self) -> &'static str {
        match self {
            ReadPath::Exact => "exact",
            ReadPath::Quant => "quant",
            ReadPath::Ann => "ann",
        }
    }
}

pub const N_ROUTES: usize = Route::ALL.len();

/// Hard cardinality bound on the labeled serving series — the full label
/// cross product, closed at compile time. A registry that cannot allocate
/// cannot blow up under hostile paths either.
pub const MAX_SERIES: usize = N_ROUTES * StatusClass::ALL.len() * ReadPath::ALL.len();
const _: () = assert!(MAX_SERIES == 90, "closed label space drifted");
const _: () = assert!(MAX_SERIES <= 128, "serving label cardinality bound");

#[inline]
fn series_index(route: Route, class: StatusClass, path: ReadPath) -> usize {
    (route as usize * StatusClass::ALL.len() + class as usize) * ReadPath::ALL.len()
        + path as usize
}

static ROUTE_HISTS: [HistRing; N_ROUTES] = [const { HistRing::new() }; N_ROUTES];
static SERIES_COUNTS: [CounterRing; MAX_SERIES] = [const { CounterRing::new() }; MAX_SERIES];
/// Requests that exceeded the configured latency SLO threshold.
static SLO_SLOW: CounterRing = CounterRing::new();
/// Requests shed by the admission controller (503 before any compute).
static SHED: CounterRing = CounterRing::new();
/// Requests dropped because their deadline expired before compute.
static DEADLINE: CounterRing = CounterRing::new();

/// Records one served request into the rolling serving registry: latency
/// into the route's histogram ring, one count into the (route × status
/// class × read path) series, and the slow-counter when the request blew
/// the latency SLO threshold.
pub fn record_request(route: Route, status: u16, path: ReadPath, ns: u64, slo_slow: bool) {
    let sec = now_sec();
    ROUTE_HISTS[route as usize].record_at(sec, ns);
    SERIES_COUNTS[series_index(route, StatusClass::of(status), path)].add_at(sec, 1);
    if slo_slow {
        SLO_SLOW.add_at(sec, 1);
    }
}

/// Records one admission-controller shed into the rolling registry. The
/// request also lands in [`record_request`] as a 5xx; this dedicated ring
/// lets dashboards separate "shed by design" from organic server errors.
pub fn record_shed() {
    SHED.add_at(now_sec(), 1);
}

/// Records one deadline-exceeded drop into the rolling registry.
pub fn record_deadline_exceeded() {
    DEADLINE.add_at(now_sec(), 1);
}

/// Everything the serving surfaces report about one trailing window.
#[derive(Clone, Debug)]
pub struct WindowStats {
    pub window_s: u64,
    /// Total requests across every series.
    pub requests: u64,
    /// Requests with a non-2xx status class.
    pub errors: u64,
    /// Merged latency histogram across all routes.
    pub hist: HistSnapshot,
    /// Per-route latency histograms, [`Route::ALL`] order (empty routes
    /// have `count == 0`).
    pub routes: Vec<(Route, HistSnapshot)>,
    /// Request counts per read path, [`ReadPath::ALL`] order.
    pub read_paths: [u64; ReadPath::ALL.len()],
    /// Requests over the latency SLO threshold.
    pub slo_slow: u64,
    /// Requests shed by the admission controller.
    pub sheds: u64,
    /// Requests dropped after their deadline expired.
    pub deadline_exceeded: u64,
}

impl WindowStats {
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.window_s as f64
    }

    pub fn error_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.errors as f64 / self.requests as f64
        }
    }

    /// Fraction of requests over the latency SLO threshold.
    pub fn slow_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.slo_slow as f64 / self.requests as f64
        }
    }
}

/// Snapshots the global serving registry over one trailing window ending
/// at `now_sec` (pass [`now_sec()`](now_sec)).
pub fn serving_window(now_sec: u64, window_s: u64) -> WindowStats {
    let mut merged = HistSnapshot {
        count: 0,
        sum_ns: 0,
        max_ns: 0,
        buckets: [0; HIST_BUCKETS],
    };
    let mut routes = Vec::with_capacity(N_ROUTES);
    for r in Route::ALL {
        let hs = ROUTE_HISTS[r as usize].snapshot_at(now_sec, window_s);
        merged.count += hs.count;
        merged.sum_ns += hs.sum_ns;
        merged.max_ns = merged.max_ns.max(hs.max_ns);
        for (acc, b) in merged.buckets.iter_mut().zip(&hs.buckets) {
            *acc += b;
        }
        routes.push((r, hs));
    }
    let mut requests = 0u64;
    let mut errors = 0u64;
    let mut read_paths = [0u64; ReadPath::ALL.len()];
    for r in Route::ALL {
        for c in StatusClass::ALL {
            for p in ReadPath::ALL {
                let n = SERIES_COUNTS[series_index(r, c, p)].sum_at(now_sec, window_s);
                requests += n;
                if c.is_error() {
                    errors += n;
                }
                read_paths[p as usize] += n;
            }
        }
    }
    WindowStats {
        window_s,
        requests,
        errors,
        hist: merged,
        routes,
        read_paths,
        slo_slow: SLO_SLOW.sum_at(now_sec, window_s),
        sheds: SHED.sum_at(now_sec, window_s),
        deadline_exceeded: DEADLINE.sum_at(now_sec, window_s),
    }
}

/// SLO burn rate: observed bad-event ratio over the budgeted ratio. 1.0
/// means the error budget is being consumed exactly at the sustainable
/// rate; above 1.0 the budget is burning down. Zero when idle or when no
/// budget is configured.
pub fn burn_rate(bad: u64, total: u64, budget_ratio: f64) -> f64 {
    if total == 0 || budget_ratio <= 0.0 {
        0.0
    } else {
        (bad as f64 / total as f64) / budget_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_one_based_and_monotone(// second 0 is reserved for "never written"
    ) {
        let a = now_sec();
        let b = now_sec();
        assert!(a >= 1);
        assert!(b >= a);
    }

    #[test]
    fn ring_accumulates_within_a_second() {
        let ring = Box::new(HistRing::new());
        ring.record_at(5, 100);
        ring.record_at(5, 300);
        let hs = ring.snapshot_at(5, 10);
        assert_eq!(hs.count, 2);
        assert_eq!(hs.sum_ns, 400);
        assert_eq!(hs.max_ns, 300);
        assert_eq!(hs.buckets[bucket_of(100)] + hs.buckets[bucket_of(300)], 2);
    }

    #[test]
    fn window_excludes_expired_seconds() {
        let ring = Box::new(HistRing::new());
        ring.record_at(1, 50);
        ring.record_at(11, 70);
        // 10s window ending at second 11 covers seconds 2..=11 only.
        let hs = ring.snapshot_at(11, 10);
        assert_eq!(hs.count, 1);
        assert_eq!(hs.sum_ns, 70);
        // The 60s window still sees both.
        let hs = ring.snapshot_at(11, 60);
        assert_eq!(hs.count, 2);
    }

    #[test]
    fn slot_reuse_drops_the_old_second() {
        let ring = Box::new(HistRing::new());
        let sec0 = 7u64;
        let sec1 = sec0 + RING_SLICES as u64; // same slot, one revolution later
        ring.record_at(sec0, 1_000);
        ring.record_at(sec1, 2_000);
        let hs = ring.snapshot_at(sec1, 10);
        assert_eq!(hs.count, 1);
        assert_eq!(hs.sum_ns, 2_000, "rotation must zero the reclaimed slice");
    }

    #[test]
    fn counter_ring_windows_and_rotates() {
        let ring = Box::new(CounterRing::new());
        ring.add_at(3, 4);
        ring.add_at(4, 1);
        assert_eq!(ring.sum_at(4, 10), 5);
        assert_eq!(ring.sum_at(4, 1), 1, "1s window sees only the last second");
        ring.add_at(3 + RING_SLICES as u64, 9);
        assert_eq!(ring.sum_at(3 + RING_SLICES as u64, 10), 9);
    }

    #[test]
    fn series_index_is_a_bijection_onto_the_bound() {
        let mut seen = [false; MAX_SERIES];
        for r in Route::ALL {
            for c in StatusClass::ALL {
                for p in ReadPath::ALL {
                    let i = series_index(r, c, p);
                    assert!(!seen[i], "series index collision at {i}");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "series index not surjective");
    }

    #[test]
    fn status_classes_partition_the_status_space() {
        assert_eq!(StatusClass::of(200), StatusClass::Ok2xx);
        assert_eq!(StatusClass::of(304), StatusClass::Ok2xx);
        assert_eq!(StatusClass::of(404), StatusClass::Client4xx);
        assert_eq!(StatusClass::of(500), StatusClass::Server5xx);
        assert!(!StatusClass::of(200).is_error());
        assert!(StatusClass::of(400).is_error());
        assert!(StatusClass::of(503).is_error());
    }

    #[test]
    fn burn_rate_definition() {
        // 2% errors against a 1% budget burns at 2x.
        let b = burn_rate(2, 100, 0.01);
        assert!((b - 2.0).abs() < 1e-12);
        assert_eq!(burn_rate(5, 0, 0.01), 0.0, "idle window does not burn");
        assert_eq!(burn_rate(5, 100, 0.0), 0.0, "no budget, no burn");
    }

    #[test]
    fn global_serving_registry_records_and_windows() {
        // The globals are process-wide and other tests may write them, so
        // only monotone claims within our own label cell are safe.
        let now = now_sec();
        let before = serving_window(now, 300);
        record_request(Route::Recs, 200, ReadPath::Exact, 1_000, false);
        record_request(Route::Recs, 404, ReadPath::Exact, 2_000, true);
        let after = serving_window(now_sec(), 300);
        assert!(after.requests >= before.requests + 2);
        assert!(after.errors > before.errors);
        assert!(after.slo_slow > before.slo_slow);
        assert!(after.read_paths[ReadPath::Exact as usize] >= 2);
        let (_, recs) = after
            .routes
            .iter()
            .find(|(r, _)| *r == Route::Recs)
            .unwrap();
        assert!(recs.count >= 2);
        assert!(after.error_ratio() > 0.0);
        assert!(after.rps() > 0.0);
    }

    #[test]
    fn shed_and_deadline_rings_window() {
        let before = serving_window(now_sec(), 300);
        record_shed();
        record_shed();
        record_deadline_exceeded();
        let after = serving_window(now_sec(), 300);
        assert!(after.sheds >= before.sheds + 2);
        assert!(after.deadline_exceeded > before.deadline_exceeded);
    }
}
