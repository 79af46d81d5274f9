//! Host-side instruments: the wall clock, `/proc` memory readings, the
//! calibration loop, the op-future timing wrapper, the observers that bracket
//! and count verb-layer callbacks, and the in-memory span buffer.
//!
//! Everything here reads host state for reporting only. None of it feeds
//! back into the simulation, which is what the determinism self-check in
//! `main.rs` verifies run by run.

use std::cell::{Cell, RefCell};
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;

use rdma_sim::observer::{
    AttemptKind, FenceKind, OpArgs, OpKind, OpOutcome, RegionKind, RpcEvent, VerbEvent, VerbKind,
    VerbObserver,
};
use simnet::SimTime;

/// Host wall-clock nanoseconds since the first call in this process.
#[allow(clippy::disallowed_methods, clippy::disallowed_types)]
pub fn now_ns() -> u64 {
    use std::time::Instant; // xtask: allow(wall-clock-instant)
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64 // xtask: allow(wall-clock-instant)
}

/// On-CPU nanoseconds of the calling thread (`CLOCK_THREAD_CPUTIME_ID`):
/// user and system time the thread actually ran. Unlike wall time it
/// leaves out time the host gave to others (hypervisor steal, other
/// processes), which on a shared machine swings wall-clock rates by tens
/// of percent over seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`, whose layout on
    // 64-bit Linux is two 64-bit integers.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Wall time where no thread CPU clock is wired up.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_ns() -> u64 {
    now_ns()
}

/// Return the allocator's free memory to the OS (glibc `malloc_trim`), so
/// every pass starts from the same heap state: its set-up then always pays
/// for fresh pages, instead of sometimes reusing what an earlier pass freed
/// (which halves a 1M-key bulk-load's time at random).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free heap memory; it takes no
    // pointers and is safe to call at any point.
    unsafe { malloc_trim(0) };
}

/// No-op where the allocator has no trim call.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// A field of `/proc/self/status` in MiB (`VmRSS`, `VmHWM`), or 0 where
/// the file does not exist.
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set, MiB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS")
}

/// Process peak resident set, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Iterations of the calibration loop.
const CALIBRATION_ITERS: u64 = 1 << 25;

/// Score of a fixed CPU-bound loop (a dependent xorshift-multiply chain
/// that fits in registers), in million iterations per host second. Numbers
/// from two machines can be read side by side by dividing by their scores.
pub fn calibration_score() -> f64 {
    let t0 = now_ns();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..CALIBRATION_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i);
    }
    std::hint::black_box(x);
    let ns = (now_ns() - t0).max(1);
    CALIBRATION_ITERS as f64 * 1e3 / ns as f64
}

/// Host identity recorded beside every result.
pub struct Provenance {
    /// Git revision of the checkout, or `"none"` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest of every `*.rs` file under `crates/*/src` and
    /// `perfbench/src`, so a result names its sources without git.
    pub source_digest: String,
    /// Online CPUs.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
}

impl Provenance {
    /// Collect provenance from the current directory (the checkout root).
    pub fn collect() -> Self {
        Provenance {
            git_rev: git_rev().unwrap_or_else(|| "none".into()),
            source_digest: format!("{:016x}", source_digest()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                        .map(|(_, m)| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Resolve `.git/HEAD` by hand (no subprocess).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => {
            if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
                return Some(rev.trim().to_string());
            }
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find_map(|l| Some(l.strip_suffix(r)?.trim().to_string()))
        }
    }
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from `h`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect_rs(std::path::Path::new(root), &mut files);
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, f| {
        let h = fnv1a(h, f.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(f).unwrap_or_default())
    })
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect_rs(&p, out);
            }
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// One recorded span: a host wall-clock interval at a layer boundary.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary: `ycsb.next_op` or `core.poll`.
    pub name: &'static str,
    /// Operation (request) the span belongs to; the op is the parent.
    pub op: u64,
    /// Host nanoseconds since process start.
    pub start: u64,
    /// Host nanoseconds since process start.
    pub end: u64,
}

/// Host-time accumulators of a timed pass (benchmark-owned; the layers
/// under test carry no timers).
#[derive(Default)]
pub struct Ledger {
    /// Host ns inside `OpGen::next_op`.
    pub gen_ns: Cell<u64>,
    /// Host ns inside polls of `Design` op futures.
    pub core_poll_ns: Cell<u64>,
    /// Host ns the client tasks spend between one op future's last poll
    /// and the next `next_op`: the benchmark's own bookkeeping (answer
    /// checks, latency records).
    pub bench_ns: Cell<u64>,
    /// Sampled per-op spans, kept in memory until the run ends.
    pub spans: RefCell<Vec<Span>>,
    /// Stop sampling spans past this many.
    pub span_cap: usize,
}

impl Ledger {
    /// An empty ledger that keeps at most `span_cap` spans.
    pub fn new(span_cap: usize) -> Self {
        Ledger {
            span_cap,
            ..Ledger::default()
        }
    }

    /// Snapshot of the three accumulators.
    pub fn totals(&self) -> [u64; 3] {
        [
            self.gen_ns.get(),
            self.core_poll_ns.get(),
            self.bench_ns.get(),
        ]
    }

    /// Add `ns` to `cell`.
    pub fn charge(cell: &Cell<u64>, ns: u64) {
        cell.set(cell.get() + ns);
    }

    /// Record a span if sampling is on for `op` and the buffer has room.
    pub fn span(&self, name: &'static str, op: Option<u64>, start: u64, end: u64) {
        if let Some(op) = op {
            let mut spans = self.spans.borrow_mut();
            if spans.len() < self.span_cap {
                spans.push(Span {
                    name,
                    op,
                    start,
                    end,
                });
            }
        }
    }
}

/// Clock stamps one client shares with its current op's [`timed`]
/// wrapper, so the benchmark's own time between two ops is measured from
/// stamps the timers take anyway.
#[derive(Default)]
pub struct Stamps {
    /// End of `next_op`, until the op future's first poll takes it as its
    /// start.
    pub since: Cell<Option<u64>>,
    /// End of the op future's latest poll.
    pub last_end: Cell<u64>,
}

/// Await a `Design` op future, charging its host time (building it and
/// every poll) to `probe`'s ledger. With no probe it is a plain `await`.
pub async fn timed<F: Future>(
    fut: F,
    probe: Option<(&Ledger, &Stamps)>,
    op: Option<u64>,
) -> F::Output {
    let Some((ledger, stamps)) = probe else {
        return fut.await;
    };
    let mut fut = pin!(fut);
    poll_fn(|cx| {
        // The first poll is charged from the end of `next_op`, so building
        // the op future (the `Design` call itself) counts as core time,
        // with one clock read fewer.
        let t0 = stamps.since.take().unwrap_or_else(now_ns);
        let out = fut.as_mut().poll(cx);
        let t1 = now_ns();
        Ledger::charge(&ledger.core_poll_ns, t1 - t0);
        stamps.last_end.set(t1);
        ledger.span("core.poll", op, t0, t1);
        out
    })
    .await
}

/// Forward every [`VerbObserver`] hook to one `tick` call.
macro_rules! every_hook {
    ($tick:ident) => {
        fn on_verb(&self, _: &VerbEvent) {
            self.$tick();
        }
        fn on_free(&self, _: usize, _: u64, _: usize, _: SimTime) {
            self.$tick();
        }
        fn on_unreachable(&self, _: u64, _: usize, _: AttemptKind, _: SimTime) {
            self.$tick();
        }
        fn on_rpc(&self, _: &RpcEvent) {
            self.$tick();
        }
        fn on_verb_failed(&self, _: u64, _: usize, _: SimTime) {
            self.$tick();
        }
        fn on_op_start(&self, _: u64, _: OpKind, _: SimTime) {
            self.$tick();
        }
        fn on_op_end(&self, _: u64, _: OpKind, _: SimTime, _: bool) {
            self.$tick();
        }
        fn on_op_invoke(&self, _: u64, _: OpArgs, _: SimTime) {
            self.$tick();
        }
        fn on_op_response(&self, _: u64, _: &OpOutcome, _: SimTime) {
            self.$tick();
        }
        fn on_region(&self, _: u64, _: RegionKind, _: bool, _: SimTime) {
            self.$tick();
        }
        fn on_instant(&self, _: &str, _: SimTime) {
            self.$tick();
        }
        fn on_fence(&self, _: u64, _: FenceKind, _: usize, _: u64, _: SimTime) {
            self.$tick();
        }
        fn on_server_recovered(&self, _: usize, _: SimTime) {
            self.$tick();
        }
    };
}

/// The two halves of a bracket around the race detector's callbacks.
/// Observers fire in registration order, so with the opening half
/// registered before `Racecheck::install` and the closing half after it,
/// every callback's time inside the detector lies between the two.
#[derive(Default)]
pub struct Bracket {
    opened: Cell<u64>,
    /// Host ns between the two halves, summed over callbacks.
    pub inside_ns: Cell<u64>,
}

/// Opening half of a [`Bracket`].
pub struct BracketOpen(pub Rc<Bracket>);
/// Closing half of a [`Bracket`].
pub struct BracketClose(pub Rc<Bracket>);

impl BracketOpen {
    fn tick(&self) {
        self.0.opened.set(now_ns());
    }
}

impl BracketClose {
    fn tick(&self) {
        let b = &self.0;
        b.inside_ns
            .set(b.inside_ns.get() + (now_ns() - b.opened.get()));
    }
}

impl VerbObserver for BracketOpen {
    every_hook!(tick);
}

impl VerbObserver for BracketClose {
    every_hook!(tick);
}

/// Counts CAS verbs and remote allocations (`ServerStats` does not split
/// one-sided verbs by kind).
#[derive(Default)]
pub struct VerbCounter {
    /// CAS verbs.
    pub cas: Cell<u64>,
    /// Remote allocations.
    pub alloc: Cell<u64>,
}

impl VerbCounter {
    /// `[cas, alloc]` so far.
    pub fn totals(&self) -> [u64; 2] {
        [self.cas.get(), self.alloc.get()]
    }
}

impl VerbObserver for VerbCounter {
    fn on_verb(&self, ev: &VerbEvent) {
        let c = match ev.kind {
            VerbKind::Cas { .. } => &self.cas,
            VerbKind::Alloc => &self.alloc,
            VerbKind::Read | VerbKind::Write | VerbKind::Faa { .. } => return,
        };
        c.set(c.get() + 1);
    }

    fn on_free(&self, _: usize, _: u64, _: usize, _: SimTime) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_parse() {
        let rss = rss_mb();
        let peak = peak_rss_mb();
        assert!(rss > 0.0 && peak >= rss, "rss {rss} peak {peak}");
        assert_eq!(proc_status_mb("NoSuchField"), 0.0);
    }

    #[test]
    fn calibration_score_is_positive() {
        assert!(calibration_score() > 0.0);
    }
}
