//! One design pass: deploy a cluster, bulk-load one design, run the
//! closed-loop clients through warm-up and the measured window, drain
//! them, and verify every acknowledged insert.
//!
//! A plain pass reads the wall clock only around set-up and around the
//! window's `Sim::run_until`. A timed pass adds the benchmark-owned host
//! timers of `probe.rs`; a counted pass adds the counting observers
//! (telemetry and the verb counter). Both must leave every simulated
//! number unchanged, which `PassResult::fingerprint` lets the caller check.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use nam::NamCluster;
use namdex_core::{Design, LearnedStats};
use rdma_sim::{ClusterSpec, Endpoint, ServerStats, WalStats};
use simnet::{Sim, SimDur, SimTime};
use telemetry::{Registry, Telemetry, COMPONENTS};
use ycsb::{Dataset, Op, OpGen};

use crate::check::{self, Verdict};
use crate::probe::{
    cpu_ns, fnv1a, now_ns, rss_mb, timed, trim_heap, Bracket, BracketClose, BracketOpen, Ledger,
    Span, Stamps, VerbCounter, FNV_OFFSET,
};
use crate::workload::{DesignKind, WorkloadSpec, CLIENTS, MEMORY_SERVERS, PAGE_SIZE};

/// Virtual time the clients get to finish their last op after the window.
const DRAIN: SimDur = SimDur::from_millis(50);
/// Virtual length of one slice of the measured window.
pub const SLICE: SimDur = SimDur::from_millis(5);
/// Virtual time the post-window insert check may take.
const VERIFY_LIMIT: SimDur = SimDur::from_millis(1_000_000);
/// One client in this many has its ops' spans sampled in a timed pass.
const SPAN_EVERY: u64 = 16;
/// Spans kept per timed pass.
const SPAN_CAP: usize = 1 << 16;

/// Simulated (virtual-time) results: exact per seed.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Ops that completed in the window (errors included).
    pub attempted: u64,
    /// ... of which returned an error.
    pub errors: u64,
    /// ... of which returned a wrong answer.
    pub wrong: u64,
    /// Errors and wrong answers outside the window (warm-up, drain and
    /// the post-window insert check).
    pub failed_outside: u64,
    /// Virtual latency (ns) of every op completed in the window without
    /// an error, sorted.
    pub latencies: Vec<u64>,
    /// Window length, virtual ns.
    pub window_ns: u64,
    /// Executor events in the window.
    pub events: u64,
    /// Per-server counter deltas over the window.
    pub servers: Vec<ServerStats>,
    /// Per-server WAL counter deltas over the window (empty without WAL).
    pub wal: Vec<WalStats>,
    /// Learned-routing counter deltas over the window.
    pub learned: Option<LearnedStats>,
    /// Race-detector counter deltas over the window.
    pub race: Option<racecheck::Counts>,
    /// Race-detector counters for the whole pass (every validation
    /// window has closed by its end).
    pub race_total: Option<racecheck::Counts>,
    /// `BufArena` (checkouts, reuses) deltas over the window.
    pub arena: (u64, u64),
    /// Inserts acknowledged in the window.
    pub inserts_in_window: u64,
    /// Acknowledged inserts looked up after the window.
    pub inserts_verified: u64,
}

impl SimResult {
    /// Ops completed in the window without an error.
    pub fn completed(&self) -> u64 {
        self.attempted - self.errors
    }

    /// A digest of every field (all deterministic counts, every virtual
    /// latency included), for the repeat and instrumented-vs-plain
    /// comparisons.
    fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, format!("{self:?}").as_bytes())
    }
}

/// Host results of a pass.
#[derive(Clone, Debug, Default)]
pub struct HostResult {
    /// On-CPU ns of cluster creation plus bulk-load, timed as one
    /// interval.
    pub setup_ns: u64,
    /// On-CPU ns inside `NamCluster::new`.
    pub cluster_new_ns: u64,
    /// On-CPU ns inside the design's `build`.
    pub build_ns: u64,
    /// Wall ns of the window's `Sim::run_until` calls.
    pub window_ns: u64,
    /// The window's slices, in order.
    pub slices: Vec<Slice>,
    /// `VmRSS` before the cluster is created, MiB.
    pub rss_start_mb: f64,
    /// `VmRSS` after bulk-load, MiB.
    pub rss_built_mb: f64,
    /// `VmRSS` after the window, MiB.
    pub rss_end_mb: f64,
    /// Server pool bytes allocated after bulk-load, all servers.
    pub pool_bytes: u64,
    /// RPC handler cores per server (for CPU utilisation).
    pub rpc_cores: usize,
}

/// Host numbers of one slice of the window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    /// Wall ns of the slice's `Sim::run_until`.
    pub wall_ns: u64,
    /// On-CPU ns of the same call.
    pub cpu_ns: u64,
    /// Ops completed without an error in the slice.
    pub completed: u64,
    /// Ledger deltas `[gen, core, bench]` (zero outside timed passes).
    pub ledger: [u64; 3],
}

/// Which instruments a pass installs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// None: the end-to-end numbers.
    Plain,
    /// Host timers: `next_op` and op-future polls, the bracket around the
    /// race detector, sampled spans.
    Timed,
    /// Counting observers: telemetry's latency breakdown and the verb
    /// counter. Kept out of the timed pass so their host cost does not
    /// land in the op-future polls it times.
    Counted,
}

/// Host-time ledger of a timed pass (window deltas).
#[derive(Clone, Debug, Default)]
pub struct TimingResult {
    /// Host ns in `OpGen::next_op`.
    pub gen_ns: u64,
    /// Host ns in polls of `Design` op futures.
    pub core_poll_ns: u64,
    /// Host ns of the benchmark's own bookkeeping between ops.
    pub bench_ns: u64,
    /// Host ns inside race-detector callbacks.
    pub race_ns: u64,
    /// Sampled spans.
    pub spans: Vec<Span>,
}

/// Counts of a counted pass (window deltas).
#[derive(Clone, Debug, Default)]
pub struct CountResult {
    /// CAS verbs.
    pub cas: u64,
    /// Remote allocations.
    pub alloc: u64,
    /// Telemetry virtual ns per latency component (`COMPONENTS` order).
    pub components: [f64; 7],
}

/// Everything one pass produces.
pub struct PassResult {
    /// Virtual-time results.
    pub sim: SimResult,
    /// `SimResult::fingerprint` of `sim`.
    pub fingerprint: u64,
    /// Host results.
    pub host: HostResult,
    /// Host-time ledger (timed passes only).
    pub timing: Option<TimingResult>,
    /// Layer counts (counted passes only).
    pub counts: Option<CountResult>,
}

/// Counters the clients update as their ops return.
struct Shared {
    data: Dataset,
    warmup_end: SimTime,
    end: SimTime,
    stop: Cell<bool>,
    running: Cell<usize>,
    attempted: Cell<u64>,
    errors: Cell<u64>,
    wrong: Cell<u64>,
    failed_outside: Cell<u64>,
    latencies: RefCell<Vec<u64>>,
    /// Every `(key, value)` an insert was issued with.
    issued: RefCell<BTreeSet<(u64, u64)>>,
    /// Every acknowledged insert.
    acked: RefCell<Vec<(u64, u64)>>,
    inserts_in_window: Cell<u64>,
}

impl Shared {
    /// Ops completed without an error in the window so far.
    fn completed(&self) -> u64 {
        self.attempted.get() - self.errors.get()
    }

    fn record(&self, verdict: Verdict, t0: SimTime, t1: SimTime) {
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);
        if t1 > self.warmup_end && t1 <= self.end {
            bump(&self.attempted);
            match verdict {
                Verdict::Ok => self.latencies.borrow_mut().push((t1 - t0).as_nanos()),
                Verdict::Wrong => {
                    bump(&self.wrong);
                    self.latencies.borrow_mut().push((t1 - t0).as_nanos());
                }
                Verdict::Error => bump(&self.errors),
            }
        } else if verdict != Verdict::Ok {
            bump(&self.failed_outside);
        }
    }
}

/// Instruments of a timed or counted pass.
#[derive(Default)]
struct Probes {
    ledger: Option<Rc<Ledger>>,
    bracket: Option<Rc<Bracket>>,
    verbs: Option<Rc<VerbCounter>>,
    telemetry: Option<Rc<Telemetry>>,
}

impl Probes {
    /// `[gen, core, bench, race, cas, alloc]` so far.
    fn totals(&self) -> [u64; 6] {
        let [g, c, b] = self.ledger.as_ref().map_or([0; 3], |l| l.totals());
        let race = self.bracket.as_ref().map_or(0, |b| b.inside_ns.get());
        let [cas, alloc] = self.verbs.as_ref().map_or([0; 2], |v| v.totals());
        [g, c, b, race, cas, alloc]
    }

    /// Virtual ns per telemetry component, all op kinds.
    fn components(&self) -> [f64; 7] {
        let Some(tel) = &self.telemetry else {
            return [0.0; 7];
        };
        let rows = tel.registry().snapshot();
        COMPONENTS.map(|c| {
            let suffix = format!(".{}_ns", c.label());
            rows.iter()
                .filter(|r| r.name.starts_with("span.") && r.name.ends_with(&suffix))
                .map(|r| r.value)
                .sum()
        })
    }
}

fn wal_stats(nam: &NamCluster) -> Vec<WalStats> {
    (0..nam.num_servers())
        .filter_map(|s| nam.rdma.wal_stats(s))
        .collect()
}

fn wal_delta(end: &WalStats, start: &WalStats) -> WalStats {
    WalStats {
        appends: end.appends - start.appends,
        records_flushed: end.records_flushed - start.records_flushed,
        device_flushes: end.device_flushes - start.device_flushes,
        flushed_bytes: end.flushed_bytes - start.flushed_bytes,
        checkpoints: end.checkpoints - start.checkpoints,
        checkpoint_bytes: end.checkpoint_bytes - start.checkpoint_bytes,
        device_busy_nanos: end.device_busy_nanos - start.device_busy_nanos,
        ..*end
    }
}

fn server_delta(end: &ServerStats, start: &ServerStats) -> ServerStats {
    ServerStats {
        bytes_in: end.bytes_in - start.bytes_in,
        bytes_out: end.bytes_out - start.bytes_out,
        local_bytes: end.local_bytes - start.local_bytes,
        onesided_ops: end.onesided_ops - start.onesided_ops,
        rpcs: end.rpcs - start.rpcs,
        nic_busy_nanos: end.nic_busy_nanos - start.nic_busy_nanos,
        cpu_busy_nanos: end.cpu_busy_nanos - start.cpu_busy_nanos,
    }
}

fn learned_delta(end: LearnedStats, start: LearnedStats) -> LearnedStats {
    LearnedStats {
        predictions: end.predictions - start.predictions,
        mispredicts: end.mispredicts - start.mispredicts,
        retrains: end.retrains - start.retrains,
        epoch_flushes: end.epoch_flushes - start.epoch_flushes,
        fallbacks: end.fallbacks - start.fallbacks,
    }
}

/// One closed-loop client: issue an op, wait for it, check the answer,
/// repeat until told to stop.
async fn client(
    sim: Sim,
    design: Design,
    ep: Endpoint,
    mut gen: OpGen,
    shared: Rc<Shared>,
    ledger: Option<Rc<Ledger>>,
    id: u64,
) {
    let ledger = ledger.as_deref();
    let stamps = Stamps::default();
    let probe = ledger.map(|l| (l, &stamps));
    let sampled = id.is_multiple_of(SPAN_EVERY);
    let mut seq = 0u64;
    while !shared.stop.get() {
        let op_id = sampled.then_some((id << 32) | seq);
        seq += 1;
        let op = match ledger {
            None => gen.next_op(),
            Some(l) => {
                let t0 = now_ns();
                let op = gen.next_op();
                let t1 = now_ns();
                Ledger::charge(&l.gen_ns, t1 - t0);
                if seq > 1 {
                    Ledger::charge(&l.bench_ns, t0 - stamps.last_end.get());
                }
                stamps.since.set(Some(t1));
                l.span("ycsb.next_op", op_id, t0, t1);
                op
            }
        };
        let t0 = sim.now();
        let verdict = match op {
            Op::Point(k) => match timed(design.lookup(&ep, k), probe, op_id).await {
                Ok(v) if check::point(&shared.data, k, v) => Verdict::Ok,
                Ok(_) => Verdict::Wrong,
                Err(_) => Verdict::Error,
            },
            Op::Range(lo, hi) => match timed(design.range(&ep, lo, hi), probe, op_id).await {
                Ok(rows) if check::range(&shared.data, &shared.issued.borrow(), lo, hi, &rows) => {
                    Verdict::Ok
                }
                Ok(_) => Verdict::Wrong,
                Err(_) => Verdict::Error,
            },
            Op::Insert(k, v) => {
                shared.issued.borrow_mut().insert((k, v));
                match timed(design.insert(&ep, k, v), probe, op_id).await {
                    Ok(()) => {
                        shared.acked.borrow_mut().push((k, v));
                        Verdict::Ok
                    }
                    Err(_) => Verdict::Error,
                }
            }
        };
        let t1 = sim.now();
        if verdict == Verdict::Ok
            && matches!(op, Op::Insert(..))
            && t1 > shared.warmup_end
            && t1 <= shared.end
        {
            shared
                .inserts_in_window
                .set(shared.inserts_in_window.get() + 1);
        }
        shared.record(verdict, t0, t1);
    }
    shared.running.set(shared.running.get() - 1);
}

fn race_delta(end: racecheck::Counts, start: racecheck::Counts) -> racecheck::Counts {
    racecheck::Counts {
        reads_checked: end.reads_checked - start.reads_checked,
        racy_reads: end.racy_reads - start.racy_reads,
        dirty_reads: end.dirty_reads - start.dirty_reads,
        validated: end.validated - start.validated,
        violations: end.violations - start.violations,
    }
}

/// Everything that moves during the window, read at its two ends.
struct Snapshot {
    servers: Vec<ServerStats>,
    wal: Vec<WalStats>,
    learned: Option<LearnedStats>,
    race: Option<racecheck::Counts>,
    arena: (u64, u64),
    events: u64,
    probes: [u64; 6],
    components: [f64; 7],
}

impl Snapshot {
    fn take(
        sim: &Sim,
        nam: &NamCluster,
        design: &Design,
        race: Option<&racecheck::Racecheck>,
        probes: &Probes,
    ) -> Self {
        Snapshot {
            servers: nam.rdma.all_stats(),
            wal: wal_stats(nam),
            learned: design.learned_stats(),
            race: race.map(|r| r.counts()),
            arena: nam.rdma.arena().stats(),
            events: sim.events_processed(),
            probes: probes.totals(),
            components: probes.components(),
        }
    }
}

/// Run one pass of design `kind` on workload `spec` with workload seed
/// `seed`, with the instruments of `mode`.
///
/// Panics when the race detector or the telemetry breakdown reports a
/// violation: a violation fails the run.
pub fn run_pass(spec: &WorkloadSpec, kind: DesignKind, seed: u64, mode: Mode) -> PassResult {
    trim_heap();
    let rss_start_mb = rss_mb();
    let t_setup = cpu_ns();
    let sim = Sim::new();
    let cluster_spec = ClusterSpec {
        durability: spec.durability,
        ..ClusterSpec::with_memory_servers(MEMORY_SERVERS)
    };
    let rpc_cores = cluster_spec.rpc_cores_per_server;
    let nam = NamCluster::new(&sim, cluster_spec);
    let cluster_new_ns = cpu_ns() - t_setup;
    nam.rdma.set_active_clients(CLIENTS);

    // Observers fire in registration order: the bracket's halves sit
    // directly before and after the race detector.
    let mut probes = Probes::default();
    if mode == Mode::Timed {
        probes.ledger = Some(Rc::new(Ledger::new(SPAN_CAP)));
        if spec.racecheck {
            let bracket = Rc::new(Bracket::default());
            nam.rdma.add_observer(Rc::new(BracketOpen(bracket.clone())));
            probes.bracket = Some(bracket);
        }
    }
    let race = spec
        .racecheck
        .then(|| racecheck::Racecheck::install(&nam.rdma, PAGE_SIZE));
    if let Some(bracket) = &probes.bracket {
        nam.rdma
            .add_observer(Rc::new(BracketClose(bracket.clone())));
    }
    if mode == Mode::Counted {
        let telemetry = Telemetry::new(Registry::new());
        telemetry.install(&nam.rdma);
        let verbs = Rc::new(VerbCounter::default());
        nam.rdma.add_observer(verbs.clone());
        probes.telemetry = Some(telemetry);
        probes.verbs = Some(verbs);
    }

    let t_build = cpu_ns();
    let design = spec.build(kind, &nam);
    let t_built = cpu_ns();
    let rss_built_mb = rss_mb();
    let pool_bytes = (0..nam.num_servers())
        .map(|s| nam.rdma.with_pool(s, |p| p.allocated()))
        .sum();

    let warmup_end = sim.now() + spec.warmup;
    let end = warmup_end + spec.window;
    let shared = Rc::new(Shared {
        data: spec.dataset(),
        warmup_end,
        end,
        stop: Cell::new(false),
        running: Cell::new(CLIENTS),
        attempted: Cell::new(0),
        errors: Cell::new(0),
        wrong: Cell::new(0),
        failed_outside: Cell::new(0),
        latencies: RefCell::new(Vec::new()),
        issued: RefCell::new(BTreeSet::new()),
        acked: RefCell::new(Vec::new()),
        inserts_in_window: Cell::new(0),
    });
    for c in 0..CLIENTS as u64 {
        sim.spawn(client(
            sim.clone(),
            design.clone(),
            Endpoint::new(&nam.rdma),
            OpGen::new(spec.mix, spec.dataset(), c, CLIENTS as u64, seed),
            shared.clone(),
            probes.ledger.clone(),
            c,
        ));
    }

    sim.run_until(warmup_end);
    let snap = |sim: &Sim| Snapshot::take(sim, &nam, &design, race.as_deref(), &probes);
    let s0 = snap(&sim);
    // The window runs in slices of virtual time (which changes nothing in
    // the simulation), so host numbers can be taken as medians over
    // slices: a burst of host interference then spoils a slice, not the
    // whole window.
    let mut slices = Vec::new();
    let mut horizon = warmup_end;
    let mut before = (shared.completed(), probes.totals());
    while horizon < end {
        horizon = end.min(horizon + SLICE);
        let (t0, c0) = (now_ns(), cpu_ns());
        sim.run_until(horizon);
        let (wall_ns, cpu_ns) = (now_ns() - t0, cpu_ns() - c0);
        let after = (shared.completed(), probes.totals());
        slices.push(Slice {
            wall_ns,
            cpu_ns,
            completed: after.0 - before.0,
            ledger: std::array::from_fn(|i| after.1[i] - before.1[i]),
        });
        before = after;
    }
    let s1 = snap(&sim);
    let rss_end_mb = rss_mb();

    shared.stop.set(true);
    sim.run_until(end + DRAIN);
    assert_eq!(
        shared.running.get(),
        0,
        "clients still busy {DRAIN:?} after the window"
    );
    let inserts_verified = verify_inserts(&sim, &nam, &design, &shared);

    if let Some(r) = &race {
        r.assert_clean();
    }
    if let Some(tel) = &probes.telemetry {
        assert_eq!(
            tel.breakdown_mismatches(),
            0,
            "telemetry span breakdowns must sum exactly to op latency"
        );
    }

    // The race detector holds the cluster that holds the detector; break
    // the cycle so the pass frees its cluster.
    nam.rdma.clear_observers();

    let mut latencies = std::mem::take(&mut *shared.latencies.borrow_mut());
    latencies.sort_unstable();
    let sim_result = SimResult {
        attempted: shared.attempted.get(),
        errors: shared.errors.get(),
        wrong: shared.wrong.get(),
        failed_outside: shared.failed_outside.get(),
        latencies,
        window_ns: spec.window.as_nanos(),
        events: s1.events - s0.events,
        servers: s1
            .servers
            .iter()
            .zip(&s0.servers)
            .map(|(e, s)| server_delta(e, s))
            .collect(),
        wal: s1
            .wal
            .iter()
            .zip(&s0.wal)
            .map(|(e, s)| wal_delta(e, s))
            .collect(),
        learned: s1.learned.zip(s0.learned).map(|(e, s)| learned_delta(e, s)),
        race: s1.race.zip(s0.race).map(|(e, s)| race_delta(e, s)),
        race_total: race.as_ref().map(|r| r.counts()),
        arena: (s1.arena.0 - s0.arena.0, s1.arena.1 - s0.arena.1),
        inserts_in_window: shared.inserts_in_window.get(),
        inserts_verified,
    };
    let d: Vec<u64> = s1
        .probes
        .iter()
        .zip(&s0.probes)
        .map(|(e, s)| e - s)
        .collect();
    let timing = probes.ledger.as_ref().map(|l| TimingResult {
        gen_ns: d[0],
        core_poll_ns: d[1],
        bench_ns: d[2],
        race_ns: d[3],
        spans: std::mem::take(&mut *l.spans.borrow_mut()),
    });
    let counts = probes.telemetry.as_ref().map(|_| CountResult {
        cas: d[4],
        alloc: d[5],
        components: std::array::from_fn(|i| s1.components[i] - s0.components[i]),
    });
    PassResult {
        fingerprint: sim_result.fingerprint(),
        sim: sim_result,
        host: HostResult {
            setup_ns: t_built - t_setup,
            cluster_new_ns,
            build_ns: t_built - t_build,
            window_ns: slices.iter().map(|s| s.wall_ns).sum(),
            slices,
            rss_start_mb,
            rss_built_mb,
            rss_end_mb,
            pool_bytes,
            rpc_cores,
        },
        timing,
        counts,
    }
}

/// Look up every acknowledged insert (untimed), spread over `CLIENTS`
/// tasks. Returns how many were looked up; wrong answers and errors count
/// as failures outside the window.
fn verify_inserts(sim: &Sim, nam: &NamCluster, design: &Design, shared: &Rc<Shared>) -> u64 {
    let acked = Rc::new(std::mem::take(&mut *shared.acked.borrow_mut()));
    let done = Rc::new(Cell::new(0usize));
    for v in 0..CLIENTS {
        let (acked, done, shared) = (acked.clone(), done.clone(), shared.clone());
        let (design, ep) = (design.clone(), Endpoint::new(&nam.rdma));
        sim.spawn(async move {
            for &(k, _) in acked.iter().skip(v).step_by(CLIENTS) {
                let ok = matches!(design.lookup(&ep, k).await,
                    Ok(got) if check::inserted(&shared.issued.borrow(), k, got));
                if !ok {
                    shared.failed_outside.set(shared.failed_outside.get() + 1);
                }
            }
            done.set(done.get() + 1);
        });
    }
    let limit = sim.now() + VERIFY_LIMIT;
    let mut horizon = sim.now();
    while done.get() < CLIENTS {
        assert!(horizon < limit, "insert verification stalled");
        horizon += SimDur::from_millis(10);
        sim.run_until(horizon);
    }
    acked.len() as u64
}
