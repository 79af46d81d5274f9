//! Happens-before race detector for one-sided verbs.
//!
//! A FastTrack-style vector-clock checker riding the always-compiled
//! [`VerbObserver`] bus: every completed verb, RPC, fence note and
//! recovery event updates per-client and per-page clock state, and every
//! optimistic READ is classified as *synchronized*, *benign-validated*
//! (a version/fence re-check was observed on the page before its bytes
//! escaped into a completed op result) or an **unvalidated race** — the
//! bug class the B-link optimistic-lock-coupling protocol (§3.2/§4.2 of
//! the paper) is one forgotten `covers()` away from.
//!
//! ## Happens-before model
//!
//! Threads of the clock space are clients (endpoint ids) and servers
//! (at [`SERVER_BASE`]` + s`). Edges:
//!
//! * **lock-word CAS** — a successful CAS on a page joins the page's
//!   release clock *and* write clock into the caller: the CAS observed
//!   the word the previous holder's unlock FAA produced (and, because
//!   verbs in a critical section are awaited sequentially, everything
//!   written before it). This covers both the acquire CAS of Listing 4
//!   and the lease-break CAS of recovery.
//! * **unlock FAA** — publishes the holder's clock into the page's
//!   release clock (release edge) and is recorded as a write to the
//!   page.
//! * **RPC** — request/reply pair mutually joins client and server
//!   clocks at completion time (the two-sided designs synchronize only
//!   here).
//! * **restart epoch** — [`FenceKind::EpochCheck`] records the cluster
//!   restart epoch a client has reconciled its cached state against;
//!   [`FenceKind::CachedUse`] against a stale epoch is a violation.
//! * **WAL recovery** — `on_server_recovered` resets the recovered
//!   server's page clocks: its memory was rewound to the durable
//!   prefix, so pre-crash shadow state must not order post-crash reads.
//!
//! Page clock state is kept at page granularity: the registry grows
//! from page-sized READ/WRITE/ALLOC events and atomics attach to the
//! containing page (offset-keyed fallback for a bare word).
//!
//! ## Cost per event
//!
//! Clocks are dense vectors indexed by client id (endpoint ids are
//! allocated densely from 0) plus a short server segment, joined in
//! place. A page's last write is one `(tid, epoch)` pair, so a read
//! compares one clock component (FastTrack's epoch form). Page state
//! lives in a slot vector behind an exact `(server, start)` hash index;
//! the ordered index behind it is walked only when an access does not
//! start at a registered page (first touch of a page, interior word),
//! on free and on recovery. Pending windows sit in a per-client table,
//! and the reader's clock is copied only when a window opens (the
//! report needs it). A clean read of a known page therefore costs one
//! hash probe, one 8-byte lock-word copy and one clock component
//! compare, and allocates nothing.
//!
//! ## Read classification
//!
//! A page READ opens a *pending* window when it is **racy** (the page's
//! last write was performed by another thread and is not in the
//! reader's clock) or **dirty** (the lock word was held by another
//! client at read time). The window closes without a report when the
//! engine validates it — a [`FenceKind::Revalidate`] on the page
//! (`covers()` / `find_child()` / lock-word re-check, whatever its
//! outcome), a successful CAS on the page by the reader, a superseding
//! clean re-read, a [`FenceKind::Discard`], or failure of the attempt
//! (verb error / unsuccessful op). A pending window still open when the
//! op completes *successfully* is reported: a racy snapshot escaped
//! into a result no fence ever re-checked. Dirty windows are stricter —
//! a torn snapshot cannot be validated by a version re-check (the
//! version it would check is itself mid-update), so only supersession,
//! discard or attempt failure clears them.
//!
//! ## Write discipline (lockset rule)
//!
//! Every lock-word transition is itself a verb we observe, so the
//! detector also tracks the current lock holder per page and flags any
//! in-place WRITE to a lock-protected page by a non-holder
//! (`unlocked-write`): such bytes are published with no release edge
//! ordering them, the signature of an unlock-before-write reorder.
//! Pages that have never seen lock traffic (a fresh split sibling or
//! new root being initialized) are exempt until their first CAS/FAA.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use blink::layout::lock_word;
use rdma_sim::observer::{FenceKind, OpKind, RpcEvent, VerbEvent, VerbKind, VerbObserver};
use rdma_sim::{AttemptKind, Cluster, WeakCluster};
use simnet::SimTime;

/// Clock-space id of memory server `s` is `SERVER_BASE + s`; ids below
/// it are client (endpoint) ids.
pub const SERVER_BASE: u64 = 1 << 48;

/// Reads shorter than this are word probes of a synchronization word,
/// not page snapshots; they carry no data that can escape unvalidated.
const MIN_PAGE_READ: usize = 64;

/// Cap on retained violations (the counter keeps counting past it).
const MAX_VIOLATIONS: usize = 1024;

/// A vector clock over client/server thread ids: a dense client segment
/// indexed by endpoint id and a dense server segment indexed by
/// `tid - SERVER_BASE`. Missing components are 0, so two clocks that
/// differ only in trailing zeros are equal.
#[derive(Clone, Debug, Default)]
pub struct VClock {
    clients: Vec<u64>,
    servers: Vec<u64>,
}

impl PartialEq for VClock {
    fn eq(&self, other: &Self) -> bool {
        fn same(a: &[u64], b: &[u64]) -> bool {
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            long[..short.len()] == *short && long[short.len()..].iter().all(|&v| v == 0)
        }
        same(&self.clients, &other.clients) && same(&self.servers, &other.servers)
    }
}

impl Eq for VClock {}

impl VClock {
    /// This clock's component for `tid` (0 if never seen).
    pub fn get(&self, tid: u64) -> u64 {
        let (seg, i) = self.segment(tid);
        seg.get(i).copied().unwrap_or(0)
    }

    /// Whether the event `epoch @ tid` happened-before (or at) this clock.
    pub fn covers(&self, tid: u64, epoch: u64) -> bool {
        self.get(tid) >= epoch
    }

    fn segment(&self, tid: u64) -> (&[u64], usize) {
        if tid >= SERVER_BASE {
            (&self.servers, (tid - SERVER_BASE) as usize)
        } else {
            (&self.clients, tid as usize)
        }
    }

    /// Mutable component for `tid`, growing its segment as needed.
    fn slot(&mut self, tid: u64) -> &mut u64 {
        let (seg, i) = if tid >= SERVER_BASE {
            (&mut self.servers, (tid - SERVER_BASE) as usize)
        } else {
            (&mut self.clients, tid as usize)
        };
        if seg.len() <= i {
            seg.resize(i + 1, 0);
        }
        &mut seg[i]
    }

    fn bump(&mut self, tid: u64) -> u64 {
        let e = self.slot(tid);
        *e += 1;
        *e
    }

    fn join(&mut self, other: &VClock) {
        fn max_into(dst: &mut Vec<u64>, src: &[u64]) {
            if dst.len() < src.len() {
                dst.resize(src.len(), 0);
            }
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = (*d).max(v);
            }
        }
        max_into(&mut self.clients, &other.clients);
        max_into(&mut self.servers, &other.servers);
    }

    /// Nonzero components in thread-id order, clients before servers:
    /// `{c0:2, c5:1, srv1:3}`.
    fn render(&self) -> String {
        let nonzero = |seg: &'static str, v: &[u64]| {
            v.iter()
                .enumerate()
                .filter(|&(_, &e)| e != 0)
                .map(move |(i, e)| format!("{seg}{i}:{e}"))
                .collect::<Vec<_>>()
        };
        let mut parts = nonzero("c", &self.clients);
        parts.extend(nonzero("srv", &self.servers));
        format!("{{{}}}", parts.join(", "))
    }
}

fn tid_name(tid: u64) -> String {
    if tid >= SERVER_BASE {
        format!("server {}", tid - SERVER_BASE)
    } else {
        format!("client {tid}")
    }
}

/// The last write recorded against a page: one end of a potential race.
#[derive(Clone, Copy, Debug)]
struct WriteSite {
    tid: u64,
    epoch: u64,
    time: SimTime,
    what: &'static str,
}

/// Registry key of a page: `(server, start offset)`.
type PageKey = (usize, u64);

/// Per-page clock state (FastTrack page metadata).
#[derive(Default)]
struct PageState {
    key: PageKey,
    len: usize,
    /// Join of every unlock-FAA holder clock: what an acquire CAS learns.
    release: VClock,
    /// Join of every writer clock: what observing the current word implies.
    write_clock: VClock,
    last_write: Option<WriteSite>,
    /// Client currently holding the page lock, tracked from observed
    /// lock-word transitions (acquire CAS sets it, unlock FAA and
    /// lease-break CAS clear it).
    locked_by: Option<u64>,
    /// Whether any lock-word traffic (CAS/FAA) was ever observed — a
    /// page that has seen none is being initialized (fresh split
    /// sibling, new root) and is not yet lock-protected.
    sync_seen: bool,
}

impl PageState {
    fn contains(&self, offset: u64) -> bool {
        offset < self.key.1 + self.len as u64
    }

    /// Record a write by `tid` (clock `clk`, already bumped to `epoch`).
    fn commit_write(
        &mut self,
        tid: u64,
        epoch: u64,
        clk: &VClock,
        time: SimTime,
        what: &'static str,
    ) {
        self.write_clock.join(clk);
        self.last_write = Some(WriteSite {
            tid,
            epoch,
            time,
            what,
        });
    }

    /// Write-write race check: the page's last write was by another
    /// thread and is not in the writer's clock.
    fn write_write_race(
        &self,
        tid: u64,
        clk: &VClock,
        time: SimTime,
        what: &'static str,
    ) -> Option<Violation> {
        let lw = self
            .last_write
            .filter(|lw| lw.tid != tid && !clk.covers(lw.tid, lw.epoch))?;
        let detail = format!(
            "{what} by client {tid} races with {} by {} \
             (epoch {}:{} at t={}): writer clock {} lacks it — \
             missing HB edge {}:{} \u{2192} client {tid}",
            lw.what,
            tid_name(lw.tid),
            lw.tid,
            lw.epoch,
            lw.time,
            clk.render(),
            lw.tid,
            lw.epoch,
        );
        Some(Violation {
            rule: "write-write-race",
            client: tid,
            server: self.key.0,
            offset: self.key.1,
            time,
            detail,
        })
    }
}

/// A vacant position of the page hash table.
const EMPTY: u32 = u32::MAX;

/// The page registry: page state in a slot vector, found through an
/// exact-start open-addressing hash (linear probing) on the hot path
/// and through an ordered index for containment, free and recovery.
///
/// Lookup semantics are those of an ordered map: an access resolves to
/// the entry with the greatest start at or below its offset, if that
/// entry contains it; otherwise the access registers a new entry at its
/// own offset. An exact-start hit on a non-empty entry is by definition
/// that entry, so only misses walk the ordered index.
#[derive(Default)]
struct Pages {
    slots: Vec<PageState>,
    free_slots: Vec<u32>,
    /// Open-addressing table of slot ids (`EMPTY` when vacant);
    /// capacity is a power of two, at most half full.
    table: Vec<u32>,
    by_start: BTreeMap<PageKey, u32>,
}

impl Pages {
    /// Home position of `key` (Fibonacci hashing; the server sits in
    /// the bits no pool offset reaches).
    fn hash(key: PageKey, mask: usize) -> usize {
        let h = (key.1 ^ ((key.0 as u64) << 57)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & mask
    }

    /// Table position holding `key`, if registered.
    fn probe(&self, key: PageKey) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = Self::hash(key, mask);
        loop {
            match self.table[i] {
                EMPTY => return None,
                slot if self.slots[slot as usize].key == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Put `(key, slot)` in the first vacant position of its chain.
    fn place(table: &mut [u32], key: PageKey, slot: u32) {
        let mask = table.len() - 1;
        let mut i = Self::hash(key, mask);
        while table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        table[i] = slot;
    }

    /// Slot of the page containing `(server, offset)`, registering
    /// `(offset, len)` when nothing does. Page-sized traffic
    /// self-registers; a bare atomic on an unseen region gets an
    /// offset-keyed word entry that a later page-sized access widens.
    fn resolve(&mut self, server: usize, offset: u64, len: usize) -> usize {
        let key = (server, offset);
        if let Some(i) = self.probe(key) {
            let slot = self.table[i] as usize;
            let page = &mut self.slots[slot];
            if page.len > 0 {
                page.len = page.len.max(len);
                return slot;
            }
        }
        self.resolve_slow(key, len)
    }

    fn resolve_slow(&mut self, key: PageKey, len: usize) -> usize {
        let (server, offset) = key;
        let hit = self
            .by_start
            .range(..=key)
            .next_back()
            .filter(|&(&(s, _), &slot)| s == server && self.slots[slot as usize].contains(offset));
        if let Some((&start, &slot)) = hit {
            // Widen a word entry to the page once page-sized traffic
            // shows its true extent.
            let page = &mut self.slots[slot as usize];
            if offset == start.1 && len > page.len {
                page.len = len;
            }
            return slot as usize;
        }
        let fresh = PageState {
            key,
            len,
            ..PageState::default()
        };
        if let Some(&slot) = self.by_start.get(&key) {
            // A zero-length entry at this very start contains nothing:
            // the new registration replaces it.
            self.slots[slot as usize] = fresh;
            return slot as usize;
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = fresh;
                slot
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        self.by_start.insert(key, slot);
        if self.by_start.len() * 2 > self.table.len() {
            // Rehash at twice the size (rare: the table only doubles).
            self.table = vec![EMPTY; (self.table.len() * 2).max(1024)];
            for (&k, &s) in &self.by_start {
                Self::place(&mut self.table, k, s);
            }
        } else {
            Self::place(&mut self.table, key, slot);
        }
        slot as usize
    }

    /// Slot of the page containing `(server, offset)`, registering
    /// nothing.
    fn find(&self, server: usize, offset: u64) -> Option<usize> {
        if let Some(i) = self.probe((server, offset)) {
            let slot = self.table[i] as usize;
            if self.slots[slot].len > 0 {
                return Some(slot);
            }
        }
        self.by_start
            .range(..=(server, offset))
            .next_back()
            .filter(|&(&(s, _), &slot)| s == server && self.slots[slot as usize].contains(offset))
            .map(|(_, &slot)| slot as usize)
    }

    /// Unregister `key` (backward-shift deletion keeps every probe
    /// chain unbroken).
    fn remove(&mut self, key: PageKey) {
        let Some(slot) = self.by_start.remove(&key) else {
            return;
        };
        let mask = self.table.len() - 1;
        let mut hole = self.probe(key).expect("indexed");
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let moved = self.table[j];
            if moved == EMPTY {
                break;
            }
            let home = Self::hash(self.slots[moved as usize].key, mask);
            // Entry `j` may fill the hole unless its home lies
            // cyclically in (hole, j].
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.table[hole] = moved;
                hole = j;
            }
        }
        self.table[hole] = EMPTY;
        self.slots[slot as usize] = PageState::default();
        self.free_slots.push(slot);
    }

    /// Registered keys on `server` intersecting `[offset, end)`.
    fn overlapping(&self, server: usize, offset: u64, end: u64) -> Vec<PageKey> {
        self.by_start
            .range((server, 0)..(server, end))
            .filter(|&(&(_, start), &slot)| start + self.slots[slot as usize].len as u64 > offset)
            .map(|(&k, _)| k)
            .collect()
    }
}

/// An optimistic READ whose validation window is still open.
struct PendingRead {
    key: PageKey,
    len: usize,
    time: SimTime,
    /// Owner-id field of the lock word if it was held by another client
    /// at read time (a torn snapshot — R1), else `None`.
    dirty: Option<u64>,
    /// The conflicting write this read races with, if any (R2).
    writer: Option<WriteSite>,
    /// Reader's clock at read time, for the report.
    reader_clock: VClock,
}

/// One reported race, with both access sites and the missing edge.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule id: `unvalidated-race`, `locked-snapshot-read`,
    /// `write-write-race`, `unlocked-write` or `stale-epoch-cached-use`.
    pub rule: &'static str,
    /// Client on whose access the rule fired.
    pub client: u64,
    /// Server holding the raced page.
    pub server: usize,
    /// Start offset of the raced page.
    pub offset: u64,
    /// Virtual time the rule fired.
    pub time: SimTime,
    /// Full causal chain: both access sites, clock states, missing edge.
    pub detail: String,
}

impl Violation {
    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "[racecheck:{}] client {} @ server {} offset {:#x} t={}: {}",
            self.rule, self.client, self.server, self.offset, self.time, self.detail
        )
    }
}

/// Aggregate counters (deterministic across runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Page READs classified.
    pub reads_checked: u64,
    /// READs that opened a racy pending window.
    pub racy_reads: u64,
    /// READs that observed a foreign-locked word (torn snapshot).
    pub dirty_reads: u64,
    /// Pending windows closed by a validation edge (fence, CAS,
    /// supersession, discard).
    pub validated: u64,
    /// Violations recorded (including any dropped past the cap).
    pub violations: u64,
}

/// `v[i]`, growing `v` with defaults as needed.
fn grown<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

#[derive(Default)]
struct State {
    /// Client clocks by endpoint id.
    clients: Vec<VClock>,
    /// Server clocks by server index.
    servers: Vec<VClock>,
    pages: Pages,
    /// Open windows per client (by endpoint id).
    pending: Vec<Vec<PendingRead>>,
    epoch_seen: BTreeMap<u64, u64>,
    violations: Vec<Violation>,
    counts: Counts,
}

impl State {
    fn push_violation(&mut self, v: Violation) {
        self.counts.violations += 1;
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        }
    }

    /// Close `client`'s open window on `key`, if any; counts it as
    /// validated.
    fn validate(&mut self, client: u64, key: PageKey) {
        if let Some(p) = self.pending.get_mut(client as usize) {
            if let Some(i) = p.iter().position(|w| w.key == key) {
                p.swap_remove(i);
                self.counts.validated += 1;
            }
        }
    }

    fn has_pending(&self, client: u64) -> bool {
        self.pending
            .get(client as usize)
            .is_some_and(|p| !p.is_empty())
    }

    /// Drop every pending window of `client` without reporting (the
    /// attempt failed or a new op span began; the bytes never reached a
    /// successful result).
    fn drop_pending(&mut self, client: u64) {
        if let Some(p) = self.pending.get_mut(client as usize) {
            p.clear();
        }
    }

    /// Report every still-open pending window of `client`: its op just
    /// completed successfully, so the racy/torn bytes escaped with no
    /// validating fence ever observed.
    fn report_pending(&mut self, client: u64, op: OpKind, time: SimTime) {
        if !self.has_pending(client) {
            return;
        }
        let mut open = std::mem::take(&mut self.pending[client as usize]);
        open.sort_by_key(|p| p.key);
        for p in open {
            let (server, start) = p.key;
            let (rule, chain) = if let Some(owner) = p.dirty {
                (
                    "locked-snapshot-read",
                    format!(
                        "READ at t={} of [server {}, {:#x}+{}] observed the page \
                         while its lock word was held by owner id {owner} (not the \
                         reader): the snapshot is torn by construction and no \
                         version re-check can validate it, yet it escaped into a \
                         completed {} result",
                        p.time,
                        server,
                        start,
                        p.len,
                        op.label(),
                    ),
                )
            } else {
                let w = p.writer.as_ref().expect("racy or dirty");
                (
                    "unvalidated-race",
                    format!(
                        "optimistic READ at t={} of [server {}, {:#x}+{}] races \
                         with {} by {} (epoch {}:{} at t={}); reader clock at read \
                         {} lacks it, and no validating fence (covers/find_child/\
                         lock-CAS) was observed on the page before the bytes \
                         escaped into a completed {} result — missing HB edge \
                         {}:{} \u{2192} client {client}",
                        p.time,
                        server,
                        start,
                        p.len,
                        w.what,
                        tid_name(w.tid),
                        w.tid,
                        w.epoch,
                        w.time,
                        p.reader_clock.render(),
                        op.label(),
                        w.tid,
                        w.epoch,
                    ),
                )
            };
            self.push_violation(Violation {
                rule,
                client,
                server,
                offset: start,
                time,
                detail: chain,
            });
        }
    }
}

/// The detector. Install once per cluster; query at end of run.
///
/// The cluster owns the detector through its observer list, so the
/// detector holds the cluster weakly: dropping every [`Cluster`] handle
/// frees both.
pub struct Racecheck {
    cluster: WeakCluster,
    state: RefCell<State>,
}

impl Racecheck {
    /// Install a detector on `cluster`. `page_size` is advisory (the
    /// page registry self-organizes from observed traffic); it bounds
    /// nothing but is kept for symmetry with the sanitizer's installer.
    pub fn install(cluster: &Cluster, page_size: usize) -> Rc<Racecheck> {
        let _ = page_size;
        let rc = Rc::new(Racecheck {
            cluster: cluster.downgrade(),
            state: RefCell::new(State::default()),
        });
        cluster.add_observer(rc.clone());
        rc
    }

    /// The observed cluster. Events only fire from a live cluster, so
    /// inside a callback this always succeeds.
    fn cluster(&self) -> Cluster {
        self.cluster
            .upgrade()
            .expect("observer callbacks run on a live cluster")
    }

    /// Cluster restart epoch: total restarts across servers — the same
    /// signal `CacheLayer`/`Learned` reconcile against.
    fn current_epoch(&self) -> u64 {
        let cluster = self.cluster();
        (0..cluster.num_servers())
            .map(|s| cluster.server_restarts(s))
            .sum()
    }

    /// All recorded violations (capped at an internal maximum;
    /// [`Counts::violations`] keeps the true total).
    pub fn violations(&self) -> Vec<Violation> {
        self.state.borrow().violations.clone()
    }

    /// Whether no rule fired.
    pub fn is_clean(&self) -> bool {
        self.state.borrow().counts.violations == 0
    }

    /// Aggregate counters.
    pub fn counts(&self) -> Counts {
        self.state.borrow().counts
    }

    /// Multi-line report (empty string when clean).
    pub fn report(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::new();
        for v in &st.violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        if st.counts.violations as usize > st.violations.len() {
            out.push_str(&format!(
                "[racecheck] ... and {} more (cap reached)\n",
                st.counts.violations as usize - st.violations.len()
            ));
        }
        out
    }

    /// Panic with the full report if any rule fired.
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            panic!(
                "racecheck found {} violation(s):\n{}",
                self.counts().violations,
                self.report()
            );
        }
    }

    /// Current lock word at `(server, offset)`, via the untimed control
    /// path (all pool borrows are released before an event fires).
    fn lock_word(&self, (server, offset): PageKey) -> u64 {
        self.cluster().with_pool(server, |pool| {
            let mut word = [0u8; 8];
            pool.copy_out(offset, &mut word);
            u64::from_le_bytes(word)
        })
    }

    fn handle_read(&self, ev: &VerbEvent) {
        if ev.len < MIN_PAGE_READ {
            return; // word probe of a synchronization word
        }
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let slot = st.pages.resolve(ev.server, ev.offset, ev.len);
        st.counts.reads_checked += 1;
        let page = &st.pages.slots[slot];
        let key = page.key;
        // The word the memory effect just copied out is the word in
        // memory now: the simulation is single-threaded and the event
        // fires at apply time.
        let word = self.lock_word(key);
        let dirty = (lock_word::is_locked(word) && lock_word::owner_of(word) != (ev.client & 0xff))
            .then(|| lock_word::owner_of(word));
        let reader = st.clients.get(ev.client as usize);
        let writer = page
            .last_write
            .filter(|w| w.tid != ev.client && !reader.is_some_and(|c| c.covers(w.tid, w.epoch)));
        if dirty.is_some() {
            st.counts.dirty_reads += 1;
        } else if writer.is_some() {
            st.counts.racy_reads += 1;
        }
        if dirty.is_some() || writer.is_some() {
            let window = PendingRead {
                key,
                len: page.len,
                time: ev.time,
                dirty,
                writer,
                reader_clock: reader.cloned().unwrap_or_default(),
            };
            // A re-read supersedes any earlier window on the same page.
            let open = grown(&mut st.pending, ev.client as usize);
            match open.iter_mut().find(|w| w.key == key) {
                Some(w) => *w = window,
                None => open.push(window),
            }
        } else {
            // Clean re-read of a page with an open window: superseded.
            st.validate(ev.client, key);
        }
    }

    fn handle_cas(&self, ev: &VerbEvent, expected: u64, new: u64, prev: u64) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let slot = st.pages.resolve(ev.server, ev.offset, 8);
        let page = &mut st.pages.slots[slot];
        let clk = grown(&mut st.clients, ev.client as usize);
        if prev == expected {
            // Track lock ownership from the installed word: an acquire
            // leaves it locked (by this client), a lease break leaves
            // it unlocked.
            page.sync_seen = true;
            page.locked_by = lock_word::is_locked(new).then_some(ev.client);
            // The CAS observed (and replaced) the word: acquire edge.
            // Joining the write clock as well as the release clock covers
            // pages that were written but never yet released (a fresh
            // split sibling installed inside the splitter's critical
            // section): with sequentially awaited verbs, observing the
            // word implies the writes that produced it have applied.
            clk.join(&page.release);
            clk.join(&page.write_clock);
            let epoch = clk.bump(ev.client);
            let race = page.write_write_race(ev.client, clk, ev.time, "lock-word CAS");
            page.commit_write(ev.client, epoch, clk, ev.time, "lock-word CAS");
            let key = page.key;
            if let Some(v) = race {
                st.push_violation(v);
            }
            // A successful CAS on the page validates the reader's own
            // open window (the version it read is the version it swapped).
            st.validate(ev.client, key);
        } else {
            // Failed CAS still observed the current word, which (with
            // sequentially awaited critical-section verbs) implies the
            // writes leading to it have applied.
            clk.join(&page.write_clock);
        }
    }

    fn handle_write(&self, ev: &VerbEvent) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let slot = st.pages.resolve(ev.server, ev.offset, ev.len);
        let page = &mut st.pages.slots[slot];
        let key = page.key;
        // Lockset check: an in-place WRITE to a lock-protected page (one
        // that has seen lock-word traffic) must come from the current
        // lock holder — otherwise the bytes are published with no
        // release edge ordering them, and any concurrent optimistic
        // reader races with them by construction. Fresh pages being
        // initialized (split sibling, new root) have seen no lock
        // traffic yet.
        let unlocked = (page.sync_seen && page.locked_by != Some(ev.client)).then(|| {
            let holder = match page.locked_by {
                Some(o) => format!("the lock is held by client {o}"),
                None => "the lock was already released \u{2014} the \
                         unlock FAA published the page before these \
                         bytes landed"
                    .to_string(),
            };
            Violation {
                rule: "unlocked-write",
                client: ev.client,
                server: key.0,
                offset: key.1,
                time: ev.time,
                detail: format!(
                    "in-place WRITE by client {} to the lock-protected page \
                     [server {}, {:#x}+{}] outside its critical section \
                     ({holder}): optimistic readers can observe the bytes \
                     with no happens-before edge from this write",
                    ev.client, key.0, key.1, ev.len,
                ),
            }
        });
        let clk = grown(&mut st.clients, ev.client as usize);
        let epoch = clk.bump(ev.client);
        let race = page.write_write_race(ev.client, clk, ev.time, "WRITE");
        page.commit_write(ev.client, epoch, clk, ev.time, "WRITE");
        for v in unlocked.into_iter().chain(race) {
            st.push_violation(v);
        }
    }

    fn handle_unlock(&self, ev: &VerbEvent) {
        // The unlock FAA of Listing 4: release edge, then a write. The
        // release clock includes the FAA's own epoch so the next
        // acquirer is ordered after the unlock itself.
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let slot = st.pages.resolve(ev.server, ev.offset, 8);
        let page = &mut st.pages.slots[slot];
        let clk = grown(&mut st.clients, ev.client as usize);
        let epoch = clk.bump(ev.client);
        let race = page.write_write_race(ev.client, clk, ev.time, "unlock FAA");
        page.sync_seen = true;
        page.locked_by = None;
        page.release.join(clk);
        page.commit_write(ev.client, epoch, clk, ev.time, "unlock FAA");
        if let Some(v) = race {
            st.push_violation(v);
        }
    }

    /// Close `client`'s window on the page a fence names. `revalidate`
    /// fences leave dirty windows open: a torn snapshot cannot be
    /// validated by a version re-check; only supersession/discard
    /// clears it.
    fn handle_fence(&self, client: u64, server: usize, offset: u64, revalidate: bool) {
        let mut st = self.state.borrow_mut();
        if !st.has_pending(client) {
            return;
        }
        let Some(slot) = st.pages.find(server, offset) else {
            return;
        };
        let key = st.pages.slots[slot].key;
        let open = &st.pending[client as usize];
        if open
            .iter()
            .any(|w| w.key == key && !(revalidate && w.dirty.is_some()))
        {
            st.validate(client, key);
        }
    }
}

impl VerbObserver for Racecheck {
    fn on_verb(&self, ev: &VerbEvent) {
        match ev.kind {
            VerbKind::Alloc => {
                self.state
                    .borrow_mut()
                    .pages
                    .resolve(ev.server, ev.offset, ev.len);
            }
            VerbKind::Read => self.handle_read(ev),
            VerbKind::Write => self.handle_write(ev),
            VerbKind::Faa { .. } => self.handle_unlock(ev),
            VerbKind::Cas {
                expected,
                new,
                prev,
            } => self.handle_cas(ev, expected, new, prev),
        }
    }

    fn on_free(&self, server: usize, offset: u64, len: usize, _time: SimTime) {
        let mut st = self.state.borrow_mut();
        let keys = st.pages.overlapping(server, offset, offset + len as u64);
        for &k in &keys {
            st.pages.remove(k);
        }
        for p in &mut st.pending {
            p.retain(|w| !keys.contains(&w.key));
        }
    }

    fn on_rpc(&self, ev: &RpcEvent) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        let stid = SERVER_BASE + ev.server as u64;
        let c = grown(&mut st.clients, ev.client as usize);
        let s = grown(&mut st.servers, ev.server);
        c.bump(ev.client);
        s.bump(stid);
        s.join(c);
        c.join(s);
    }

    fn on_verb_failed(&self, client: u64, _server: usize, _time: SimTime) {
        // The attempt aborts; its bytes never escape into a result.
        self.state.borrow_mut().drop_pending(client);
    }

    fn on_unreachable(&self, client: u64, _server: usize, _kind: AttemptKind, _time: SimTime) {
        self.state.borrow_mut().drop_pending(client);
    }

    fn on_op_start(&self, client: u64, _kind: OpKind, _time: SimTime) {
        self.state.borrow_mut().drop_pending(client);
    }

    fn on_op_end(&self, client: u64, kind: OpKind, time: SimTime, ok: bool) {
        let mut st = self.state.borrow_mut();
        if ok {
            st.report_pending(client, kind, time);
        } else {
            st.drop_pending(client);
        }
    }

    fn on_fence(&self, client: u64, kind: FenceKind, server: usize, offset: u64, time: SimTime) {
        match kind {
            FenceKind::Revalidate => self.handle_fence(client, server, offset, true),
            FenceKind::Discard => self.handle_fence(client, server, offset, false),
            FenceKind::EpochCheck => {
                let epoch = self.current_epoch();
                self.state.borrow_mut().epoch_seen.insert(client, epoch);
            }
            FenceKind::CachedUse => {
                let now_epoch = self.current_epoch();
                let mut st = self.state.borrow_mut();
                let seen = st.epoch_seen.get(&client).copied().unwrap_or(0);
                if seen != now_epoch {
                    let detail = format!(
                        "cached artifact derived from [server {server}, {offset:#x}] \
                         served at restart epoch {now_epoch}, but client {client} \
                         last reconciled at epoch {seen}: the backing pool was \
                         rebuilt since the artifact was cached (missing \
                         restart-epoch flush edge)"
                    );
                    st.push_violation(Violation {
                        rule: "stale-epoch-cached-use",
                        client,
                        server,
                        offset,
                        time,
                        detail,
                    });
                }
            }
        }
    }

    fn on_server_recovered(&self, server: usize, _time: SimTime) {
        let mut guard = self.state.borrow_mut();
        let st = &mut *guard;
        // Memory rewound to the durable prefix: pre-crash clock shadow
        // state on this server must not order post-crash accesses.
        for (_, &slot) in st.pages.by_start.range((server, 0)..(server, u64::MAX)) {
            let page = &mut st.pages.slots[slot as usize];
            page.release = VClock::default();
            page.write_clock = VClock::default();
            page.last_write = None;
            // Whoever held the lock at the crash lost it with the
            // volatile state; survivors re-acquire before writing.
            page.locked_by = None;
        }
        for p in &mut st.pending {
            p.retain(|w| w.key.0 != server);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRV: u64 = SERVER_BASE;

    fn clock(parts: &[(u64, u64)]) -> VClock {
        let mut c = VClock::default();
        for &(tid, v) in parts {
            *c.slot(tid) = v;
        }
        c
    }

    #[test]
    fn vclock_join_and_covers() {
        let mut a = VClock::default();
        a.bump(1);
        a.bump(1);
        let mut b = VClock::default();
        b.bump(2);
        b.join(&a);
        assert!(b.covers(1, 2));
        assert!(b.covers(2, 1));
        assert!(!b.covers(1, 3));
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn vclock_equality_ignores_trailing_zeros() {
        let short = clock(&[(0, 3)]);
        let mut long = clock(&[(0, 3), (7, 0), (SRV + 2, 0)]);
        assert_eq!(long.clients.len(), 8, "explicit zeros are stored");
        assert_eq!(short, long);
        assert_eq!(long, short);
        assert_eq!(VClock::default(), clock(&[(4, 0)]));
        long.bump(7);
        assert_ne!(short, long);
        assert_ne!(clock(&[(SRV, 1)]), clock(&[(0, 1)]));
    }

    #[test]
    fn vclock_join_and_covers_span_clients_and_servers() {
        let mut c = clock(&[(0, 2), (3, 1)]);
        let s = clock(&[(SRV + 1, 4), (3, 5), (9, 1)]);
        c.join(&s);
        assert_eq!(c, clock(&[(0, 2), (3, 5), (9, 1), (SRV + 1, 4)]));
        assert!(c.covers(SRV + 1, 4) && !c.covers(SRV + 1, 5));
        assert!(c.covers(9, 1) && c.covers(0, 2));
        // A server component never aliases the client of the same index.
        assert_eq!(c.get(1), 0);
        assert!(!c.covers(SRV, 1));
        // Joining a shorter clock keeps the longer one's tail.
        let mut shorter = clock(&[(0, 9)]);
        shorter.join(&c);
        assert_eq!(shorter, clock(&[(0, 9), (3, 5), (9, 1), (SRV + 1, 4)]));
    }

    #[test]
    fn vclock_grows_for_an_unseen_client() {
        let mut c = clock(&[(1, 1)]);
        assert_eq!(c.clients.len(), 2);
        assert_eq!(c.get(40), 0, "reading past the end is a zero, not a grow");
        assert_eq!(c.clients.len(), 2);
        assert_eq!(c.bump(40), 1);
        assert_eq!(c.clients.len(), 41);
        assert_eq!(c.get(40), 1);
        assert_eq!(c.bump(SRV + 3), 1);
        assert_eq!(c.servers.len(), 4);
    }

    #[test]
    fn vclock_render_matches_the_ordered_map_format() {
        // Nonzero components in thread-id order, clients then servers —
        // the order a map keyed by thread id iterates in.
        let c = clock(&[(5, 1), (SRV + 1, 3), (0, 2), (2, 0)]);
        assert_eq!(c.render(), "{c0:2, c5:1, srv1:3}");
        assert_eq!(VClock::default().render(), "{}");
        assert_eq!(clock(&[(SRV, 7)]).render(), "{srv0:7}");
    }

    #[test]
    fn page_registry_contains_and_widens() {
        let mut pages = Pages::default();
        let key = |p: &Pages, slot: usize| (p.slots[slot].key, p.slots[slot].len);
        // A bare atomic registers a word entry; a page read widens it.
        let s = pages.resolve(0, 0x100, 8);
        assert_eq!(key(&pages, s), ((0, 0x100), 8));
        assert_eq!(pages.resolve(0, 0x100, 256), s);
        assert_eq!(key(&pages, s), ((0, 0x100), 256));
        // Offsets inside the page resolve to its start.
        assert_eq!(pages.resolve(0, 0x1f0, 8), s);
        assert_eq!(pages.find(0, 0x1f8), Some(s));
        // The next page is distinct, and so is the same offset on
        // another server.
        let next = pages.resolve(0, 0x200, 256);
        assert_ne!(next, s);
        assert_eq!(key(&pages, next), ((0, 0x200), 256));
        assert_eq!(pages.find(1, 0x100), None);
        // Pages start wherever the 8-byte-aligned allocator put them.
        let odd = pages.resolve(0, 0x308, 256);
        assert_eq!(pages.resolve(0, 0x400, 8), odd);
    }

    #[test]
    fn page_registry_survives_growth_and_removal() {
        let mut pages = Pages::default();
        // Enough pages to grow the hash table several times.
        let slots: Vec<usize> = (0..5_000u64)
            .map(|i| pages.resolve((i % 3) as usize, 8 + i * 264, 256))
            .collect();
        for (i, &slot) in slots.iter().enumerate() {
            let i = i as u64;
            assert_eq!(pages.find((i % 3) as usize, 8 + i * 264 + 100), Some(slot));
        }
        // Remove every other page; the rest stay reachable through
        // their exact start and their interior.
        for i in (0..5_000u64).step_by(2) {
            pages.remove(((i % 3) as usize, 8 + i * 264));
        }
        for (i, &slot) in slots.iter().enumerate() {
            let i = i as u64;
            let (server, start) = ((i % 3) as usize, 8 + i * 264);
            if i.is_multiple_of(2) {
                assert_eq!(pages.find(server, start), None);
            } else {
                assert_eq!(pages.find(server, start), Some(slot));
                assert_eq!(pages.resolve(server, start + 16, 8), slot);
            }
        }
        // Freed slots are reused for new registrations.
        let before = pages.slots.len();
        pages.resolve(0, 8, 256);
        assert_eq!(pages.slots.len(), before);
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let mut st = State::default();
        for i in 0..(MAX_VIOLATIONS + 5) {
            st.push_violation(Violation {
                rule: "unvalidated-race",
                client: i as u64,
                server: 0,
                offset: 0x100,
                time: SimTime::ZERO,
                detail: String::new(),
            });
        }
        assert_eq!(st.violations.len(), MAX_VIOLATIONS);
        assert_eq!(st.counts.violations, (MAX_VIOLATIONS + 5) as u64);
    }
}
