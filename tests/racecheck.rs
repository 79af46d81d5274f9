//! Happens-before race detector (see `crates/racecheck`):
//!
//! * **clean matrix** — every design × fault mode runs race-free with
//!   the detector installed (through the model-checker harness, which
//!   installs [`Racecheck`] on every run): the optimistic protocols
//!   validate every racy snapshot before its bytes escape;
//! * **seeded protocol races** — hand-driven verb sequences that break
//!   the protocol in each rule's characteristic way are reported, with
//!   the expected rule id and a causal-chain diagnostic;
//! * **benign validated races** — the same racy read followed by the
//!   engine's validation fence is *not* reported (the FastTrack-style
//!   classification the detector exists for);
//! * **zero perturbation** — installing the detector changes neither
//!   history digest nor virtual end time of a run.

use mc::{run_scenario, DesignKind, FaultMode, PolicyKind, Scenario};
use namdex::prelude::*;
use namdex::rdma::observer::{FenceKind, OpKind};
use namdex::tree::layout::lock_word;

// ---------------------------------------------------------------------
// Clean matrix: the real designs, race-free under the detector.

#[test]
fn clean_matrix_every_design_and_fault_mode() {
    for design in DesignKind::ALL {
        for fault in [FaultMode::None, FaultMode::Chaos, FaultMode::CrashRecover] {
            let sc = Scenario::point_ops(design, fault, 0xACE).with_cache(Some(0));
            let report = run_scenario(&sc, &PolicyKind::Uncontrolled);
            assert!(
                report.race_violations.is_empty(),
                "{}/{}: unexpected race violations:\n{}",
                design.name(),
                fault.name(),
                report
                    .race_violations
                    .iter()
                    .map(|v| v.render())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }
}

#[test]
fn clean_under_adversarial_schedules() {
    for design in DesignKind::ALL {
        for policy in [
            PolicyKind::RandomWalk { seed: 0xBEEF },
            PolicyKind::Pct {
                seed: 0xBEEF,
                depth: 3,
            },
        ] {
            let sc = Scenario::point_ops(design, FaultMode::Chaos, 0xACE2);
            let report = run_scenario(&sc, &policy);
            assert!(
                report.race_violations.is_empty(),
                "{} under {:?}: {:?}",
                design.name(),
                policy,
                report
                    .race_violations
                    .iter()
                    .map(|v| &v.rule)
                    .collect::<Vec<_>>()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Seeded protocol races: raw verb sequences on a bare cluster.

const PAGE: usize = 256;

/// A cluster with one 256-byte "node" whose lock word (offset 0) is an
/// unlocked version-0 word.
fn cluster_with_page() -> (Sim, Cluster, RemotePtr) {
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::default());
    let ptr = cluster.setup_alloc(0, PAGE as u64);
    cluster.setup_write(ptr, &[0u8; PAGE]);
    (sim, cluster, ptr)
}

/// Writer critical section: CAS-acquire, WRITE the page (locked word in
/// the image, like `write_unlock`), FAA-unlock. Returns the acquire CAS
/// expected/new words it used.
async fn locked_update(ep: &Endpoint, ptr: RemotePtr, fill: u8) {
    let cluster = ep.cluster();
    let word = u64::from_le_bytes(cluster.setup_read(ptr, 8)[..8].try_into().unwrap());
    let locked = lock_word::locked_by(word, ep.client_id());
    let prev = ep.cas(ptr, word, locked).await.unwrap();
    assert_eq!(prev, word, "uncontended acquire");
    let mut page = [fill; PAGE];
    page[..8].copy_from_slice(&locked.to_le_bytes());
    ep.write(ptr, &page).await.unwrap();
    ep.fetch_add(ptr, 1).await.unwrap();
}

#[test]
fn unvalidated_racy_read_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            cluster.note_op_start(writer.client_id(), OpKind::Insert);
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_end(writer.client_id(), OpKind::Insert, true);

            // The reader's clock has no edge from the writer: the read
            // races with the unlock FAA, and no fence ever validates it.
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "unvalidated-race");
    // The diagnostic names both sides of the race and the missing edge.
    assert!(
        violations[0].detail.contains("races with"),
        "{}",
        violations[0].detail
    );
    assert!(
        violations[0].detail.contains("missing HB edge"),
        "{}",
        violations[0].detail
    );
}

#[test]
fn validated_racy_read_is_benign() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            cluster.note_op_start(writer.client_id(), OpKind::Insert);
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_end(writer.client_id(), OpKind::Insert, true);

            // Same racy read — but the engine's validation fence
            // (covers()/find_child() re-check) closes the window before
            // the op completes: benign-validated, not a violation.
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_fence(reader.client_id(), FenceKind::Revalidate, 0, ptr.offset());
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    race.assert_clean();
    let counts = race.counts();
    assert!(counts.racy_reads >= 1, "the read must have been racy");
    assert!(counts.validated >= 1, "the fence must have validated it");
}

#[test]
fn discarded_racy_read_is_benign() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            cluster.note_op_start(writer.client_id(), OpKind::Insert);
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_end(writer.client_id(), OpKind::Insert, true);

            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_fence(reader.client_id(), FenceKind::Discard, 0, ptr.offset());
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    race.assert_clean();
}

#[test]
fn failed_op_does_not_report_its_racy_reads() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let writer = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            locked_update(&writer, ptr, 7).await;
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            // The attempt aborts: its bytes never reach a result.
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, false);
        });
    }
    sim.run();
    race.assert_clean();
}

#[test]
fn locked_snapshot_read_survives_version_recheck() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let holder = Endpoint::new(&cluster);
        let reader = Endpoint::new(&cluster);
        sim.spawn(async move {
            // Holder acquires and sits in its critical section.
            let locked = lock_word::locked_by(0, holder.client_id());
            holder.cas(ptr, 0, locked).await.unwrap();

            // The reader snapshots the foreign-locked page — torn by
            // construction. A version re-check does NOT validate it
            // (the version it would check is itself mid-update), so the
            // window survives to op end and is reported.
            cluster.note_op_start(reader.client_id(), OpKind::Lookup);
            reader.read(ptr, PAGE).await.unwrap();
            cluster.note_fence(reader.client_id(), FenceKind::Revalidate, 0, ptr.offset());
            cluster.note_op_end(reader.client_id(), OpKind::Lookup, true);
        });
    }
    sim.run();
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "locked-snapshot-read");
}

#[test]
fn unlock_before_write_reorder_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let writer = Endpoint::new(&cluster);
        sim.spawn(async move {
            // The seeded mutation's shape: acquire, unlock FAA *first*,
            // then the deferred in-place WRITE — page bytes published
            // outside the critical section.
            let locked = lock_word::locked_by(0, writer.client_id());
            writer.cas(ptr, 0, locked).await.unwrap();
            let prev = writer.fetch_add(ptr, 1).await.unwrap();
            let mut page = [9u8; PAGE];
            page[..8].copy_from_slice(&(prev.wrapping_add(1)).to_le_bytes());
            writer.write(ptr, &page).await.unwrap();
        });
    }
    sim.run();
    let violations = race.violations();
    assert!(
        violations.iter().any(|v| v.rule == "unlocked-write"),
        "{}",
        race.report()
    );
    let v = violations
        .iter()
        .find(|v| v.rule == "unlocked-write")
        .unwrap();
    assert!(
        v.detail.contains("outside its critical section"),
        "{}",
        v.detail
    );
}

#[test]
fn write_write_race_without_synchronization_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let a = Endpoint::new(&cluster);
        let b = Endpoint::new(&cluster);
        sim.spawn(async move {
            locked_update(&a, ptr, 1).await;
            // `b` blind-writes with no CAS: no HB edge from `a`'s
            // critical section.
            let mut page = [2u8; PAGE];
            page[..8].copy_from_slice(&2u64.to_le_bytes());
            b.write(ptr, &page).await.unwrap();
        });
    }
    sim.run();
    let violations = race.violations();
    assert!(
        violations.iter().any(|v| v.rule == "write-write-race"),
        "{}",
        race.report()
    );
}

#[test]
fn stale_epoch_cached_use_is_reported() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let client = Endpoint::new(&cluster);
        sim.spawn(async move {
            // Client reconciles its cache against restart epoch 0 ...
            // (EpochCheck carries no page: server/offset are zero).
            cluster.note_fence(client.client_id(), FenceKind::EpochCheck, 0, 0);
            cluster.note_fence(client.client_id(), FenceKind::CachedUse, 0, ptr.offset());
            // ... then server 0 restarts (pool rebuilt, epoch bumps) and
            // the client serves from its cache without re-reconciling.
            cluster.fail_server(0);
            cluster.restart_server(0);
            cluster.note_fence(client.client_id(), FenceKind::CachedUse, 0, ptr.offset());
        });
    }
    sim.run();
    let violations = race.violations();
    assert_eq!(violations.len(), 1, "{}", race.report());
    assert_eq!(violations[0].rule, "stale-epoch-cached-use");
}

// ---------------------------------------------------------------------
// Zero perturbation: the detector observes, it must not participate.

#[test]
fn detector_does_not_perturb_the_run() {
    // The same verb sequence with and without the detector installed
    // must reach quiescence at the same virtual time with the same
    // final page bytes: the detector observes, it never participates.
    let run = |install: bool| {
        let (sim, cluster, ptr) = cluster_with_page();
        let race = install.then(|| Racecheck::install(&cluster, PAGE));
        {
            let cluster = cluster.clone();
            let a = Endpoint::new(&cluster);
            let b = Endpoint::new(&cluster);
            sim.spawn(async move {
                cluster.note_op_start(a.client_id(), OpKind::Insert);
                locked_update(&a, ptr, 3).await;
                cluster.note_op_end(a.client_id(), OpKind::Insert, true);
                cluster.note_op_start(b.client_id(), OpKind::Lookup);
                b.read(ptr, PAGE).await.unwrap();
                cluster.note_fence(b.client_id(), FenceKind::Revalidate, 0, ptr.offset());
                cluster.note_op_end(b.client_id(), OpKind::Lookup, true);
            });
        }
        let end = sim.run();
        if let Some(race) = race {
            race.assert_clean();
        }
        (end, cluster.setup_read(ptr, PAGE))
    };
    assert_eq!(run(false), run(true));
}

// ---------------------------------------------------------------------
// Equivalence golden: the detector's verdicts on a fixed workload.

/// Run a fixed-seed mix of range scans and inserts (16 clients, 40 ops
/// each, 30% inserts into the gaps of a stride-8 dataset, so leaves
/// split under concurrent scans) on `design` with the detector
/// installed, and return its counts. Every quantity the detector
/// derives — classification of each page read, validations, violations
/// — feeds these five numbers.
fn mixed_scan_insert_counts(design: &str) -> namdex::racecheck::Counts {
    const KEYS: u64 = 8_000;
    const CLIENTS: u64 = 16;
    const OPS: u64 = 40;
    let sim = Sim::new();
    let nam = NamCluster::new(&sim, ClusterSpec::with_memory_servers(4));
    let data = Dataset::new(KEYS);
    let domain = data.domain();
    let layout = PageLayout::new(PAGE);
    let fg = FgConfig {
        layout,
        fill: 0.7,
        head_stride: 8,
        cache_capacity: None,
    };
    let range = PartitionMap::range_uniform(nam.num_servers(), domain);
    let index = match design {
        "cg" => Design::Cg(CoarseGrained::build(&nam, layout, range, data.iter(), 0.7)),
        "fg" => Design::Fg(FineGrained::build(&nam.rdma, fg, data.iter())),
        "hybrid" => Design::Hybrid(Hybrid::build(&nam, fg, range, data.iter())),
        "learned" => Design::Learned(Learned::build(&nam, fg, range, data.iter())),
        other => panic!("unknown design {other}"),
    };
    nam.rdma.set_active_clients(CLIENTS as usize);
    let race = Racecheck::install(&nam.rdma, PAGE);
    for c in 0..CLIENTS {
        let index = index.clone();
        let ep = Endpoint::new(&nam.rdma);
        sim.spawn(async move {
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (c + 1).wrapping_mul(0xD134_2543_DE82_EF95);
            let mut next = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 17
            };
            for _ in 0..OPS {
                let r = next();
                let key = next() % domain;
                if r % 10 < 3 {
                    index.insert(&ep, key | 1, r).await.expect("insert");
                } else {
                    index.range(&ep, key, key + 400).await.expect("range");
                }
            }
        });
    }
    sim.run();
    race.assert_clean();
    race.counts()
}

/// `(design, reads_checked, racy_reads, dirty_reads, validated,
/// violations)` of [`mixed_scan_insert_counts`], recorded from the
/// map-based detector before its hot path was rewritten: a change to
/// how the detector stores clocks, pages or pending windows must not
/// move a single count.
const COUNTS_GOLDEN: [(&str, u64, u64, u64, u64, u64); 4] = [
    ("cg", 0, 0, 0, 0, 0),
    ("fg", 7478, 389, 10, 392, 0),
    ("hybrid", 4913, 48, 7, 51, 0),
    ("learned", 4916, 388, 9, 390, 0),
];

#[test]
fn detector_counts_match_golden() {
    for (design, reads_checked, racy_reads, dirty_reads, validated, violations) in COUNTS_GOLDEN {
        let got = mixed_scan_insert_counts(design);
        let want = namdex::racecheck::Counts {
            reads_checked,
            racy_reads,
            dirty_reads,
            validated,
            violations,
        };
        assert_eq!(got, want, "{design}: detector counts moved off the golden");
    }
}

/// The rendered report of a read race, a lockset breach and a
/// write-write race on one page, byte for byte (clock rendering
/// included).
#[test]
fn violation_report_text_is_pinned() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let cluster = cluster.clone();
        let a = Endpoint::new(&cluster);
        let b = Endpoint::new(&cluster);
        let c = Endpoint::new(&cluster);
        sim.spawn(async move {
            cluster.note_op_start(a.client_id(), OpKind::Insert);
            locked_update(&a, ptr, 7).await;
            cluster.note_op_end(a.client_id(), OpKind::Insert, true);
            cluster.note_op_start(c.client_id(), OpKind::Lookup);
            c.read(ptr, PAGE).await.unwrap();
            cluster.note_op_end(c.client_id(), OpKind::Lookup, true);
            let mut page = [2u8; PAGE];
            page[..8].copy_from_slice(&2u64.to_le_bytes());
            b.write(ptr, &page).await.unwrap();
        });
    }
    sim.run();
    let want = "\
[racecheck:unvalidated-race] client 2 @ server 0 offset 0x8 t=0.000012s: optimistic READ at \
t=0.000012s of [server 0, 0x8+256] races with unlock FAA by client 0 (epoch 0:3 at \
t=0.000009s); reader clock at read {} lacks it, and no validating fence \
(covers/find_child/lock-CAS) was observed on the page before the bytes escaped into a \
completed lookup result \u{2014} missing HB edge 0:3 \u{2192} client 2
[racecheck:unlocked-write] client 1 @ server 0 offset 0x8 t=0.000015s: in-place WRITE by \
client 1 to the lock-protected page [server 0, 0x8+256] outside its critical section (the \
lock was already released \u{2014} the unlock FAA published the page before these bytes \
landed): optimistic readers can observe the bytes with no happens-before edge from this write
[racecheck:write-write-race] client 1 @ server 0 offset 0x8 t=0.000015s: WRITE by client 1 \
races with unlock FAA by client 0 (epoch 0:3 at t=0.000009s): writer clock {c1:1} lacks it \
\u{2014} missing HB edge 0:3 \u{2192} client 1
";
    assert_eq!(race.report(), want);
}

// ---------------------------------------------------------------------
// Ownership: the detector must not keep its cluster alive.

#[test]
fn installed_detector_does_not_leak_its_cluster() {
    let (sim, cluster, ptr) = cluster_with_page();
    let race = Racecheck::install(&cluster, PAGE);
    {
        let ep = Endpoint::new(&cluster);
        sim.spawn(async move {
            ep.read(ptr, PAGE).await.unwrap();
        });
    }
    sim.run();
    assert_eq!(race.counts().reads_checked, 1);
    let weak = cluster.downgrade();
    assert!(weak.upgrade().is_some());
    drop(cluster);
    drop(sim);
    // The cluster's observer list still owns the detector; only the
    // detector's handle back to the cluster would keep both alive.
    assert!(
        weak.upgrade().is_none(),
        "the cluster outlived every strong handle: an observer owns it"
    );
    // The detector's results stay readable after the cluster is gone.
    assert_eq!(race.counts().reads_checked, 1);
    race.assert_clean();
}
