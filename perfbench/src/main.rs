//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point-10m --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ones. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`; a
//! results file with host provenance and the per-round numbers is written
//! under `perfbench/out/`.

mod check;
mod metrics;
mod pass;
mod probe;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{Metric, RECONCILE_TOLERANCE};
use pass::{run_pass, Mode, PassResult};
use probe::{calibration_score, now_ns, Provenance};
use workload::{WorkloadSpec, DESIGNS};

const USAGE: &str = "usage: perfbench --workload <point-10m|write-wal|scan-checked> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

/// Fewest rounds a plain run makes (host numbers are medians over them).
const MIN_ROUNDS: usize = 3;
/// Most rounds a plain run makes.
const MAX_ROUNDS: usize = 15;
/// Where results files go, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?),
                "--trace" => {
                    trace = Some(match num()? {
                        0 => false,
                        1 => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(20),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a run reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Check failures: wrong answers, determinism or ledger mismatches.
    problems: Vec<String>,
    /// JSON members for the results file.
    details: String,
    /// Chrome-trace JSON of the sampled spans (traced runs).
    spans: Option<String>,
}

fn tally(passes: &[&PassResult], problems: &mut Vec<String>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for p in passes {
        let s = &p.sim;
        attempted += s.attempted;
        failed += s.errors + s.wrong + s.failed_outside;
        if s.wrong > 0 || s.failed_outside > 0 {
            problems.push(format!(
                "{} wrong answers in the window, {} failed checks outside it",
                s.wrong, s.failed_outside
            ));
        }
    }
    (attempted, failed)
}

fn check_setup(p: &PassResult, what: &str, problems: &mut Vec<String>) {
    let gap = metrics::setup_gap(p);
    if gap > RECONCILE_TOLERANCE {
        problems.push(format!(
            "{what}: cluster_new + build is {:.1}% off setup",
            gap * 100.0
        ));
    }
}

/// Per-design host and sample-count details of one pass.
fn pass_json(kind: workload::DesignKind, p: &PassResult) -> String {
    let (s, h) = (&p.sim, &p.host);
    format!(
        "{{\"design\":\"{}\",\"sim_samples\":{},\"attempted\":{},\"events\":{},\
         \"fingerprint\":\"{:016x}\",\"inserts_verified\":{},\"setup_ns\":{},\
         \"cluster_new_ns\":{},\"build_ns\":{},\"window_wall_ns\":{},\"window_cpu_ns\":{},\"rss_mb\":[{},{},{}],\
         \"racecheck\":{}}}",
        kind.tag(),
        s.latencies.len(),
        s.attempted,
        s.events,
        p.fingerprint,
        s.inserts_verified,
        h.setup_ns,
        h.cluster_new_ns,
        h.build_ns,
        h.window_ns,
        h.slices.iter().map(|s| s.cpu_ns).sum::<u64>(),
        h.rss_start_mb,
        h.rss_built_mb,
        h.rss_end_mb,
        s.race_total.map_or("null".into(), |r| format!(
            "{{\"reads_checked\":{},\"racy_reads\":{},\"dirty_reads\":{},\"validated\":{},\
             \"violations\":{}}}",
            r.reads_checked, r.racy_reads, r.dirty_reads, r.validated, r.violations
        ))
    )
}

/// The end-to-end run: rounds of all four designs, the same seed each
/// round, for about `seconds` of wall time (at least `MIN_ROUNDS`). Every
/// round must reproduce round 0's simulated results.
fn plain_run(spec: &WorkloadSpec, seed: u64, seconds: u64) -> Report {
    let start = now_ns();
    let mut rounds: Vec<Vec<PassResult>> = Vec::new();
    let mut problems = Vec::new();
    // Start another round only if, at the mean round time so far, it ends
    // within `seconds`.
    let fits = |rounds: usize| {
        let spent = now_ns() - start;
        spent + spent / rounds.max(1) as u64 <= seconds * 1_000_000_000
    };
    while rounds.len() < MIN_ROUNDS || (rounds.len() < MAX_ROUNDS && fits(rounds.len())) {
        let round: Vec<PassResult> = DESIGNS
            .iter()
            .map(|&d| run_pass(spec, d, seed, Mode::Plain))
            .collect();
        for (i, (d, p)) in DESIGNS.iter().zip(&round).enumerate() {
            check_setup(p, d.tag(), &mut problems);
            if let Some(first) = rounds.first() {
                if p.fingerprint != first[i].fingerprint {
                    problems.push(format!(
                        "{}: round {} simulated results differ from round 0",
                        d.tag(),
                        rounds.len()
                    ));
                }
            }
        }
        rounds.push(round);
    }
    let all: Vec<&PassResult> = rounds.iter().flatten().collect();
    let (attempted, failed) = tally(&all, &mut problems);
    let passes: Vec<String> = rounds
        .iter()
        .flat_map(|round| DESIGNS.iter().zip(round).map(|(d, p)| pass_json(*d, p)))
        .collect();
    let details = format!(
        "\"rounds\":{},\"passes\":[{}]",
        rounds.len(),
        passes.join(",")
    );
    Report {
        metrics: metrics::end_to_end(&rounds),
        attempted,
        failed,
        problems,
        details,
        spans: None,
    }
}

/// The traced run: for each design a plain, a timed and a counted pass
/// with the same seed. All three must agree on every simulated number,
/// and the timed window's host ledger must reconcile with its wall time.
fn traced_run(spec: &WorkloadSpec, seed: u64) -> Report {
    let (mut plain, mut timed, mut counted) = (Vec::new(), Vec::new(), Vec::new());
    let mut problems = Vec::new();
    for &d in &DESIGNS {
        let p = run_pass(spec, d, seed, Mode::Plain);
        let t = run_pass(spec, d, seed, Mode::Timed);
        let c = run_pass(spec, d, seed, Mode::Counted);
        if t.fingerprint != p.fingerprint || c.fingerprint != p.fingerprint {
            problems.push(format!(
                "{}: instrumented and plain simulated results differ",
                d.tag()
            ));
        }
        check_setup(&p, d.tag(), &mut problems);
        let gap = metrics::ledger_gap(&t);
        if gap > RECONCILE_TOLERANCE {
            problems.push(format!(
                "{}: gen + core + residual is {:.1}% off the window wall",
                d.tag(),
                gap * 100.0
            ));
        }
        plain.push(p);
        timed.push(t);
        counted.push(c);
    }
    let all: Vec<&PassResult> = plain.iter().chain(&timed).chain(&counted).collect();
    let (attempted, failed) = tally(&all, &mut problems);

    let mut ledgers = Vec::new();
    let mut spans = Vec::new();
    for (i, (d, t)) in DESIGNS.iter().zip(&timed).enumerate() {
        let (gen, core, residual, wall) = metrics::ledger(t);
        let timing = t.timing.as_ref().expect("timed pass");
        ledgers.push(format!(
            "{{\"design\":\"{}\",\"gen_ns\":{gen},\"core_poll_ns\":{core},\
             \"residual_ns\":{residual},\"bench_ns\":{},\"race_ns\":{},\
             \"window_wall_ns\":{wall},\"gap_ratio\":{},\"plain\":{},\"timed\":{},\
             \"counted\":{}}}",
            d.tag(),
            timing.bench_ns,
            timing.race_ns,
            metrics::ledger_gap(t),
            pass_json(*d, &plain[i]),
            pass_json(*d, t),
            pass_json(*d, &counted[i])
        ));
        spans.extend(timing.spans.iter().map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":\"{}\",\"tid\":{},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                s.name,
                d.tag(),
                s.op >> 32,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op
            )
        }));
    }
    Report {
        metrics: metrics::per_layer(&plain, &timed, &counted),
        attempted,
        failed,
        problems,
        details: format!("\"ledger\":[{}]", ledgers.join(",")),
        spans: Some(format!("[{}]", spans.join(",\n"))),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn result_line(correct: bool, report: &Report) -> String {
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        );
    }
    line + "}}"
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = WorkloadSpec::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let prov = Provenance::collect();
    let calibration = calibration_score();
    let provenance = format!(
        "\"git_rev\":{},\"source_digest\":{},\"nproc\":{},\"cpu_model\":{},\
         \"calibration_mips\":{calibration}",
        json_str(&prov.git_rev),
        json_str(&prov.source_digest),
        prov.nproc,
        json_str(&prov.cpu_model)
    );
    eprintln!(
        "perfbench: {} seed {} trace {} on {} x {} (calibration {calibration:.1} Mit/s)",
        spec.name, args.seed, args.trace as u8, prov.nproc, prov.cpu_model
    );

    let report = if args.trace {
        traced_run(&spec, args.seed)
    } else {
        plain_run(&spec, args.seed, args.seconds)
    };
    for p in &report.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    let line = result_line(correct, &report);

    let stem = format!(
        "{OUT_DIR}/{}.s{}.t{}",
        spec.name, args.seed, args.trace as u8
    );
    let results = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},{provenance},{},\
         \"problems\":[{}],\"result\":{line}}}\n",
        json_str(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        report.details,
        report
            .problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(",")
    );
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), results))
        .and_then(|()| match &report.spans {
            Some(s) => std::fs::write(format!("{stem}.spans.json"), s),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {stem}.json: {e}");
    }

    println!("{{\"provenance\":{{{provenance}}}}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDur;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_arguments() {
        assert_eq!(
            args("--workload write-wal --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "write-wal".into(),
                seed: 7,
                seconds: 10,
                trace: true
            })
        );
        assert!(args("--workload x --seed 1 --trace 2").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload x --seed").is_err());
        assert!(args("--workload x --seed 1 --bogus 3").is_err());
    }

    /// A named workload scaled down to test size (three window slices,
    /// so the ledger check takes a median).
    fn small(name: &str) -> WorkloadSpec {
        WorkloadSpec {
            num_keys: 20_000,
            warmup: SimDur::from_micros(200),
            window: pass::SLICE * 3,
            ..WorkloadSpec::by_name(name).unwrap()
        }
    }

    #[test]
    fn traced_runs_reconcile_and_match_plain_runs() {
        for name in ["point-10m", "write-wal", "scan-checked"] {
            let report = traced_run(&small(name), 3);
            assert!(report.problems.is_empty(), "{name}: {:?}", report.problems);
            assert_eq!(report.failed, 0, "{name}");
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        }
    }

    #[test]
    fn setup_split_matches_setup_time() {
        let p = run_pass(
            &small("point-10m"),
            workload::DesignKind::Cg,
            1,
            Mode::Plain,
        );
        assert!(metrics::setup_gap(&p) <= RECONCILE_TOLERANCE);
    }

    #[test]
    fn repeats_of_a_seed_agree_and_seeds_differ() {
        let spec = small("write-wal");
        let a = run_pass(&spec, workload::DesignKind::Hybrid, 5, Mode::Plain);
        let b = run_pass(&spec, workload::DesignKind::Hybrid, 5, Mode::Plain);
        let c = run_pass(&spec, workload::DesignKind::Hybrid, 6, Mode::Plain);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert!(a.sim.inserts_verified > 0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let report = Report {
            metrics: vec![Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            }],
            attempted: 3,
            failed: 0,
            problems: vec![],
            details: String::new(),
            spans: None,
        };
        assert_eq!(
            result_line(true, &report),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
