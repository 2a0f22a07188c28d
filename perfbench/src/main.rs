//! The repository benchmark.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload p2p-small|p2p-bulk|coll-64|nas --seed N --seconds S --trace 0|1
//! ```
//!
//! (`run.py` builds this package and runs it pinned to one CPU.)
//!
//! Each run times set-up, then runs the workload's phases round-robin
//! under three stacks (`plain`, `paper`, `tuned`) for `--seconds`,
//! checking every delivered byte. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` adds one traced repetition per stack and the
//! layer micro-probes and prints the per-layer metrics. The last line
//! of standard output is the JSON result.

mod layer;
mod probes;
mod procfs;
mod report;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use empi_mpi::TraceReport;

use procfs::Cpu;
use report::Spec;
use stats::{median, overhead_percent_of_totals, percentile, tail_percentile};
use workload::{run_rep, setup, Config, Inputs, Op, Phase, Rep, Workload};

const USAGE: &str =
    "usage: perfbench --workload p2p-small|p2p-bulk|coll-64|nas [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up measurements per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;

/// Measured repetitions per configuration whose per-op samples are
/// kept, so memory does not grow with the run length.
const SAMPLE_REPS: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything measured for one stack configuration.
struct Row {
    /// Measured repetitions (the warm-up repetition dropped).
    reps: Vec<Rep>,
    /// The first completed repetition: the reference for virtual time
    /// and fabric counts.
    reference: Option<Rep>,
    traced: Option<Rep>,
}

impl Row {
    fn wall(&self) -> f64 {
        median(&self.reps.iter().map(Rep::wall_s).collect::<Vec<_>>())
    }

    fn reference(&self) -> &Rep {
        self.reference.as_ref().expect("a completed repetition")
    }

    fn samples(&self) -> Vec<f64> {
        self.reps
            .iter()
            .flat_map(|r| r.samples_us.iter().copied())
            .collect()
    }

    fn trace(&self) -> &TraceReport {
        self.traced
            .as_ref()
            .and_then(|r| r.trace.as_ref())
            .expect("traced repetition")
    }

    /// Mean CPU seconds per repetition; NaN when unavailable.
    fn cpu(&self) -> (f64, f64) {
        let all: Option<Vec<Cpu>> = self.reps.iter().map(|r| r.cpu).collect();
        match all {
            Some(v) if !v.is_empty() => {
                let n = v.len() as f64;
                (
                    v.iter().map(|c| c.user_s).sum::<f64>() / n,
                    v.iter().map(|c| c.sys_s).sum::<f64>() / n,
                )
            }
            _ => (f64::NAN, f64::NAN),
        }
    }
}

/// Failed and attempted op counts plus determinism findings.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn rep(&mut self, r: &Rep) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }

    /// Virtual time and fabric counts must repeat exactly.
    fn same(&mut self, what: &str, reference: &Rep, r: &Rep) {
        if r.completed && (r.phase_vt != reference.phase_vt || r.fabric != reference.fabric) {
            self.problems.push(format!(
                "{what}: vt {:?} fabric {:?} differ from the reference vt {:?} fabric {:?}",
                r.phase_vt, r.fabric, reference.phase_vt, reference.fabric
            ));
        }
    }
}

fn measure_rows(
    w: Workload,
    plan: &[Phase],
    inputs: &Inputs,
    seconds: u64,
    t: &mut Tally,
) -> Vec<Row> {
    // NAS passes are long, so one is enough; the others keep a warm-up.
    let min_reps = if w == Workload::Nas { 1 } else { 2 };
    let mut rows: Vec<Row> = Config::ALL
        .iter()
        .map(|_| Row {
            reps: Vec::new(),
            reference: None,
            traced: None,
        })
        .collect();
    let start = Instant::now();
    loop {
        for (cfg, row) in Config::ALL.into_iter().zip(rows.iter_mut()) {
            let mut rep = run_rep(w, cfg, plan, inputs, false);
            if row.reps.len() > SAMPLE_REPS {
                rep.samples_us = Vec::new();
            }
            t.rep(&rep);
            match &row.reference {
                Some(reference) => t.same(cfg.name(), reference, &rep),
                None if rep.completed => row.reference = Some(clone_counts(&rep)),
                None => {}
            }
            row.reps.push(rep);
        }
        if start.elapsed() >= Duration::from_secs(seconds) && rows[0].reps.len() >= min_reps {
            break;
        }
    }
    for row in &mut rows {
        if row.reps.len() > 1 {
            row.reps.remove(0);
        }
    }
    rows
}

/// The deterministic part of a repetition.
fn clone_counts(r: &Rep) -> Rep {
    Rep {
        completed: r.completed,
        phase_vt: r.phase_vt.clone(),
        fabric: r.fabric,
        yields: r.yields,
        ..Rep::default()
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let plan = w.plan(false);
    let inputs = Inputs::new(&plan, w.topology().n_ranks(), args.seed);
    let mut t = Tally::default();

    // Set-up, and an empty run at the same geometry for the handshake share.
    let mut setups = Vec::new();
    let mut empties = Vec::new();
    let mut handshake_msgs = 0u64;
    for _ in 0..SETUP_REPS {
        for (secure, out) in [(true, &mut setups), (false, &mut empties)] {
            t.attempted += 1;
            match setup(w, secure) {
                Ok((d, msgs)) => {
                    out.push(d.as_secs_f64());
                    if secure {
                        handshake_msgs = msgs;
                    }
                }
                Err(e) => {
                    t.failed += 1;
                    eprintln!("set-up failed: {e}");
                }
            }
        }
    }

    let mut rows = measure_rows(w, &plan, &inputs, args.seconds, &mut t);
    if rows.iter().any(|r| r.reference.is_none()) {
        eprintln!("a configuration never completed a repetition");
        println!(
            "{}",
            report::result_json(false, t.attempted.max(1), t.failed, &[])
        );
        std::process::exit(1);
    }

    let vt = |row: &Row| row.reference().phase_vt_s();
    let (vt_plain, vt_paper, vt_tuned) = (vt(&rows[0]), vt(&rows[1]), vt(&rows[2]));
    print_phase_table(w, &plan, &rows);

    let metrics: Vec<(Spec, f64)> = if args.trace {
        for (cfg, row) in Config::ALL.into_iter().zip(rows.iter_mut()) {
            let rep = run_rep(w, cfg, &plan, &inputs, true);
            t.rep(&rep);
            t.same(&format!("{} traced", cfg.name()), row.reference(), &rep);
            row.traced = Some(rep);
        }
        if rows
            .iter()
            .any(|r| r.traced.as_ref().is_none_or(|x| !x.completed))
        {
            eprintln!("a traced repetition did not complete");
            println!("{}", report::result_json(false, t.attempted, t.failed, &[]));
            std::process::exit(1);
        }
        let values = layer_values(w, &plan, &rows, &setups, &empties, handshake_msgs, &t);
        zip_specs(report::per_layer(), values)
    } else {
        let values = vec![
            median(&setups),
            rows[0].wall(),
            rows[1].wall(),
            rows[2].wall(),
            vt_plain.iter().sum(),
            vt_paper.iter().sum(),
            vt_tuned.iter().sum(),
            overhead_percent_of_totals(&vt_plain, &vt_paper),
            overhead_percent_of_totals(&vt_plain, &vt_tuned),
            1.0 - t.failed as f64 / t.attempted as f64,
            procfs::peak_rss_mb().unwrap_or(f64::NAN),
        ];
        zip_specs(report::end_to_end(), values)
    };

    for p in &t.problems {
        eprintln!("determinism: {p}");
    }
    for (m, v) in &metrics {
        let tag = if args.trace {
            report::moves(&m.name)
        } else {
            ""
        };
        println!("{:<40} {:>16.6} {:<10} {tag}", m.name, v, m.unit);
    }
    let correct = t.failed == 0 && t.problems.is_empty();
    println!(
        "{}",
        report::result_json(correct, t.attempted, t.failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

fn zip_specs(specs: Vec<Spec>, values: Vec<f64>) -> Vec<(Spec, f64)> {
    assert_eq!(specs.len(), values.len(), "one value per declared metric");
    specs.into_iter().zip(values).collect()
}

/// The paper's overhead for the comparable cell, for information.
fn paper_value(w: Workload, op: Op) -> Option<&'static str> {
    match (w, op) {
        (Workload::P2pSmall, Op::PingPong(256)) => Some("80.9 (TAB-5, IB 256 B)"),
        (Workload::P2pBulk, Op::PingPong(s)) if s == 2 << 20 => Some("78.3 (FIG-3, Ethernet 2 MB)"),
        _ => None,
    }
}

fn print_phase_table(w: Workload, plan: &[Phase], rows: &[Row]) {
    println!(
        "{} ({} ranks, {}): virtual time and median host wall per phase",
        w.name(),
        w.topology().n_ranks(),
        w.net().name()
    );
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>8} {:>8} {:>10} {:>10} {:>10}  paper's overhead %",
        "phase",
        "plain vus",
        "paper vus",
        "tuned vus",
        "paper %",
        "tuned %",
        "plain ms",
        "paper ms",
        "tuned ms"
    );
    let vt: Vec<Vec<f64>> = rows.iter().map(|r| r.reference().phase_vt_s()).collect();
    for (i, ph) in plan.iter().enumerate() {
        let wall =
            |r: &Row| median(&r.reps.iter().map(|x| x.phase_wall[i]).collect::<Vec<_>>()) * 1e3;
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>8.2} {:>8.2} {:>10.3} {:>10.3} {:>10.3}  {}",
            ph.label(),
            vt[0][i] * 1e6,
            vt[1][i] * 1e6,
            vt[2][i] * 1e6,
            overhead_percent_of_totals(&vt[0][i..=i], &vt[1][i..=i]),
            overhead_percent_of_totals(&vt[0][i..=i], &vt[2][i..=i]),
            wall(&rows[0]),
            wall(&rows[1]),
            wall(&rows[2]),
            paper_value(w, ph.op).unwrap_or("-"),
        );
    }
}

/// Per-layer values, in the order of [`report::per_layer`].
fn layer_values(
    w: Workload,
    plan: &[Phase],
    rows: &[Row],
    setups: &[f64],
    empties: &[f64],
    handshake_msgs: u64,
    t: &Tally,
) -> Vec<f64> {
    let [plain, paper, tuned] = [&rows[0], &rows[1], &rows[2]];
    let mut v = Vec::new();

    // engine
    v.extend(rows.iter().map(|r| r.reference().yields as f64));
    v.extend(
        rows.iter()
            .map(|r| r.wall() * 1e9 / r.reference().yields.max(1) as f64),
    );
    v.extend(rows.iter().map(|r| r.cpu().0));
    v.extend(rows.iter().map(|r| r.cpu().1));
    let probe = |f: &dyn Fn() -> f64| median(&(0..5).map(|_| f()).collect::<Vec<_>>());
    v.push(probe(&|| probes::engine_ns_per_yield(2, 10_000)));
    v.push(probe(&|| probes::engine_ns_per_yield(1, 10_000)));

    // fabric
    v.extend(rows.iter().map(|r| r.reference().fabric.0 as f64));
    v.extend(rows.iter().map(|r| r.reference().fabric.1 as f64));

    // mpi and securecomm: host µs per op on rank 0, one tail percentile
    // for every row (the one the smallest sample count supports).
    let samples: Vec<Vec<f64>> = rows.iter().map(Row::samples).collect();
    let n_min = samples.iter().map(Vec::len).min().unwrap_or(0);
    let tail = tail_percentile(n_min).unwrap_or(f64::NAN);
    let p = |s: &[f64], q: f64| {
        if q.is_nan() {
            f64::NAN
        } else {
            percentile(s, q)
        }
    };
    let d_plain = plain.trace().decomposition();
    v.extend([
        p(&samples[0], 50.0),
        p(&samples[0], tail),
        tail,
        n_min as f64,
        d_plain.wire_ns as f64 * 1e-3,
        d_plain.wait_ns as f64 * 1e-3,
    ]);
    let sum = |tr: &TraceReport, f: fn(&empi_trace::RankMetrics) -> u64| -> f64 {
        tr.per_rank.iter().map(f).sum::<u64>() as f64
    };
    v.extend([
        p(&samples[1], 50.0),
        p(&samples[1], tail),
        p(&samples[2], 50.0),
        p(&samples[2], tail),
        p(&samples[1], 50.0) - p(&samples[0], 50.0),
        paper.trace().decomposition().crypto_ns as f64 * 1e-3,
        sum(paper.trace(), |m| m.seals),
        sum(paper.trace(), |m| m.opens),
    ]);

    // aead
    // The secure stack runs the fastest engines, which BoringSSL's profile
    // selects, so its rate at the workload's record size prices the
    // crypto bytes.
    let (mut seal_nspb, mut open_nspb) = (f64::NAN, f64::NAN);
    for (lib, lname) in probes::AEAD_LIBS {
        let rates: Vec<(f64, f64)> = probes::AEAD_SIZES
            .iter()
            .map(|&(size, slabel)| {
                let r = probes::aead_ns_per_byte(lib, size, 8 << 20);
                if lname == "boringssl" && slabel == w.aead_size_label() {
                    (seal_nspb, open_nspb) = r;
                }
                r
            })
            .collect();
        v.extend(rates.iter().map(|r| r.0));
        v.extend(rates.iter().map(|r| r.1));
    }
    for row in [paper, tuned] {
        let sealed = sum(row.trace(), |m| m.sealed_plain_bytes);
        let opened = sum(row.trace(), |m| m.opened_plain_bytes);
        v.push(sealed + opened);
        v.push((sealed * seal_nspb + opened * open_nspb) / (row.wall() * 1e9));
    }

    // pool
    let (take, reclaim) = {
        let runs: Vec<(f64, f64)> = (0..5).map(|_| probes::pool_ns(200)).collect();
        (
            median(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
            median(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
        )
    };
    let fresh = sum(tuned.trace(), |m| m.allocs_fresh);
    let pooled = sum(tuned.trace(), |m| m.allocs_pooled);
    let (msgs, _, local) = tuned.reference().fabric;
    v.extend([
        take,
        reclaim,
        if fresh + pooled > 0.0 {
            pooled / (fresh + pooled)
        } else {
            0.0
        },
        fresh / (msgs + local).max(1) as f64,
    ]);

    // pipeline
    let vt_sum = |r: &Row| r.reference().vt_s();
    v.extend([
        sum(tuned.trace(), |m| m.chunks_sealed),
        tuned.trace().decomposition().crypto_ns as f64 * 1e-3,
        (vt_sum(tuned) - vt_sum(plain)) * 1e6,
    ]);

    // keys
    v.push(median(setups) - median(empties));
    v.push(handshake_msgs as f64);

    // nas: kernel arithmetic vs everything else in the kernels' wall.
    let is_nas = w == Workload::Nas;
    let per_rep =
        |r: &Row, f: &dyn Fn(&Rep) -> f64| median(&r.reps.iter().map(f).collect::<Vec<_>>());
    for r in rows {
        v.push(if is_nas {
            per_rep(r, &|x| x.compute_s)
        } else {
            0.0
        });
    }
    for r in rows {
        v.push(if is_nas {
            per_rep(r, &|x| x.wall_s() - x.compute_s)
        } else {
            0.0
        });
    }
    for k in empi_nas::Kernel::ALL {
        let phase = plan
            .iter()
            .position(|ph| matches!(ph.op, Op::Kernel(pk, _) if pk == k));
        for r in rows {
            v.push(phase.map_or(0.0, |i| per_rep(r, &|x| x.phase_wall[i])));
        }
    }

    // trace: the traced paper repetition against the untraced median.
    let traced_wall = paper.traced.as_ref().map_or(f64::NAN, Rep::wall_s);
    v.push((traced_wall / paper.wall() - 1.0) * 100.0);
    v.push(t.failed as f64 / t.attempted.max(1) as f64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload coll-64 --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Coll64);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--seed 1").is_err(), "workload required");
        assert!(args("--workload bogus").is_err());
        assert!(args("--workload nas --trace 2").is_err());
        assert!(args("--workload nas --frobnicate").is_err());
        assert!(args("--workload nas --seed").is_err());
    }
}
