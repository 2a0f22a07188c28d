//! The four workloads, the three stack configurations, and one
//! repetition: a closed loop driven by the simulated ranks themselves.

use std::time::{Duration, Instant};

use empi_aead::CryptoLibrary;
use empi_bench::common::security_config;
use empi_bench::Net;
use empi_core::{PipelineConfig, SecureComm, SecurityConfig};
use empi_mpi::{TraceReport, World};
use empi_nas::adi::{self, AdiKind};
use empi_nas::{cg, ft, is, lu, mg, Class, CommLayer, Kernel, PlainLayer, SecureLayer};
use empi_netsim::Topology;

use crate::layer::TimedLayer;
use crate::procfs::{self, Cpu};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    P2pSmall,
    P2pBulk,
    Coll64,
    Nas,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::P2pSmall,
        Workload::P2pBulk,
        Workload::Coll64,
        Workload::Nas,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::P2pSmall => "p2p-small",
            Workload::P2pBulk => "p2p-bulk",
            Workload::Coll64 => "coll-64",
            Workload::Nas => "nas",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn net(self) -> Net {
        match self {
            Workload::P2pSmall | Workload::Coll64 => Net::Infiniband,
            Workload::P2pBulk | Workload::Nas => Net::Ethernet,
        }
    }

    pub fn topology(self) -> Topology {
        match self {
            Workload::P2pSmall | Workload::P2pBulk => Topology::one_per_node(2),
            Workload::Coll64 => Topology::block(64, 8),
            Workload::Nas => Topology::block(16, 4),
        }
    }

    /// The phases of one repetition. `smoke` keeps every phase but runs
    /// each op once (NAS at class S), for tests.
    pub fn plan(self, smoke: bool) -> Vec<Phase> {
        let ph = |op, iters| Phase {
            op,
            iters: if smoke { 1 } else { iters },
        };
        match self {
            // TAB-5 sizes; per-message cost dominates.
            Workload::P2pSmall => [1, 16, 256, 1 << 10]
                .into_iter()
                .map(|s| ph(Op::PingPong(s), 250))
                .collect(),
            // FIG-3 points; per-byte AES-GCM dominates.
            Workload::P2pBulk => vec![ph(Op::PingPong(64 << 10), 40), ph(Op::PingPong(2 << 20), 8)],
            // TAB-6/7 points.
            Workload::Coll64 => vec![
                ph(Op::Bcast(16 << 10), 2),
                ph(Op::Bcast(1 << 20), 1),
                ph(Op::Alltoall(1 << 10), 1),
            ],
            Workload::Nas => {
                let class = if smoke { Class::S } else { Class::MiniC };
                Kernel::ALL
                    .into_iter()
                    .map(|k| Phase {
                        op: Op::Kernel(k, class),
                        iters: 1,
                    })
                    .collect()
            }
        }
    }

    /// The probed AEAD record size closest to this workload's bulk
    /// traffic, used to turn its crypto bytes into an estimated share.
    pub fn aead_size_label(self) -> &'static str {
        match self {
            Workload::P2pSmall => "1k",
            Workload::P2pBulk => "2m",
            Workload::Coll64 | Workload::Nas => "64k",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Blocking ping-pong between ranks 0 and 1 at this size.
    PingPong(usize),
    /// Broadcast from rank 0 at this size.
    Bcast(usize),
    /// Alltoall with this block size per peer.
    Alltoall(usize),
    /// One NAS kernel run, self-verified.
    Kernel(Kernel, Class),
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub op: Op,
    pub iters: usize,
}

impl Phase {
    pub fn label(&self) -> String {
        let size = |s: usize| match s {
            s if s >= 1 << 20 => format!("{}MB", s >> 20),
            s if s >= 1 << 10 => format!("{}KB", s >> 10),
            s => format!("{s}B"),
        };
        match self.op {
            Op::PingPong(s) => format!("pingpong {}", size(s)),
            Op::Bcast(s) => format!("bcast {}", size(s)),
            Op::Alltoall(s) => format!("alltoall {}", size(s)),
            Op::Kernel(k, _) => k.name().to_string(),
        }
    }

    /// Ops counted per repetition: one per rank per checked outcome.
    fn ops(&self, n_ranks: usize) -> u64 {
        let per_iter = match self.op {
            Op::PingPong(_) => 2,
            Op::Bcast(_) | Op::Alltoall(_) | Op::Kernel(..) => n_ranks,
        };
        (per_iter * self.iters) as u64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    Plain,
    Paper,
    Tuned,
}

impl Config {
    pub const ALL: [Config; 3] = [Config::Plain, Config::Paper, Config::Tuned];

    pub fn name(self) -> &'static str {
        match self {
            Config::Plain => "plain",
            Config::Paper => "paper",
            Config::Tuned => "tuned",
        }
    }

    /// `None` runs unencrypted.
    pub fn security(self, net: Net) -> Option<SecurityConfig> {
        let paper = security_config(CryptoLibrary::BoringSsl, net);
        match self {
            Config::Plain => None,
            Config::Paper => Some(paper),
            Config::Tuned => Some(
                paper
                    .with_pipeline(PipelineConfig::enabled().with_workers(4))
                    .with_buffer_pool(true)
                    .with_peer_cipher(true),
            ),
        }
    }
}

/// Payload variants per phase; consecutive iterations alternate, so a
/// stale or misrouted buffer cannot pass the check.
const VARIANTS: usize = 2;

/// SplitMix64 stream keyed by `(seed, a, b, c)`.
fn fill(buf: &mut [u8], seed: u64, a: u64, b: u64, c: u64) {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.rotate_left(21) ^ c.rotate_left(42);
    for chunk in buf.chunks_mut(8) {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes()[..chunk.len()]);
    }
}

/// The seeded inputs of one phase. Inputs depend on the seed only, so
/// every repetition of every configuration sends the same bytes.
enum PhaseInput {
    /// `[variant]` → the message.
    Payload(Vec<Vec<u8>>),
    /// `[variant][rank]` → that rank's full send buffer (`n` blocks).
    Blocks(Vec<Vec<Vec<u8>>>),
    None,
}

pub struct Inputs {
    phases: Vec<PhaseInput>,
}

impl Inputs {
    pub fn new(plan: &[Phase], n_ranks: usize, seed: u64) -> Inputs {
        let phases = plan
            .iter()
            .enumerate()
            .map(|(p, ph)| {
                let p = p as u64;
                match ph.op {
                    Op::PingPong(s) | Op::Bcast(s) => PhaseInput::Payload(
                        (0..VARIANTS as u64)
                            .map(|v| {
                                let mut b = vec![0u8; s];
                                fill(&mut b, seed, p, v, 0);
                                b
                            })
                            .collect(),
                    ),
                    Op::Alltoall(block) => PhaseInput::Blocks(
                        (0..VARIANTS as u64)
                            .map(|v| {
                                (0..n_ranks as u64)
                                    .map(|r| {
                                        let mut b = vec![0u8; block * n_ranks];
                                        fill(&mut b, seed, p, v, r + 1);
                                        b
                                    })
                                    .collect()
                            })
                            .collect(),
                    ),
                    Op::Kernel(..) => PhaseInput::None,
                }
            })
            .collect();
        Inputs { phases }
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Whether the world ran to completion (no deadlock, no rank panic).
    pub completed: bool,
    /// Host seconds of each phase, on rank 0 (barrier to barrier).
    pub phase_wall: Vec<f64>,
    /// Virtual ns of each phase, max over ranks.
    pub phase_vt: Vec<u64>,
    /// Inter-node messages, inter-node bytes, intra-node messages.
    pub fabric: (u64, u64, u64),
    pub yields: u64,
    /// Host µs of each op rank 0 issued.
    pub samples_us: Vec<f64>,
    /// Host seconds inside NAS kernel arithmetic, summed over ranks.
    pub compute_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Process CPU time over the repetition; `None` without `/proc`.
    pub cpu: Option<Cpu>,
    pub trace: Option<TraceReport>,
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        self.phase_wall.iter().sum()
    }

    /// Virtual seconds of each phase.
    pub fn phase_vt_s(&self) -> Vec<f64> {
        self.phase_vt.iter().map(|&ns| ns as f64 * 1e-9).collect()
    }

    pub fn vt_s(&self) -> f64 {
        self.phase_vt_s().iter().sum()
    }
}

/// Per-rank result of one repetition.
struct RankOut {
    phase_vt: Vec<u64>,
    phase_wall: Vec<f64>,
    samples_us: Vec<f64>,
    compute_ns: u64,
    failed: u64,
}

fn world(w: Workload, traced: bool) -> World {
    World::new(w.net().model(), w.topology())
        .with_shards(1)
        .traced(traced)
}

/// One repetition of `plan` on workload `w` under configuration `cfg`.
pub fn run_rep(w: Workload, cfg: Config, plan: &[Phase], inputs: &Inputs, traced: bool) -> Rep {
    let sec = cfg.security(w.net());
    let world = world(w, traced);
    let n = world.n_ranks();
    let attempted: u64 = plan.iter().map(|p| p.ops(n)).sum();
    let cpu0 = procfs::cpu();
    let out = world.try_run(|c| {
        let plain;
        let secure;
        let base: &dyn CommLayer = match &sec {
            None => {
                plain = PlainLayer::new(c);
                &plain
            }
            Some(s) => {
                secure = SecureLayer::new(c, s.clone());
                &secure
            }
        };
        let layer = TimedLayer::new(base);
        let me = c.rank();
        let mut r = RankOut {
            phase_vt: Vec::with_capacity(plan.len()),
            phase_wall: Vec::with_capacity(plan.len()),
            samples_us: Vec::new(),
            compute_ns: 0,
            failed: 0,
        };
        for (phase, input) in plan.iter().zip(&inputs.phases) {
            c.barrier();
            let (v0, h0) = (c.now(), Instant::now());
            r.failed += run_phase(&layer, phase, input);
            c.barrier();
            r.phase_vt.push((c.now() - v0).as_nanos());
            r.phase_wall.push(h0.elapsed().as_secs_f64());
        }
        if me == 0 {
            r.samples_us = layer.take_samples();
        }
        r.compute_ns = layer.compute_ns();
        r
    });
    let cpu = procfs::cpu().zip(cpu0).map(|(c1, c0)| c1 - c0);
    match out {
        Ok(o) => {
            let phase_vt = (0..plan.len())
                .map(|i| o.results.iter().map(|r| r.phase_vt[i]).max().unwrap_or(0))
                .collect();
            let compute_ns: u64 = o.results.iter().map(|r| r.compute_ns).sum();
            let failed = o.results.iter().map(|r| r.failed).sum();
            let rank0 = o.results.into_iter().next().expect("rank 0 exists");
            Rep {
                completed: true,
                phase_wall: rank0.phase_wall,
                phase_vt,
                fabric: (o.fabric.messages, o.fabric.bytes, o.fabric.local_messages),
                yields: o.yields,
                samples_us: rank0.samples_us,
                compute_s: compute_ns as f64 * 1e-9,
                attempted,
                failed,
                cpu,
                trace: o.trace,
            }
        }
        Err(e) => {
            eprintln!("{} / {}: simulation failed: {e}", w.name(), cfg.name());
            Rep {
                attempted,
                failed: attempted,
                ..Rep::default()
            }
        }
    }
}

/// Run one phase on this rank; returns the number of failed ops.
fn run_phase(l: &TimedLayer, phase: &Phase, input: &PhaseInput) -> u64 {
    const TAG: u32 = 7;
    let me = l.rank();
    let n = l.size();
    let mut failed = 0u64;
    let mut check = |ok: bool| failed += u64::from(!ok);
    match (phase.op, input) {
        (Op::PingPong(_), PhaseInput::Payload(p)) => {
            for it in 0..phase.iters {
                let want = &p[it % VARIANTS];
                if me == 0 {
                    let echo = l.op(|| {
                        l.send(want, 1, TAG);
                        l.recv(1, TAG)
                    });
                    check(echo == *want);
                } else if me == 1 {
                    let got = l.recv(0, TAG);
                    check(got == *want);
                    l.send(&got, 0, TAG);
                }
            }
        }
        (Op::Bcast(size), PhaseInput::Payload(p)) => {
            let mut buf = vec![0u8; size];
            for it in 0..phase.iters {
                let want = &p[it % VARIANTS];
                if me == 0 {
                    buf.copy_from_slice(want);
                }
                l.bcast(&mut buf, 0);
                check(buf == *want);
            }
        }
        (Op::Alltoall(block), PhaseInput::Blocks(b)) => {
            for it in 0..phase.iters {
                let v = &b[it % VARIANTS];
                let got = l.alltoall(&v[me], block);
                let ok = got.len() == n * block
                    && (0..n).all(|src| {
                        got[src * block..(src + 1) * block] == v[src][me * block..(me + 1) * block]
                    });
                check(ok);
            }
        }
        (Op::Kernel(k, class), PhaseInput::None) => {
            let report = match k {
                Kernel::CG => cg::run(l, class),
                Kernel::FT => ft::run(l, class),
                Kernel::MG => mg::run(l, class),
                Kernel::LU => lu::run(l, class),
                Kernel::BT => adi::run(l, class, AdiKind::Bt),
                Kernel::SP => adi::run(l, class, AdiKind::Sp),
                Kernel::IS => is::run(l, class),
            };
            check(report.verified);
        }
        _ => unreachable!("inputs are built from the same plan"),
    }
    failed
}

/// Set-up time: host seconds from `World::new` until every rank has
/// returned from `SecureComm::new` under the paper configuration and
/// passed a barrier, plus that world's fabric message count. With
/// `secure == false` the ranks return at once (an empty run).
pub fn setup(w: Workload, secure: bool) -> Result<(Duration, u64), String> {
    let cfg = Config::Paper.security(w.net());
    let t0 = Instant::now();
    let out = world(w, false)
        .try_run(|c| {
            if secure {
                let sc = SecureComm::new(c, cfg.clone().expect("paper is encrypted"))
                    .map_err(|e| e.to_string())?;
                sc.barrier();
            }
            Ok::<_, String>(Instant::now())
        })
        .map_err(|e| e.to_string())?;
    let mut last = t0;
    for r in out.results {
        last = last.max(r?);
    }
    Ok((last - t0, out.fabric.messages + out.fabric.local_messages))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let plan = Workload::Coll64.plan(true);
        let a = Inputs::new(&plan, 4, 1);
        let b = Inputs::new(&plan, 4, 1);
        let c = Inputs::new(&plan, 4, 2);
        let payload = |i: &Inputs| match &i.phases[0] {
            PhaseInput::Payload(p) => p.clone(),
            _ => unreachable!(),
        };
        assert_eq!(payload(&a), payload(&b));
        assert_ne!(payload(&a), payload(&c));
        assert_ne!(payload(&a)[0], payload(&a)[1], "variants differ");
    }

    /// Bytes that differ from what was sent count as failed ops: rank 1
    /// checks against another seed's payloads, so each of its receives
    /// fails, while rank 0 gets back exactly what it sent.
    #[test]
    fn mismatched_bytes_count_as_failures() {
        let plan = vec![
            Phase {
                op: Op::PingPong(64),
                iters: 3,
            },
            Phase {
                op: Op::Bcast(64),
                iters: 3,
            },
        ];
        let (a, b) = (Inputs::new(&plan, 2, 1), Inputs::new(&plan, 2, 2));
        let out = World::flat(empi_netsim::NetModel::instant(), 2)
            .with_shards(1)
            .run(|c| {
                let plain = PlainLayer::new(c);
                let l = TimedLayer::new(&plain);
                let inputs = if c.rank() == 0 { &a } else { &b };
                plan.iter()
                    .zip(&inputs.phases)
                    .map(|(ph, input)| run_phase(&l, ph, input))
                    .collect::<Vec<_>>()
            });
        assert_eq!(out.results, vec![vec![0, 0], vec![3, 3]]);
    }

    /// A minimal-length run of every workload under every configuration
    /// completes with no failed op, deterministically.
    #[test]
    fn smoke_every_workload() {
        for w in Workload::ALL {
            let plan = w.plan(true);
            let inputs = Inputs::new(&plan, w.topology().n_ranks(), 3);
            for cfg in Config::ALL {
                let a = run_rep(w, cfg, &plan, &inputs, false);
                assert!(a.completed, "{} {}", w.name(), cfg.name());
                assert_eq!(a.failed, 0, "{} {}", w.name(), cfg.name());
                assert!(a.attempted > 0 && a.vt_s() > 0.0);
                let b = run_rep(w, cfg, &plan, &inputs, true);
                assert_eq!(
                    a.phase_vt,
                    b.phase_vt,
                    "{} {}: traced vt",
                    w.name(),
                    cfg.name()
                );
                assert_eq!(a.fabric, b.fabric);
                assert!(b.trace.is_some());
            }
            assert!(setup(w, true).is_ok() && setup(w, false).is_ok());
        }
    }
}
