//! The `nfs-mix` workload: two simulated clients taking turns on the
//! five-procedure NFS-like service over a lossy, per-packet-charged link.

use crate::stats::shuffle;
use crate::trace::Layer;
use crate::wire::{Shared, Wrap};
use crate::{Counters, Probe, Split, Tally, Workload, SLICE_STEPS, WARMUP_STEPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specrpc::scenario::{deploy_nfs_service, NFS_CLIENT_BASE, NFS_PORT, NFS_PROG, NFS_VERS};
use specrpc::{ProcPipeline, SpecClient, StubCache};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, UDP_IP_HEADER_BYTES};
use specrpc_rpc::{svc_udp, ClntUdp, CoalescePolicy, CoalesceStats, SvcRegistry};
use specrpc_tempo::compile::StubArgs;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// The service's interface, as `deploy_nfs_service` compiles it: the
/// client specializes its own stubs from the same definition.
const NFS_IDL: &str = r#"
    struct getattr_arg { int fh; };
    struct getattr_res { int size; int mtime; int mode; };
    struct lookup_arg { int dir; int name; };
    struct lookup_res { int fh; };
    struct read_arg { int fh; int offset; int count; };
    struct read_res { int len; int check; };
    struct write_arg { int fh; int offset; int len; };
    struct write_res { int size; };
    struct commit_arg { int fh; };
    struct commit_res { int committed; };
    program NFSPROG {
        version NFSVERS {
            getattr_res GETATTR(getattr_arg) = 1;
            lookup_res LOOKUP(lookup_arg) = 2;
            read_res READ(read_arg) = 3;
            write_res WRITE(write_arg) = 4;
            commit_res COMMIT(commit_arg) = 5;
        } = 1;
    } = 0x20000404;
"#;

const GETATTR: usize = 0;
const LOOKUP: usize = 1;
const READ: usize = 2;
const WRITE: usize = 3;
const COMMIT: usize = 4;
/// Argument scalars per procedure (index = procedure number - 1).
const ARG_SCALARS: [usize; 5] = [1, 2, 3, 3, 1];

const CLIENTS: usize = 2;
const FILES: usize = 32;
const ZIPF_S: f64 = 1.1;
/// One-way WRITEs per burst, sealed by one sync COMMIT.
const BURST: usize = 8;
/// Seeded datagram loss and duplication on the link.
const FAULTS: FaultConfig = FaultConfig {
    loss: 0.01,
    duplicate: 0.01,
    reorder: 0.0,
};

/// The link of `NfsConfig::smoke`: 28 header bytes and 100 µs per wire
/// fragment, fragments of at most 1500 bytes.
fn link() -> NetworkConfig {
    NetworkConfig::lan()
        .with_datagram_cost(UDP_IP_HEADER_BYTES, 100_000)
        .with_mtu(1500)
}

/// The benchmark's own model of the service's file table, from which
/// every sync reply is predicted.
struct Model {
    sizes: Vec<i32>,
    uncommitted: Vec<i32>,
}

/// An operation of one closed-loop step.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A burst of one-way WRITEs sealed by a sync COMMIT.
    Write,
    Getattr,
    /// LOOKUP of a name in the directory.
    Lookup(i32),
    /// READ at an offset.
    Read(i32),
}

/// The seeded steps of one slice: exactly a quarter of each operation,
/// in seeded order, each on a zipf-drawn file index.
fn plan(seed: u64) -> Vec<(Op, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cdf = zipf_cdf(FILES, ZIPF_S);
    let mut plan: Vec<(Op, usize)> = (0..SLICE_STEPS)
        .map(|k| {
            let u = rng.random::<f64>();
            let i = cdf.partition_point(|&x| x < u).min(FILES - 1);
            let op = match k % 4 {
                0 => Op::Write,
                1 => Op::Getattr,
                2 => Op::Lookup(rng.random_range(0..64)),
                _ => Op::Read(rng.random_range(0..4) * 64),
            };
            (op, i)
        })
        .collect();
    shuffle(&mut plan, &mut rng);
    plan
}

struct NfsClient<W: Wrap> {
    udp: Rc<RefCell<ClntUdp>>,
    procs: Vec<SpecClient<W::Tx<Shared>>>,
    args: Vec<StubArgs>,
}

struct Nfs<W: Wrap> {
    net: Network,
    registry: Arc<SvcRegistry>,
    clients: Vec<NfsClient<W>>,
    out: StubArgs,
    model: Model,
    /// The seeded steps, replayed from the start every slice.
    plan: Vec<(Op, usize)>,
    pos: usize,
    turn: usize,
    issued: u64,
    probe: Probe,
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w;
            acc / total
        })
        .collect()
}

/// Parse, specialize every procedure with a cold cache, deploy, and warm
/// up the NFS-like workload.
pub fn deploy<W: Wrap>(seed: u64) -> Result<(Box<dyn Workload>, Split), String> {
    let t0 = Instant::now();
    specrpc_rpcgen::parse(NFS_IDL).map_err(|e| format!("parse: {e:?}"))?;
    let t1 = Instant::now();
    let cache = StubCache::new();
    let compiled = (1..=5u32)
        .map(|p| cache.get_or_compile_idl(&ProcPipeline::new(0), NFS_IDL, None, p))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("specialize: {e}"))?;
    // The server compiles its own five stub sets.
    let service = deploy_nfs_service(FILES).map_err(|e| format!("service: {e}"))?;
    let t2 = Instant::now();

    let net = Network::new(link().with_faults(FAULTS), seed);
    let registry = service.into_registry();
    let targets: Vec<(u32, u32, u32)> = (1..=5).map(|p| (NFS_PROG, NFS_VERS, p)).collect();
    svc_udp::serve_udp(&net, NFS_PORT, W::served(registry.clone(), &targets), None);
    let clients = (0..CLIENTS)
        .map(|c| {
            let udp = Rc::new(RefCell::new(
                ClntUdp::create_pooled(
                    &net,
                    NFS_CLIENT_BASE + c as u32,
                    NFS_PORT,
                    NFS_PROG,
                    NFS_VERS,
                    registry.pool().clone(),
                )
                .with_coalescing(CoalescePolicy::ethernet()),
            ));
            let procs: Vec<_> = compiled
                .iter()
                .map(|p| SpecClient::from_parts(W::tx(Shared(udp.clone())), p.clone()))
                .collect();
            let args = procs
                .iter()
                .zip(ARG_SCALARS)
                .map(|(p, n)| p.args(vec![0; n], vec![]))
                .collect();
            NfsClient { udp, procs, args }
        })
        .collect();
    let probe = Probe {
        link: link(),
        request_len: compiled[GETATTR].client_encode.wire_len,
        reply_len: compiled[GETATTR].server_encode.wire_len,
        tcp: false,
    };
    let mut w = Nfs::<W> {
        net,
        registry,
        clients,
        out: StubArgs::default(),
        model: Model {
            sizes: (0..FILES).map(|i| 512 * (i as i32 % 7 + 1)).collect(),
            uncommitted: vec![0; FILES],
        },
        plan: plan(seed),
        pos: 0,
        turn: 0,
        issued: 0,
        probe,
    };
    let mut warm = Tally::warmup();
    for _ in 0..WARMUP_STEPS {
        w.step(&mut warm);
    }
    if warm.failed > 0 {
        return Err(format!("{} warm-up call(s) failed", warm.failed));
    }
    let t3 = Instant::now();
    Ok((
        Box::new(w),
        Split {
            parse: t1 - t0,
            tempo: t2 - t1,
            deploy: t3 - t2,
            total: t3 - t0,
        },
    ))
}

impl<W: Wrap> Nfs<W> {
    /// One synchronous call of procedure `p` with argument scalars
    /// `vals`, checked against the predicted result scalars `expect`;
    /// `calls` is how many calls its reply completes.
    fn sync(
        &mut self,
        t: &mut Tally,
        c: usize,
        p: usize,
        vals: &[i32],
        expect: &[i32],
        calls: u64,
    ) {
        let cl = &mut self.clients[c];
        cl.args[p].scalars[1..].copy_from_slice(vals);
        self.issued += 1;
        let (spec, args, out) = (&mut cl.procs[p], &cl.args[p], &mut self.out);
        let v0 = self.net.now();
        let w0 = Instant::now();
        let r = W::root(Layer::Call, || spec.call_into(args, out));
        let wall = w0.elapsed();
        let ok = r.is_ok() && out.scalars.ends_with(expect);
        t.record(calls, Some((wall, self.net.now() - v0)), ok);
    }
}

impl<W: Wrap> Workload for Nfs<W> {
    fn step(&mut self, t: &mut Tally) {
        let c = self.turn;
        self.turn = (self.turn + 1) % CLIENTS;
        let (op, i) = self.plan[self.pos];
        self.pos = (self.pos + 1) % self.plan.len();
        let fh = i as i32 + 1;
        let size = self.model.sizes[i];
        match op {
            Op::Write => {
                let mut queued = true;
                for b in 0..BURST as i32 {
                    let cl = &mut self.clients[c];
                    cl.args[WRITE].scalars[1..].copy_from_slice(&[fh, 64 * b, 64]);
                    self.issued += 1;
                    let (spec, args) = (&mut cl.procs[WRITE], &cl.args[WRITE]);
                    queued &= W::root(Layer::OneWay, || spec.call_oneway(args)).is_ok();
                    let m = &mut self.model;
                    m.sizes[i] = m.sizes[i].max(64 * b + 64);
                    m.uncommitted[i] += 1;
                }
                let committed = std::mem::take(&mut self.model.uncommitted[i]);
                if !queued {
                    t.record(BURST as u64, None, false);
                }
                // The COMMIT reply acknowledges the burst before it.
                let calls = if queued { BURST as u64 + 1 } else { 1 };
                self.sync(t, c, COMMIT, &[fh], &[committed], calls);
            }
            Op::Getattr => self.sync(t, c, GETATTR, &[fh], &[size, fh * 31 + size, 420], 1),
            Op::Lookup(name) => {
                let found = (fh + name).rem_euclid(FILES as i32) + 1;
                self.sync(t, c, LOOKUP, &[fh, name], &[found], 1);
            }
            Op::Read(off) => {
                let len = 64.min((size - off).max(0));
                self.sync(t, c, READ, &[fh, off, 64], &[len, fh ^ off], 1);
            }
        }
    }

    fn counters(&mut self) -> Counters {
        let link = self.net.link_stats();
        let pool = self.registry.pool().stats();
        let mut k = Counters {
            raw_dispatches: self.registry.raw_dispatches(),
            raw_fallbacks: self.registry.raw_fallbacks(),
            generic_dispatches: self.registry.generic_dispatches(),
            pool_takes: pool.hits + pool.misses,
            pool_misses: pool.misses,
            datagrams: link.datagrams,
            fragments: link.fragments,
            bytes: self.net.bytes_sent(),
            queue_drops: link.queue_drops,
            coalesce: Some(CoalesceStats::default()),
            vt_ns: self.net.now().as_nanos(),
            issued: self.issued,
            ..Counters::default()
        };
        for cl in &self.clients {
            for spec in &cl.procs {
                k.client_calls += spec.calls;
                k.oneway_calls += spec.oneway_calls;
                k.fast_calls += spec.fast_calls;
                k.stub_ops += spec.counts.stub_ops;
                k.mem_moves += spec.counts.mem_moves;
                k.heap_allocs += spec.counts.heap_allocs;
            }
            let udp = cl.udp.borrow();
            k.retransmits += udp.retransmits;
            if let (Some(sum), Some(s)) = (k.coalesce.as_mut(), udp.coalesce_stats()) {
                sum.oneways_queued += s.oneways_queued;
                sum.flushes_mtu += s.flushes_mtu;
                sum.flushes_linger += s.flushes_linger;
                sum.flushes_sync += s.flushes_sync;
                sum.flushes_explicit += s.flushes_explicit;
            }
        }
        k
    }

    fn rewind(&mut self) {
        self.pos = 0;
        self.turn = 0;
    }

    fn probe(&self) -> Probe {
        self.probe
    }
}
