//! The paper's `ECHO` workloads: `echo-small`, `echo-large`, `echo-tcp`.

use crate::stats::shuffle;
use crate::trace::Layer;
use crate::wire::Wrap;
use crate::{Client, Counters, Probe, Split, Tally, Workload, SLICE_STEPS, WARMUP_STEPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specrpc::echo::{echo_pipeline, ECHO_IDL, ECHO_PORT, ECHO_PROC, ECHO_PROG, ECHO_TCP_PORT};
use specrpc::echo::{ECHO_VERS, MAX_ARR};
use specrpc::{SpecClient, SpecService, StubCache};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_rpc::{svc_tcp, svc_udp, ClntTcp, ClntUdp, SvcRegistry};
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::composite::xdr_array;
use specrpc_xdr::primitives::xdr_int;
use std::sync::Arc;
use std::time::Instant;

/// Distinct seeded argument arrays cycled through by each client.
const INPUTS: usize = 16;
/// One call in this many comes from the legacy client.
const LEGACY_ONE_IN: usize = 16;
const SPEC_CLIENT: u32 = 5002;
const LEGACY_CLIENT: u32 = 5001;

/// Which echo deployment to build.
#[derive(Debug, Clone, Copy)]
pub struct EchoCfg {
    /// Pinned array length of the specialized stubs.
    pub n: usize,
    /// Record-marked TCP instead of UDP.
    pub tcp: bool,
    /// Mix in off-shape calls (n + 1 ints) from a generic `ClntUdp`.
    pub legacy: bool,
}

struct Legacy {
    clnt: ClntUdp,
    inputs: Vec<Vec<i32>>,
    out: Vec<i32>,
}

struct Echo<T: Client, W: Wrap> {
    net: Network,
    registry: Arc<SvcRegistry>,
    spec: SpecClient<W::Tx<T>>,
    inputs: Vec<StubArgs>,
    out: StubArgs,
    legacy: Option<Legacy>,
    /// The seeded steps, replayed from the start every slice: (off-shape
    /// call, input index).
    plan: Vec<(bool, usize)>,
    pos: usize,
    issued: u64,
    probe: Probe,
}

fn echo_handler(args: &StubArgs) -> StubArgs {
    // The body of `specrpc::echo::echo_service`'s handler.
    StubArgs::new(vec![], vec![args.arrays[0].clone()])
}

/// Parse, specialize with a cold cache, deploy, and warm up one echo
/// workload.
pub fn deploy<W: Wrap>(cfg: EchoCfg, seed: u64) -> Result<(Box<dyn Workload>, Split), String> {
    let t0 = Instant::now();
    specrpc_rpcgen::parse(ECHO_IDL).map_err(|e| format!("parse: {e:?}"))?;
    let t1 = Instant::now();
    let cache = StubCache::new();
    let proc_ = cache
        .get_or_compile_idl(&echo_pipeline(cfg.n, None), ECHO_IDL, None, ECHO_PROC)
        .map_err(|e| format!("specialize: {e}"))?;
    let t2 = Instant::now();

    let net = Network::new(NetworkConfig::lan(), seed);
    let registry = SpecService::new()
        .proc_shared(proc_.clone(), W::handler(echo_handler))
        .into_registry();
    let served = W::served(registry.clone(), &[(ECHO_PROG, ECHO_VERS, ECHO_PROC)]);
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<Vec<i32>> = (0..INPUTS)
        .map(|_| (0..cfg.n).map(|_| rng.random::<u32>() as i32).collect())
        .collect();
    // Exactly one off-shape call in LEGACY_ONE_IN per slice, at seeded
    // places, so every slice runs the same mix.
    let mut plan: Vec<(bool, usize)> = (0..SLICE_STEPS)
        .map(|i| {
            let off_shape = cfg.legacy && i < SLICE_STEPS / LEGACY_ONE_IN;
            (off_shape, rng.random_range(0..INPUTS))
        })
        .collect();
    shuffle(&mut plan, &mut rng);
    let probe = Probe {
        link: NetworkConfig::lan(),
        request_len: proc_.client_encode.wire_len,
        reply_len: proc_.server_encode.wire_len,
        tcp: cfg.tcp,
    };
    let mut w: Box<dyn Workload> = if cfg.tcp {
        svc_tcp::serve_tcp(&net, ECHO_TCP_PORT, served, None);
        let clnt = ClntTcp::create_pooled(
            &net,
            ECHO_TCP_PORT,
            ECHO_PROG,
            ECHO_VERS,
            registry.pool().clone(),
        )
        .map_err(|e| format!("connect: {e}"))?;
        let spec = SpecClient::from_parts(W::tx(clnt), proc_);
        Box::new(Echo::<ClntTcp, W>::new(
            net, registry, spec, inputs, None, plan, probe,
        ))
    } else {
        svc_udp::serve_udp(&net, ECHO_PORT, served, None);
        let clnt = ClntUdp::create_pooled(
            &net,
            SPEC_CLIENT,
            ECHO_PORT,
            ECHO_PROG,
            ECHO_VERS,
            registry.pool().clone(),
        );
        let legacy = cfg.legacy.then(|| Legacy {
            clnt: ClntUdp::create(&net, LEGACY_CLIENT, ECHO_PORT, ECHO_PROG, ECHO_VERS),
            inputs: (0..INPUTS)
                .map(|_| (0..=cfg.n).map(|_| rng.random::<u32>() as i32).collect())
                .collect(),
            out: Vec::with_capacity(cfg.n + 1),
        });
        let spec = SpecClient::from_parts(W::tx(clnt), proc_);
        Box::new(Echo::<ClntUdp, W>::new(
            net, registry, spec, inputs, legacy, plan, probe,
        ))
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
        w,
        Split {
            parse: t1 - t0,
            tempo: t2 - t1,
            deploy: t3 - t2,
            total: t3 - t0,
        },
    ))
}

impl<T: Client, W: Wrap> Echo<T, W> {
    fn new(
        net: Network,
        registry: Arc<SvcRegistry>,
        spec: SpecClient<W::Tx<T>>,
        inputs: Vec<Vec<i32>>,
        legacy: Option<Legacy>,
        plan: Vec<(bool, usize)>,
        probe: Probe,
    ) -> Self {
        let inputs = inputs
            .into_iter()
            .map(|a| spec.args(vec![], vec![a]))
            .collect();
        Echo {
            net,
            registry,
            spec,
            inputs,
            out: StubArgs::default(),
            legacy,
            plan,
            pos: 0,
            issued: 0,
            probe,
        }
    }
}

impl<T: Client, W: Wrap> Workload for Echo<T, W> {
    fn step(&mut self, t: &mut Tally) {
        let (off_shape, k) = self.plan[self.pos];
        self.pos = (self.pos + 1) % self.plan.len();
        self.issued += 1;
        let v0 = self.net.now();
        let w0 = Instant::now();
        let wall;
        // The reply check runs after the latency is taken.
        let ok = if off_shape {
            let lg = self.legacy.as_mut().expect("checked above");
            let (input, out) = (&mut lg.inputs[k], &mut lg.out);
            out.clear();
            let r = W::root(Layer::Generic, || {
                lg.clnt.call(
                    ECHO_PROC,
                    &mut |x| xdr_array(x, input, MAX_ARR, xdr_int),
                    &mut |x| xdr_array(x, out, MAX_ARR, xdr_int),
                )
            });
            wall = w0.elapsed();
            r.is_ok() && lg.out == lg.inputs[k]
        } else {
            let (spec, args, out) = (&mut self.spec, &self.inputs[k], &mut self.out);
            let r = W::root(Layer::Call, || spec.call_into(args, out));
            wall = w0.elapsed();
            r.is_ok() && out.arrays.first() == args.arrays.first()
        };
        t.record(1, Some((wall, self.net.now() - v0)), ok);
    }

    fn counters(&mut self) -> Counters {
        let link = self.net.link_stats();
        let pool = self.registry.pool().stats();
        let legacy_rtx = self.legacy.as_ref().map_or(0, |l| l.clnt.retransmits);
        let (client_calls, oneway_calls, fast_calls) = (
            self.spec.calls,
            self.spec.oneway_calls,
            self.spec.fast_calls,
        );
        let counts = self.spec.counts;
        let tx = W::inner(self.spec.transport_mut());
        Counters {
            client_calls,
            oneway_calls,
            fast_calls,
            raw_dispatches: self.registry.raw_dispatches(),
            raw_fallbacks: self.registry.raw_fallbacks(),
            generic_dispatches: self.registry.generic_dispatches(),
            stub_ops: counts.stub_ops,
            mem_moves: counts.mem_moves,
            heap_allocs: counts.heap_allocs,
            pool_takes: pool.hits + pool.misses,
            pool_misses: pool.misses,
            datagrams: link.datagrams,
            fragments: link.fragments,
            bytes: self.net.bytes_sent(),
            queue_drops: link.queue_drops,
            retransmits: tx.retransmits() + legacy_rtx,
            coalesce: None,
            vt_ns: self.net.now().as_nanos(),
            issued: self.issued,
        }
    }

    fn rewind(&mut self) {
        self.pos = 0;
    }

    fn probe(&self) -> Probe {
        self.probe
    }
}
