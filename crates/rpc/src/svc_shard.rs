//! The event-driven serving core: N reactor shards, each owning a slice
//! of the served addresses together with those addresses'
//! duplicate-request caches, with cross-shard work stealing when a
//! shard's ready queues run dry.
//!
//! Where `svc_udp::serve_udp` installs a *blocking* per-address handler
//! slot (deliveries to one address serialize on its lock), the
//! [`ShardedEventLoop`] inverts control: the simulated network queues
//! deliveries as readiness events ([`Network::serve_udp_events_with`])
//! and reactor workers drain them with the nonblocking
//! [`Network::poll_udp`]. Address `a` belongs to shard `a % shards`, and
//! each served address keeps its own `CachedDispatch` body — the same
//! cache-fronted dispatch as the blocking path — so the dup cache, the
//! registry's shared [`BufPool`](crate::BufPool), and the zero-copy
//! reply encode are all preserved; the in-progress set inside that body
//! keeps handler execution exactly-once even when two workers pull
//! duplicates of one transaction concurrently.
//!
//! Scheduling is two-tier:
//! - each shard's workers sweep the shard's own sockets round-robin
//!   (one datagram per socket per visit, so one hot address cannot
//!   starve the others);
//! - a worker whose shard is dry **steals**: it sweeps the peer shards'
//!   sockets in deterministic order, taking one datagram per socket,
//!   before falling back to [`Network::wait_ready`] over the whole map.
//!
//! Determinism: with one shard, one worker and one driving thread, traces
//! are byte- and time-identical to the blocking-handler deployment of
//! the same workload. With `workers_per_shard == 0` no threads are
//! spawned at all — every delivery is executed inline by the *driving*
//! thread via the simulator's event-steal path, in the same
//! (BTreeMap-ordered) order a single reactor would drain it. That
//! single-driver mode is byte- and virtual-time-identical for any shard
//! count, because the shard assignment only changes which workers sweep
//! an address, never its dispatch body or the delivery order.

use crate::svc::{Dispatcher, SvcRegistry};
use crate::svc_udp::{CachedDispatch, ProcTimeModel};
use specrpc_netsim::net::{Addr, EventProcessor, Network};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle shard worker sleeps in [`Network::wait_ready`]
/// before re-checking the shutdown flag (woken early on any delivery).
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// One served socket: its address, owning shard, and cache-fronted
/// dispatch body.
struct ShardSocket {
    addr: Addr,
    shard: usize,
    dispatch: Arc<CachedDispatch>,
}

/// Per-shard throughput counters.
struct ShardStats {
    /// Events processed on this shard's sockets, by *any* executor
    /// (own workers, stealing peers, or the inline driver path).
    processed: AtomicU64,
    /// Events this shard's workers took from *peer* shards' sockets.
    steals: AtomicU64,
}

/// A sharded event-driven UDP serving front end: N shards, each with
/// `workers_per_shard` reactor threads sweeping the shard's addresses;
/// idle workers steal from peer shards. `workers_per_shard == 0` is the
/// deterministic single-driver mode (no threads; the driving thread
/// executes every delivery inline).
///
/// Dropping the loop shuts it down: workers are woken and joined, and
/// the event-mode registrations are removed (releasing any still-queued
/// deliveries so driving threads cannot stall on them).
pub struct ShardedEventLoop {
    net: Network,
    sockets: Arc<Vec<ShardSocket>>,
    shutdown: Arc<AtomicBool>,
    stats: Arc<Vec<ShardStats>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardedEventLoop {
    fn spawn(
        net: &Network,
        sockets: Vec<ShardSocket>,
        shards: usize,
        workers_per_shard: usize,
    ) -> ShardedEventLoop {
        assert!(
            !sockets.is_empty(),
            "sharded loop needs at least one socket"
        );
        let stats: Arc<Vec<ShardStats>> = Arc::new(
            (0..shards)
                .map(|_| ShardStats {
                    processed: AtomicU64::new(0),
                    steals: AtomicU64::new(0),
                })
                .collect(),
        );
        for s in &sockets {
            // Register WITH an inline processor: a driving thread blocked
            // on this socket's pending events executes the work in place.
            // The increment order (counter before reply send) means a
            // client holding the reply always observes the count.
            let cd = s.dispatch.clone();
            let st = stats.clone();
            let shard = s.shard;
            let processor: EventProcessor = Arc::new(move |req: &mut Vec<u8>, from: Addr| {
                st[shard].processed.fetch_add(1, Ordering::Relaxed);
                cd.handle(req, from)
            });
            net.serve_udp_events_with(s.addr, processor);
        }
        let sockets = Arc::new(sockets);
        let shutdown = Arc::new(AtomicBool::new(false));
        let all_addrs: Vec<Addr> = sockets.iter().map(|s| s.addr).collect();
        // Socket indices grouped by owning shard, so each worker sweeps
        // its own shard first and peers after, without re-filtering.
        let by_shard: Arc<Vec<Vec<usize>>> = Arc::new({
            let mut groups = vec![Vec::new(); shards];
            for (i, s) in sockets.iter().enumerate() {
                groups[s.shard].push(i);
            }
            groups
        });
        let mut handles = Vec::new();
        for shard in 0..shards {
            for w in 0..workers_per_shard {
                let net = net.clone();
                let sockets = sockets.clone();
                let shutdown = shutdown.clone();
                let stats = stats.clone();
                let by_shard = by_shard.clone();
                let all_addrs = all_addrs.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("specrpc-shard-{shard}-{w}"))
                        .spawn(move || {
                            let shards = by_shard.len();
                            let mut offset = w;
                            loop {
                                if shutdown.load(Ordering::Acquire) {
                                    return;
                                }
                                // Tier 1: sweep the own shard's sockets
                                // round-robin, one datagram per visit.
                                let own = &by_shard[shard];
                                let mut drained_any = false;
                                for k in 0..own.len() {
                                    let s = &sockets[own[(offset + k) % own.len()]];
                                    let served = net.poll_udp(s.addr, |req, from| {
                                        stats[shard].processed.fetch_add(1, Ordering::Relaxed);
                                        s.dispatch.handle(req, from)
                                    });
                                    if served {
                                        drained_any = true;
                                    }
                                }
                                offset = offset.wrapping_add(1);
                                if drained_any {
                                    continue;
                                }
                                // Tier 2: own queues are dry — steal one
                                // datagram per peer socket, walking the
                                // peer shards in deterministic order.
                                let mut stole_any = false;
                                for d in 1..shards {
                                    let victim = (shard + d) % shards;
                                    for &i in &by_shard[victim] {
                                        let s = &sockets[i];
                                        let served = net.poll_udp(s.addr, |req, from| {
                                            stats[victim].processed.fetch_add(1, Ordering::Relaxed);
                                            stats[shard].steals.fetch_add(1, Ordering::Relaxed);
                                            s.dispatch.handle(req, from)
                                        });
                                        if served {
                                            stole_any = true;
                                        }
                                    }
                                }
                                if !stole_any {
                                    // Wake on traffic anywhere in the map:
                                    // the next delivery may be stealable.
                                    net.wait_ready(&all_addrs, IDLE_WAIT);
                                }
                            }
                        })
                        .expect("spawn shard worker"),
                );
            }
        }
        ShardedEventLoop {
            net: net.clone(),
            sockets,
            shutdown,
            stats,
            handles,
        }
    }

    /// One nonblocking sweep over every socket in the map (one datagram
    /// per socket), crediting each event to its owning shard. Returns
    /// the number of events processed — the serving primitive the async
    /// adapter's executor drives between readiness polls.
    pub fn poll_once(&self) -> usize {
        let mut served = 0;
        for s in self.sockets.iter() {
            let hit = self.net.poll_udp(s.addr, |req, from| {
                self.stats[s.shard]
                    .processed
                    .fetch_add(1, Ordering::Relaxed);
                s.dispatch.handle(req, from)
            });
            if hit {
                served += 1;
            }
        }
        served
    }

    /// Events processed per shard (credited to the shard *owning* the
    /// socket, regardless of which worker or driver executed it) — the
    /// per-shard throughput `Summary::with_shards` renders.
    pub fn per_shard_events(&self) -> Vec<u64> {
        self.stats
            .iter()
            .map(|s| s.processed.load(Ordering::Relaxed))
            .collect()
    }

    /// Total cross-shard steals performed by idle shard workers.
    pub fn cross_shard_steals(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.steals.load(Ordering::Relaxed))
            .sum()
    }

    /// Total events processed across the map.
    pub fn total_events(&self) -> u64 {
        self.per_shard_events().iter().sum()
    }
}

impl Drop for ShardedEventLoop {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        self.net.notify_ready();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        for s in self.sockets.iter() {
            self.net.unserve_udp_events(s.addr);
        }
    }
}

/// Serve `registry` at `addrs` through a map of `shards` reactors:
/// address `a` belongs to shard `a % shards`, keeps its own
/// `cache_entries`-entry duplicate-request cache (`0` disables caching),
/// and draws wire buffers from the registry's pool, so a client created
/// over that same pool keeps its allocation-free steady state. Each
/// shard runs `workers_per_shard` reactor threads (`0` = deterministic
/// single-driver mode: every delivery executes inline on the driving
/// thread, byte- and virtual-time-identical for any shard count). The
/// optional processing-time model defaults to
/// [`crate::svc_udp::default_proc_time`].
pub fn serve_udp_sharded(
    net: &Network,
    addrs: &[Addr],
    registry: Arc<SvcRegistry>,
    shards: usize,
    workers_per_shard: usize,
    proc_time: Option<ProcTimeModel>,
    cache_entries: usize,
) -> ShardedEventLoop {
    assert!(shards > 0, "shard map needs at least one shard");
    let sockets: Vec<ShardSocket> = addrs
        .iter()
        .map(|&addr| {
            let reg = registry.clone();
            let dispatch: Dispatcher = Arc::new(move |request: &[u8]| reg.dispatch(request));
            ShardSocket {
                addr,
                shard: addr as usize % shards,
                dispatch: Arc::new(CachedDispatch::new(
                    dispatch,
                    proc_time.clone(),
                    cache_entries,
                    registry.pool().clone(),
                )),
            }
        })
        .collect();
    ShardedEventLoop::spawn(net, sockets, shards, workers_per_shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{CallHeader, ReplyHeader};
    use crate::svc_udp::DUP_CACHE_ENTRIES;
    use specrpc_netsim::net::NetworkConfig;
    use specrpc_netsim::SimTime;
    use specrpc_xdr::mem::XdrMem;
    use specrpc_xdr::primitives::xdr_int;

    fn echo_registry() -> Arc<SvcRegistry> {
        let reg = SvcRegistry::new();
        reg.register(300, 1, 1, |args, results| {
            let mut v = 0i32;
            xdr_int(args, &mut v)?;
            let mut out = v + 1;
            xdr_int(results, &mut out)?;
            Ok(())
        });
        Arc::new(reg)
    }

    fn call(xid: u32, arg: i32) -> Vec<u8> {
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(xid, 300, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut a = arg;
        xdr_int(&mut enc, &mut a).unwrap();
        enc.into_bytes()
    }

    /// [`serve_udp_sharded`] with the default processing-time model and
    /// [`DUP_CACHE_ENTRIES`]-entry caches.
    fn serve(
        net: &Network,
        addrs: &[Addr],
        registry: Arc<SvcRegistry>,
        shards: usize,
        workers_per_shard: usize,
    ) -> ShardedEventLoop {
        serve_udp_sharded(
            net,
            addrs,
            registry,
            shards,
            workers_per_shard,
            None,
            DUP_CACHE_ENTRIES,
        )
    }

    #[test]
    fn modulo_plan_spreads_addresses() {
        // Address `a` belongs to shard `a % shards`: one call to each of
        // 650..657 over 3 shards credits 650 % 3 = 2, 651 → 0, 652 → 1, …
        let net = Network::new(NetworkConfig::lan(), 8);
        let ports: Vec<Addr> = (650..658).collect();
        let sl = serve(&net, &ports, echo_registry(), 3, 0);
        let ep = net.bind_udp(4000);
        for (i, &port) in ports.iter().enumerate() {
            ep.send_to(port, call(i as u32, i as i32));
            ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        }
        let mut want = vec![0u64; 3];
        for &port in &ports {
            want[port as usize % 3] += 1;
        }
        assert_eq!(sl.per_shard_events(), want);
    }

    #[test]
    fn sharded_map_answers_over_the_network() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let ports: Vec<Addr> = (650..658).collect();
        let sl = serve(&net, &ports, echo_registry(), 4, 1);
        let ep = net.bind_udp(4000);
        for (i, &port) in ports.iter().enumerate() {
            ep.send_to(port, call(i as u32, i as i32));
            let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
            assert_eq!(dg.from, port);
            let mut dec = XdrMem::decoder(&dg.payload);
            let hdr = ReplyHeader::decode(&mut dec).unwrap();
            assert_eq!(hdr.xid, i as u32);
            let mut out = 0i32;
            xdr_int(&mut dec, &mut out).unwrap();
            assert_eq!(out, i as i32 + 1);
        }
        assert_eq!(sl.total_events(), 8);
        // Every shard owns two of the eight modulo-spread ports.
        assert_eq!(sl.per_shard_events(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn single_driver_mode_spawns_no_threads_and_counts_inline() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let ports: Vec<Addr> = vec![650, 651, 652];
        let sl = serve(&net, &ports, echo_registry(), 3, 0);
        assert!(sl.handles.is_empty(), "no reactor threads");
        let ep = net.bind_udp(4000);
        for i in 0..6u32 {
            ep.send_to(ports[i as usize % 3], call(i, i as i32));
            ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        }
        assert_eq!(sl.total_events(), 6, "all inline, no workers");
        assert_eq!(sl.cross_shard_steals(), 0);
        assert_eq!(sl.per_shard_events(), vec![2, 2, 2]);
    }

    #[test]
    fn shard_count_does_not_change_bytes_or_virtual_time() {
        // The same call sequence through 1 shard and through 4, both in
        // single-driver mode: byte- and virtual-time-identical.
        let run = |shards: usize| {
            let net = Network::new(NetworkConfig::lan(), 5);
            let ports: Vec<Addr> = (650..654).collect();
            let sl = serve(&net, &ports, echo_registry(), shards, 0);
            let ep = net.bind_udp(4000);
            let mut replies = Vec::new();
            for i in 0..12u32 {
                ep.send_to(ports[i as usize % 4], call(i, i as i32));
                replies.push(
                    ep.recv_timeout(SimTime::from_millis(50))
                        .expect("reply")
                        .payload,
                );
            }
            drop(sl);
            (replies, net.now())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn one_shard_matches_blocking_path_bytes_and_time() {
        // The same call sequence through the blocking handler slot and
        // through a 1-shard, 1-worker reactor: byte- and
        // virtual-time-identical.
        let run = |reactor: bool| {
            let net = Network::new(NetworkConfig::lan(), 5);
            let reg = echo_registry();
            let sl = if reactor {
                Some(serve(&net, &[650], reg.clone(), 1, 1))
            } else {
                crate::svc_udp::serve_udp(&net, 650, reg.clone(), None);
                None
            };
            let ep = net.bind_udp(4000);
            let mut replies = Vec::new();
            for i in 0..8 {
                ep.send_to(650, call(i, i as i32));
                replies.push(
                    ep.recv_timeout(SimTime::from_millis(50))
                        .expect("reply")
                        .payload,
                );
            }
            drop(sl);
            (replies, net.now())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn poll_once_drains_ready_sockets() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let ports: Vec<Addr> = vec![650, 651];
        let sl = serve(&net, &ports, echo_registry(), 2, 0);
        let ep = net.bind_udp(4000);
        assert_eq!(sl.poll_once(), 0, "idle map has nothing to serve");
        // Land the delivery as a readiness event with single `step`s —
        // stopping the moment it is queued, before a further step's
        // driver-steal would execute it inline.
        ep.send_to(650, call(1, 1));
        let deadline = net.now() + SimTime::from_millis(5);
        while net.ready_udp(650) == 0 {
            assert!(net.step(deadline), "delivery must land before deadline");
        }
        assert_eq!(sl.poll_once(), 1, "the sweep serves the queued event");
        assert_eq!(sl.total_events(), 1);
        let dg = ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        assert_eq!(dg.from, 650);
    }

    #[test]
    fn drop_joins_workers_and_releases_addresses() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let ports: Vec<Addr> = vec![650, 651];
        let sl = serve(&net, &ports, echo_registry(), 2, 2);
        let ep = net.bind_udp(4000);
        ep.send_to(650, call(1, 1));
        ep.recv_timeout(SimTime::from_millis(50)).expect("reply");
        drop(sl); // must not hang
        assert_eq!(net.ready_udp(650), 0);
        ep.send_to(651, call(2, 2));
        assert!(ep.recv_timeout(SimTime::from_millis(5)).is_none());
    }

    #[test]
    fn duplicates_replay_from_the_owning_shards_cache() {
        let net = Network::new(NetworkConfig::lan(), 8);
        let reg = echo_registry();
        let ports: Vec<Addr> = vec![650, 651];
        let sl = serve(&net, &ports, reg.clone(), 2, 0);
        let ep = net.bind_udp(4000);
        let c = call(7, 1);
        ep.send_to(650, c.clone());
        let first = ep.recv_timeout(SimTime::from_millis(50)).expect("first");
        ep.send_to(650, c);
        let second = ep.recv_timeout(SimTime::from_millis(50)).expect("replay");
        assert_eq!(first.payload, second.payload, "replayed reply identical");
        assert_eq!(reg.generic_dispatches(), 1, "handler ran exactly once");
        assert_eq!(sl.total_events(), 2);
    }

    #[test]
    fn concurrent_duplicates_execute_the_handler_exactly_once() {
        // Force the in-progress race: a slow handler, 4 workers on one
        // address, and the same datagram delivered many times while the
        // first dispatch is still running. The duplicates must be
        // suppressed or replayed — never re-dispatched.
        let runs = Arc::new(AtomicU64::new(0));
        let reg = SvcRegistry::new();
        let r = runs.clone();
        reg.register(300, 1, 1, move |_args, results| {
            r.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
            let mut out = 9i32;
            xdr_int(results, &mut out)?;
            Ok(())
        });
        let net = Network::new(NetworkConfig::lan(), 8);
        let _sl = serve(&net, &[650], Arc::new(reg), 1, 4);
        let ep = net.bind_udp(4000);
        let c = call(42, 0);
        for _ in 0..6 {
            ep.send_to(650, c.clone());
        }
        // At least one reply arrives; the handler ran exactly once.
        assert!(ep.recv_timeout(SimTime::from_millis(200)).is_some());
        // Drain whatever replays the cache produced.
        while ep.recv_timeout(SimTime::from_millis(20)).is_some() {}
        assert_eq!(runs.load(Ordering::Relaxed), 1, "exactly-once");
    }
}
