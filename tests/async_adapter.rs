//! The existing end-to-end echo exchanges, replayed through the
//! `specrpc-async` future/waker adapter: the async lane must produce
//! the same replies as the blocking lane, recover from loss through the
//! transport's own retransmission timers, carry queued one-ways ahead of
//! itself like the blocking lane, and compose with a sharded serving map
//! driven as a background future.

use specrpc::echo::{build_echo_proc, echo_service, EchoBench, ECHO_PORT, ECHO_PROG, ECHO_VERS};
use specrpc::{PathUsed, SpecClient};
use specrpc_async::{block_on, call, call_batch, serve, with_background};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::{ClntUdp, CoalescePolicy, RpcError};
use std::sync::Arc;

#[test]
fn async_round_trip_matches_the_blocking_lane() {
    let data: Vec<i32> = (0..32).map(|k| k * 3 - 7).collect();

    let mut blocking = EchoBench::new(32, None, 9).unwrap();
    let args = blocking.spec.args(vec![], vec![data.clone()]);
    let (want, want_path) = blocking.spec.call(&args).unwrap();

    let mut bench = EchoBench::new(32, None, 9).unwrap();
    let net = bench.net.clone();
    let args = bench.spec.args(vec![], vec![data.clone()]);
    let (got, path) = block_on(&net, call(&mut bench.spec, &args)).unwrap();

    assert_eq!(got.arrays, want.arrays, "same echo through both lanes");
    assert_eq!(path, want_path);
    assert_eq!(path, PathUsed::Fast);
}

#[test]
fn async_batch_matches_the_blocking_batch() {
    let batchsize = 6;
    let mk = |bench: &EchoBench| -> Vec<_> {
        (0..batchsize)
            .map(|i| {
                bench
                    .spec
                    .args(vec![], vec![(0..16).map(|k| i * 100 + k).collect()])
            })
            .collect()
    };

    let mut blocking = EchoBench::new(16, None, 21).unwrap();
    let batch = mk(&blocking);
    let want = blocking.spec.call_batch(&batch).unwrap();

    let mut bench = EchoBench::new(16, None, 21).unwrap();
    let net = bench.net.clone();
    let batch = mk(&bench);
    let got = block_on(&net, call_batch(&mut bench.spec, &batch)).unwrap();

    assert_eq!(got.len(), want.len());
    for ((g, gp), (w, wp)) in got.iter().zip(&want) {
        assert_eq!(g.arrays, w.arrays);
        assert_eq!(gp, wp);
    }
}

#[test]
fn async_retransmission_recovers_from_loss() {
    let lossy = FaultConfig {
        loss: 0.4,
        duplicate: 0.0,
        reorder: 0.0,
    };
    for seed in [11u64, 22, 33] {
        let net = Network::new(NetworkConfig::lan().with_faults(lossy), seed);
        let proc_ = Arc::new(build_echo_proc(16, None).unwrap());
        let _reg = echo_service(proc_.clone()).serve_udp(&net, ECHO_PORT);
        let mut clnt = ClntUdp::create(&net, 5000, ECHO_PORT, ECHO_PROG, ECHO_VERS);
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(60_000);
        let mut spec = SpecClient::from_parts(clnt, proc_);
        let data: Vec<i32> = (0..16).collect();
        for _ in 0..8 {
            let args = spec.args(vec![], vec![data.clone()]);
            let (out, _) = block_on(&net, call(&mut spec, &args))
                .unwrap_or_else(|e| panic!("seed {seed}: async call under loss: {e}"));
            assert_eq!(out.arrays[0], data, "seed {seed}");
        }
    }
}

#[test]
fn async_call_serves_through_a_sharded_reactor_in_the_background() {
    let net = Network::new(NetworkConfig::lan(), 31);
    let proc_ = Arc::new(build_echo_proc(16, None).unwrap());
    let ports = [ECHO_PORT, ECHO_PORT + 1, ECHO_PORT + 2, ECHO_PORT + 3];
    let sharded = echo_service(proc_.clone()).serve(&net, &ports, 2, 0);
    let data: Vec<i32> = (0..16).collect();
    // One call per socket so both shards answer through the adapter.
    for (i, &port) in ports.iter().enumerate() {
        let clnt = ClntUdp::create(&net, 5100 + i as u32, port, ECHO_PROG, ECHO_VERS);
        let mut spec = SpecClient::from_parts(clnt, proc_.clone());
        let args = spec.args(vec![], vec![data.clone()]);
        let fut = with_background(call(&mut spec, &args), serve(&sharded.reactor));
        let (out, _) = block_on(&net, fut).unwrap();
        assert_eq!(out.arrays[0], data);
    }
    assert_eq!(sharded.total_events(), ports.len() as u64);
    let per = sharded.per_shard_events();
    assert_eq!(per.iter().sum::<u64>(), ports.len() as u64);
    assert!(per.iter().all(|&e| e > 0), "both shards served: {per:?}");
}

#[test]
fn async_call_runs_on_the_transports_retry_settings() {
    // No server behind port 999. The async lane must retransmit on the
    // client's own 10 ms per-try timeout and give up at its 40 ms total
    // bound — exactly like the blocking call.
    let net = Network::new(NetworkConfig::lan(), 41);
    let proc_ = Arc::new(build_echo_proc(4, None).unwrap());
    let mut clnt = ClntUdp::create(&net, 5200, 999, ECHO_PROG, ECHO_VERS);
    clnt.retry_timeout = SimTime::from_millis(10);
    clnt.total_timeout = SimTime::from_millis(40);
    let mut spec = SpecClient::from_parts(clnt, proc_);
    let args = spec.args(vec![], vec![vec![1, 2, 3, 4]]);
    let start = net.now();
    let err = block_on(&net, call(&mut spec, &args)).unwrap_err();
    assert_eq!(err, RpcError::TimedOut);
    let took = net.now() - start;
    assert!(
        took >= SimTime::from_millis(40) && took <= SimTime::from_millis(41),
        "timed out after {took:?}, expected the 40 ms total bound"
    );
    assert_eq!(spec.transport_mut().retransmits, 3);
}

#[test]
fn async_call_carries_queued_oneways_ahead_of_itself() {
    // Three one-ways queue in the coalescer; the async call must seal
    // them into its own envelope (as a blocking call would), so they
    // reach the server first and its reply acknowledges them.
    let net = Network::new(NetworkConfig::lan(), 43);
    let proc_ = Arc::new(build_echo_proc(4, None).unwrap());
    let _reg = echo_service(proc_.clone()).serve_udp(&net, ECHO_PORT);
    let clnt = ClntUdp::create(&net, 5201, ECHO_PORT, ECHO_PROG, ECHO_VERS)
        .with_coalescing(CoalescePolicy::ethernet());
    let mut spec = SpecClient::from_parts(clnt, proc_);
    for i in 0..3 {
        spec.call_oneway(&spec.args(vec![], vec![vec![i; 4]]))
            .unwrap();
    }
    let args = spec.args(vec![], vec![vec![7; 4]]);
    let (out, _) = block_on(&net, call(&mut spec, &args)).unwrap();
    assert_eq!(out.arrays[0], vec![7; 4]);
    let stats = spec.transport_mut().coalesce_stats().unwrap();
    assert_eq!(stats.pending_submessages, 0, "nothing left behind the call");
    assert_eq!(stats.flushes_sync, 1, "sealed with the sync call");
    assert_eq!(stats.unacked_envelopes, 0, "the reply acknowledged them");
}
