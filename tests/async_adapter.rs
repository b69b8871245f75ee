//! The existing end-to-end echo exchanges, replayed through the
//! `specrpc-async` future/waker adapter: the async lane must produce
//! the same replies as the blocking lane, recover from loss via its
//! virtual-time retransmission, and compose with a sharded serving map
//! driven as a background future.

use specrpc::echo::{build_echo_proc, echo_service, EchoBench, ECHO_PORT, ECHO_PROG, ECHO_VERS};
use specrpc::{PathUsed, SpecClient};
use specrpc_async::{block_on, call, call_batch, serve, with_background};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_netsim::{FaultConfig, SimTime};
use specrpc_rpc::ClntUdp;
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
    let (got, path) = block_on(&net, call(&mut bench.spec, &net, &args)).unwrap();

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
    let got = block_on(&net, call_batch(&mut bench.spec, &net, &batch)).unwrap();

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
        let clnt = ClntUdp::create(&net, 5000, ECHO_PORT, ECHO_PROG, ECHO_VERS);
        let mut spec = SpecClient::from_parts(clnt, proc_);
        let data: Vec<i32> = (0..16).collect();
        for _ in 0..8 {
            let args = spec.args(vec![], vec![data.clone()]);
            let fut = call(&mut spec, &net, &args)
                .with_timeouts(SimTime::from_millis(20), SimTime::from_millis(60_000));
            let (out, _) = block_on(&net, fut)
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
        let fut = with_background(call(&mut spec, &net, &args), serve(&sharded.reactor));
        let (out, _) = block_on(&net, fut).unwrap();
        assert_eq!(out.arrays[0], data);
    }
    assert_eq!(sharded.total_events(), ports.len() as u64);
    let per = sharded.per_shard_events();
    assert_eq!(per.iter().sum::<u64>(), ports.len() as u64);
    assert!(per.iter().all(|&e| e > 0), "both shards served: {per:?}");
}
