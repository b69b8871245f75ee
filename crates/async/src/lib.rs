//! Future/waker adapter over the simulator's nonblocking client and
//! serving surfaces.
//!
//! [`call`] / [`call_batch`] are one future over
//! `SpecClient::start_batch` / `poll_batch`, which put a batch on the
//! wire and advance it without blocking — through the same exchange
//! engine, retry settings and one-way delivery rule as the blocking
//! lane. [`serve`] sweeps a sharded reactor's sockets once per poll. A
//! tiny single-thread executor, [`block_on`], interleaves polling with
//! stepping the discrete-event simulator, so async-style call sites
//! compose with the deterministic virtual-time machinery. Nothing here
//! spawns threads or reaches for an external runtime: when a future
//! returns `Pending`, [`block_on`] executes one unit of simulated work
//! ([`Network::step`]); when the simulator is fully idle it advances
//! virtual time by a small slice so the transport's timers
//! (retransmission, total deadline) still fire.
//!
//! # Example: an echo round trip through the async lane
//!
//! ```
//! use specrpc::echo::EchoBench;
//! use specrpc_async::{block_on, call};
//!
//! let mut bench = EchoBench::new(4, None, 7).unwrap();
//! let net = bench.net.clone();
//! let args = bench.spec.args(vec![], vec![vec![1, 2, 3, 4]]);
//! let (out, _path) = block_on(&net, call(&mut bench.spec, &args)).unwrap();
//! assert_eq!(out.arrays[0], vec![1, 2, 3, 4]);
//! ```

use std::future::Future;
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};

use specrpc::{PathUsed, SpecClient};
use specrpc_netsim::{Network, SimTime};
use specrpc_rpc::error::RpcError;
use specrpc_rpc::transport::Transport;
use specrpc_rpc::ShardedEventLoop;
use specrpc_tempo::compile::StubArgs;

/// Virtual time [`block_on`] advances per iteration when the simulator
/// has no scheduled work at all — lets timeout-driven futures progress
/// while every request in flight has been lost.
const IDLE_SLICE: SimTime = SimTime::from_millis(1);

/// All scheduled events are eligible: `block_on` never defers simulated
/// work past a wall-clock-like horizon.
const FAR_DEADLINE: SimTime = SimTime::from_nanos(u64::MAX);

/// Drive `fut` to completion by alternating `poll` with simulator
/// progress: each `Pending` executes one unit of network work
/// ([`Network::step`]); when the simulator is completely idle, virtual
/// time advances by a small slice instead so deadline-based futures
/// still fire. Deterministic: the interleaving is a pure function of
/// the future and the (seeded) network state. The waker is a no-op:
/// every iteration re-polls, since the simulator step is the real
/// progress source.
pub fn block_on<F: Future>(net: &Network, fut: F) -> F::Output {
    let mut fut = pin!(fut);
    let mut cx = Context::from_waker(Waker::noop());
    loop {
        if let Poll::Ready(v) = fut.as_mut().poll(&mut cx) {
            return v;
        }
        if !net.step(FAR_DEADLINE) {
            net.advance(IDLE_SLICE);
        }
    }
}

/// One RPC through the nonblocking client lane as a future: a batch of
/// one (see [`call_batch`]).
pub fn call<'a, T: Transport>(
    client: &'a mut SpecClient<T>,
    args: &'a StubArgs,
) -> RpcFuture<'a, T, (StubArgs, PathUsed)> {
    RpcFuture::new(client, std::slice::from_ref(args), |mut results| {
        results.pop().expect("one result per call")
    })
}

/// A pipelined batch through the nonblocking lane as a future: the first
/// poll encodes and transmits every request
/// ([`SpecClient::start_batch`]), later polls advance it
/// ([`SpecClient::poll_batch`]) — replies matched by xid in any order,
/// stragglers retransmitted on the transport's own timers, results in
/// submission order. On a transport without a nonblocking surface the
/// first poll completes the batch inline.
pub fn call_batch<'a, T: Transport>(
    client: &'a mut SpecClient<T>,
    batch: &'a [StubArgs],
) -> RpcFuture<'a, T, Vec<(StubArgs, PathUsed)>> {
    RpcFuture::new(client, batch, |results| results)
}

/// See [`call`] and [`call_batch`].
pub struct RpcFuture<'a, T: Transport, O> {
    client: &'a mut SpecClient<T>,
    batch: &'a [StubArgs],
    /// The result slots, allocated when the first poll starts the batch.
    outs: Option<Vec<StubArgs>>,
    done: bool,
    finish: fn(Vec<(StubArgs, PathUsed)>) -> O,
}

impl<'a, T: Transport, O> RpcFuture<'a, T, O> {
    fn new(
        client: &'a mut SpecClient<T>,
        batch: &'a [StubArgs],
        finish: fn(Vec<(StubArgs, PathUsed)>) -> O,
    ) -> Self {
        RpcFuture {
            client,
            batch,
            outs: None,
            done: false,
            finish,
        }
    }
}

impl<T: Transport, O> Future for RpcFuture<'_, T, O> {
    type Output = Result<O, RpcError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.done, "RpcFuture polled after completion");
        let step = match &mut this.outs {
            Some(outs) => this.client.poll_batch(outs),
            None => {
                let outs = this
                    .outs
                    .insert(vec![StubArgs::default(); this.batch.len()]);
                this.client.start_batch(this.batch, outs)
            }
        };
        match step {
            Ok(None) => {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
            Ok(Some(paths)) => {
                this.done = true;
                let outs = this.outs.take().unwrap_or_default();
                Poll::Ready(Ok((this.finish)(outs.into_iter().zip(paths).collect())))
            }
            Err(e) => {
                this.done = true;
                Poll::Ready(Err(e))
            }
        }
    }
}

/// Never-resolving future that sweeps a sharded reactor's sockets once
/// per poll (see [`ShardedEventLoop::poll_once`]) — the serving side's
/// async-capable entry point, meant to ride behind a foreground future
/// via [`with_background`].
pub fn serve(reactor: &ShardedEventLoop) -> Serve<'_> {
    Serve { reactor }
}

/// See [`serve`].
pub struct Serve<'a> {
    reactor: &'a ShardedEventLoop,
}

impl Future for Serve<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.reactor.poll_once();
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// Run `main` to completion while polling `background` once after each
/// `main` poll — e.g. a [`call`] future with a [`serve`] sweep riding
/// behind it. `background`'s output is discarded; it is typically a
/// never-resolving server future.
pub fn with_background<A, B>(main: A, background: B) -> WithBackground<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    WithBackground { main, background }
}

/// See [`with_background`].
pub struct WithBackground<A, B> {
    main: A,
    background: B,
}

impl<A, B> Future for WithBackground<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    type Output = A::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<A::Output> {
        let this = self.get_mut();
        if let Poll::Ready(v) = Pin::new(&mut this.main).poll(cx) {
            return Poll::Ready(v);
        }
        let _ = Pin::new(&mut this.background).poll(cx);
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc::echo::{echo_service, EchoBench, ECHO_PORT, ECHO_PROG, ECHO_VERS};
    use specrpc::SpecClient;
    use specrpc_netsim::{Network, NetworkConfig};
    use specrpc_rpc::ClntUdp;

    #[test]
    fn block_on_resolves_an_immediately_ready_future() {
        let net = Network::new(NetworkConfig::lan(), 1);
        assert_eq!(block_on(&net, std::future::ready(42)), 42);
    }

    #[test]
    fn call_future_round_trips_the_echo_service() {
        let mut b = EchoBench::new(8, None, 11).unwrap();
        let net = b.net.clone();
        let data: Vec<i32> = (0..8).collect();
        let args = b.spec.args(vec![], vec![data.clone()]);
        let (out, path) = block_on(&net, call(&mut b.spec, &args)).unwrap();
        assert_eq!(out.arrays[0], data);
        assert_eq!(path, PathUsed::Fast);
        assert!(net.now() > SimTime::ZERO, "virtual time advanced");
    }

    #[test]
    fn batch_future_matches_the_blocking_batch_lane() {
        let mut b = EchoBench::new(4, None, 13).unwrap();
        let net = b.net.clone();
        let batch: Vec<StubArgs> = (0..5)
            .map(|i| b.spec.args(vec![], vec![vec![i, i + 1, i + 2, i + 3]]))
            .collect();
        let results = block_on(&net, call_batch(&mut b.spec, &batch)).unwrap();
        assert_eq!(results.len(), 5);
        for (i, (out, path)) in results.iter().enumerate() {
            let i = i as i32;
            assert_eq!(out.arrays[0], vec![i, i + 1, i + 2, i + 3]);
            assert_eq!(*path, PathUsed::Fast);
        }
    }

    #[test]
    fn empty_batch_resolves_without_touching_the_wire() {
        let mut b = EchoBench::new(4, None, 13).unwrap();
        let net = b.net.clone();
        let results = block_on(&net, call_batch(&mut b.spec, &[])).unwrap();
        assert!(results.is_empty());
        assert_eq!(net.now(), SimTime::ZERO);
    }

    #[test]
    fn serve_future_backs_a_call_through_a_sharded_reactor() {
        let net = Network::new(NetworkConfig::lan(), 19);
        let proc_ = std::sync::Arc::new(specrpc::echo::build_echo_proc(4, None).unwrap());
        let sharded = echo_service(proc_.clone()).serve(&net, &[ECHO_PORT, ECHO_PORT + 1], 2, 0);
        let clnt = ClntUdp::create(&net, 7002, ECHO_PORT, ECHO_PROG, ECHO_VERS);
        let mut spec = SpecClient::from_parts(clnt, proc_);
        let args = spec.args(vec![], vec![vec![9, 8, 7, 6]]);
        let fut = with_background(call(&mut spec, &args), serve(&sharded.reactor));
        let (out, _) = block_on(&net, fut).unwrap();
        assert_eq!(out.arrays[0], vec![9, 8, 7, 6]);
        assert_eq!(sharded.total_events(), 1);
    }
}
