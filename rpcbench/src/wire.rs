//! How a workload is assembled in the untraced and the traced run.
//!
//! [`Plain`] is the deployment a user would build: transports, handlers
//! and the served registry exactly as the public API hands them out.
//! [`Spans`] wraps the same parts from outside — a `Transport` wrapper,
//! a registry that forwards to the inner `SvcRegistry::dispatch`, and
//! handler closures — so each layer's entry point records a span.

use crate::trace::{self, Layer};
use specrpc::SpecHandler;
use specrpc_rpc::error::RpcError;
use specrpc_rpc::{ClntUdp, SvcRegistry, Transport};
use specrpc_tempo::compile::StubArgs;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One way of assembling a deployment.
pub trait Wrap: 'static {
    /// The client transport built over a raw transport `T`.
    type Tx<T: Transport>: Transport;
    fn tx<T: Transport>(t: T) -> Self::Tx<T>;
    /// The raw transport inside a client transport (for its counters).
    fn inner<T: Transport>(tx: &mut Self::Tx<T>) -> &mut T;
    /// Run a client-side root call.
    fn root<R>(layer: Layer, f: impl FnOnce() -> R) -> R;
    /// The handler installed for `f`.
    fn handler(f: impl Fn(&StubArgs) -> StubArgs + Send + Sync + 'static) -> SpecHandler;
    /// The registry to serve, given the one the service was installed in
    /// and the `(prog, vers, proc)` targets it hosts.
    fn served(inner: Arc<SvcRegistry>, targets: &[(u32, u32, u32)]) -> Arc<SvcRegistry>;
}

/// The plain deployment of the untraced run.
pub struct Plain;

impl Wrap for Plain {
    type Tx<T: Transport> = T;

    fn tx<T: Transport>(t: T) -> T {
        t
    }

    fn inner<T: Transport>(tx: &mut T) -> &mut T {
        tx
    }

    #[inline(always)]
    fn root<R>(_: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn handler(f: impl Fn(&StubArgs) -> StubArgs + Send + Sync + 'static) -> SpecHandler {
        Arc::new(f)
    }

    fn served(inner: Arc<SvcRegistry>, _: &[(u32, u32, u32)]) -> Arc<SvcRegistry> {
        inner
    }
}

/// The traced deployment: every layer boundary records a span.
pub struct Spans;

impl Wrap for Spans {
    type Tx<T: Transport> = Traced<T>;

    fn tx<T: Transport>(t: T) -> Traced<T> {
        Traced(t)
    }

    fn inner<T: Transport>(tx: &mut Traced<T>) -> &mut T {
        &mut tx.0
    }

    fn root<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
        trace::span(layer, f)
    }

    fn handler(f: impl Fn(&StubArgs) -> StubArgs + Send + Sync + 'static) -> SpecHandler {
        Arc::new(move |args: &StubArgs| trace::span(Layer::Handler, || f(args)))
    }

    fn served(inner: Arc<SvcRegistry>, targets: &[(u32, u32, u32)]) -> Arc<SvcRegistry> {
        // Same wire-buffer pool, so buffer recycling is unchanged; every
        // request reaches the inner registry's full dispatch (guard,
        // compiled stubs, generic fallback) through one raw hop.
        let outer = SvcRegistry::with_pool(inner.pool().clone());
        for &(prog, vers, proc_) in targets {
            let inner = inner.clone();
            outer.register_raw(prog, vers, proc_, move |request: &[u8], _| {
                Some(trace::span(Layer::Dispatch, || inner.dispatch(request)))
            });
        }
        Arc::new(outer)
    }
}

/// A `Transport` wrapper recording a span around each exchange.
pub struct Traced<T>(pub T);

impl<T: Transport> Transport for Traced<T> {
    fn prog(&self) -> u32 {
        self.0.prog()
    }
    fn vers(&self) -> u32 {
        self.0.vers()
    }
    fn next_xid(&mut self) -> u32 {
        self.0.next_xid()
    }
    fn call(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        trace::span(Layer::Transport, || self.0.call(request, xid))
    }
    fn call_oneway(&mut self, request: &[u8], xid: u32) -> Result<(), RpcError> {
        trace::span(Layer::Transport, || self.0.call_oneway(request, xid))
    }
    fn flush_oneways(&mut self) -> Result<(), RpcError> {
        trace::span(Layer::Transport, || self.0.flush_oneways())
    }
    fn oneway_batching(&self) -> bool {
        self.0.oneway_batching()
    }
    fn recycle(&mut self, reply: Vec<u8>) {
        self.0.recycle(reply)
    }
    fn wire_allocs(&self) -> u64 {
        self.0.wire_allocs()
    }
}

/// One coalescing UDP socket shared by the per-procedure stub clients of
/// one simulated NFS client (a `SpecClient` owns its transport, and the
/// five procedures must share one envelope stream).
#[derive(Clone)]
pub struct Shared(pub Rc<RefCell<ClntUdp>>);

impl Transport for Shared {
    fn prog(&self) -> u32 {
        self.0.borrow().prog()
    }
    fn vers(&self) -> u32 {
        self.0.borrow().vers()
    }
    fn next_xid(&mut self) -> u32 {
        self.0.borrow_mut().next_xid()
    }
    fn call(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        Transport::call(&mut *self.0.borrow_mut(), request, xid)
    }
    fn call_oneway(&mut self, request: &[u8], xid: u32) -> Result<(), RpcError> {
        self.0.borrow_mut().call_oneway(request, xid)
    }
    fn flush_oneways(&mut self) -> Result<(), RpcError> {
        self.0.borrow_mut().flush_oneways()
    }
    fn oneway_batching(&self) -> bool {
        self.0.borrow().oneway_batching()
    }
    fn recycle(&mut self, reply: Vec<u8>) {
        self.0.borrow_mut().recycle(reply)
    }
    fn wire_allocs(&self) -> u64 {
        self.0.borrow().wire_allocs()
    }
}
