//! TCP transport adapter for the server (`svctcp_create`): a
//! record-marking reassembly state machine per connection, dispatching
//! complete records through the shared [`SvcRegistry`].
//!
//! No duplicate-request cache here: the stream transport is reliable and
//! ordered, the client never retransmits, and the simulator's fault model
//! deliberately does not apply to TCP (see `specrpc_netsim::fault`), so a
//! record arrives exactly once by construction.
//!
//! [`serve_tcp`] dispatches on the delivering thread;
//! [`serve_tcp_pinned`] runs complete records on a small worker pool
//! instead, pinning each accepted connection to one worker so records on
//! a connection stay ordered while different connections dispatch on
//! different threads.

use crate::bufpool::BufPool;
use crate::svc::SvcRegistry;
use crate::svc_udp::{default_proc_time, ProcTimeModel};
use specrpc_netsim::net::{Addr, Network, TcpHandler};
use specrpc_netsim::SimTime;
use specrpc_xdr::rec::{FRAG_LEN_MASK as LEN_MASK, LAST_FRAG_FLAG as LAST_FRAG};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

pub use crate::svc::Dispatcher;

/// Record-marking reassembler + dispatcher for one connection.
pub struct SvcTcpConn {
    dispatch: Dispatcher,
    /// The pool the dispatcher's reply buffers come from; each goes back
    /// once copied into the outgoing record stream.
    pool: Arc<BufPool>,
    model: ProcTimeModel,
    buf: Vec<u8>,
    /// Payload of the record being assembled (across fragments).
    record: Vec<u8>,
}

impl SvcTcpConn {
    /// A fresh per-connection reassembler over the shared registry.
    pub fn new(registry: Arc<SvcRegistry>, model: ProcTimeModel) -> Self {
        let pool = registry.pool().clone();
        let dispatch = Arc::new(move |req: &[u8]| registry.dispatch(req));
        Self::with_dispatcher(dispatch, pool, model)
    }

    /// A reassembler whose complete records go through an arbitrary
    /// dispatcher (e.g. a [`serve_tcp_pinned`] worker) drawing its reply
    /// buffers from `pool`.
    pub fn with_dispatcher(dispatch: Dispatcher, pool: Arc<BufPool>, model: ProcTimeModel) -> Self {
        SvcTcpConn {
            dispatch,
            pool,
            model,
            buf: Vec::new(),
            record: Vec::new(),
        }
    }

    /// Pull complete fragments out of the byte buffer; returns complete
    /// record payloads.
    fn drain_records(&mut self) -> Vec<Vec<u8>> {
        let mut records = Vec::new();
        loop {
            if self.buf.len() < 4 {
                return records;
            }
            let header = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
            let len = (header & LEN_MASK) as usize;
            let last = header & LAST_FRAG != 0;
            if self.buf.len() < 4 + len {
                return records;
            }
            self.record.extend_from_slice(&self.buf[4..4 + len]);
            self.buf.drain(..4 + len);
            if last {
                records.push(std::mem::take(&mut self.record));
            }
        }
    }
}

impl TcpHandler for SvcTcpConn {
    fn on_bytes(&mut self, bytes: &[u8]) -> (Vec<u8>, SimTime) {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        let mut time = SimTime::ZERO;
        for request in self.drain_records() {
            let reply = (self.dispatch)(&request);
            time += (self.model)(request.len(), reply.len());
            // Reply as a single record.
            let header = (reply.len() as u32 | LAST_FRAG).to_be_bytes();
            out.extend_from_slice(&header);
            out.extend_from_slice(&reply);
            self.pool.put(reply);
        }
        (out, time)
    }
}

/// Install the registry as a TCP service at `addr`.
pub fn serve_tcp(
    net: &Network,
    addr: Addr,
    registry: Arc<SvcRegistry>,
    proc_time: Option<ProcTimeModel>,
) {
    let model: ProcTimeModel = proc_time.unwrap_or_else(default_proc_time);
    net.serve_tcp(
        addr,
        Box::new(move || {
            Box::new(SvcTcpConn::new(registry.clone(), model.clone())) as Box<dyn TcpHandler>
        }),
    );
}

/// One record handed to a pinned worker, with the channel its reply
/// goes back on.
type Job = (Vec<u8>, mpsc::SyncSender<Vec<u8>>);

/// The worker threads behind [`serve_tcp_pinned`], one job queue each.
/// Dropping the last reference (the listener and every open connection
/// hold one) closes the queues and joins the workers.
struct PinnedWorkers {
    queues: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl PinnedWorkers {
    fn spawn(registry: Arc<SvcRegistry>, workers: usize) -> PinnedWorkers {
        assert!(workers > 0, "pinned TCP service needs at least one worker");
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            let reg = registry.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("specrpc-tcp-{i}"))
                    .spawn(move || {
                        while let Ok((request, reply_tx)) = rx.recv() {
                            // The connection may be gone; a closed reply
                            // channel is fine.
                            let _ = reply_tx.send(reg.dispatch(&request));
                        }
                    })
                    .expect("spawn pinned TCP worker"),
            );
            queues.push(tx);
        }
        PinnedWorkers {
            queues,
            handles,
            next: AtomicUsize::new(0),
        }
    }

    /// Dispatch one record on `worker`, blocking until its reply is ready.
    fn dispatch_on(&self, worker: usize, request: &[u8]) -> Vec<u8> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        self.queues[worker]
            .send((request.to_vec(), reply_tx))
            .expect("pinned TCP worker hung up");
        reply_rx.recv().expect("pinned TCP worker died mid-request")
    }
}

impl Drop for PinnedWorkers {
    fn drop(&mut self) {
        // Closing every queue ends each worker's receive loop.
        self.queues.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Install the registry as a TCP service at `addr`, dispatching complete
/// records on `workers` threads: each accepted connection is pinned to
/// one worker (round-robin), so records on a connection stay ordered.
///
/// # Panics
/// Panics if `workers` is zero.
pub fn serve_tcp_pinned(
    net: &Network,
    addr: Addr,
    registry: Arc<SvcRegistry>,
    workers: usize,
    proc_time: Option<ProcTimeModel>,
) {
    let bufs = registry.pool().clone();
    let pool = Arc::new(PinnedWorkers::spawn(registry, workers));
    let model: ProcTimeModel = proc_time.unwrap_or_else(default_proc_time);
    net.serve_tcp(
        addr,
        Box::new(move || {
            let worker = pool.next.fetch_add(1, Ordering::Relaxed) % pool.queues.len();
            let p = pool.clone();
            Box::new(SvcTcpConn::with_dispatcher(
                Arc::new(move |request: &[u8]| p.dispatch_on(worker, request)),
                bufs.clone(),
                model.clone(),
            )) as Box<dyn TcpHandler>
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_xdr::primitives::xdr_int;

    fn reg() -> Arc<SvcRegistry> {
        let r = SvcRegistry::new();
        r.register(1, 1, 1, |args, results| {
            let mut v = 0i32;
            xdr_int(args, &mut v)?;
            let mut neg = -v;
            xdr_int(results, &mut neg)?;
            Ok(())
        });
        Arc::new(r)
    }

    fn call_record(xid: u32, arg: i32) -> Vec<u8> {
        use crate::msg::CallHeader;
        use specrpc_xdr::mem::XdrMem;
        let mut enc = XdrMem::encoder(128);
        let mut msg = CallHeader::new(xid, 1, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut a = arg;
        xdr_int(&mut enc, &mut a).unwrap();
        let payload = enc.into_bytes();
        let mut rec = ((payload.len() as u32) | LAST_FRAG).to_be_bytes().to_vec();
        rec.extend_from_slice(&payload);
        rec
    }

    fn zero_time() -> ProcTimeModel {
        Arc::new(|_, _| SimTime::ZERO)
    }

    #[test]
    fn complete_record_dispatches() {
        let mut conn = SvcTcpConn::new(reg(), zero_time());
        let (out, _) = conn.on_bytes(&call_record(7, 5));
        assert!(!out.is_empty());
        // Reply record header then xid.
        assert_eq!(&out[4..8], &7u32.to_be_bytes());
    }

    #[test]
    fn partial_bytes_accumulate() {
        let mut conn = SvcTcpConn::new(reg(), zero_time());
        let rec = call_record(9, 1);
        let (mid, _) = conn.on_bytes(&rec[..10]);
        assert!(mid.is_empty(), "incomplete record must not dispatch");
        let (out, _) = conn.on_bytes(&rec[10..]);
        assert!(!out.is_empty());
    }

    #[test]
    fn multi_fragment_record_reassembles() {
        let mut conn = SvcTcpConn::new(reg(), zero_time());
        let full = call_record(3, 2);
        let payload = &full[4..];
        // Split payload into two fragments: first without LAST bit.
        let (a, b) = payload.split_at(8);
        let mut wire = (a.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(a);
        wire.extend_from_slice(&((b.len() as u32) | LAST_FRAG).to_be_bytes());
        wire.extend_from_slice(b);
        let (out, _) = conn.on_bytes(&wire);
        assert_eq!(&out[4..8], &3u32.to_be_bytes());
    }

    #[test]
    fn two_records_in_one_burst() {
        let mut conn = SvcTcpConn::new(reg(), zero_time());
        let mut wire = call_record(1, 10);
        wire.extend_from_slice(&call_record(2, 20));
        let (out, _) = conn.on_bytes(&wire);
        // Two reply records present.
        assert_eq!(&out[4..8], &1u32.to_be_bytes());
        let first_len = (u32::from_be_bytes([out[0], out[1], out[2], out[3]]) & LEN_MASK) as usize;
        let second = &out[4 + first_len..];
        assert_eq!(&second[4..8], &2u32.to_be_bytes());
    }

    #[test]
    fn processing_time_sums_per_record() {
        let mut conn = SvcTcpConn::new(reg(), Arc::new(|_, _| SimTime::from_millis(1)));
        let mut wire = call_record(1, 10);
        wire.extend_from_slice(&call_record(2, 20));
        let (_, t) = conn.on_bytes(&wire);
        assert_eq!(t, SimTime::from_millis(2));
    }
}
