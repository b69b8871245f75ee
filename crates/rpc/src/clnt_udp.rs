//! The UDP RPC client (`clntudp_create`/`clntudp_call`): transaction ids,
//! per-try timeout with retransmission, reply matching, and the generic
//! marshaling path through the layered XDR routines.
//!
//! A call, a pipelined batch and a batch the async lane polls all drive
//! the one sans-IO [`crate::exchange`] engine (a call is a batch of one);
//! the client adds the socket, the buffer pool, the replica walk with
//! its breakers, and the one-way coalescer.

use crate::breaker::CircuitBreaker;
use crate::bufpool::BufPool;
use crate::coalesce::{CallCoalescer, CoalescePolicy, CoalesceStats, FlushReason, WINDOW_CAP};
use crate::error::RpcError;
pub use crate::exchange::RetryPolicy;
use crate::exchange::{self, Exchange, Schedule, Slot, Step};
use crate::msg::{CallHeader, ReplyHeader};
use crate::transport::Transport;
use crate::xid::XidGen;
use specrpc_netsim::net::{Addr, Datagram, Network};
use specrpc_netsim::udp::SimUdpSocket;
use specrpc_netsim::SimTime;
use specrpc_xdr::coalesce;
use specrpc_xdr::mem::XdrMem;
use specrpc_xdr::{OpCounts, XdrResult, XdrStream};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maximum UDP payload the original transport allows (`UDPMSGSIZE` is
/// 8800; we allow larger so the paper's 2000-integer workload fits in one
/// datagram, as its ATM/Fast-Ethernet setup effectively did).
pub const UDP_BUF_SIZE: usize = 66_000;

/// One call or batch in flight: the engine plus the client's state.
struct Flight<S> {
    ex: Exchange<S>,
    /// A lone call sealed into the pending one-way envelope: the image
    /// its slot (re)transmits instead of the plain request.
    sealed: Option<Vec<u8>>,
    /// The failover walk: the replica the call began on, and the steps
    /// taken around the ring since (see [`ClntUdp::next_replica`]).
    walk: (usize, usize),
}

/// A UDP RPC client handle (the `CLIENT` of the original API).
pub struct ClntUdp {
    sock: SimUdpSocket,
    prog: u32,
    vers: u32,
    xids: XidGen,
    /// Per-try timeout before retransmission (`cu_wait`).
    pub retry_timeout: SimTime,
    /// Total timeout for one call (`cu_total`).
    pub total_timeout: SimTime,
    /// Per-call deadline, tighter than `total_timeout` when set: the
    /// virtual-time budget one call may spend **on one replica** before
    /// the resilience layer declares that replica unresponsive (and, with
    /// replicas configured, moves on). `None` falls back to
    /// `total_timeout`.
    pub call_deadline: Option<SimTime>,
    /// Retry *budget*: maximum retransmissions per replica attempt,
    /// independent of the time-based `total_timeout`. Exhausting it
    /// surfaces [`RpcError::GaveUp`] (and trips failover) instead of
    /// waiting out the clock. `None` means time-limited only.
    pub retry_budget: Option<u32>,
    /// Failovers performed (replica moves, observability for chaos runs).
    pub failovers: u64,
    /// Ordered replica set (`[primary, backup, ...]`); empty = classic
    /// single-host client with no failover machinery in the call path.
    replicas: Vec<Addr>,
    /// One circuit breaker per replica (parallel to `replicas`).
    breakers: Vec<CircuitBreaker>,
    /// Index into `replicas` the socket currently targets (sticky: a
    /// successful failover stays on the new replica).
    active: usize,
    /// How per-try timeouts grow and how batch resends are spaced (see
    /// [`RetryPolicy`]; defaults to the classic fixed-timeout behavior).
    pub retry_policy: RetryPolicy,
    /// Micro-layer counts accumulated by generic marshaling.
    pub counts: OpCounts,
    /// Retransmissions performed (observability for fault tests).
    pub retransmits: u64,
    /// Wire-buffer pool: every outbound datagram is built in a pooled
    /// buffer, and consumed replies are recycled back. Shareable across
    /// clients and with the serving side.
    pool: Arc<BufPool>,
    /// Reusable swap buffer for bulk reply draining in batches.
    drain_buf: VecDeque<Datagram>,
    /// MTU-aware one-way coalescing state (`None` = classic one datagram
    /// per call, byte- and time-identical to the pre-coalescing client).
    coalescer: Option<CallCoalescer>,
    /// Received reply messages (coalesced reply envelopes unpacked into
    /// pooled per-reply buffers), awaiting the engine in arrival order.
    rx_pending: VecDeque<Vec<u8>>,
    /// The batch the nonblocking lane started ([`Transport::start_batch`]).
    inflight: Option<Flight<Vec<Slot>>>,
}

impl ClntUdp {
    /// `clntudp_create`: bind `local`, aim at `server` for `prog`/`vers`.
    pub fn create(net: &Network, local: Addr, server: Addr, prog: u32, vers: u32) -> Self {
        Self::create_pooled(net, local, server, prog, vers, Arc::new(BufPool::new()))
    }

    /// [`ClntUdp::create`] sharing an existing wire-buffer pool (e.g. one
    /// pool across many clients, or client + server in one process).
    pub fn create_pooled(
        net: &Network,
        local: Addr,
        server: Addr,
        prog: u32,
        vers: u32,
        pool: Arc<BufPool>,
    ) -> Self {
        ClntUdp {
            sock: SimUdpSocket::connect(net, local, server),
            prog,
            vers,
            xids: XidGen::new(local),
            retry_timeout: SimTime::from_millis(200),
            total_timeout: SimTime::from_millis(2_000),
            call_deadline: None,
            retry_budget: None,
            failovers: 0,
            replicas: Vec::new(),
            breakers: Vec::new(),
            active: 0,
            retry_policy: RetryPolicy::Fixed,
            counts: OpCounts::new(),
            retransmits: 0,
            pool,
            drain_buf: VecDeque::new(),
            coalescer: None,
            rx_pending: VecDeque::new(),
            inflight: None,
        }
    }

    /// Enable MTU-aware coalescing and Sun-style one-way batching (see
    /// [`crate::CoalescePolicy`] and [`Transport::call_oneway`]): queued
    /// one-way calls pack into envelopes up to `policy.mtu`, flushed by
    /// MTU fill, the linger bound, or the next synchronous call or batch
    /// — whose reply acknowledges the pipeline.
    pub fn with_coalescing(mut self, policy: CoalescePolicy) -> Self {
        self.coalescer = Some(CallCoalescer::new(policy));
        self
    }

    /// Coalescing counters, when coalescing is enabled.
    pub fn coalesce_stats(&self) -> Option<CoalesceStats> {
        self.coalescer.as_ref().map(|c| c.stats())
    }

    /// The wire-buffer pool this client cycles datagrams through.
    pub fn pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// Allocate the next transaction id.
    pub fn next_xid(&mut self) -> u32 {
        self.xids.next_xid()
    }

    /// Enable replica failover: the full ordered replica set becomes
    /// `[server, backups...]` (the address given at create time stays the
    /// primary), each guarded by its own [`CircuitBreaker`]. When the
    /// active replica's breaker is open, or an attempt on it ends in
    /// [`RpcError::TimedOut`] / [`RpcError::GaveUp`], the call or batch
    /// moves to the next replica (sticky: later calls start from the
    /// survivor). With every breaker open the call fails fast with
    /// [`RpcError::HostDown`] — no datagram is sent.
    pub fn with_replicas(mut self, backups: &[Addr]) -> Self {
        let primary = self.sock.peer_addr();
        self.replicas = std::iter::once(primary)
            .chain(backups.iter().copied())
            .collect();
        self.breakers = vec![CircuitBreaker::default(); self.replicas.len()];
        self.active = 0;
        self
    }

    /// Replace every replica's circuit breaker with fresh clones of
    /// `template` (call after [`ClntUdp::with_replicas`]).
    pub fn with_breaker(mut self, template: CircuitBreaker) -> Self {
        self.breakers = vec![template; self.replicas.len()];
        self
    }

    /// Set the per-replica call deadline (see [`ClntUdp::call_deadline`]).
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.call_deadline = Some(deadline);
        self
    }

    /// Set the retransmission budget (see [`ClntUdp::retry_budget`]).
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = Some(budget);
        self
    }

    /// The replica the socket currently targets.
    pub fn active_replica(&self) -> Addr {
        self.sock.peer_addr()
    }

    /// Total circuit-breaker trips across all replicas.
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.trips).sum()
    }

    /// Queue a one-way call into the coalescing envelope, flushing first
    /// when the linger bound has passed or the sub-message would not fit
    /// under the MTU. Requires coalescing to be enabled.
    fn queue_oneway(&mut self, request: &[u8], xid: u32) {
        debug_assert_eq!(request.first_chunk(), Some(&xid.to_be_bytes()));
        let now = self.sock.now();
        let (linger_due, mtu_over) = {
            let c = self.coalescer.as_ref().expect("coalescing enabled");
            let linger_due = c
                .first_queued_at
                .is_some_and(|t0| now >= t0 + c.policy.linger);
            let mtu_over = coalesce::count(&c.pending) > 0
                && c.pending.len() + coalesce::pushed_len(request.len()) > c.policy.mtu;
            (linger_due, mtu_over)
        };
        if linger_due {
            self.flush_pending_oneways(FlushReason::Linger);
        } else if mtu_over {
            self.flush_pending_oneways(FlushReason::Mtu);
        }
        let c = self.coalescer.as_mut().expect("coalescing enabled");
        if c.pending.is_empty() {
            let mut env = self
                .pool
                .take(coalesce::ENVELOPE_HEADER_BYTES + coalesce::pushed_len(request.len()));
            coalesce::begin(&mut env);
            c.pending = env;
        }
        coalesce::push(&mut c.pending, request, true);
        c.note_queued();
        if c.first_queued_at.is_none() {
            c.first_queued_at = Some(now);
        }
        if c.pending.len() >= c.policy.mtu {
            self.flush_pending_oneways(FlushReason::Mtu);
        }
    }

    /// Transmit the envelope under construction (if non-empty) and park
    /// its image in the unacknowledged-envelope window for replay
    /// alongside a retransmitting synchronous call.
    fn flush_pending_oneways(&mut self, reason: FlushReason) {
        let Some(c) = self.coalescer.as_mut() else {
            return;
        };
        if coalesce::count(&c.pending) == 0 {
            return;
        }
        let img = std::mem::take(&mut c.pending);
        c.first_queued_at = None;
        c.note_flush(reason);
        let mut dg = self.pool.take(img.len());
        dg.extend_from_slice(&img);
        self.sock.send(dg);
        c.window.push(img);
        if c.window.len() > WINDOW_CAP {
            // Oldest unacknowledged one-ways fall off: at-most-once, the
            // classic Sun batch-mode trade.
            let old = c.window.remove(0);
            self.pool.put(old);
        }
    }

    /// Seal pending one-ways together with a synchronous `request` when
    /// everything fits one envelope (returning the sealed wire image the
    /// exchange should transmit instead of the plain request); otherwise
    /// flush the one-ways on their own and let the request go plain.
    fn seal_with_pending(&mut self, request: &[u8]) -> Option<Vec<u8>> {
        let fits = {
            let c = self.coalescer.as_ref()?;
            if coalesce::count(&c.pending) == 0 {
                return None;
            }
            c.pending.len() + coalesce::pushed_len(request.len()) <= c.policy.mtu
        };
        if fits {
            let c = self.coalescer.as_mut().expect("checked above");
            coalesce::push(&mut c.pending, request, false);
            c.first_queued_at = None;
            c.note_flush(FlushReason::Sync);
            Some(std::mem::take(&mut c.pending))
        } else {
            self.flush_pending_oneways(FlushReason::Sync);
            None
        }
    }

    /// Copy `image` into a pooled datagram and send it to the replica.
    fn send_copy(&self, image: &[u8]) {
        let mut dg = self.pool.take(image.len());
        dg.extend_from_slice(image);
        self.sock.send(dg);
    }

    /// File one received datagram into `rx_pending`, unpacking a
    /// coalesced reply envelope into pooled per-reply buffers when
    /// coalescing is enabled (a client that never coalesces never
    /// receives envelopes). The one receive path of every exchange.
    fn unpack(pool: &BufPool, coalescing: bool, rx_pending: &mut VecDeque<Vec<u8>>, dg: Vec<u8>) {
        if coalescing {
            if let Some(parts) = coalesce::split(&dg) {
                for (bytes, _oneway) in parts {
                    let mut sub = pool.take(bytes.len());
                    sub.extend_from_slice(bytes);
                    rx_pending.push_back(sub);
                }
                pool.put(dg);
                return;
            }
        }
        rx_pending.push_back(dg);
    }

    /// Advance the failover walk to the next replica whose breaker admits
    /// a call, retargeting the socket; `false` once the walk has gone
    /// round the ring. Without replicas the walk is one step, on the
    /// socket's own peer. Step `k` looks at replica `(start + k) % n`, so
    /// every replica gets its turn.
    fn next_replica(&mut self, walk: &mut (usize, usize)) -> bool {
        let (start, steps) = walk;
        let n = self.replicas.len();
        if n == 0 {
            *steps += 1;
            return *steps == 1;
        }
        while *steps < n {
            let idx = (*start + *steps) % n;
            *steps += 1;
            if !self.breakers[idx].allow(self.sock.now()) {
                continue;
            }
            if idx != self.active {
                self.sock.retarget(self.replicas[idx]);
                self.active = idx;
                self.failovers += 1;
            }
            return true;
        }
        false
    }

    /// Start an exchange of `slots` on the first replica a breaker admits
    /// (none: [`RpcError::HostDown`], nothing sent), carrying every queued
    /// one-way ahead of it: sealed with a lone call when they fit one
    /// envelope, flushed on their own otherwise.
    fn launch<S: AsRef<[Slot]> + AsMut<[Slot]>>(
        &mut self,
        slots: S,
        requests: &[&[u8]],
    ) -> Result<Flight<S>, RpcError> {
        let mut walk = (self.active, 0);
        if !self.next_replica(&mut walk) {
            return Err(RpcError::HostDown(format!(
                "all {} replicas refused by open circuit breakers",
                self.replicas.len()
            )));
        }
        let sealed = match requests {
            [request] => self.seal_with_pending(request),
            _ => {
                self.flush_pending_oneways(FlushReason::Sync);
                None
            }
        };
        let total = self
            .call_deadline
            .map_or(self.total_timeout, |d| d.min(self.total_timeout));
        let schedule = Schedule {
            retry_timeout: self.retry_timeout,
            total,
            policy: self.retry_policy,
            budget: self.retry_budget,
        };
        Ok(Flight {
            ex: Exchange::new(slots, schedule, self.sock.now()),
            sealed,
            walk,
        })
    }

    /// Drive `flight` until it completes — or, when `block` is false,
    /// until it would have to wait for the network (`None`): nonblocking
    /// waits only collect what has already arrived.
    fn drive<S: AsRef<[Slot]> + AsMut<[Slot]>>(
        &mut self,
        flight: &mut Flight<S>,
        requests: &[&[u8]],
        block: bool,
    ) -> Option<Result<(), RpcError>> {
        // Sending does not move the virtual clock; receiving does, so the
        // clock is read again only after a receive.
        let mut now = self.sock.now();
        let done = loop {
            match flight.ex.poll(now) {
                Step::Burst => self.burst(flight, requests),
                Step::Retry => {
                    // Replay unacknowledged one-way envelopes ahead of the
                    // resends: a lost batch reaches the server after all,
                    // and a delivered one is absorbed sub-message by
                    // sub-message in the duplicate-request cache.
                    if let Some(c) = &self.coalescer {
                        for env in &c.window {
                            self.send_copy(env);
                        }
                        self.retransmits += c.window.len() as u64;
                    }
                }
                Step::Resend(i) => {
                    self.send_copy(flight.sealed.as_deref().unwrap_or(requests[i]));
                    self.retransmits += 1;
                }
                Step::Wait(until) => {
                    let coalescing = self.coalescer.is_some();
                    if block {
                        let got = self.sock.recv(until - now);
                        now = self.sock.now();
                        // Per-try timeout: `None` here, the next poll
                        // retransmits.
                        let Some(dg) = got else {
                            continue;
                        };
                        Self::unpack(&self.pool, coalescing, &mut self.rx_pending, dg);
                        if requests.len() > 1 {
                            // Bulk-drain whatever else the pipeline has
                            // already delivered: one mailbox lock for the
                            // burst instead of a receive round per reply.
                            let mut buf = std::mem::take(&mut self.drain_buf);
                            self.sock.drain_ready(&mut buf, |dg| {
                                Self::unpack(&self.pool, coalescing, &mut self.rx_pending, dg)
                            });
                            self.drain_buf = buf;
                        }
                    } else {
                        let mut got = false;
                        while let Some(dg) = self.sock.try_recv() {
                            Self::unpack(&self.pool, coalescing, &mut self.rx_pending, dg);
                            got = true;
                        }
                        if !got {
                            return None;
                        }
                        now = self.sock.now();
                    }
                    while let Some(reply) = self.rx_pending.pop_front() {
                        if let Some(stale) = flight.ex.on_reply(reply) {
                            // A late reply to a retransmitted call, or a
                            // duplicate: its buffer feeds the pool.
                            self.pool.put(stale);
                        }
                    }
                }
                Step::Done => {
                    // Pipeline acknowledged: the replies prove the server
                    // saw everything sent ahead of this exchange.
                    if let Some(c) = self.coalescer.as_mut() {
                        for env in c.window.drain(..) {
                            self.pool.put(env);
                        }
                    }
                    if !self.replicas.is_empty() {
                        // Any reply (even a server-side error decoded
                        // upstream) is liveness.
                        self.breakers[self.active].on_success();
                    }
                    break Ok(());
                }
                Step::Failed(e) => {
                    if !self.replicas.is_empty() {
                        self.breakers[self.active].on_failure(now);
                    }
                    if self.next_replica(&mut flight.walk) {
                        flight.ex.restart(now);
                        continue;
                    }
                    break Err(e);
                }
            }
        };
        if let Some(img) = flight.sealed.take() {
            self.pool.put(img);
        }
        Some(done)
    }

    /// The first transmission of an attempt: a lone call's sealed
    /// envelope, or every unanswered slot — packed into ≤MTU envelopes
    /// (sub-replies come back coalesced) when a coalescing client sends
    /// several, one plain datagram each otherwise. Resends always go plain
    /// per message, so a lost envelope never resends answered calls.
    fn burst<S: AsRef<[Slot]> + AsMut<[Slot]>>(&self, flight: &Flight<S>, requests: &[&[u8]]) {
        if let Some(img) = &flight.sealed {
            self.send_copy(img);
            return;
        }
        let mtu = match &self.coalescer {
            Some(c) if requests.len() > 1 => c.policy.mtu,
            _ => 0,
        };
        let mut env: Option<Vec<u8>> = None;
        for i in flight.ex.unanswered() {
            let r = requests[i];
            let pushed = coalesce::pushed_len(r.len());
            if coalesce::ENVELOPE_HEADER_BYTES + pushed > mtu {
                // Too big for any envelope (or not packing): goes plain.
                self.send_copy(r);
                continue;
            }
            if env.as_ref().is_some_and(|e| e.len() + pushed > mtu) {
                self.sock.send(env.take().expect("checked above"));
            }
            let e = env.get_or_insert_with(|| {
                let mut e = self.pool.take(coalesce::ENVELOPE_HEADER_BYTES);
                coalesce::begin(&mut e);
                e
            });
            coalesce::push(e, r, false);
        }
        if let Some(e) = env {
            self.sock.send(e);
        }
    }

    /// Raw transaction, a batch of one: send `request` (whose first word
    /// must be `xid`), retransmit on per-try timeout, and return the first
    /// reply whose xid matches. The generic and specialized clients share
    /// it — specialization replaces marshaling, not transaction
    /// management.
    ///
    /// The request stays in the caller's (rewindable) buffer: each
    /// transmission — first try and retransmissions alike — copies it into
    /// a pooled datagram buffer rather than cloning a fresh `Vec`, and
    /// stale replies are recycled straight back into the pool, so a
    /// retransmitting call performs no steady-state allocation.
    pub fn exchange(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        debug_assert_eq!(request.first_chunk(), Some(&xid.to_be_bytes()));
        let requests = [request];
        let mut flight = self.launch([Slot::new(xid)], &requests)?;
        let done = self.drive(&mut flight, &requests, true);
        let [slot] = flight.ex.into_slots();
        done.expect("a blocking drive runs to completion")
            .map(|()| slot.reply.expect("the slot was answered"))
    }

    /// Pipelined batch of [`ClntUdp::exchange`]s: transmit **every**
    /// request before awaiting any reply, match replies to requests by
    /// xid as they arrive (in any order), and return them in submission
    /// order. On a per-try timeout every still-outstanding request is
    /// retransmitted (each counted in `retransmits`); the total timeout
    /// bounds the whole batch, and failover moves it like a single call.
    ///
    /// Wire latency and server dispatch for calls `1..N` overlap call
    /// `0`'s wait, so the fixed per-call overhead amortizes across the
    /// batch; like [`ClntUdp::exchange`], a warm batch allocates nothing.
    ///
    /// # Panics
    /// Panics if `requests` and `xids` have different lengths.
    pub fn exchange_batch(
        &mut self,
        requests: &[&[u8]],
        xids: &[u32],
    ) -> Result<Vec<Vec<u8>>, RpcError> {
        let Some(mut flight) = self.launch_batch(requests, xids)? else {
            return Ok(Vec::new());
        };
        let done = self.drive(&mut flight, requests, true);
        let slots = flight.ex.into_slots();
        exchange::replies(
            slots,
            done.expect("a blocking drive runs to completion"),
            &self.pool,
        )
    }

    /// [`ClntUdp::launch`] over one slot per request (`None` for an empty
    /// batch, which sends nothing).
    fn launch_batch(
        &mut self,
        requests: &[&[u8]],
        xids: &[u32],
    ) -> Result<Option<Flight<Vec<Slot>>>, RpcError> {
        assert_eq!(requests.len(), xids.len(), "one xid per request");
        if requests.is_empty() {
            return Ok(None);
        }
        let slots = xids.iter().map(|&xid| Slot::new(xid)).collect();
        self.launch(slots, requests).map(Some)
    }

    /// `clnt_call`: the generic path. Marshals the call header and the
    /// arguments through the layered XDR routines, performs the exchange,
    /// validates the reply header, and unmarshals results.
    pub fn call(
        &mut self,
        proc_: u32,
        encode_args: &mut dyn FnMut(&mut dyn XdrStream) -> XdrResult,
        decode_results: &mut dyn FnMut(&mut dyn XdrStream) -> XdrResult,
    ) -> Result<(), RpcError> {
        let xid = self.next_xid();
        let mut enc = XdrMem::encoder(UDP_BUF_SIZE);
        let mut msg = CallHeader::new(xid, self.prog, self.vers, proc_);
        CallHeader::xdr(&mut enc, &mut msg)?;
        encode_args(&mut enc)?;
        self.counts += *enc.counts();
        let request = enc.into_bytes();

        let reply = self.exchange(&request, xid)?;

        let mut dec = XdrMem::decoder_owned(reply);
        let hdr = ReplyHeader::decode(&mut dec)?;
        if let Some(err) = hdr.to_error() {
            self.counts += *dec.counts();
            return Err(err);
        }
        let r = decode_results(&mut dec);
        self.counts += *dec.counts();
        r.map_err(RpcError::from)
    }
}

impl Transport for ClntUdp {
    fn prog(&self) -> u32 {
        self.prog
    }

    fn vers(&self) -> u32 {
        self.vers
    }

    fn next_xid(&mut self) -> u32 {
        self.xids.next_xid()
    }

    fn call(&mut self, request: &[u8], xid: u32) -> Result<Vec<u8>, RpcError> {
        self.exchange(request, xid)
    }

    fn call_batch(&mut self, requests: &[&[u8]], xids: &[u32]) -> Result<Vec<Vec<u8>>, RpcError> {
        self.exchange_batch(requests, xids)
    }

    fn start_batch(
        &mut self,
        requests: &[&[u8]],
        xids: &[u32],
    ) -> Result<Option<Vec<Vec<u8>>>, RpcError> {
        // Abandon any batch still in flight: its late replies arrive as
        // stale ones.
        self.inflight = None;
        self.inflight = self.launch_batch(requests, xids)?;
        match self.inflight {
            None => Ok(Some(Vec::new())),
            Some(_) => self.poll_batch(requests),
        }
    }

    fn poll_batch(&mut self, requests: &[&[u8]]) -> Result<Option<Vec<Vec<u8>>>, RpcError> {
        let Some(mut flight) = self.inflight.take() else {
            return Err(RpcError::Transport("no batch in flight".into()));
        };
        match self.drive(&mut flight, requests, false) {
            None => {
                self.inflight = Some(flight);
                Ok(None)
            }
            Some(done) => exchange::replies(flight.ex.into_slots(), done, &self.pool).map(Some),
        }
    }

    fn call_oneway(&mut self, request: &[u8], xid: u32) -> Result<(), RpcError> {
        if self.coalescer.is_some() {
            self.queue_oneway(request, xid);
            Ok(())
        } else {
            // No batching surface configured: degrade to a blocking call
            // (keeps at-least-once) and discard the reply.
            let reply = self.exchange(request, xid)?;
            self.pool.put(reply);
            Ok(())
        }
    }

    fn flush_oneways(&mut self) -> Result<(), RpcError> {
        self.flush_pending_oneways(FlushReason::Explicit);
        Ok(())
    }

    fn oneway_batching(&self) -> bool {
        self.coalescer.is_some()
    }

    fn recycle(&mut self, reply: Vec<u8>) {
        self.pool.put(reply);
    }

    fn wire_allocs(&self) -> u64 {
        self.pool.allocs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svc::SvcRegistry;
    use crate::svc_udp::serve_udp;
    use specrpc_netsim::net::NetworkConfig;
    use specrpc_netsim::FaultConfig;
    use specrpc_xdr::composite::xdr_array;
    use specrpc_xdr::primitives::xdr_int;
    use std::sync::Arc;

    const PROG: u32 = 200_001;

    fn sum_service() -> SvcRegistry {
        let reg = SvcRegistry::new();
        reg.register(PROG, 1, 1, |args, results| {
            let mut v: Vec<i32> = Vec::new();
            xdr_array(args, &mut v, 100_000, xdr_int)?;
            let mut sum: i32 = v.iter().sum();
            xdr_int(results, &mut sum)?;
            Ok(())
        });
        reg
    }

    fn start(net: &Network, faults: bool) -> ClntUdp {
        let _ = faults;
        serve_udp(net, 111 + 900, Arc::new(sum_service()), None);
        ClntUdp::create(net, 5000, 111 + 900, PROG, 1)
    }

    fn encode_sum(clnt: &mut ClntUdp, vals: &[i32]) -> (Vec<u8>, u32) {
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(256);
        let mut msg = CallHeader::new(xid, PROG, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let mut v = vals.to_vec();
        xdr_array(&mut enc, &mut v, 100, xdr_int).unwrap();
        (enc.into_bytes(), xid)
    }

    /// `count` SUM requests, request `i` adding up `vals(i)`.
    fn batch_of(
        clnt: &mut ClntUdp,
        count: i32,
        vals: impl Fn(i32) -> Vec<i32>,
    ) -> (Vec<Vec<u8>>, Vec<u32>) {
        (0..count).map(|i| encode_sum(clnt, &vals(i))).unzip()
    }

    /// The xid and the sum a SUM reply carries.
    fn decode_sum(reply: &[u8]) -> (u32, i32) {
        let mut dec = XdrMem::decoder(reply);
        let hdr = ReplyHeader::decode(&mut dec).unwrap();
        let mut sum = 0i32;
        xdr_int(&mut dec, &mut sum).unwrap();
        (hdr.xid, sum)
    }

    #[test]
    fn generic_call_round_trips() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        let mut out = 0i32;
        clnt.call(
            1,
            &mut |x| {
                let mut v = vec![1i32, 2, 3, 4];
                xdr_array(x, &mut v, 100, xdr_int)
            },
            &mut |x| xdr_int(x, &mut out),
        )
        .unwrap();
        assert_eq!(out, 10);
        assert!(clnt.counts.dispatches > 0, "generic path pays dispatches");
    }

    #[test]
    fn timeout_when_no_server() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(50);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
    }

    #[test]
    fn stale_replies_do_not_extend_total_timeout() {
        // A server that always answers with the wrong xid: every reply is
        // stale, so the call must still time out at ~total_timeout of
        // virtual time rather than being extended per stale datagram.
        let net = Network::new(NetworkConfig::lan(), 4);
        net.serve_udp(
            700,
            Box::new(|req, _| {
                let mut bogus = req.to_vec();
                bogus[0] ^= 0x80; // corrupt the xid word
                Some((bogus, SimTime::ZERO))
            }),
        );
        let mut clnt = ClntUdp::create(&net, 5000, 700, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(50);
        let start = net.now();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        let took = net.now() - start;
        assert!(
            took >= SimTime::from_millis(50) && took <= SimTime::from_millis(80),
            "timed out after {took:?}, expected ~50-80ms of virtual time"
        );
    }

    #[test]
    fn retransmission_survives_heavy_loss() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.4,
                duplicate: 0.1,
                reorder: 0.1,
            }),
            12345,
        );
        let mut clnt = start(&net, true);
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(5_000);
        let mut total_retransmits = 0;
        for round in 0..20 {
            let mut out = 0i32;
            clnt.call(
                1,
                &mut |x| {
                    let mut v = vec![round; 8];
                    xdr_array(x, &mut v, 100, xdr_int)
                },
                &mut |x| xdr_int(x, &mut out),
            )
            .unwrap();
            assert_eq!(out, round * 8);
            total_retransmits = clnt.retransmits;
        }
        assert!(total_retransmits > 0, "loss must have forced retries");
    }

    #[test]
    fn duplicate_replies_are_ignored_by_xid() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.0,
                duplicate: 0.5,
                reorder: 0.0,
            }),
            7,
        );
        let mut clnt = start(&net, true);
        for i in 0..10 {
            let mut out = 0i32;
            clnt.call(
                1,
                &mut |x| {
                    let mut v = vec![i, i];
                    xdr_array(x, &mut v, 100, xdr_int)
                },
                &mut |x| xdr_int(x, &mut out),
            )
            .unwrap();
            assert_eq!(out, 2 * i);
        }
    }

    #[test]
    fn batch_replies_come_back_in_submission_order() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        let (requests, xids) = batch_of(&mut clnt, 5, |i| vec![i; 3]);
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let replies = clnt.exchange_batch(&refs, &xids).unwrap();
        assert_eq!(replies.len(), 5);
        for (i, reply) in replies.iter().enumerate() {
            let (xid, sum) = decode_sum(reply);
            assert_eq!(xid, xids[i], "submission order preserved");
            assert_eq!(sum, i as i32 * 3);
        }
        assert_eq!(clnt.retransmits, 0);
    }

    #[test]
    fn batch_retransmits_only_the_outstanding_requests() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.4,
                duplicate: 0.0,
                reorder: 0.2,
            }),
            99,
        );
        let mut clnt = start(&net, true);
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(10_000);
        let (requests, xids) = batch_of(&mut clnt, 8, |i| vec![i, i]);
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let replies = clnt.exchange_batch(&refs, &xids).unwrap();
        for (i, reply) in replies.iter().enumerate() {
            assert_eq!(decode_sum(reply).0, xids[i]);
        }
        assert!(clnt.retransmits > 0, "loss must have forced retries");
        assert!(
            clnt.retransmits < 8 * 10,
            "only stragglers retransmit, not the whole batch forever"
        );
    }

    #[test]
    fn exp_backoff_retransmits_less_than_fixed() {
        let run = |policy| {
            let net = Network::new(NetworkConfig::lan(), 3);
            let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1);
            clnt.retry_timeout = SimTime::from_millis(10);
            clnt.total_timeout = SimTime::from_millis(500);
            clnt.retry_policy = policy;
            let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
            assert_eq!(err, RpcError::TimedOut);
            clnt.retransmits
        };
        let fixed = run(RetryPolicy::Fixed);
        let backoff = run(RetryPolicy::ExpBackoff {
            cap: SimTime::from_millis(200),
        });
        assert!(backoff < fixed, "backoff {backoff} >= fixed {fixed}");
        // 10+20+40+80+160+200 ms already exceeds the 500 ms total.
        assert!(backoff <= 7, "backoff retried {backoff} times");
    }

    #[test]
    fn paced_batch_survives_loss() {
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.4,
                duplicate: 0.1,
                reorder: 0.2,
            }),
            99,
        );
        let mut clnt = start(&net, true);
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(10_000);
        clnt.retry_policy = RetryPolicy::Paced {
            gap: SimTime::from_micros(500),
        };
        let (requests, xids) = batch_of(&mut clnt, 8, |i| vec![i, i, i]);
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let replies = clnt.exchange_batch(&refs, &xids).unwrap();
        for (i, reply) in replies.iter().enumerate() {
            let (xid, sum) = decode_sum(reply);
            assert_eq!(xid, xids[i], "submission order preserved");
            assert_eq!(sum, i as i32 * 3);
        }
        assert!(clnt.retransmits > 0, "loss must have forced paced retries");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        assert_eq!(
            clnt.exchange_batch(&[], &[]).unwrap(),
            Vec::<Vec<u8>>::new()
        );
    }

    #[test]
    fn try_exchange_completes_after_the_network_runs() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        let (request, xid) = encode_sum(&mut clnt, &[2, 3]);
        let requests = [request.as_slice()];
        // The reply cannot be ready at the send instant…
        assert!(clnt.start_batch(&requests, &[xid]).unwrap().is_none());
        assert!(clnt.poll_batch(&requests).unwrap().is_none());
        // …but once virtual time runs past the round trip it is.
        net.advance(SimTime::from_millis(5));
        let reply = clnt.poll_batch(&requests).unwrap().expect("ready now");
        assert_eq!(clnt.retransmits, 0);
        assert_eq!(decode_sum(&reply[0]), (xid, 5));
    }

    #[test]
    fn server_error_propagates() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = start(&net, false);
        // Unknown procedure.
        let err = clnt.call(42, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::ProcUnavail);
    }

    #[test]
    fn total_timeout_is_a_hard_bound() {
        // retry_timeout 30ms with total_timeout 50ms: the second try's
        // deadline must clamp to the 50ms bound instead of overshooting
        // to 60ms (the pre-fix behavior).
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(30);
        clnt.total_timeout = SimTime::from_millis(50);
        let start = net.now();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        let took = net.now() - start;
        assert_eq!(
            took,
            SimTime::from_millis(50),
            "per-try deadline must clamp to the total bound, took {took}"
        );
    }

    #[test]
    fn batch_total_timeout_is_a_hard_bound() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(30);
        clnt.total_timeout = SimTime::from_millis(50);
        let xid = clnt.next_xid();
        let mut enc = XdrMem::encoder(64);
        let mut msg = CallHeader::new(xid, PROG, 1, 1);
        CallHeader::xdr(&mut enc, &mut msg).unwrap();
        let request = enc.into_bytes();
        let start = net.now();
        let err = clnt
            .exchange_batch(&[request.as_slice()], &[xid])
            .unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert_eq!(net.now() - start, SimTime::from_millis(50));
    }

    #[test]
    fn retry_budget_gives_up_before_the_clock() {
        // Budget of 2 retransmissions: first try + 2 retries = 3 sends,
        // then GaveUp — well before the 10s total timeout.
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1).with_retry_budget(2);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(10_000);
        let start = net.now();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::GaveUp { tries: 3 });
        assert_eq!(clnt.retransmits, 2);
        assert!(
            net.now() - start < SimTime::from_millis(50),
            "gave up on the budget, not the clock"
        );
    }

    #[test]
    fn call_deadline_tightens_total_timeout() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt =
            ClntUdp::create(&net, 5000, 999, PROG, 1).with_deadline(SimTime::from_millis(20));
        clnt.retry_timeout = SimTime::from_millis(15);
        clnt.total_timeout = SimTime::from_millis(2_000);
        let start = net.now();
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert_eq!(net.now() - start, SimTime::from_millis(20));
    }

    #[test]
    fn failover_moves_to_a_live_backup_and_sticks() {
        // Primary 999 is dead; backup serves. The first call fails over
        // (one failover), later calls start on the survivor directly.
        let net = Network::new(NetworkConfig::lan(), 3);
        let backup = 111 + 900;
        serve_udp(&net, backup, Arc::new(sum_service()), None);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1).with_replicas(&[backup]);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(30);
        for round in 0..3i32 {
            let mut out = 0i32;
            clnt.call(
                1,
                &mut |x| {
                    let mut v = vec![round; 4];
                    xdr_array(x, &mut v, 100, xdr_int)
                },
                &mut |x| xdr_int(x, &mut out),
            )
            .unwrap();
            assert_eq!(out, round * 4);
        }
        assert_eq!(clnt.failovers, 1, "sticky: only the first call moves");
        assert_eq!(clnt.active_replica(), backup);
    }

    #[test]
    fn open_breakers_fail_fast_with_host_down() {
        use crate::breaker::CircuitBreaker;
        // Both replicas dead, breakers tripping on the first failure:
        // call 1 burns real (virtual) time on both hosts, call 2 is
        // refused instantly without a single datagram.
        let net = Network::new(NetworkConfig::lan(), 3);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1)
            .with_replicas(&[998])
            .with_breaker(CircuitBreaker::new(1, SimTime::from_millis(500)));
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(20);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert_eq!(clnt.breaker_trips(), 2, "both hosts tripped");
        let before = net.now();
        let sends_before = clnt.retransmits;
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, RpcError::HostDown(_)), "got {err:?}");
        assert_eq!(net.now(), before, "fail-fast: no virtual time burned");
        assert_eq!(clnt.retransmits, sends_before, "nothing was sent");
    }

    #[test]
    fn half_open_probe_recovers_after_cooldown() {
        use crate::breaker::CircuitBreaker;
        // Single host, breaker trips, the host comes back during the
        // cooldown: the half-open probe after the cooldown succeeds and
        // the breaker closes again.
        let net = Network::new(NetworkConfig::lan(), 3);
        let addr = 111 + 900;
        let mut clnt = ClntUdp::create(&net, 5000, addr, PROG, 1)
            .with_replicas(&[])
            .with_breaker(CircuitBreaker::new(1, SimTime::from_millis(50)));
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(20);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
        assert!(matches!(
            clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err(),
            RpcError::HostDown(_)
        ));
        // The server appears; once the cooldown elapses the probe lands.
        serve_udp(&net, addr, Arc::new(sum_service()), None);
        net.advance(SimTime::from_millis(60));
        let mut out = 0i32;
        clnt.call(
            1,
            &mut |x| {
                let mut v = vec![2i32, 3];
                xdr_array(x, &mut v, 100, xdr_int)
            },
            &mut |x| xdr_int(x, &mut out),
        )
        .unwrap();
        assert_eq!(out, 5);
        assert_eq!(clnt.breaker_trips(), 1);
    }

    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_service(runs: Arc<AtomicU64>) -> SvcRegistry {
        let reg = SvcRegistry::new();
        reg.register(PROG, 1, 1, move |args, results| {
            runs.fetch_add(1, Ordering::Relaxed);
            let mut v: Vec<i32> = Vec::new();
            xdr_array(args, &mut v, 100_000, xdr_int)?;
            let mut sum: i32 = v.iter().sum();
            xdr_int(results, &mut sum)?;
            Ok(())
        });
        reg
    }

    #[test]
    fn oneway_batch_seals_into_one_datagram_with_the_sync_call() {
        use crate::coalesce::CoalescePolicy;
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, Arc::new(counting_service(runs.clone())), None);
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(10)));
        let before = net.link_stats().datagrams;
        for i in 0..3i32 {
            let (req, xid) = encode_sum(&mut clnt, &[i, i]);
            clnt.call_oneway(&req, xid).unwrap();
        }
        assert_eq!(runs.load(Ordering::Relaxed), 0, "queued, not sent");
        let (req, xid) = encode_sum(&mut clnt, &[10, 20]);
        let reply = clnt.exchange(&req, xid).unwrap();
        assert_eq!(decode_sum(&reply), (xid, 30));
        assert_eq!(runs.load(Ordering::Relaxed), 4, "all four handlers ran");
        assert_eq!(
            net.link_stats().datagrams - before,
            2,
            "one sealed request envelope, one sync reply"
        );
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.oneways_queued, 3);
        assert_eq!(stats.flushes_sync, 1);
        assert_eq!(stats.pending_submessages, 0);
        assert_eq!(stats.unacked_envelopes, 0, "sync reply acked the window");
    }

    #[test]
    fn per_call_policy_sends_one_datagram_per_oneway() {
        use crate::coalesce::CoalescePolicy;
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, Arc::new(counting_service(runs.clone())), None);
        let mut clnt =
            ClntUdp::create(&net, 5000, 1011, PROG, 1).with_coalescing(CoalescePolicy::per_call());
        let before = net.link_stats().datagrams;
        for i in 0..3i32 {
            let (req, xid) = encode_sum(&mut clnt, &[i]);
            clnt.call_oneway(&req, xid).unwrap();
        }
        let (req, xid) = encode_sum(&mut clnt, &[7]);
        let reply = clnt.exchange(&req, xid).unwrap();
        assert_eq!(u32::from_be_bytes(reply[0..4].try_into().unwrap()), xid);
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        // 3 solo one-way envelopes (replies suppressed) + sync + its
        // reply: the per-call baseline pays one datagram per call.
        assert_eq!(net.link_stats().datagrams - before, 5);
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.flushes_mtu, 3, "MTU 0 flushes every push");
        assert_eq!(stats.unacked_envelopes, 0);
    }

    #[test]
    fn coalesced_retransmits_execute_each_handler_exactly_once() {
        use crate::coalesce::CoalescePolicy;
        // Loss-faulted link: a lost sealed envelope is retransmitted
        // whole, a lost reply forces a duplicate envelope delivery — in
        // both cases the duplicate-request cache must keep every inner
        // xid at exactly one handler execution.
        let net = Network::new(
            NetworkConfig::lan().with_faults(FaultConfig {
                loss: 0.3,
                duplicate: 0.1,
                reorder: 0.1,
            }),
            97,
        );
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, Arc::new(counting_service(runs.clone())), None);
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(50)));
        clnt.retry_timeout = SimTime::from_millis(20);
        clnt.total_timeout = SimTime::from_millis(5_000);
        const ROUNDS: u64 = 20;
        for round in 0..ROUNDS {
            for i in 0..3i32 {
                let (req, xid) = encode_sum(&mut clnt, &[round as i32, i]);
                clnt.call_oneway(&req, xid).unwrap();
            }
            let (req, xid) = encode_sum(&mut clnt, &[1, 2, 3]);
            let reply = clnt.exchange(&req, xid).unwrap();
            assert_eq!(u32::from_be_bytes(reply[0..4].try_into().unwrap()), xid);
        }
        assert!(clnt.retransmits > 0, "loss must have forced retries");
        assert_eq!(
            runs.load(Ordering::Relaxed),
            ROUNDS * 4,
            "exactly-once execution for every coalesced sub-message"
        );
    }

    #[test]
    fn linger_bound_flushes_aged_oneways() {
        use crate::coalesce::CoalescePolicy;
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, Arc::new(counting_service(runs.clone())), None);
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_micros(100)));
        let (req, xid) = encode_sum(&mut clnt, &[1]);
        clnt.call_oneway(&req, xid).unwrap();
        net.advance(SimTime::from_millis(1));
        // The next queue notices the aged batch and flushes it first.
        let (req, xid) = encode_sum(&mut clnt, &[2]);
        clnt.call_oneway(&req, xid).unwrap();
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.flushes_linger, 1);
        assert_eq!(stats.pending_submessages, 1, "second call still queued");
        clnt.flush_oneways().unwrap();
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.flushes_explicit, 1);
        assert_eq!(stats.pending_submessages, 0);
        // Both one-ways execute once time runs; the sync call acks.
        let (req, xid) = encode_sum(&mut clnt, &[3]);
        clnt.exchange(&req, xid).unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(
            clnt.coalesce_stats().unwrap().unacked_envelopes,
            0,
            "sync reply acknowledged the flushed envelopes"
        );
    }

    #[test]
    fn oneway_without_coalescing_degrades_to_a_blocking_call() {
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, Arc::new(counting_service(runs.clone())), None);
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1);
        assert!(clnt.coalesce_stats().is_none());
        assert!(!Transport::oneway_batching(&clnt));
        let (req, xid) = encode_sum(&mut clnt, &[5]);
        clnt.call_oneway(&req, xid).unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 1, "ran synchronously");
    }

    #[test]
    fn coalesced_batch_packs_requests_and_unpacks_coalesced_replies() {
        use crate::coalesce::CoalescePolicy;
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, Arc::new(counting_service(runs.clone())), None);
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(10)));
        let before = net.link_stats().datagrams;
        let (requests, xids) = batch_of(&mut clnt, 5, |i| vec![i; 3]);
        let refs: Vec<&[u8]> = requests.iter().map(Vec::as_slice).collect();
        let replies = clnt.exchange_batch(&refs, &xids).unwrap();
        for (i, reply) in replies.iter().enumerate() {
            let (xid, sum) = decode_sum(reply);
            assert_eq!(xid, xids[i], "submission order preserved");
            assert_eq!(sum, i as i32 * 3);
        }
        assert_eq!(runs.load(Ordering::Relaxed), 5);
        assert_eq!(
            net.link_stats().datagrams - before,
            2,
            "five calls in one request envelope, five replies in one"
        );
        assert_eq!(clnt.retransmits, 0);
    }

    #[test]
    fn batch_carries_queued_oneways_ahead_of_itself() {
        use crate::coalesce::CoalescePolicy;
        // Three queued one-ways, then a two-call batch: the one-ways must
        // reach the server before the batch and be acknowledged by it,
        // exactly as a single sync call would carry them.
        let net = Network::new(NetworkConfig::lan(), 3);
        let runs = Arc::new(AtomicU64::new(0));
        serve_udp(&net, 1011, Arc::new(counting_service(runs.clone())), None);
        let mut clnt = ClntUdp::create(&net, 5000, 1011, PROG, 1)
            .with_coalescing(CoalescePolicy::new(1400, SimTime::from_millis(10)));
        for i in 0..3i32 {
            let (req, xid) = encode_sum(&mut clnt, &[i]);
            clnt.call_oneway(&req, xid).unwrap();
        }
        let (a, xa) = encode_sum(&mut clnt, &[1, 2]);
        let (b, xb) = encode_sum(&mut clnt, &[3, 4]);
        let replies = clnt.exchange_batch(&[&a, &b], &[xa, xb]).unwrap();
        assert_eq!(replies.len(), 2);
        assert_eq!(runs.load(Ordering::Relaxed), 5, "one-ways ran too");
        let stats = clnt.coalesce_stats().expect("coalescing on");
        assert_eq!(stats.pending_submessages, 0, "nothing left behind");
        assert_eq!(stats.flushes_sync, 1, "flushed by the batch");
        assert_eq!(stats.unacked_envelopes, 0, "the batch acked the window");
    }

    #[test]
    fn batch_fails_over_to_a_live_backup() {
        // Primary 999 is dead, the backup serves: a batch moves over like
        // a single call does, instead of timing out on the primary.
        let net = Network::new(NetworkConfig::lan(), 3);
        let backup = 111 + 900;
        serve_udp(&net, backup, Arc::new(sum_service()), None);
        let mut clnt = ClntUdp::create(&net, 5000, 999, PROG, 1).with_replicas(&[backup]);
        clnt.retry_timeout = SimTime::from_millis(10);
        clnt.total_timeout = SimTime::from_millis(30);
        let (a, xa) = encode_sum(&mut clnt, &[1, 2]);
        let (b, xb) = encode_sum(&mut clnt, &[3, 4]);
        let replies = clnt.exchange_batch(&[&a, &b], &[xa, xb]).unwrap();
        assert_eq!(decode_sum(&replies[0]), (xa, 3));
        assert_eq!(decode_sum(&replies[1]), (xb, 7));
        assert_eq!(clnt.failovers, 1);
        assert_eq!(clnt.active_replica(), backup);
    }

    #[test]
    fn exchange_matches_only_own_xid() {
        let net = Network::new(NetworkConfig::lan(), 3);
        // Server echoes with a WRONG xid: client must keep waiting and
        // eventually time out.
        let reg_addr = 777;
        net.serve_udp(
            reg_addr,
            Box::new(|req, _| {
                let mut reply = req.to_vec();
                reply[0] ^= 0xff;
                Some((reply, SimTime::from_micros(10)))
            }),
        );
        let mut clnt = ClntUdp::create(&net, 5001, reg_addr, PROG, 1);
        clnt.retry_timeout = SimTime::from_millis(5);
        clnt.total_timeout = SimTime::from_millis(20);
        let err = clnt.call(1, &mut |_| Ok(()), &mut |_| Ok(())).unwrap_err();
        assert_eq!(err, RpcError::TimedOut);
    }
}
