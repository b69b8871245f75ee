//! The client transaction engine (`clntudp_call`'s loop), sans I/O.
//!
//! One `Exchange` runs one call or one pipelined batch: N request slots,
//! each waiting for the reply that carries its xid. It owns xid → slot
//! matching, the per-try and total deadlines, the [`RetryPolicy`]
//! (including paced resends) and the retry budget, but touches no
//! socket: its caller feeds it replies (`on_reply`) and the clock
//! (`poll`) and performs the `Step` it asks for.

use crate::bufpool::BufPool;
use crate::error::RpcError;
use specrpc_netsim::SimTime;

/// Retransmission strategy for [`crate::ClntUdp`] — the knob the
/// congestion / retransmission study turns. All strategies use
/// [`crate::ClntUdp::retry_timeout`] as the base per-try wait and
/// [`crate::ClntUdp::total_timeout`] as the overall bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Classic `clntudp_call` (the default): every try waits the same
    /// fixed `retry_timeout` before retransmitting everything still
    /// outstanding.
    Fixed,
    /// Exponential backoff: try `k` waits `retry_timeout · 2^k`, capped
    /// at `cap` — fewer, later retransmissions, easing pressure on a
    /// congested link at the price of slower loss recovery.
    ExpBackoff {
        /// Upper bound on the per-try timeout.
        cap: SimTime,
    },
    /// Fixed per-try timeout, but batch retransmissions are *paced*
    /// `gap` apart in virtual time instead of re-blasted back-to-back,
    /// and replies landing inside a gap are drained immediately — a
    /// straggler answered mid-pace is not resent. Spreads the resend
    /// burst so a bounded server queue can absorb it.
    Paced {
        /// Virtual-time spacing between consecutive resends of a round.
        gap: SimTime,
    },
}

impl RetryPolicy {
    /// Per-try timeout for the 0-based retry round `attempt`.
    pub fn try_timeout(self, base: SimTime, attempt: u32) -> SimTime {
        match self {
            RetryPolicy::Fixed | RetryPolicy::Paced { .. } => base,
            RetryPolicy::ExpBackoff { cap } => {
                let mult = 1u64 << attempt.min(20);
                SimTime::from_nanos(base.as_nanos().saturating_mul(mult).min(cap.as_nanos()))
            }
        }
    }
}

/// The retry schedule one exchange runs under (the client's settings).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    /// Base per-try timeout.
    pub(crate) retry_timeout: SimTime,
    /// Bound on one attempt (the total timeout, clamped by the per-call
    /// deadline).
    pub(crate) total: SimTime,
    pub(crate) policy: RetryPolicy,
    /// Most retransmission rounds one attempt may run.
    pub(crate) budget: Option<u32>,
}

/// One request of an exchange: its xid and, once matched, its reply.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) xid: u32,
    /// The matched reply (`None` while unanswered).
    pub(crate) reply: Option<Vec<u8>>,
}

impl Slot {
    pub(crate) fn new(xid: u32) -> Slot {
        Slot { xid, reply: None }
    }
}

/// File `reply` under the unanswered slot whose xid it carries, or hand
/// the buffer back when no slot wants it (a duplicate of an answered
/// call, or an alien xid) so the caller can recycle it.
pub(crate) fn file(slots: &mut [Slot], reply: Vec<u8>) -> Result<(), Vec<u8>> {
    let Some(word) = reply.first_chunk::<4>() else {
        return Err(reply);
    };
    let rx = u32::from_be_bytes(*word);
    match slots.iter_mut().find(|s| s.xid == rx) {
        Some(slot) if slot.reply.is_none() => {
            slot.reply = Some(reply);
            Ok(())
        }
        _ => Err(reply),
    }
}

/// The slots' replies in submission order; on failure, the replies that
/// did arrive go back to `pool` (a dropped buffer is a later miss).
pub(crate) fn replies(
    slots: Vec<Slot>,
    done: Result<(), RpcError>,
    pool: &BufPool,
) -> Result<Vec<Vec<u8>>, RpcError> {
    let replies = slots.into_iter().map(|s| s.reply);
    match done {
        Ok(()) => Ok(replies.map(|r| r.expect("every slot answered")).collect()),
        Err(e) => {
            replies.flatten().for_each(|r| pool.put(r));
            Err(e)
        }
    }
}

/// What the caller must do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// First transmission of an attempt: send every unanswered slot now.
    Burst,
    /// A retransmission round begins: replay whatever must ride ahead of
    /// the resends (unacknowledged one-way envelopes).
    Retry,
    /// Retransmit slot `i`.
    Resend(usize),
    /// Feed replies until this instant, then poll again.
    Wait(SimTime),
    /// Every slot holds its reply.
    Done,
    /// The attempt failed: [`RpcError::TimedOut`] or [`RpcError::GaveUp`].
    Failed(RpcError),
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// A fresh attempt: the next poll asks for the burst.
    Start,
    /// Replies are awaited until the per-try deadline.
    Waiting(SimTime),
    /// A retransmission round: unanswered slots from `next` are resent,
    /// the next one not before `not_before` (a paced policy spaces them).
    Resending { next: usize, not_before: SimTime },
}

/// One call or batch in flight over slot storage `S` (`[Slot; 1]` for a
/// single call, so it needs no heap; a `Vec` for a batch).
pub(crate) struct Exchange<S> {
    slots: S,
    outstanding: usize,
    schedule: Schedule,
    total_deadline: SimTime,
    attempt: u32,
    phase: Phase,
}

impl<S: AsRef<[Slot]> + AsMut<[Slot]>> Exchange<S> {
    /// An exchange of fresh `slots` whose first attempt starts at `now`.
    pub(crate) fn new(slots: S, schedule: Schedule, now: SimTime) -> Self {
        let outstanding = slots.as_ref().len();
        Exchange {
            slots,
            outstanding,
            schedule,
            total_deadline: now + schedule.total,
            attempt: 0,
            phase: Phase::Start,
        }
    }

    /// Begin a fresh attempt at `now` (failover to another replica):
    /// answered slots keep their replies, the rest go out in a new burst
    /// under fresh deadlines and a fresh budget.
    pub(crate) fn restart(&mut self, now: SimTime) {
        self.total_deadline = now + self.schedule.total;
        self.attempt = 0;
        self.phase = Phase::Start;
    }

    /// Indices of the slots still awaiting a reply, in submission order.
    pub(crate) fn unanswered(&self) -> impl Iterator<Item = usize> + '_ {
        let slots = self.slots.as_ref();
        (0..slots.len()).filter(|&i| slots[i].reply.is_none())
    }

    /// Feed one received reply; a reply no slot wants comes back for
    /// recycling.
    pub(crate) fn on_reply(&mut self, reply: Vec<u8>) -> Option<Vec<u8>> {
        match file(self.slots.as_mut(), reply) {
            Ok(()) => {
                self.outstanding -= 1;
                None
            }
            Err(stale) => Some(stale),
        }
    }

    /// The slots, answered or not.
    pub(crate) fn into_slots(self) -> S {
        self.slots
    }

    /// The next step at virtual time `now`.
    pub(crate) fn poll(&mut self, now: SimTime) -> Step {
        loop {
            if self.outstanding == 0 {
                return Step::Done;
            }
            match self.phase {
                Phase::Start => {
                    self.phase = Phase::Waiting(self.try_deadline(now));
                    return Step::Burst;
                }
                Phase::Waiting(until) if now < until => return Step::Wait(until),
                Phase::Waiting(_) => {
                    if now >= self.total_deadline {
                        return Step::Failed(RpcError::TimedOut);
                    }
                    if self.schedule.budget.is_some_and(|b| self.attempt >= b) {
                        return Step::Failed(RpcError::GaveUp {
                            tries: self.attempt + 1,
                        });
                    }
                    self.attempt += 1;
                    self.phase = Phase::Resending {
                        next: 0,
                        not_before: now,
                    };
                    return Step::Retry;
                }
                Phase::Resending { next, not_before } => {
                    let slots = self.slots.as_ref();
                    match (next..slots.len()).find(|&i| slots[i].reply.is_none()) {
                        None => self.phase = Phase::Waiting(self.try_deadline(now)),
                        Some(_) if now < not_before => return Step::Wait(not_before),
                        Some(i) => {
                            let gap = match self.schedule.policy {
                                RetryPolicy::Paced { gap } => gap,
                                _ => SimTime::ZERO,
                            };
                            self.phase = Phase::Resending {
                                next: i + 1,
                                not_before: now + gap,
                            };
                            return Step::Resend(i);
                        }
                    }
                }
            }
        }
    }

    /// The per-try deadline for the current attempt started at `now`,
    /// clamped so the last try cannot overshoot the total bound.
    fn try_deadline(&self, now: SimTime) -> SimTime {
        let s = &self.schedule;
        (now + s.policy.try_timeout(s.retry_timeout, self.attempt)).min(self.total_deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn schedule(policy: RetryPolicy, budget: Option<u32>) -> Schedule {
        Schedule {
            retry_timeout: ms(10),
            total: ms(35),
            policy,
            budget,
        }
    }

    fn reply(xid: u32) -> Vec<u8> {
        xid.to_be_bytes().to_vec()
    }

    #[test]
    fn stale_replies_come_back_and_the_match_completes() {
        let mut ex = Exchange::new(
            [Slot::new(1), Slot::new(2)],
            schedule(RetryPolicy::Fixed, None),
            ms(0),
        );
        assert_eq!(ex.poll(ms(0)), Step::Burst);
        assert_eq!(ex.on_reply(reply(9)), Some(reply(9)), "alien xid");
        assert_eq!(ex.on_reply(vec![1]), Some(vec![1]), "runt");
        assert_eq!(ex.on_reply(reply(2)), None);
        assert_eq!(ex.on_reply(reply(2)), Some(reply(2)), "duplicate");
        assert_eq!(ex.unanswered().collect::<Vec<_>>(), vec![0]);
        assert_eq!(ex.on_reply(reply(1)), None);
        assert_eq!(ex.poll(ms(1)), Step::Done);
    }

    #[test]
    fn paced_round_spaces_resends_and_skips_slots_answered_in_a_gap() {
        let policy = RetryPolicy::Paced { gap: ms(1) };
        let slots: Vec<Slot> = (1..=3).map(Slot::new).collect();
        let mut ex = Exchange::new(slots, schedule(policy, None), ms(0));
        assert_eq!(ex.poll(ms(0)), Step::Burst);
        assert_eq!(ex.poll(ms(10)), Step::Retry);
        assert_eq!(ex.poll(ms(10)), Step::Resend(0));
        assert_eq!(ex.poll(ms(10)), Step::Wait(ms(11)));
        // Slot 1 is answered inside the gap: it is not resent.
        assert_eq!(ex.on_reply(reply(2)), None);
        assert_eq!(ex.poll(ms(11)), Step::Resend(2));
        assert_eq!(ex.poll(ms(11)), Step::Wait(ms(21)));
    }

    #[test]
    fn budget_gives_up_before_the_clock() {
        let mut ex = Exchange::new([Slot::new(1)], schedule(RetryPolicy::Fixed, Some(1)), ms(0));
        assert_eq!(ex.poll(ms(0)), Step::Burst);
        assert_eq!(ex.poll(ms(10)), Step::Retry);
        assert_eq!(ex.poll(ms(10)), Step::Resend(0));
        assert_eq!(ex.poll(ms(10)), Step::Wait(ms(20)));
        assert_eq!(ex.poll(ms(20)), Step::Failed(RpcError::GaveUp { tries: 2 }));
        ex.restart(ms(20));
        assert_eq!(ex.poll(ms(20)), Step::Burst, "failover starts afresh");
        assert_eq!(ex.poll(ms(20)), Step::Wait(ms(30)));
    }
}
