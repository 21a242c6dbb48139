//! Timestamped scheduler events with a total, schedule-independent order.

use std::cmp::Ordering;

/// What happened at an instant of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A client's upload landed at the server, compute (`F̂/F`) plus upload
    /// (`B̂/B`) seconds of Eq. 14 after its dispatch: in every mode this
    /// is the instant the update becomes absorbable.
    UploadFinish,
    /// A transient upload fault: the attempt that would have landed at this
    /// instant failed on the wire. The driver either schedules a
    /// retransmission after an exponential backoff or, once the retry cap is
    /// exhausted, drops the update permanently.
    UploadRetry,
    /// A zone aggregator's per-zone deadline fired (two-tier topology);
    /// the zone's outstanding clients are dropped at the zone.
    ZoneDeadline,
    /// The round's deadline fired; outstanding clients are dropped.
    RoundDeadline,
    /// The server hands a client the current global model and it starts
    /// computing. Ordered *after* the other kinds at an equal timestamp so a
    /// dispatch triggered by an arrival at time `t` runs against the state
    /// all time-`t` absorptions produced.
    Dispatch,
}

impl EventKind {
    /// Tie-break rank at equal timestamps (see [`Event`]'s ordering).
    fn rank(&self) -> u8 {
        match self {
            EventKind::UploadFinish => 0,
            // A failed attempt resolves right after successful arrivals at
            // the same instant, and *before* deadline bookkeeping: the
            // retransmission must be scheduled against the pre-deadline
            // round state it raced.
            EventKind::UploadRetry => 1,
            // Zone deadlines close *before* the round deadline at an equal
            // timestamp: the edge tier resolves ahead of the server tier.
            EventKind::ZoneDeadline => 2,
            EventKind::RoundDeadline => 3,
            EventKind::Dispatch => 4,
        }
    }
}

/// One scheduled occurrence: `(virtual_time, client, kind)` plus the insertion
/// sequence number the queue assigned.
///
/// Events are *totally* ordered by `(time, kind rank, client, seq)` using
/// [`f64::total_cmp`], so a heap of events pops in the same order on every
/// machine and at every thread count — the root determinism guarantee of the
/// runtime. Times must be finite (the queue asserts it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Virtual time of the occurrence, in simulated seconds.
    pub time: f64,
    /// The client the event concerns (`usize::MAX` for round-level events
    /// such as the deadline).
    pub client: usize,
    /// What occurred.
    pub kind: EventKind,
    /// Queue insertion number, the final tie-breaker.
    pub seq: u64,
}

impl Event {
    /// A round-level event not tied to a client.
    pub const ROUND_SCOPE: usize = usize::MAX;
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.kind.rank().cmp(&other.kind.rank()))
            .then_with(|| self.client.cmp(&other.client))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, client: usize, kind: EventKind, seq: u64) -> Event {
        Event {
            time,
            client,
            kind,
            seq,
        }
    }

    #[test]
    fn orders_by_time_first() {
        let a = ev(1.0, 9, EventKind::Dispatch, 5);
        let b = ev(2.0, 0, EventKind::UploadFinish, 0);
        assert!(a < b);
    }

    #[test]
    fn arrivals_precede_dispatches_at_equal_time() {
        let arrive = ev(3.0, 7, EventKind::UploadFinish, 10);
        let dispatch = ev(3.0, 0, EventKind::Dispatch, 1);
        assert!(arrive < dispatch);
        let deadline = ev(3.0, Event::ROUND_SCOPE, EventKind::RoundDeadline, 2);
        assert!(arrive < deadline && deadline < dispatch);
    }

    #[test]
    fn zone_deadlines_precede_the_round_deadline_at_equal_time() {
        // An update landing at its zone exactly at both deadlines is
        // resolved in tier order: buffered by the zone, then the zone
        // closes, then the round closes, then new dispatches run.
        let arrive = ev(2.0, 4, EventKind::UploadFinish, 0);
        let zone = ev(2.0, 1, EventKind::ZoneDeadline, 1);
        let round = ev(2.0, Event::ROUND_SCOPE, EventKind::RoundDeadline, 2);
        let dispatch = ev(2.0, 0, EventKind::Dispatch, 3);
        assert!(arrive < zone && zone < round && round < dispatch);
    }

    #[test]
    fn upload_retries_resolve_between_arrivals_and_deadlines() {
        // At one instant: landed uploads buffer first, then failed attempts
        // schedule their retransmissions, then the deadlines resolve, then
        // new dispatches run.
        let arrive = ev(4.0, 2, EventKind::UploadFinish, 0);
        let retry = ev(4.0, 5, EventKind::UploadRetry, 1);
        let deadline = ev(4.0, Event::ROUND_SCOPE, EventKind::RoundDeadline, 2);
        assert!(arrive < retry && retry < deadline);
    }

    #[test]
    fn client_then_seq_break_remaining_ties() {
        let a = ev(1.0, 2, EventKind::UploadFinish, 9);
        let b = ev(1.0, 3, EventKind::UploadFinish, 1);
        assert!(a < b);
        let c = ev(1.0, 2, EventKind::UploadFinish, 10);
        assert!(a < c);
    }

    #[test]
    fn ordering_is_total_for_negative_zero() {
        // total_cmp distinguishes -0.0 < 0.0; all we need is *a* total order.
        let a = ev(-0.0, 0, EventKind::Dispatch, 0);
        let b = ev(0.0, 0, EventKind::Dispatch, 0);
        assert!(a < b);
    }
}
