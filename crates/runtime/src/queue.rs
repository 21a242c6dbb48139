//! The event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::{Event, EventKind};

/// A deterministic min-heap of [`Event`]s.
///
/// Insertion assigns each event a monotone sequence number, so even two
/// events that agree on `(time, kind, client)` pop in insertion order. The
/// queue rejects non-finite times: a NaN timestamp would silently poison the
/// ordering.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event and returns it (with its assigned `seq`).
    pub fn push(&mut self, time: f64, client: usize, kind: EventKind) -> Event {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        let event = Event {
            time,
            client,
            kind,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(event));
        event
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// The earliest event without removing it.
    pub fn peek(&self) -> Option<&Event> {
        self.heap.peek().map(|Reverse(e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_stable_ties() {
        let mut q = EventQueue::new();
        q.push(2.0, 1, EventKind::UploadFinish);
        q.push(1.0, 5, EventKind::Dispatch);
        q.push(2.0, 1, EventKind::UploadFinish); // exact duplicate, later seq
        q.push(2.0, 0, EventKind::Dispatch); // dispatch ranks after arrivals

        let order: Vec<(f64, usize, EventKind, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.client, e.kind, e.seq))
            .collect();
        assert_eq!(order[0], (1.0, 5, EventKind::Dispatch, 1));
        assert_eq!(order[1], (2.0, 1, EventKind::UploadFinish, 0));
        assert_eq!(order[2], (2.0, 1, EventKind::UploadFinish, 2));
        assert_eq!(order[3], (2.0, 0, EventKind::Dispatch, 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn upload_retry_total_order_is_pinned_in_the_queue() {
        // Pin the full tie-break rank chain at one instant, with the new
        // fault kind in place: arrivals, then failed-attempt retries, then
        // the zone and round deadlines, then dispatches —
        // regardless of insertion order.
        let mut q = EventQueue::new();
        q.push(1.0, 0, EventKind::Dispatch);
        q.push(1.0, Event::ROUND_SCOPE, EventKind::RoundDeadline);
        q.push(1.0, 2, EventKind::UploadRetry);
        q.push(1.0, 1, EventKind::ZoneDeadline);
        q.push(1.0, 4, EventKind::UploadFinish);

        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::UploadFinish,
                EventKind::UploadRetry,
                EventKind::ZoneDeadline,
                EventKind::RoundDeadline,
                EventKind::Dispatch,
            ]
        );
    }

    #[test]
    #[should_panic]
    fn rejects_nan_times() {
        EventQueue::new().push(f64::NAN, 0, EventKind::Dispatch);
    }
}
