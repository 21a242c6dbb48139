//! The virtual clock: simulated seconds since the start of the federation.

/// A monotone clock measured in simulated seconds.
///
/// The runtime never reads wall-clock time; every timestamp is derived from
/// the analytic cost model, so two runs of the same configuration see the
/// exact same sequence of instants (bit-for-bit — times are plain `f64`s
/// produced by the same arithmetic in the same order).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock to `t`. Panics on attempts to move backwards —
    /// an event popped out of order is a scheduler bug, never recoverable
    /// data.
    pub fn advance_to(&mut self, t: f64) {
        assert!(
            t >= self.now,
            "virtual clock cannot run backwards ({} -> {t})",
            self.now
        );
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut clock = VirtualClock::new();
        assert_eq!(clock.now(), 0.0);
        clock.advance_to(1.5);
        assert_eq!(clock.now(), 1.5);
        clock.advance_to(1.5); // equal time is fine
    }

    #[test]
    #[should_panic]
    fn rejects_time_travel() {
        let mut clock = VirtualClock::new();
        clock.advance_to(3.0);
        clock.advance_to(2.0);
    }
}
