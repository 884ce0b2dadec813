//! The forwarding component's log (paper §9: "Each forwarding component
//! maintains a log file and a set of forwarding queues").
//!
//! A bounded ring buffer of forwarding decisions, queryable by message id —
//! the operational record an administrator (or a test) uses to trace where
//! an item travelled and why.

use std::collections::VecDeque;

use astrolabe::ZoneId;

/// What a forwarding component did with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardEvent {
    /// Accepted forwarding duty for a zone.
    AcceptedDuty,
    /// Relayed/forwarded to a representative.
    Forwarded,
    /// Delivered to a leaf member (or locally).
    Delivered,
    /// Suppressed as a duplicate.
    Duplicate,
    /// Dropped: failed verification.
    AuthRejected,
    /// Dropped: no route toward the zone.
    Unroutable,
    /// An acknowledged hand-off timed out; the same representative will be
    /// retried with backoff.
    AckTimeout,
    /// A hand-off exhausted its retries and moved to another representative.
    FailedOver,
    /// A hand-off exhausted retries and failovers; left to anti-entropy.
    Abandoned,
}

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Simulated time of the event, microseconds.
    pub at_us: u64,
    /// The message involved.
    pub msg_id: u64,
    /// The zone of the duty (empty/root when not applicable).
    pub zone: ZoneId,
    /// Peer involved (representative or member), if any.
    pub peer: Option<u32>,
    /// What happened.
    pub event: ForwardEvent,
}

/// A bounded in-memory forwarding log.
#[derive(Debug, Clone)]
pub struct ForwardLog {
    records: VecDeque<LogRecord>,
    capacity: usize,
    total: u64,
}

impl ForwardLog {
    /// Creates a log retaining up to `capacity` records. It starts empty
    /// and grows to that cap.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log needs capacity");
        ForwardLog { records: VecDeque::new(), capacity, total: 0 }
    }

    /// Appends a record, evicting the oldest beyond capacity.
    pub fn record(&mut self, rec: LogRecord) {
        self.total += 1;
        // Evict first: a full ring stays at `capacity` slots instead of
        // doubling to hold one transient extra record.
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec);
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total records ever written (including evicted ones).
    pub fn total_written(&self) -> u64 {
        self.total
    }

    /// Iterates over retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.iter()
    }

    /// The retained trace of one message, oldest first.
    pub fn trace(&self, msg_id: u64) -> Vec<&LogRecord> {
        self.records.iter().filter(|r| r.msg_id == msg_id).collect()
    }

    /// Count of retained records with the given event type.
    pub fn count(&self, event: ForwardEvent) -> usize {
        self.records.iter().filter(|r| r.event == event).count()
    }
}

impl Default for ForwardLog {
    fn default() -> Self {
        ForwardLog::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, id: u64, event: ForwardEvent) -> LogRecord {
        LogRecord { at_us: at, msg_id: id, zone: ZoneId::root(), peer: None, event }
    }

    #[test]
    fn records_and_traces() {
        let mut log = ForwardLog::new(16);
        log.record(rec(1, 7, ForwardEvent::AcceptedDuty));
        log.record(rec(2, 7, ForwardEvent::Forwarded));
        log.record(rec(3, 8, ForwardEvent::Duplicate));
        log.record(rec(4, 7, ForwardEvent::Delivered));
        let trace: Vec<_> = log.trace(7).iter().map(|r| r.event).collect();
        assert_eq!(
            trace,
            vec![ForwardEvent::AcceptedDuty, ForwardEvent::Forwarded, ForwardEvent::Delivered]
        );
        assert_eq!(log.count(ForwardEvent::Duplicate), 1);
        assert_eq!(log.total_written(), 4);
    }

    #[test]
    fn bounded_eviction_keeps_newest() {
        let mut log = ForwardLog::new(3);
        for i in 0..10 {
            log.record(rec(i, i, ForwardEvent::Forwarded));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.iter().next().unwrap().at_us, 7);
        assert_eq!(log.total_written(), 10);
    }

    #[test]
    fn allocates_nothing_until_first_record() {
        assert_eq!(ForwardLog::default().records.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        ForwardLog::new(0);
    }
}
