//! Typed trace events and the bounded ring buffer that records them.

use crate::fault::ControlClass;

/// What happened — one variant per observable step of the engine's
/// control plane. Numbered variants follow Algorithm 1 of the paper
/// (① `GET_METRICS` … ⑥ `MIGRATE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// ① The manager polled `poi`'s statistics observer.
    GetMetrics {
        /// Instance polled.
        poi: usize,
    },
    /// ② `poi` uploaded its key statistics to the manager.
    SendMetrics {
        /// Instance reporting.
        poi: usize,
        /// Upload size charged to the NIC (0 when modeled out of band).
        bytes: u64,
    },
    /// A reconfiguration wave was accepted by the manager.
    WaveStarted {
        /// Router updates carried by the plan.
        routers: usize,
        /// Key migrations carried by the plan.
        migrations: usize,
        /// 0-based attempt (> 0 only for retries).
        attempt: u32,
    },
    /// ③ `SEND_RECONF` delivered to `poi`.
    SendReconf {
        /// Receiving instance.
        poi: usize,
    },
    /// ④ `poi` acknowledged its staged configuration.
    AckReconf {
        /// Acknowledging instance.
        poi: usize,
        /// Acks the manager is still waiting for.
        acks_pending: usize,
    },
    /// ⑤ `PROPAGATE`, or the coordinator's `ForceApply`, delivered to
    /// `poi`.
    Propagate {
        /// Receiving instance.
        poi: usize,
    },
    /// `poi` applied its staged configuration (last propagate seen).
    WaveApplied {
        /// Applying instance.
        poi: usize,
    },
    /// A routing table was swapped on a sender's out edge.
    RouterSwapped {
        /// Sending instance.
        poi: usize,
        /// The fields-grouped edge whose router changed.
        edge: usize,
    },
    /// ⑥ One key's state left its old owner.
    MigrateSent {
        /// Old owner instance.
        from: usize,
        /// New owner instance.
        to: usize,
        /// The migrated key.
        key: u64,
        /// State size shipped (pre-framing).
        bytes: u64,
    },
    /// Migrated state was installed at its new owner.
    MigrateApplied {
        /// New owner instance.
        poi: usize,
        /// The migrated key.
        key: u64,
    },
    /// A tuple arrived for a key whose state is still in flight; the
    /// new owner started (or grew) a buffer. Recorded only when the
    /// buffer transitions empty → non-empty, so the ring is not
    /// flooded by per-tuple events.
    BufferStall {
        /// Buffering instance.
        poi: usize,
        /// Key awaiting state.
        key: u64,
    },
    /// Fault injection dropped a control message on the wire.
    ControlDropped {
        /// Message class that was dropped.
        class: ControlClass,
    },
    /// Fault injection delayed a control message.
    ControlDelayed {
        /// Message class that was delayed.
        class: ControlClass,
        /// Delay, in windows.
        windows: u64,
    },
    /// A ⑥ `MIGRATE` exhausted its retransmissions; the state was
    /// recovered out of band from the engine's replicated copy.
    MigrationLost {
        /// Intended new owner.
        to: usize,
        /// The key whose transfer was lost.
        key: u64,
    },
    /// Fault injection crashed an instance.
    PoiCrashed {
        /// The crashed instance.
        poi: usize,
    },
    /// Fault injection killed the manager process.
    ManagerKilled,
    /// The abandoned wave was rolled back (routing tables and key
    /// ownership reverted to their pre-wave values).
    WaveRolledBack {
        /// The attempt that failed (0-based).
        attempt: u32,
    },
    /// An attempt missed its deadline: the rest of the wave was
    /// restaged.
    WaveRetried {
        /// The new attempt number (0-based).
        attempt: u32,
    },
    /// The wave was abandoned for good.
    WaveAborted,
    /// Every POI applied; the wave is complete.
    WaveCompleted {
        /// Windows from wave start to completion.
        duration_windows: u64,
    },
    /// The engine fell back to whole-table hash routing (graceful
    /// degradation after manager death).
    DegradedToHash,
    /// A span-sampled tuple entered the data plane at a source.
    SpanBegin {
        /// Emitting source instance.
        poi: usize,
        /// The sampled routing key.
        key: u64,
    },
    /// A span-sampled tuple was processed at one hop.
    SpanHop {
        /// Receiving instance.
        poi: usize,
        /// The sampled routing key.
        key: u64,
        /// Time spent waiting to be dequeued, in nanoseconds.
        queue_ns: u64,
        /// Processing time at this hop, in nanoseconds.
        proc_ns: u64,
        /// Whether the hop crossed workers (remote) or stayed local.
        remote: bool,
    },
    /// A span-sampled tuple completed its path at a sink.
    SpanEnd {
        /// Sink instance.
        poi: usize,
        /// The sampled routing key.
        key: u64,
        /// End-to-end latency from the source origin stamp, in
        /// nanoseconds.
        total_ns: u64,
    },
}

impl TraceEventKind {
    /// Snake-case name of this kind, matching the `kind` field of the
    /// JSONL export (see [`export`](crate::obs::export)).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::GetMetrics { .. } => "get_metrics",
            Self::SendMetrics { .. } => "send_metrics",
            Self::WaveStarted { .. } => "wave_started",
            Self::SendReconf { .. } => "send_reconf",
            Self::AckReconf { .. } => "ack_reconf",
            Self::Propagate { .. } => "propagate",
            Self::WaveApplied { .. } => "wave_applied",
            Self::RouterSwapped { .. } => "router_swapped",
            Self::MigrateSent { .. } => "migrate_sent",
            Self::MigrateApplied { .. } => "migrate_applied",
            Self::BufferStall { .. } => "buffer_stall",
            Self::ControlDropped { .. } => "control_dropped",
            Self::ControlDelayed { .. } => "control_delayed",
            Self::MigrationLost { .. } => "migration_lost",
            Self::PoiCrashed { .. } => "poi_crashed",
            Self::ManagerKilled => "manager_killed",
            Self::WaveRolledBack { .. } => "wave_rolled_back",
            Self::WaveRetried { .. } => "wave_retried",
            Self::WaveAborted => "wave_aborted",
            Self::WaveCompleted { .. } => "wave_completed",
            Self::DegradedToHash => "degraded_to_hash",
            Self::SpanBegin { .. } => "span_begin",
            Self::SpanHop { .. } => "span_hop",
            Self::SpanEnd { .. } => "span_end",
        }
    }
}

/// One recorded event: a [`TraceEventKind`] stamped with sequence
/// number, sim time, window and (when attributable) wave id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number (also counts events evicted from the
    /// ring: `seq` gaps at the front reveal truncation).
    pub seq: u64,
    /// Simulated time in seconds (window start).
    pub time: f64,
    /// Window index the event occurred in.
    pub window: u64,
    /// The reconfiguration wave this event belongs to, if any.
    pub wave: Option<u64>,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Bounded ring buffer of [`TraceEvent`]s.
///
/// The simulator is single-threaded, so recording is plain memory
/// writes — no locks, no atomics. When full, the oldest event is
/// evicted and counted in [`dropped`](Self::dropped).
#[derive(Debug)]
pub struct EventTracer {
    capacity: usize,
    events: std::collections::VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl EventTracer {
    /// Creates a tracer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Self {
            capacity,
            events: std::collections::VecDeque::with_capacity(capacity.min(4096)),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records one event.
    pub fn record(&mut self, window: u64, time: f64, wave: Option<u64>, kind: TraceEventKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent {
            seq: self.next_seq,
            time,
            window,
            wave,
            kind,
        });
        self.next_seq += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drains and returns all retained events, oldest first.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let mut t = EventTracer::new(3);
        for i in 0..5 {
            t.record(i, i as f64 * 0.1, None, TraceEventKind::ManagerKilled);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn take_drains() {
        let mut t = EventTracer::new(8);
        t.record(0, 0.0, Some(1), TraceEventKind::WaveAborted);
        let evs = t.take();
        assert_eq!(evs.len(), 1);
        assert!(t.is_empty());
        assert_eq!(evs[0].wave, Some(1));
    }
}
