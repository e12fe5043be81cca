//! Egress queue disciplines.
//!
//! The paper's experiments toggle exactly one switch knob: strict-priority
//! queueing (Fig. 2a, 3, 4) versus a single FIFO (Fig. 2b, microbursts).
//! Both disciplines share tail-drop admission against a per-port byte budget,
//! which is what produces the microburst loss behaviour of §2.1.

use std::collections::VecDeque;

use crate::packet::{Packet, Priority};

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// Packet accepted and buffered.
    Queued,
    /// Packet dropped (buffer full).
    Dropped,
}

/// Per-queue counters, exposed for traces and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub enqueued_pkts: u64,
    pub dropped_pkts: u64,
    pub(crate) dropped_bytes: u64,
    /// Packets CE-marked by DCTCP-style ECN (FIFO queues only).
    pub ecn_marked_pkts: u64,
    /// High-water mark of buffered bytes — the paper's microbursts are
    /// visible as spikes here.
    pub max_depth_bytes: u64,
}

/// An egress queue discipline. Implementations must conserve bytes:
/// everything enqueued is eventually dequeued or was never admitted.
pub trait Queue: std::fmt::Debug {
    /// Offers a packet; may drop it (tail drop).
    fn enqueue(&mut self, pkt: Packet) -> Enqueue;
    /// Removes the next packet to serialize, if any.
    fn dequeue(&mut self) -> Option<Packet>;
    /// Total buffered bytes (frame bytes).
    fn depth_bytes(&self) -> u64;
    /// Buffered packet count.
    fn len(&self) -> usize;
    /// True when no packet is buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Counter snapshot.
    fn stats(&self) -> QueueStats;
}

/// Single FIFO with tail drop (Fig. 2b configuration) and optional
/// DCTCP-style ECN marking: packets admitted while the instantaneous depth
/// is at or above the threshold get their CE bit set.
#[derive(Debug)]
pub struct FifoQueue {
    capacity_bytes: u64,
    depth_bytes: u64,
    /// Mark CE when depth >= this at enqueue (None = ECN off).
    ecn_threshold_bytes: Option<u64>,
    q: VecDeque<Packet>,
    stats: QueueStats,
}

impl FifoQueue {
    /// Creates a FIFO with the given buffer budget in bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue needs a positive capacity");
        FifoQueue {
            capacity_bytes,
            depth_bytes: 0,
            ecn_threshold_bytes: None,
            q: VecDeque::new(),
            stats: QueueStats::default(),
        }
    }

    /// Enables DCTCP-style marking at `threshold_bytes` of queue depth
    /// (the DCTCP paper's K parameter).
    pub(crate) fn with_ecn(mut self, threshold_bytes: u64) -> Self {
        assert!(threshold_bytes > 0);
        self.ecn_threshold_bytes = Some(threshold_bytes);
        self
    }
}

impl Queue for FifoQueue {
    fn enqueue(&mut self, mut pkt: Packet) -> Enqueue {
        let sz = pkt.frame_bytes();
        if self.depth_bytes + sz > self.capacity_bytes {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += sz;
            return Enqueue::Dropped;
        }
        if let Some(k) = self.ecn_threshold_bytes {
            if self.depth_bytes >= k {
                if let Some(h) = pkt.tcp.as_mut() {
                    h.ce = true;
                }
                self.stats.ecn_marked_pkts += 1;
            }
        }
        self.depth_bytes += sz;
        self.stats.enqueued_pkts += 1;
        self.stats.max_depth_bytes = self.stats.max_depth_bytes.max(self.depth_bytes);
        self.q.push_back(pkt);
        Enqueue::Queued
    }

    fn dequeue(&mut self) -> Option<Packet> {
        let pkt = self.q.pop_front()?;
        self.depth_bytes -= pkt.frame_bytes();
        Some(pkt)
    }

    fn depth_bytes(&self) -> u64 {
        self.depth_bytes
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Strict-priority queue: one FIFO per class sharing a byte budget; higher
/// classes always served first (the Pica8 configuration used in §2.1).
#[derive(Debug)]
pub struct StrictPriorityQueue {
    capacity_bytes: u64,
    depth_bytes: u64,
    classes: Vec<VecDeque<Packet>>,
    stats: QueueStats,
}

impl StrictPriorityQueue {
    /// Creates a strict-priority queue with `num_classes` classes sharing
    /// `capacity_bytes` of buffer.
    pub fn new(capacity_bytes: u64, num_classes: usize) -> Self {
        assert!(capacity_bytes > 0, "queue needs a positive capacity");
        assert!(num_classes >= 1, "need at least one class");
        StrictPriorityQueue {
            capacity_bytes,
            depth_bytes: 0,
            classes: (0..num_classes).map(|_| VecDeque::new()).collect(),
            stats: QueueStats::default(),
        }
    }

    /// With the default three classes of [`Priority::CLASSES`].
    #[cfg(test)]
    pub(crate) fn with_default_classes(capacity_bytes: u64) -> Self {
        Self::new(capacity_bytes, Priority::CLASSES)
    }

    fn class_of(&self, p: Priority) -> usize {
        // Priorities above the provisioned range share the top class.
        (p.0 as usize).min(self.classes.len() - 1)
    }
}

impl Queue for StrictPriorityQueue {
    fn enqueue(&mut self, pkt: Packet) -> Enqueue {
        let sz = pkt.frame_bytes();
        if self.depth_bytes + sz > self.capacity_bytes {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += sz;
            return Enqueue::Dropped;
        }
        let cls = self.class_of(pkt.priority);
        self.depth_bytes += sz;
        self.stats.enqueued_pkts += 1;
        self.stats.max_depth_bytes = self.stats.max_depth_bytes.max(self.depth_bytes);
        self.classes[cls].push_back(pkt);
        Enqueue::Queued
    }

    fn dequeue(&mut self) -> Option<Packet> {
        for cls in self.classes.iter_mut().rev() {
            if let Some(pkt) = cls.pop_front() {
                self.depth_bytes -= pkt.frame_bytes();
                return Some(pkt);
            }
        }
        None
    }

    fn depth_bytes(&self) -> u64 {
        self.depth_bytes
    }

    fn len(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Deficit round robin across priority classes: approximate fair sharing
/// instead of strict starvation. Not used by the paper's experiments (its
/// switches run strict priority or FIFO) but provided as the natural
/// ablation: rerunning the Fig. 2 scenario under DRR shows the contention
/// problems largely disappear — i.e. the paper's problem class is specific
/// to the queueing discipline, which SwitchPointer diagnoses rather than
/// fixes.
#[derive(Debug)]
pub struct DrrQueue {
    capacity_bytes: u64,
    depth_bytes: u64,
    quantum: u64,
    classes: Vec<VecDeque<Packet>>,
    deficits: Vec<u64>,
    /// Next class the scheduler will visit.
    cursor: usize,
    stats: QueueStats,
}

impl DrrQueue {
    /// Creates a DRR queue. `quantum` is the per-round byte allowance of
    /// each class (use roughly one MTU).
    pub fn new(capacity_bytes: u64, num_classes: usize, quantum: u64) -> Self {
        assert!(capacity_bytes > 0, "queue needs a positive capacity");
        assert!(num_classes >= 1, "need at least one class");
        assert!(quantum > 0, "quantum must be positive");
        DrrQueue {
            capacity_bytes,
            depth_bytes: 0,
            quantum,
            classes: (0..num_classes).map(|_| VecDeque::new()).collect(),
            deficits: vec![0; num_classes],
            cursor: 0,
            stats: QueueStats::default(),
        }
    }

    fn class_of(&self, p: Priority) -> usize {
        (p.0 as usize).min(self.classes.len() - 1)
    }
}

impl Queue for DrrQueue {
    fn enqueue(&mut self, pkt: Packet) -> Enqueue {
        let sz = pkt.frame_bytes();
        if self.depth_bytes + sz > self.capacity_bytes {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += sz;
            return Enqueue::Dropped;
        }
        let cls = self.class_of(pkt.priority);
        self.depth_bytes += sz;
        self.stats.enqueued_pkts += 1;
        self.stats.max_depth_bytes = self.stats.max_depth_bytes.max(self.depth_bytes);
        self.classes[cls].push_back(pkt);
        Enqueue::Queued
    }

    fn dequeue(&mut self) -> Option<Packet> {
        if self.depth_bytes == 0 {
            return None;
        }
        // Classic DRR: visit classes round-robin; a class may send while
        // its deficit covers the head packet, topped up by one quantum per
        // visit. Empty classes forfeit their deficit.
        loop {
            let c = self.cursor;
            if self.classes[c].is_empty() {
                self.deficits[c] = 0;
                self.cursor = (c + 1) % self.classes.len();
                continue;
            }
            let head_bytes = self.classes[c].front().map(Packet::frame_bytes).unwrap();
            if self.deficits[c] >= head_bytes {
                self.deficits[c] -= head_bytes;
                self.depth_bytes -= head_bytes;
                return self.classes[c].pop_front();
            }
            self.deficits[c] += self.quantum;
            self.cursor = (c + 1) % self.classes.len();
        }
    }

    fn depth_bytes(&self) -> u64 {
        self.depth_bytes
    }

    fn len(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Queue configuration used by topology builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueConfig {
    /// Single FIFO with the given byte budget.
    Fifo { capacity_bytes: u64 },
    /// Strict priority with the given byte budget and class count.
    StrictPriority { capacity_bytes: u64, classes: usize },
    /// Deficit round robin with the given byte budget, class count and
    /// per-round quantum.
    Drr {
        capacity_bytes: u64,
        classes: usize,
        quantum: u64,
    },
    /// FIFO with DCTCP-style ECN marking at `mark_threshold_bytes`.
    FifoEcn {
        capacity_bytes: u64,
        mark_threshold_bytes: u64,
    },
}

impl QueueConfig {
    /// Default port buffer: 1 MB, in line with shallow-buffered commodity
    /// ToR switches (the Pica8 P-3297 class of device used in the paper).
    pub(crate) const DEFAULT_BUFFER_BYTES: u64 = 1_000_000;

    /// Strict-priority queue with the default buffer and classes.
    pub fn default_priority() -> Self {
        QueueConfig::StrictPriority {
            capacity_bytes: Self::DEFAULT_BUFFER_BYTES,
            classes: Priority::CLASSES,
        }
    }

    /// FIFO queue with the default buffer.
    pub fn default_fifo() -> Self {
        QueueConfig::Fifo {
            capacity_bytes: Self::DEFAULT_BUFFER_BYTES,
        }
    }

    /// Instantiates the discipline.
    pub(crate) fn build(&self) -> Box<dyn Queue> {
        match *self {
            QueueConfig::Fifo { capacity_bytes } => Box::new(FifoQueue::new(capacity_bytes)),
            QueueConfig::StrictPriority {
                capacity_bytes,
                classes,
            } => Box::new(StrictPriorityQueue::new(capacity_bytes, classes)),
            QueueConfig::Drr {
                capacity_bytes,
                classes,
                quantum,
            } => Box::new(DrrQueue::new(capacity_bytes, classes, quantum)),
            QueueConfig::FifoEcn {
                capacity_bytes,
                mark_threshold_bytes,
            } => Box::new(FifoQueue::new(capacity_bytes).with_ecn(mark_threshold_bytes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Protocol};
    use crate::time::SimTime;

    fn pkt(prio: Priority, payload: u32) -> Packet {
        Packet {
            id: 0,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            protocol: Protocol::Udp,
            priority: prio,
            payload,
            tcp: None,
            tags: Vec::new(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn fifo_orders_and_conserves_bytes() {
        let mut q = FifoQueue::new(10_000);
        for i in 0..3u32 {
            let mut p = pkt(Priority::LOW, 100 + i);
            p.id = i as u64;
            assert_eq!(q.enqueue(p), Enqueue::Queued);
        }
        assert_eq!(q.len(), 3);
        let d0 = q.dequeue().unwrap();
        assert_eq!(d0.id, 0);
        assert_eq!(q.depth_bytes(), (100 + 1 + 58) + (100 + 2 + 58));
        q.dequeue();
        q.dequeue();
        assert_eq!(q.depth_bytes(), 0);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn fifo_tail_drops_when_full() {
        let mut q = FifoQueue::new(200);
        assert_eq!(q.enqueue(pkt(Priority::LOW, 100)), Enqueue::Queued); // 158 B
        assert_eq!(q.enqueue(pkt(Priority::LOW, 100)), Enqueue::Dropped);
        assert_eq!(q.stats().dropped_pkts, 1);
        assert_eq!(q.stats().dropped_bytes, 158);
    }

    #[test]
    fn priority_queue_serves_high_first() {
        let mut q = StrictPriorityQueue::with_default_classes(100_000);
        let mut low = pkt(Priority::LOW, 10);
        low.id = 1;
        let mut high = pkt(Priority::HIGH, 10);
        high.id = 2;
        let mut mid = pkt(Priority::MID, 10);
        mid.id = 3;
        q.enqueue(low);
        q.enqueue(high);
        q.enqueue(mid);
        assert_eq!(q.dequeue().unwrap().id, 2);
        assert_eq!(q.dequeue().unwrap().id, 3);
        assert_eq!(q.dequeue().unwrap().id, 1);
    }

    #[test]
    fn priority_queue_within_class_is_fifo() {
        let mut q = StrictPriorityQueue::with_default_classes(100_000);
        for i in 0..5u64 {
            let mut p = pkt(Priority::HIGH, 10);
            p.id = i;
            q.enqueue(p);
        }
        for i in 0..5u64 {
            assert_eq!(q.dequeue().unwrap().id, i);
        }
    }

    #[test]
    fn priority_queue_shares_buffer_across_classes() {
        let mut q = StrictPriorityQueue::with_default_classes(200);
        assert_eq!(q.enqueue(pkt(Priority::LOW, 100)), Enqueue::Queued);
        // Even a HIGH packet is tail-dropped once the shared budget is spent.
        assert_eq!(q.enqueue(pkt(Priority::HIGH, 100)), Enqueue::Dropped);
    }

    #[test]
    fn out_of_range_priority_clamps_to_top_class() {
        let mut q = StrictPriorityQueue::new(100_000, 2);
        let mut p = pkt(Priority(250), 10);
        p.id = 7;
        q.enqueue(p);
        q.enqueue(pkt(Priority(1), 10));
        assert_eq!(q.dequeue().unwrap().id, 7);
    }

    #[test]
    fn high_water_mark_tracks_microburst() {
        let mut q = FifoQueue::new(10_000);
        for _ in 0..10 {
            q.enqueue(pkt(Priority::LOW, 100));
        }
        for _ in 0..10 {
            q.dequeue();
        }
        assert_eq!(q.depth_bytes(), 0);
        assert_eq!(q.stats().max_depth_bytes, 1_580);
    }

    #[test]
    fn drr_shares_between_classes() {
        let mut q = DrrQueue::new(1_000_000, 2, 1_600);
        // 10 low + 10 high packets of equal size.
        for i in 0..10u64 {
            let mut lo = pkt(Priority::LOW, 1000);
            lo.id = i;
            let mut hi = pkt(Priority::HIGH, 1000);
            hi.id = 100 + i;
            q.enqueue(lo);
            q.enqueue(hi);
        }
        // Drain: both classes must appear in the first half of the drain
        // order (no starvation).
        let first_half: Vec<u64> = (0..10).map(|_| q.dequeue().unwrap().id).collect();
        assert!(first_half.iter().any(|&id| id < 100), "low starved");
        assert!(first_half.iter().any(|&id| id >= 100), "high starved");
        // All 20 come out.
        let mut n = 10;
        while q.dequeue().is_some() {
            n += 1;
        }
        assert_eq!(n, 20);
        assert_eq!(q.depth_bytes(), 0);
    }

    #[test]
    fn drr_byte_fairness_with_unequal_sizes() {
        // Class 0 sends big packets, class 1 small ones: byte shares should
        // be roughly equal, so class 1 dequeues ~3x more packets.
        let mut q = DrrQueue::new(10_000_000, 2, 1_500);
        for i in 0..60u64 {
            let mut big = pkt(Priority::LOW, 1_442); // 1500 B frame
            big.id = i;
            q.enqueue(big);
        }
        for i in 0..180u64 {
            let mut small = pkt(Priority::HIGH, 442); // 500 B frame
            small.id = 1_000 + i;
            q.enqueue(small);
        }
        let mut big_bytes = 0u64;
        let mut small_bytes = 0u64;
        for _ in 0..120 {
            let p = q.dequeue().unwrap();
            if p.id < 1_000 {
                big_bytes += p.frame_bytes();
            } else {
                small_bytes += p.frame_bytes();
            }
        }
        let ratio = big_bytes as f64 / small_bytes as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "byte shares diverge: {big_bytes} vs {small_bytes}"
        );
    }

    #[test]
    fn drr_empty_class_forfeits_deficit() {
        let mut q = DrrQueue::new(1_000_000, 3, 1_600);
        let mut p0 = pkt(Priority::LOW, 100);
        p0.id = 1;
        q.enqueue(p0);
        assert_eq!(q.dequeue().unwrap().id, 1);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn config_builds_expected_discipline() {
        let mut f = QueueConfig::default_fifo().build();
        let mut p = QueueConfig::default_priority().build();
        assert_eq!(f.enqueue(pkt(Priority::LOW, 1)), Enqueue::Queued);
        assert_eq!(p.enqueue(pkt(Priority::HIGH, 1)), Enqueue::Queued);
        assert_eq!(f.len(), 1);
        assert_eq!(p.len(), 1);
    }
}
