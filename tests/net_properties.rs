//! `bfc-testkit` properties for `bfc-net`: the egress scheduler against a
//! reference that re-derives pause state from the frame on every look, and
//! shared-buffer accounting and PFC threshold invariants under randomized
//! admit/release sequences.
//!
//! On failure the runner prints the per-case seed; rerun exactly that case
//! with `BFC_TESTKIT_SEED=<seed> cargo test <property_name>`.

use std::collections::VecDeque;

use backpressure_flow_control::net::buffer::SharedBuffer;
use backpressure_flow_control::net::buffer::{pfc_pause_threshold, PFC_RESUME_FRACTION};
use backpressure_flow_control::net::packet::{Packet, PauseFrame, MTU};
use backpressure_flow_control::net::policy::QueueTarget;
use backpressure_flow_control::net::types::{FlowId, NodeId};
use backpressure_flow_control::net::{Link, Port};
use backpressure_flow_control::sim::snapshot::{SnapReader, SnapWriter};
use bfc_testkit::{int_range, property, triple, vec_of};

const NUM_PORTS: usize = 4;

/// One randomized step: which ingress, how many bytes, and whether to admit
/// (0, 1) or release the oldest admitted packet (2).
type Op = (u64, u64, u64);

fn op_gen() -> impl bfc_testkit::Gen<Value = Vec<Op>> {
    vec_of(
        triple(
            int_range(0u64..NUM_PORTS as u64),
            int_range(64u64..3_000),
            int_range(0u64..3),
        ),
        1..400,
    )
}

const PORT_QUEUES: usize = 4;
/// The VFID universe of the scheduler property: few enough that a random
/// pause frame pauses a good share of the heads.
const VFIDS: [u32; 6] = [3, 17, 101, 4_242, 9_001, 16_000];

fn test_port() -> Port {
    Port::new(Link::datacenter_default(), Some((NodeId(9), 0)), PORT_QUEUES)
}

/// The egress scheduler written the slow, obviously-right way: strict
/// priority, then deficit round robin over the backlogged queues, asking the
/// pause frame about a queue's head (`PauseFrame::contains`, i.e. re-hashing
/// the VFID) every time the scheduler looks at it. `Port` must dequeue in
/// exactly this order while answering the same question from a cached flag.
struct ReferenceScheduler {
    control: VecDeque<(u64, u32, u32)>,
    high_priority: VecDeque<(u64, u32, u32)>,
    /// Physical queues, then the overflow queue at index `PORT_QUEUES`;
    /// entries are `(packet id, vfid, size)`.
    drr: Vec<VecDeque<(u64, u32, u32)>>,
    deficit: Vec<u64>,
    active: VecDeque<usize>,
    credited: bool,
    frame: Option<PauseFrame>,
}

impl ReferenceScheduler {
    fn new() -> Self {
        ReferenceScheduler {
            control: VecDeque::new(),
            high_priority: VecDeque::new(),
            drr: vec![VecDeque::new(); PORT_QUEUES + 1],
            deficit: vec![0; PORT_QUEUES + 1],
            active: VecDeque::new(),
            credited: false,
            frame: None,
        }
    }

    fn enqueue(&mut self, target: QueueTarget, pkt: (u64, u32, u32)) {
        let i = match target {
            QueueTarget::Control => return self.control.push_back(pkt),
            QueueTarget::HighPriority => return self.high_priority.push_back(pkt),
            QueueTarget::Overflow => PORT_QUEUES,
            QueueTarget::Phys(i) => i,
        };
        self.drr[i].push_back(pkt);
        if !self.active.contains(&i) {
            self.active.push_back(i);
        }
    }

    fn paused(&self, i: usize) -> bool {
        i != PORT_QUEUES
            && match (&self.frame, self.drr[i].front()) {
                (Some(frame), Some(&(_, vfid, _))) => frame.contains(vfid),
                _ => false,
            }
    }

    fn rotate(&mut self) {
        if let Some(i) = self.active.pop_front() {
            self.active.push_back(i);
        }
        self.credited = false;
    }

    fn deactivate_front(&mut self, i: usize) {
        self.deficit[i] = 0;
        self.active.pop_front();
        self.credited = false;
    }

    fn dequeue(&mut self) -> Option<(u64, QueueTarget)> {
        if let Some((id, _, _)) = self.control.pop_front() {
            return Some((id, QueueTarget::Control));
        }
        if let Some((id, _, _)) = self.high_priority.pop_front() {
            return Some((id, QueueTarget::HighPriority));
        }
        let mut scanned = 0;
        let limit = 2 * self.active.len() + 1;
        while scanned < limit {
            let &i = self.active.front()?;
            if self.drr[i].is_empty() {
                self.deactivate_front(i);
                continue;
            }
            if self.paused(i) {
                self.deficit[i] = 0;
                self.rotate();
                scanned += 1;
                continue;
            }
            if !self.credited {
                self.deficit[i] += MTU as u64;
                self.credited = true;
            }
            let size = self.drr[i].front().expect("non-empty").2 as u64;
            if self.deficit[i] >= size {
                let (id, _, _) = self.drr[i].pop_front().expect("non-empty");
                self.deficit[i] -= size;
                if self.drr[i].is_empty() {
                    self.deactivate_front(i);
                } else if self.paused(i) {
                    self.rotate();
                }
                let target = if i == PORT_QUEUES {
                    QueueTarget::Overflow
                } else {
                    QueueTarget::Phys(i)
                };
                return Some((id, target));
            }
            self.rotate();
            scanned += 1;
        }
        None
    }

    /// Everything queued, in `Port::flush_all` order; resets the scheduler.
    fn flush(&mut self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.control.drain(..).map(|p| p.0).collect();
        ids.extend(self.high_priority.drain(..).map(|p| p.0));
        ids.extend(self.drr[PORT_QUEUES].drain(..).map(|p| p.0));
        for q in &mut self.drr[..PORT_QUEUES] {
            ids.extend(q.drain(..).map(|p| p.0));
        }
        self.active.clear();
        self.deficit.fill(0);
        self.credited = false;
        ids
    }
}

property! {
    /// `Port`'s O(1) pause checks (a per-queue flag refreshed on head changes
    /// and frame installs) schedule exactly like a scheduler that re-hashes
    /// every head against the frame on every look — across enqueues to every
    /// queue class, dequeues, pause-frame installs (none, all-zero, every
    /// VFID, random subsets), link-down flushes and snapshot/restore round
    /// trips — and its O(1) readers (`active_queue_count`,
    /// `occupied_queue_count`, `data_queued_bytes`, `has_backlog`,
    /// `has_eligible`) agree with the model after every step. The model
    /// keeps the literal 2n+1-visit loop, so the port's closed-form
    /// all-paused pick, and the rotation and deficits it leaves behind, are
    /// checked by every later dequeue.
    fn port_dequeue_order_matches_rehashing_scheduler(ops in vec_of(
        triple(int_range(0u64..12), int_range(0u64..64), int_range(0u64..1_000)),
        1..300,
    )) {
        let mut port = test_port();
        let mut model = ReferenceScheduler::new();
        let mut next_id = 0u64;
        let dequeue_both = |port: &mut Port, model: &mut ReferenceScheduler| {
            let got = port.dequeue_next().map(|(qp, target)| {
                // BFC's safety property, in release builds too: nothing
                // leaves a physical queue the installed frame pauses.
                if let (QueueTarget::Phys(_), Some(frame)) = (target, port.pause_frame()) {
                    assert!(!frame.contains(qp.packet.vfid), "transmitted from a paused queue");
                }
                (qp.packet.seq, target)
            });
            assert_eq!(got, model.dequeue(), "dequeue order diverged");
            got.is_some()
        };
        for &(kind, a, b) in &ops {
            match kind {
                0..=4 => {
                    let target = match (kind, a % 3) {
                        (0..=3, _) => QueueTarget::Phys(a as usize % PORT_QUEUES),
                        (_, 0) => QueueTarget::Overflow,
                        (_, 1) => QueueTarget::HighPriority,
                        _ => QueueTarget::Control,
                    };
                    let vfid = VFIDS[b as usize % VFIDS.len()];
                    let size = 100 + (b as u32 * 37) % 1_400;
                    let pkt = Packet::data(FlowId(vfid), NodeId(0), NodeId(1), next_id, size, vfid, false);
                    port.enqueue(target, pkt, 0);
                    model.enqueue(target, (next_id, vfid, size));
                    next_id += 1;
                }
                5..=8 => {
                    dequeue_both(&mut port, &mut model);
                }
                9 | 10 => {
                    let frame = match a % 5 {
                        0 => None,
                        1 => Some(PauseFrame::new(128)),
                        // Every VFID: the picks that follow find nothing
                        // eligible unless the overflow queue, control or
                        // high priority holds a packet.
                        2 => {
                            let mut f = PauseFrame::new(16);
                            VFIDS.iter().for_each(|&vfid| f.insert(vfid));
                            Some(f)
                        }
                        _ => {
                            let mut f = PauseFrame::new(16);
                            for (bit, &vfid) in VFIDS.iter().enumerate() {
                                if b >> bit & 1 == 1 {
                                    f.insert(vfid);
                                }
                            }
                            Some(f)
                        }
                    };
                    port.set_pause_frame(frame);
                    model.frame = frame;
                }
                _ if a % 4 == 0 => {
                    let flushed: Vec<u64> =
                        port.flush_all().iter().map(|(qp, _)| qp.packet.seq).collect();
                    assert_eq!(flushed, model.flush());
                }
                _ => {
                    let mut w = SnapWriter::new();
                    port.save_state(&mut w);
                    let bytes = w.into_bytes();
                    port = test_port();
                    let mut r = SnapReader::new(&bytes);
                    port.restore_state(&mut r).expect("own snapshot restores");
                    r.expect_end().expect("snapshot fully consumed");
                }
            }
            let paused_heads = (0..PORT_QUEUES).filter(|&i| model.paused(i)).count();
            let backlogged = (0..PORT_QUEUES).filter(|&i| !model.drr[i].is_empty()).count();
            assert_eq!(
                port.active_queue_count(),
                backlogged - paused_heads
                    + usize::from(!model.high_priority.is_empty())
                    + usize::from(!model.drr[PORT_QUEUES].is_empty()),
            );
            assert_eq!(port.occupied_queue_count(), backlogged);
            let data_plane = model.drr.iter().chain([&model.high_priority]);
            assert_eq!(
                port.data_queued_bytes(),
                data_plane.flatten().map(|&(_, _, size)| u64::from(size)).sum::<u64>(),
            );
            let priority = !model.control.is_empty() || !model.high_priority.is_empty();
            assert_eq!(port.has_backlog(), priority || !model.active.is_empty());
            assert_eq!(
                port.has_eligible(),
                priority || model.active.iter().any(|&i| !model.paused(i)),
                "could-transmit-now disagrees with the model",
            );
        }
        // Drain whatever the final frame lets through.
        while dequeue_both(&mut port, &mut model) {}
    }

    /// Shared-buffer accounting never goes negative, never exceeds the
    /// capacity, and the per-ingress occupancies always sum to the switch
    /// total (the buffer is fully attributed to ingress ports).
    fn shared_buffer_accounting_is_exact(ops in op_gen()) {
        let capacity = 64_000u64;
        let mut buffer = SharedBuffer::new(capacity, NUM_PORTS);
        // Model: the admitted packets still held, per ingress, FIFO.
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); NUM_PORTS];

        for &(ingress, bytes, action) in &ops {
            let (ingress, bytes) = (ingress as u32, bytes as u32);
            if action < 2 {
                let fits = buffer.occupancy() + bytes as u64 <= capacity;
                let admitted = buffer.admit(bytes, ingress);
                assert_eq!(admitted, fits, "admit must succeed exactly when the packet fits");
                if admitted {
                    held[ingress as usize].push(bytes as u64);
                }
            } else if let Some(bytes) = held[ingress as usize].first().copied() {
                held[ingress as usize].remove(0);
                buffer.release(bytes as u32, ingress);
            }

            // Invariants after every step.
            let model_total: u64 = held.iter().flatten().sum();
            assert_eq!(buffer.occupancy(), model_total, "occupancy mirrors the held packets");
            assert!(buffer.occupancy() <= capacity, "occupancy never exceeds capacity");
            assert_eq!(buffer.free(), capacity - buffer.occupancy());
            let per_ingress_sum: u64 = (0..NUM_PORTS as u32)
                .map(|i| buffer.ingress_occupancy(i))
                .sum();
            assert_eq!(
                per_ingress_sum,
                buffer.occupancy(),
                "per-ingress occupancies must sum to the switch total"
            );
            for (i, packets) in held.iter().enumerate() {
                assert_eq!(
                    buffer.ingress_occupancy(i as u32),
                    packets.iter().sum::<u64>(),
                    "ingress {i} accounting must match its held packets"
                );
            }
        }
    }

    /// The dynamic PFC threshold is honored: a pause transition happens
    /// exactly when an unpaused ingress exceeds the threshold, a resume
    /// exactly when a paused ingress falls below the resume fraction of it,
    /// and nothing otherwise.
    fn pfc_pause_thresholds_are_honored(ops in op_gen()) {
        let capacity = 48_000u64;
        let mut buffer = SharedBuffer::new(capacity, NUM_PORTS);
        let mut held: Vec<Vec<u64>> = vec![Vec::new(); NUM_PORTS];

        for &(ingress, bytes, action) in &ops {
            let (ingress, bytes) = (ingress as u32, bytes as u32);
            if action < 2 {
                if buffer.admit(bytes, ingress) {
                    held[ingress as usize].push(bytes as u64);
                }
            } else if let Some(bytes) = held[ingress as usize].first().copied() {
                held[ingress as usize].remove(0);
                buffer.release(bytes as u32, ingress);
            }

            // Evaluate the documented transition rule for the touched port.
            let threshold = pfc_pause_threshold(buffer.free());
            let occupancy = buffer.ingress_occupancy(ingress);
            let was_paused = buffer.upstream_paused(ingress);
            let transition = buffer.pfc_transition(ingress, true);
            match transition {
                Some(true) => {
                    assert!(!was_paused, "pause only fires from the unpaused state");
                    assert!(
                        occupancy > threshold,
                        "pause requires occupancy {occupancy} > threshold {threshold}"
                    );
                    assert!(buffer.upstream_paused(ingress));
                }
                Some(false) => {
                    assert!(was_paused, "resume only fires from the paused state");
                    assert!(
                        (occupancy as f64) < PFC_RESUME_FRACTION * threshold as f64,
                        "resume requires occupancy below the resume fraction"
                    );
                    assert!(!buffer.upstream_paused(ingress));
                }
                None => {
                    assert_eq!(
                        buffer.upstream_paused(ingress),
                        was_paused,
                        "no transition must not change the pause state"
                    );
                    if !was_paused {
                        assert!(occupancy <= threshold, "unpaused above threshold must pause");
                    } else {
                        assert!(
                            (occupancy as f64) >= PFC_RESUME_FRACTION * threshold as f64,
                            "paused below the resume point must resume"
                        );
                    }
                }
            }
        }
    }

    /// A disabled PFC never produces transitions no matter the load.
    fn disabled_pfc_never_transitions(ops in op_gen()) {
        let mut buffer = SharedBuffer::new(16_000, NUM_PORTS);
        for &(ingress, bytes, _) in &ops {
            let ingress = ingress as u32;
            buffer.admit(bytes as u32, ingress);
            assert_eq!(buffer.pfc_transition(ingress, false), None);
            assert!(!buffer.upstream_paused(ingress));
        }
    }
}
