//! Deterministic fault injection for the simulated network.
//!
//! The paper's protocols make purely local, per-vertex decisions, which
//! should make them naturally tolerant to partial communication — this
//! module exists to *test* that claim instead of assuming it. A
//! [`FaultPlan`] is a pure function from a `u64` seed and a set of rates
//! to per-round fault decisions: message drops, duplications, within-round
//! inbox reorderings, and node crash/recover windows. Every pipeline runs
//! its plan on [`ShardedNetwork`](crate::ShardedNetwork);
//! [`FaultyNetwork`] is the same [`Net`] round written as one sequential
//! loop — the reference the differential tests hold the sharded engine
//! to, at every thread count.
//!
//! Design rules:
//!
//! * **Determinism.** Every fault decision is a hash of
//!   `(plan seed, kind, round, slot-or-node)` — two runs with the same
//!   `(algorithm seed, plan)` pair produce identical outputs, metrics,
//!   and fault counters. No global RNG, no iteration-order dependence.
//! * **Zero-fault transparency.** A [`FaultPlan::none`] plan with the
//!   default (disabled) [`ResilienceParams`] is a perfect network: same
//!   inboxes in the same order and same [`Metrics`] as the sharded
//!   engine's fault-free path, zero fault counters. Pinned by tests.
//! * **Honest accounting.** Sends are counted when the sender is up,
//!   whether or not delivery succeeds; ack/retry traffic from the
//!   resilience layer is charged as real rounds, messages, and bits.
//!
//! What the fault model does and does not promise is documented in
//! DESIGN.md §7 ("Fault model").

use crate::metrics::Metrics;
use crate::network::{Incoming, Net, Outgoing, PortTables};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::fault_hash::{hash3, mix, threshold};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_obs::{keys, WorkMeter};

/// Per-kind fault probabilities, each in `[0, 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultRates {
    /// Probability that a message in transit is dropped.
    pub drop: f64,
    /// Probability that a delivered message is delivered twice.
    pub duplicate: f64,
    /// Probability that a node's inbox is shuffled within a round.
    pub reorder: f64,
    /// Probability that a node is down for a given crash window.
    pub crash: f64,
}

impl FaultRates {
    fn validate(&self) {
        for (name, r) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("crash", self.crash),
        ] {
            assert!(
                r.is_finite() && (0.0..=1.0).contains(&r),
                "fault rate {name} = {r} must be a probability in [0, 1]"
            );
        }
    }
}

/// Configuration of the per-edge ack + bounded-retry resilience layer.
///
/// With `max_retries == 0` (the default) the layer is off: one physical
/// round per logical [`Net::exchange`], losses are final. With
/// `max_retries == k > 0`, each logical exchange runs up to `1 + k`
/// send attempts, every attempt followed by an explicit ack round:
/// receivers ack each delivery along the reverse edge, senders retransmit
/// messages whose ack never arrived. Acks travel the same faulty links,
/// so a lost ack causes a (counted) duplicate delivery — the classic
/// at-least-once tradeoff. The round budget is therefore bounded by
/// `2·(1 + max_retries)` physical rounds per logical round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilienceParams {
    /// Retransmission attempts after the first send (0 disables the layer).
    pub max_retries: u32,
    /// Payload bits charged per ack message.
    pub ack_bits: u64,
}

impl ResilienceParams {
    /// Resilience disabled: one send, losses are final.
    pub fn off() -> Self {
        ResilienceParams {
            max_retries: 0,
            ack_bits: 1,
        }
    }

    /// Ack + retry with the given retransmission budget and 1-bit acks.
    pub fn retry(max_retries: u32) -> Self {
        ResilienceParams {
            max_retries,
            ack_bits: 1,
        }
    }

    /// Is the ack/retry protocol active?
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }
}

impl Default for ResilienceParams {
    fn default() -> Self {
        ResilienceParams::off()
    }
}

/// Fault counters accumulated by a transport running a [`FaultPlan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost: link drops plus messages suppressed or discarded
    /// because an endpoint was crashed (acks included).
    pub dropped: u64,
    /// Extra deliveries: injected duplications plus ack-loss retransmits
    /// that re-delivered an already-delivered message.
    pub duplicated: u64,
    /// Retransmissions performed by the resilience layer.
    pub retries: u64,
    /// Node-rounds spent crashed, summed over nodes and physical rounds.
    pub crashed_rounds: u64,
}

impl FaultStats {
    /// Merge another record into this one (all fields add).
    pub fn absorb(&mut self, other: FaultStats) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.retries += other.retries;
        self.crashed_rounds += other.crashed_rounds;
    }

    /// Mirror into the unified [`WorkMeter`] accounting.
    pub fn mirror_into(&self, meter: &mut WorkMeter) {
        meter.add(keys::FAULTS_DROPPED, self.dropped);
        meter.add(keys::FAULTS_DUPLICATED, self.duplicated);
        meter.add(keys::FAULTS_RETRIES, self.retries);
        meter.add(keys::FAULTS_CRASHED_ROUNDS, self.crashed_rounds);
    }
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} dropped, {} duplicated, {} retries, {} crashed node-rounds",
            self.dropped, self.duplicated, self.retries, self.crashed_rounds
        )
    }
}

const DROP_SALT: u64 = 0xD20F;
const DUP_SALT: u64 = 0xD0B1;
const REORDER_SALT: u64 = 0x5EED;
const CRASH_SALT: u64 = 0xC5A5;

/// A deterministic schedule of faults, built from a seed and rates.
///
/// All decisions are exposed as pure queries so tests (and the sweep
/// experiment) can inspect the schedule without running a network.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    drop: u128,
    duplicate: u128,
    reorder: u128,
    crash: u128,
    /// Length of one crash window in rounds: a node is down or up for a
    /// whole window, redrawing at every window boundary (crash/recover).
    crash_period: u64,
    /// Faults are injected only in physical rounds `1..=horizon`; later
    /// rounds deliver perfectly. A finite horizon models a bounded
    /// disruption and guarantees the retry layer eventually wins.
    horizon: u64,
    /// Nodes that are down in every round, horizon or not (sorted).
    perm_crashed: Vec<u32>,
}

impl FaultPlan {
    /// The empty plan: no faults, ever — a perfect network.
    pub fn none() -> Self {
        FaultPlan::new(0, FaultRates::default())
    }

    /// Build a plan from a seed and rates. Faults apply at every round
    /// (`horizon = u64::MAX`) until bounded via [`FaultPlan::with_horizon`].
    ///
    /// # Panics
    /// Panics if any rate is not a probability in `[0, 1]` — plans are
    /// constructed programmatically; the CLI validates rates into typed
    /// errors before reaching this point.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        rates.validate();
        FaultPlan {
            seed,
            drop: threshold(rates.drop),
            duplicate: threshold(rates.duplicate),
            reorder: threshold(rates.reorder),
            crash: threshold(rates.crash),
            crash_period: 8,
            horizon: u64::MAX,
            perm_crashed: Vec::new(),
        }
    }

    /// Restrict fault injection to physical rounds `1..=horizon`.
    /// Permanently crashed nodes stay down regardless.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Set the crash window length (default 8 rounds; must be nonzero).
    pub fn with_crash_period(mut self, period: u64) -> Self {
        assert!(period > 0, "crash period must be nonzero");
        self.crash_period = period;
        self
    }

    /// Mark nodes as crashed for the whole run (never recover).
    pub fn with_crashed_nodes(mut self, nodes: impl IntoIterator<Item = u32>) -> Self {
        self.perm_crashed.extend(nodes);
        self.perm_crashed.sort_unstable();
        self.perm_crashed.dedup();
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Does this plan inject no faults at all?
    pub fn is_zero_fault(&self) -> bool {
        self.drop == 0
            && self.duplicate == 0
            && self.reorder == 0
            && self.crash == 0
            && self.perm_crashed.is_empty()
    }

    /// Can this plan ever take a node down?
    pub fn has_crashes(&self) -> bool {
        self.crash != 0 || !self.perm_crashed.is_empty()
    }

    /// Nodes that never come up under this plan.
    pub fn permanently_crashed(&self) -> &[u32] {
        &self.perm_crashed
    }

    #[inline]
    fn chance(&self, salt: u64, a: u64, b: u64, threshold: u128) -> bool {
        threshold != 0 && (hash3(self.seed, salt, a, b) as u128) < threshold
    }

    /// Is `node` down during physical round `round` (1-based)?
    pub fn is_down(&self, node: u32, round: u64) -> bool {
        if self.perm_crashed.binary_search(&node).is_ok() {
            return true;
        }
        round <= self.horizon
            && self.chance(
                CRASH_SALT,
                node as u64,
                (round - 1) / self.crash_period,
                self.crash,
            )
    }

    /// Is the message on half-edge `slot` dropped in `round`?
    pub fn message_dropped(&self, round: u64, slot: u64) -> bool {
        round <= self.horizon && self.chance(DROP_SALT, round, slot, self.drop)
    }

    /// Is the message on half-edge `slot` duplicated in `round`?
    pub fn message_duplicated(&self, round: u64, slot: u64) -> bool {
        round <= self.horizon && self.chance(DUP_SALT, round, slot, self.duplicate)
    }

    /// Shuffle `node`'s inbox for the logical round starting at physical
    /// round `round`, if the plan says so (deterministic Fisher–Yates).
    pub fn maybe_shuffle<T>(&self, round: u64, node: u32, items: &mut [T]) {
        if items.len() < 2
            || round > self.horizon
            || !self.chance(REORDER_SALT, round, node as u64, self.reorder)
        {
            return;
        }
        let mut state = hash3(self.seed, REORDER_SALT ^ 0xFF, round, node as u64);
        for i in (1..items.len()).rev() {
            state = mix(state);
            let j = (state % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The sequential reference transport: a [`Net`] that injects the faults
/// of a [`FaultPlan`] and optionally runs the ack/retry resilience
/// protocol of [`ResilienceParams`] under every logical exchange, in one
/// plain loop over the senders.
///
/// No pipeline builds it. It exists so the differential tests (and the
/// `distsim` oracle of the check harness) can demand that
/// [`ShardedNetwork`](crate::ShardedNetwork) reproduce it exactly —
/// inboxes, [`Metrics`], and [`FaultStats`] — at every thread count, with
/// [`FaultPlan::none`] as the perfect-network reference.
pub struct FaultyNetwork<'g> {
    ports: PortTables<'g>,
    plan: FaultPlan,
    resilience: ResilienceParams,
    metrics: Metrics,
    faults: FaultStats,
}

pub(crate) struct Pending<M> {
    pub(crate) sender: VertexId,
    pub(crate) dest: VertexId,
    pub(crate) in_port: usize,
    pub(crate) slot: u64,
    pub(crate) back_slot: u64,
    /// `Some` until the payload is moved to its receiver. The resilience
    /// layer retains the payload (cloning per delivery) so it can
    /// retransmit; without resilience the single delivery takes it.
    pub(crate) payload: Option<M>,
    pub(crate) bits: u64,
    pub(crate) deliveries: u32,
    pub(crate) acked: bool,
}

impl<M: Clone> Pending<M> {
    /// Hand out the payload for one delivery. Retaining transports clone
    /// (and say so via the returned flag); the final delivery moves.
    pub(crate) fn payload_for_delivery(&mut self, retain: bool) -> (M, bool) {
        if retain {
            (self.payload.clone().expect("payload retained"), true)
        } else {
            (self.payload.take().expect("payload delivered once"), false)
        }
    }
}

impl<'g> FaultyNetwork<'g> {
    /// Wrap a topology with a fault plan; resilience off.
    pub fn new(graph: &'g CsrGraph, plan: FaultPlan) -> Self {
        FaultyNetwork::with_resilience(graph, plan, ResilienceParams::off())
    }

    /// Wrap a topology with a fault plan and a resilience configuration.
    pub fn with_resilience(
        graph: &'g CsrGraph,
        plan: FaultPlan,
        resilience: ResilienceParams,
    ) -> Self {
        FaultyNetwork {
            ports: PortTables::new(graph),
            plan,
            resilience,
            metrics: Metrics::new(),
            faults: FaultStats::default(),
        }
    }

    /// The fault plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The resilience configuration in force.
    pub fn resilience(&self) -> ResilienceParams {
        self.resilience
    }

    /// Fault counters accumulated so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Communication metrics accumulated so far (inherent mirror of the
    /// trait method, so concrete holders need no trait import).
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    fn account_crashes(&mut self, round: u64) {
        let n = self.ports.graph().num_vertices() as u32;
        self.faults.crashed_rounds += crashed_count(&self.plan, n, round);
    }
}

impl<'g> Net<'g> for FaultyNetwork<'g> {
    fn graph(&self) -> &'g CsrGraph {
        self.ports.graph()
    }

    fn metrics(&self) -> Metrics {
        self.metrics
    }

    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        let graph = self.ports.graph();
        let n = graph.num_vertices();
        assert_eq!(outboxes.len(), n);
        // Flatten in (sender, outbox-order) — the order a perfect round
        // delivers in, so the zero-fault path is byte-identical.
        let mut pending: Vec<Pending<M>> = Vec::new();
        for (v, outbox) in outboxes.into_iter().enumerate() {
            let v = VertexId::new(v);
            for (port, payload, bits) in outbox {
                assert!(port < graph.degree(v), "port out of range");
                let dest = graph.neighbor(v, port);
                let in_port = self.ports.in_port(v, port);
                pending.push(Pending {
                    sender: v,
                    dest,
                    in_port,
                    slot: self.ports.slot_of(v, port) as u64,
                    back_slot: self.ports.slot_of(dest, in_port) as u64,
                    payload: Some(payload),
                    bits,
                    deliveries: 0,
                    acked: false,
                });
            }
        }

        let logical_round = self.metrics.rounds + 1;
        let mut inboxes: Vec<Vec<Incoming<M>>> = vec![Vec::new(); n];
        let attempts = 1 + if self.resilience.enabled() {
            self.resilience.max_retries
        } else {
            0
        };
        for attempt in 0..attempts {
            if attempt > 0 {
                let outstanding = pending.iter().filter(|m| !m.acked).count() as u64;
                if outstanding == 0 {
                    break;
                }
                self.faults.retries += outstanding;
            }
            // Send round.
            self.metrics.rounds += 1;
            let round = self.metrics.rounds;
            self.account_crashes(round);
            let mut delivered_now: Vec<usize> = Vec::new();
            for (i, msg) in pending.iter_mut().enumerate() {
                if msg.acked {
                    continue;
                }
                if self.plan.is_down(msg.sender.0, round) {
                    // A crashed node sends nothing; the message is lost
                    // unless a later retry finds the node back up.
                    self.faults.dropped += 1;
                    continue;
                }
                self.metrics.messages += 1;
                self.metrics.bits += msg.bits;
                self.metrics.max_message_bits = self.metrics.max_message_bits.max(msg.bits);
                if self.plan.is_down(msg.dest.0, round)
                    || self.plan.message_dropped(round, msg.slot)
                {
                    self.faults.dropped += 1;
                    continue;
                }
                let dup = self.plan.message_duplicated(round, msg.slot);
                // Retain the payload whenever another delivery may still
                // need it: a retransmit (resilience) or the dup below.
                let (payload, cloned) = msg.payload_for_delivery(self.resilience.enabled() || dup);
                self.metrics.messages_cloned += cloned as u64;
                inboxes[msg.dest.index()].push((msg.in_port, payload));
                if msg.deliveries > 0 {
                    // Ack-loss retransmit: the receiver sees it twice.
                    self.faults.duplicated += 1;
                }
                msg.deliveries += 1;
                if dup {
                    let (payload, cloned) = msg.payload_for_delivery(self.resilience.enabled());
                    self.metrics.messages_cloned += cloned as u64;
                    inboxes[msg.dest.index()].push((msg.in_port, payload));
                    msg.deliveries += 1;
                    self.faults.duplicated += 1;
                }
                delivered_now.push(i);
            }
            if !self.resilience.enabled() {
                break;
            }
            // Ack round: each delivery is acked along the reverse edge;
            // acks travel the same faulty links.
            self.metrics.rounds += 1;
            let ack_round = self.metrics.rounds;
            self.account_crashes(ack_round);
            for i in delivered_now {
                let msg = &mut pending[i];
                if self.plan.is_down(msg.dest.0, ack_round) {
                    continue; // acker is down: no ack was sent at all
                }
                self.metrics.messages += 1;
                self.metrics.bits += self.resilience.ack_bits;
                self.metrics.max_message_bits =
                    self.metrics.max_message_bits.max(self.resilience.ack_bits);
                if self.plan.is_down(msg.sender.0, ack_round)
                    || self.plan.message_dropped(ack_round, msg.back_slot)
                {
                    self.faults.dropped += 1;
                    continue;
                }
                msg.acked = true;
            }
            if pending.iter().all(|m| m.acked) {
                break;
            }
        }
        // Within-round reordering, keyed by the logical round so retries
        // do not change which inboxes get shuffled.
        for (v, inbox) in inboxes.iter_mut().enumerate() {
            self.plan.maybe_shuffle(logical_round, v as u32, inbox);
        }
        inboxes
    }

    fn charge_gather(&mut self, radius: usize, bits_per_message: u64) {
        charge_gather(
            self.ports.graph(),
            &self.plan,
            &mut self.metrics,
            &mut self.faults,
            radius,
            bits_per_message,
        );
    }

    fn record_clones(&mut self, count: u64) {
        self.metrics.messages_cloned += count;
    }

    fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId> {
        crash_aware_ball(
            self.ports.graph(),
            &self.plan,
            self.metrics.rounds,
            v,
            radius,
        )
    }

    fn lossless(&self) -> bool {
        self.plan.is_zero_fault()
    }
}

/// Node-rounds spent crashed in physical round `round` (`n` nodes).
pub(crate) fn crashed_count(plan: &FaultPlan, n: u32, round: u64) -> u64 {
    if !plan.has_crashes() {
        return 0;
    }
    (0..n).filter(|&v| plan.is_down(v, round)).count() as u64
}

/// [`Net::charge_gather`] for both transports: `radius` rounds (each with
/// its crash accounting) carrying `radius · 2m` messages. Gathers are bulk
/// transfers read off the master graph; the fault model reflects crashes
/// by shrinking the balls (see [`crash_aware_ball`]), not by corrupting
/// their content.
pub(crate) fn charge_gather(
    g: &CsrGraph,
    plan: &FaultPlan,
    metrics: &mut Metrics,
    faults: &mut FaultStats,
    radius: usize,
    bits_per_message: u64,
) {
    let m2 = 2 * g.num_edges() as u64;
    let n = g.num_vertices() as u32;
    for _ in 0..radius {
        metrics.rounds += 1;
        faults.crashed_rounds += crashed_count(plan, n, metrics.rounds);
    }
    metrics.messages += radius as u64 * m2;
    metrics.bits += radius as u64 * m2 * bits_per_message;
    metrics.max_message_bits = metrics.max_message_bits.max(bits_per_message);
}

/// [`Net::ball`] for both transports: the vertices within distance
/// `radius` of `v`, in BFS order, as a gather ending at physical round
/// `round` delivers them. Crashed nodes neither forward nor reply, so they
/// (and everything reachable only through them) are absent; a down origin
/// knows only itself. Under a crash-free plan this is the plain ball.
pub(crate) fn crash_aware_ball(
    g: &CsrGraph,
    plan: &FaultPlan,
    round: u64,
    v: VertexId,
    radius: usize,
) -> Vec<VertexId> {
    // Before the first round, ask about round 1.
    let round = round.max(1);
    let mut out = vec![v];
    if plan.is_down(v.0, round) {
        return out; // a down node knows only itself
    }
    let mut dist = std::collections::HashMap::new();
    dist.insert(v, 0usize);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(v);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        if du == radius {
            continue;
        }
        for w in g.neighbors(u) {
            if plan.is_down(w.0, round) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(du + 1);
                out.push(w);
                queue.push_back(w);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsimatch_graph::generators::{clique, path, star};

    fn all_broadcast(n: usize, g: &CsrGraph) -> Vec<Vec<Outgoing<u32>>> {
        (0..n)
            .map(|v| {
                let vid = VertexId::new(v);
                (0..g.degree(vid)).map(|p| (p, v as u32, 8u64)).collect()
            })
            .collect()
    }

    #[test]
    fn drop_rate_one_loses_everything_without_resilience() {
        let g = star(5);
        let rates = FaultRates {
            drop: 1.0,
            ..Default::default()
        };
        let mut net = FaultyNetwork::new(&g, FaultPlan::new(3, rates));
        let inboxes = Net::exchange(&mut net, all_broadcast(5, &g));
        assert!(inboxes.iter().all(|i| i.is_empty()));
        // Sends are still counted: the work happened, delivery failed.
        assert_eq!(Net::metrics(&net).messages, 8);
        assert_eq!(net.fault_stats().dropped, 8);
        assert!(!Net::lossless(&net));
    }

    #[test]
    fn retry_past_the_horizon_recovers_every_message() {
        // drop = 1 inside the horizon, perfect after: attempt 1 (round 1)
        // loses all 8 messages, attempt 2 (round 3) delivers and acks all.
        let g = star(5);
        let rates = FaultRates {
            drop: 1.0,
            ..Default::default()
        };
        let plan = FaultPlan::new(7, rates).with_horizon(1);
        let mut net = FaultyNetwork::with_resilience(&g, plan, ResilienceParams::retry(2));
        let inboxes = Net::exchange(&mut net, all_broadcast(5, &g));
        let delivered: usize = inboxes.iter().map(|i| i.len()).sum();
        assert_eq!(delivered, 8, "all messages recovered by the retry");
        let stats = net.fault_stats();
        assert_eq!(stats.dropped, 8, "first attempt lost all 8");
        assert_eq!(stats.retries, 8, "all 8 retransmitted once");
        assert_eq!(stats.duplicated, 0);
        // Rounds: send + ack, retry send + ack.
        assert_eq!(Net::metrics(&net).rounds, 4);
    }

    #[test]
    fn duplication_rate_one_doubles_every_delivery() {
        let g = path(3);
        let rates = FaultRates {
            duplicate: 1.0,
            ..Default::default()
        };
        let mut net = FaultyNetwork::new(&g, FaultPlan::new(1, rates));
        let inboxes = Net::exchange(&mut net, all_broadcast(3, &g));
        let delivered: usize = inboxes.iter().map(|i| i.len()).sum();
        assert_eq!(delivered, 8, "4 half-edge messages, each doubled");
        assert_eq!(net.fault_stats().duplicated, 4);
        // Duplicates carry the same in-port and payload.
        assert_eq!(inboxes[0].len(), 2);
        assert_eq!(inboxes[0][0], inboxes[0][1]);
    }

    #[test]
    fn permanently_crashed_nodes_neither_send_nor_receive() {
        let g = star(4); // center 0, leaves 1..=3
        let plan = FaultPlan::none().with_crashed_nodes([1]);
        let mut net = FaultyNetwork::new(&g, plan);
        let inboxes = Net::exchange(&mut net, all_broadcast(4, &g));
        // Leaf 1's message to the center is suppressed; the center's
        // message to leaf 1 is lost in transit.
        assert_eq!(inboxes[0].len(), 2, "center hears leaves 2 and 3 only");
        assert!(inboxes[1].is_empty(), "crashed leaf receives nothing");
        assert_eq!(inboxes[2].len(), 1);
        assert_eq!(net.fault_stats().dropped, 2);
        assert_eq!(net.fault_stats().crashed_rounds, 1);
        assert!(net.plan().is_down(1, 999), "permanent means permanent");
    }

    #[test]
    fn crashed_nodes_vanish_from_gathered_balls() {
        let g = path(5); // 0-1-2-3-4
        let plan = FaultPlan::none().with_crashed_nodes([2]);
        let mut net = FaultyNetwork::new(&g, plan);
        Net::charge_gather(&mut net, 4, 8);
        let ball: Vec<u32> = Net::ball(&net, VertexId(0), 4)
            .into_iter()
            .map(|v| v.0)
            .collect();
        // Vertex 2 is down, so 3 and 4 are unreachable too.
        assert_eq!(ball, vec![0, 1]);
        let own: Vec<u32> = Net::ball(&net, VertexId(2), 4)
            .into_iter()
            .map(|v| v.0)
            .collect();
        assert_eq!(own, vec![2], "a down node knows only itself");
    }

    #[test]
    fn reorder_shuffles_deterministically_and_preserves_content() {
        let g = clique(6);
        let rates = FaultRates {
            reorder: 1.0,
            ..Default::default()
        };
        let run = || {
            let mut net = FaultyNetwork::new(&g, FaultPlan::new(11, rates));
            Net::exchange(&mut net, all_broadcast(6, &g))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same (seed, plan) => same shuffles");
        // Same multiset as the perfect network, different order somewhere.
        let mut perfect = FaultyNetwork::new(&g, FaultPlan::none());
        let p = Net::exchange(&mut perfect, all_broadcast(6, &g));
        let mut any_reordered = false;
        for v in 0..6 {
            let mut sa = a[v].clone();
            let mut sp = p[v].clone();
            if sa != sp {
                any_reordered = true;
            }
            sa.sort_unstable();
            sp.sort_unstable();
            assert_eq!(sa, sp, "reordering must not lose or invent messages");
        }
        assert!(any_reordered, "rate-1 reorder should shuffle something");
    }

    #[test]
    fn crash_windows_recover() {
        // With a moderate crash rate and 1-round windows, some node must
        // be observed both down and up across a long schedule.
        let plan = FaultPlan::new(5, {
            FaultRates {
                crash: 0.3,
                ..Default::default()
            }
        })
        .with_crash_period(1);
        let mut saw_down = false;
        let mut saw_flip = false;
        for node in 0..8u32 {
            let mut prev = None;
            for round in 1..=64u64 {
                let down = plan.is_down(node, round);
                saw_down |= down;
                if let Some(p) = prev {
                    saw_flip |= p != down;
                }
                prev = Some(down);
            }
        }
        assert!(saw_down, "crash rate 0.3 over 8x64 node-rounds hits");
        assert!(saw_flip, "windows must recover, not stick");
    }

    #[test]
    fn fault_decisions_respect_the_horizon() {
        let rates = FaultRates {
            drop: 1.0,
            duplicate: 1.0,
            reorder: 1.0,
            crash: 1.0,
        };
        let plan = FaultPlan::new(9, rates).with_horizon(5);
        assert!(plan.message_dropped(5, 0));
        assert!(!plan.message_dropped(6, 0));
        assert!(plan.message_duplicated(5, 3));
        assert!(!plan.message_duplicated(6, 3));
        assert!(plan.is_down(5, 5));
        assert!(!plan.is_down(5, 6));
        let mut items = vec![1, 2, 3];
        plan.maybe_shuffle(6, 0, &mut items);
        assert_eq!(items, vec![1, 2, 3], "no reordering past the horizon");
    }

    #[test]
    fn stats_absorb_and_mirror() {
        let mut a = FaultStats {
            dropped: 1,
            duplicated: 2,
            retries: 3,
            crashed_rounds: 4,
        };
        a.absorb(FaultStats {
            dropped: 10,
            duplicated: 20,
            retries: 30,
            crashed_rounds: 40,
        });
        let mut meter = WorkMeter::new();
        a.mirror_into(&mut meter);
        assert_eq!(meter.get(keys::FAULTS_DROPPED), 11);
        assert_eq!(meter.get(keys::FAULTS_DUPLICATED), 22);
        assert_eq!(meter.get(keys::FAULTS_RETRIES), 33);
        assert_eq!(meter.get(keys::FAULTS_CRASHED_ROUNDS), 44);
        assert_eq!(
            a.to_string(),
            "11 dropped, 22 duplicated, 33 retries, 44 crashed node-rounds"
        );
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn non_probability_rates_are_rejected() {
        let _ = FaultPlan::new(0, {
            FaultRates {
                drop: f64::NAN,
                ..Default::default()
            }
        });
    }
}
