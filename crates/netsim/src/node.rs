//! Nodes and the context handed to their event handlers.
//!
//! A [`Node`] is any protocol entity in the simulation: an application
//! sender, a receiver, or a data center running a J-QoS service.  Nodes are
//! generic over the message type `M` exchanged on links; the J-QoS core uses
//! a single `Msg` enum so every entity can talk to every other one.

use std::any::Any;
use std::fmt;

use rand::rngs::SmallRng;

use crate::sim::SimCore;
use crate::time::{Dur, Time};

/// Identifier of a node inside one simulator instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a pending timer, usable for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// A protocol entity driven by the simulator.
///
/// All handlers receive a [`Context`] through which they can read the clock,
/// send messages over links, and set or cancel timers.  Handlers must not
/// block; any long-lived state belongs in the node struct itself.
pub trait Node<M>: 'static {
    /// Called once when the simulation starts (before any message/timer).
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message sent by `from` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set by this node fires.  `tag` is the value passed
    /// to [`Context::set_timer`].
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: TimerId, tag: u64) {
        let _ = (ctx, timer, tag);
    }

    /// Downcasting hook so experiment harnesses can inspect node state after
    /// the run (see [`crate::sim::Simulator::node_as`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Handle given to node handlers for interacting with the simulation.
pub struct Context<'a, M> {
    pub(crate) core: &'a mut SimCore<M>,
    pub(crate) node: NodeId,
}

impl<'a, M: Clone + 'static> Context<'a, M> {
    /// The identifier of the node whose handler is running.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current simulated time.
    pub fn now(&self) -> Time {
        self.core.now
    }

    /// Sends `msg` to `to` over the link registered between the two nodes.
    ///
    /// The message is subject to the link's loss and delay models.  If no
    /// link exists the message is counted as `no_route` and silently dropped;
    /// experiments treat that as a configuration error surfaced through
    /// [`crate::sim::SimStats`].
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.core.send(self.node, to, msg, 0);
    }

    /// Sends a message of `size_bytes` (used for links with a bandwidth cap;
    /// plain [`Context::send`] assumes a negligible serialization cost).
    pub fn send_sized(&mut self, to: NodeId, msg: M, size_bytes: usize) {
        self.core.send(self.node, to, msg, size_bytes);
    }

    /// Schedules a message to this node itself after `delay` (a convenient
    /// way to model internal processing latency).
    pub fn send_self(&mut self, delay: Dur, msg: M) {
        self.core.send_local(self.node, msg, delay);
    }

    /// Sets a timer that fires after `delay` with the given `tag`.
    pub fn set_timer(&mut self, delay: Dur, tag: u64) -> TimerId {
        self.core.set_timer(self.node, delay, tag)
    }

    /// Cancels a previously set timer.  Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.core.cancel_timer(timer);
    }

    /// A random-number generator dedicated to this node.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.core.node_rng(self.node)
    }

    /// Whether a link from this node to `to` exists.
    pub fn has_route(&self, to: NodeId) -> bool {
        self.core.has_link(self.node, to)
    }

    /// One-way nominal latency of the link from this node to `to`, if any.
    /// J-QoS's service-selection logic uses this to estimate δ and x without
    /// probing.
    pub fn nominal_latency(&self, to: NodeId) -> Option<Dur> {
        self.core.nominal_latency(self.node, to)
    }
}

/// Index-based storage for the simulator's nodes.
///
/// Nodes are stored in a vector of slots addressed by [`NodeId`]; while a
/// node's handler runs, the engine *checks out* the boxed node (leaving the
/// slot empty) so the handler can borrow the rest of the engine mutably, then
/// checks it back in.  The checkout is a pointer move — the node itself never
/// relocates.
pub struct NodeSlab<M> {
    slots: Vec<Option<Box<dyn Node<M>>>>,
}

impl<M> NodeSlab<M> {
    /// An empty slab.
    pub fn new() -> Self {
        NodeSlab { slots: Vec::new() }
    }

    /// An empty slab with room reserved for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        NodeSlab {
            slots: Vec::with_capacity(capacity),
        }
    }

    /// Adds a node and returns the identifier of its slot.
    pub fn insert(&mut self, node: Box<dyn Node<M>>) -> NodeId {
        let id = NodeId(self.slots.len());
        self.slots.push(Some(node));
        id
    }

    /// Number of slots (checked-out nodes included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the slab holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `id` names a slot in this slab.
    pub fn contains(&self, id: NodeId) -> bool {
        id.0 < self.slots.len()
    }

    /// Removes the node from its slot for the duration of a handler call.
    ///
    /// # Panics
    /// Panics if the slot is out of range or already checked out.
    pub fn checkout(&mut self, id: NodeId) -> Box<dyn Node<M>> {
        self.slots[id.0].take().expect("node already checked out")
    }

    /// Returns a checked-out node to its slot.
    ///
    /// # Panics
    /// Panics if the slot is out of range.
    pub fn checkin(&mut self, id: NodeId, node: Box<dyn Node<M>>) {
        debug_assert!(self.slots[id.0].is_none(), "slot already occupied");
        self.slots[id.0] = Some(node);
    }

    /// Mutable access to a node in its slot.
    ///
    /// # Panics
    /// Panics if the slot is out of range or the node is checked out.
    pub fn get_mut(&mut self, id: NodeId) -> &mut dyn Node<M> {
        self.slots[id.0]
            .as_mut()
            .expect("node is currently checked out")
            .as_mut()
    }
}

impl<M> Default for NodeSlab<M> {
    fn default() -> Self {
        NodeSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_formats_compactly() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{:?}", NodeId(12)), "n12");
    }

    struct Dummy(u32);
    impl Node<()> for Dummy {
        fn on_message(&mut self, _ctx: &mut Context<'_, ()>, _from: NodeId, _msg: ()) {}
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn node_slab_checkout_and_checkin_round_trip() {
        let mut slab: NodeSlab<()> = NodeSlab::with_capacity(4);
        let a = slab.insert(Box::new(Dummy(1)));
        let b = slab.insert(Box::new(Dummy(2)));
        assert_eq!(slab.len(), 2);
        assert!(slab.contains(b));
        assert!(!slab.contains(NodeId(2)));
        let node = slab.checkout(a);
        slab.checkin(a, node);
        let d = slab
            .get_mut(a)
            .as_any_mut()
            .downcast_mut::<Dummy>()
            .unwrap();
        assert_eq!(d.0, 1);
    }
}
