//! The relay's per-flow retention ring: the payloads of the `capacity`
//! newest keys (sequence numbers for caching, batch indices for coding), in
//! `key % capacity` slots whose buffers are reused.
//!
//! A key is retained while it is newer than `newest − capacity`: a newer key
//! evicts what falls out of that window, a key already outside it is evicted
//! at once, and a retained key inserted again has its bytes replaced.  Both
//! operations are O(1) (a jump forward clears at most `capacity` slots), and
//! a ring whose slots have all held a payload no longer allocates.

/// One slot: the key it holds, if any, and its reused buffer.
#[derive(Clone, Debug, Default)]
struct Slot {
    key: Option<u64>,
    bytes: Vec<u8>,
}

/// A window of the newest `capacity` keys; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct SeqRing {
    slots: Vec<Slot>,
    newest: Option<u64>,
}

impl SeqRing {
    /// An empty ring of `capacity` slots.  A zero-capacity ring retains
    /// nothing: every insert is evicted at once.
    pub fn new(capacity: usize) -> Self {
        SeqRing {
            slots: vec![Slot::default(); capacity],
            newest: None,
        }
    }

    fn index(&self, key: u64) -> usize {
        (key % self.slots.len() as u64) as usize
    }

    /// Retains `key` with the bytes `fill` appends to the slot's cleared
    /// buffer.  Returns how many retained keys this evicted, the inserted
    /// one included when it is already older than the window.
    pub fn insert_with(&mut self, key: u64, fill: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let cap = self.slots.len() as u64;
        let mut evicted = 0;
        match self.newest {
            _ if cap == 0 => return 1,
            Some(newest) if key <= newest && newest - key >= cap => return 1,
            Some(newest) if key > newest && key - newest >= cap => evicted = self.clear(),
            Some(newest) if key > newest => {
                // Each key stepped over pushes its slot's occupant, the key
                // `capacity` below it, out of the window.
                for k in newest + 1..=key {
                    let i = self.index(k);
                    evicted += u64::from(self.slots[i].key.take().is_some());
                }
            }
            _ => {}
        }
        self.newest = Some(self.newest.map_or(key, |n| n.max(key)));
        let i = self.index(key);
        let slot = &mut self.slots[i];
        slot.key = Some(key);
        slot.bytes.clear();
        fill(&mut slot.bytes);
        evicted
    }

    /// The bytes retained for `key`, if it is in the window.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = &self.slots[self.index(key)];
        (slot.key == Some(key)).then_some(slot.bytes.as_slice())
    }

    /// Drops every retained key (the buffers stay); returns how many.
    pub fn clear(&mut self) -> u64 {
        self.newest = None;
        self.slots
            .iter_mut()
            .map(|s| u64::from(s.key.take().is_some()))
            .sum()
    }
}
