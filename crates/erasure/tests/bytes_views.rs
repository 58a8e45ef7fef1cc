//! What the coding path relies on from `bytes::Bytes`, pinned.
//!
//! `bytes` is an offline stand-in (see `vendor/README.md`).  The encoder hands
//! out the parity shards of one batch as views into a single slab
//! (`Shards::shard_bytes`), and the sender slices every payload out of one
//! zero buffer.  If `slice` or `from_owner` started copying, every figure and
//! digest would stay the same and only the cost would move, so these tests
//! check the views by address.

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;

/// The address range `b` covers.
fn span(b: &[u8]) -> Range<usize> {
    let start = b.as_ptr() as usize;
    start..start + b.len()
}

fn slab(len: usize) -> Arc<[u8]> {
    (0..len).map(|i| i as u8).collect::<Vec<u8>>().into()
}

#[test]
fn from_owner_and_slice_do_not_copy() {
    let slab = slab(64);
    let whole = Bytes::from_owner(Arc::clone(&slab));
    assert_eq!(span(&whole), span(&slab), "from_owner wraps the slab");
    let shard = whole.slice(16..32);
    assert_eq!(span(&shard), span(&slab[16..32]), "the view lies inside it");
}

#[test]
fn a_clone_shares_the_buffer() {
    let slab = slab(8);
    let a = Bytes::from_owner(Arc::clone(&slab)).slice(2..6);
    let b = a.clone();
    assert_eq!(span(&a), span(&b));
    assert_eq!(Arc::strong_count(&slab), 3, "the slab, a and b");
    drop((a, b));
    assert_eq!(Arc::strong_count(&slab), 1, "views release the slab");
}

#[test]
fn nested_slices_compose() {
    let slab = slab(100);
    let nested = Bytes::from_owner(Arc::clone(&slab))
        .slice(10..90)
        .slice(20..50)
        .slice(5..10);
    assert_eq!(span(&nested), span(&slab[35..40]));
    assert_eq!(&nested[..], &[35, 36, 37, 38, 39]);
    assert_eq!(Bytes::from_static(b"abc").slice(1..3).slice(1..2), b"c"[..]);
}

#[test]
fn equality_is_by_content() {
    let view = Bytes::from_owner(slab(8)).slice(1..4);
    assert_eq!(view, Bytes::from(vec![1, 2, 3]), "different buffers");
    assert_eq!(view, Bytes::from_static(&[1, 2, 3]), "static and shared");
    assert_ne!(view, Bytes::from_owner(slab(8)).slice(0..3));
}

#[test]
#[should_panic(expected = "out of bounds")]
fn an_out_of_range_slice_panics() {
    // In range of the slab, out of range of the view it is taken from.
    Bytes::from_owner(slab(64)).slice(8..16).slice(4..12);
}
