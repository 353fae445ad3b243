//! The counting allocator counts a known allocation pattern exactly.
//!
//! A test binary of its own with a single test: the counters are
//! process-wide, so exactness needs a process in which nothing else
//! allocates while the pattern runs.

#[path = "../benches/e2e/alloc.rs"]
mod alloc;

use alloc::Heap;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[test]
fn counts_alloc_zeroed_and_realloc_calls_and_their_bytes() {
    let before = Heap::now();
    let mut v: Vec<u8> = Vec::with_capacity(1000); // alloc, 1000 B
    v.push(1);
    v.reserve_exact(2999); // realloc to 3000 B
    let z = vec![0u64; 500]; // alloc_zeroed, 4000 B
    let boxed = Box::new([7u8; 24]); // alloc, 24 B
    let during = Heap::since(before);
    drop((v, z, boxed)); // dealloc is forwarded, never counted
    let after = Heap::since(before);
    assert_eq!(
        during,
        Heap {
            calls: 4,
            bytes: 1000 + 3000 + 4000 + 24
        }
    );
    assert_eq!(after, during);
}
