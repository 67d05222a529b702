//! Transient heap of a checkpoint under a counting global allocator
//! that no other test binary shares. Each thread counts its own
//! allocations, and a checkpoint runs on its caller's thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use idm_core::durability::{DurabilityManager, SyncPolicy};
use idm_core::prelude::ViewStore;

thread_local! {
    /// Bytes this thread holds, and the most it held since [`measure`]
    /// last started.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts `delta` bytes for this thread. Const-initialized cells without
/// a destructor never allocate, so the allocator may use them; a thread
/// past its teardown counts nothing.
fn count(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting touches only this thread's cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller's guarantees for
        // `new_size` are passed on.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` on this thread: its result and the most it held at once
/// above what the thread held before.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    let peak = PEAK.with(Cell::get) - start;
    (out, peak.max(0) as usize)
}

const MB: u64 = 1 << 20;

/// 2 000 views of 4.5 KiB inline content each, filed under 20 folders:
/// a checkpoint of that store writes a ≥ 8 MiB snapshot and holds at
/// most a quarter of it at once, the export of the store included. A
/// snapshot encoded whole before it is written holds more than its own
/// size at once (1.25 times it here).
#[test]
fn a_checkpoint_holds_at_most_a_quarter_of_its_snapshot() {
    const VIEWS: usize = 2_000;
    const CONTENT: usize = 4_608;
    let dir = std::env::temp_dir().join(format!("idm-checkpoint-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let store = Arc::new(ViewStore::new());
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut files = Vec::with_capacity(VIEWS);
    for i in 0..VIEWS {
        let text: String = (0..CONTENT)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                char::from(b'a' + (state >> 59) as u8 % 26)
            })
            .collect();
        files.push(store.build(format!("doc{i:04}.txt")).text(text).insert());
    }
    for (i, members) in files.chunks(VIEWS / 20).enumerate() {
        store
            .build(format!("folder{i:02}"))
            .children(members.to_vec())
            .insert();
    }
    let (mut manager, _) = DurabilityManager::attach(&dir, &store, SyncPolicy::WriteBack).unwrap();

    let (stats, peak) = measure(|| manager.checkpoint(&store).unwrap());
    assert_eq!(stats.views, VIEWS + 20);
    assert!(stats.bytes >= 8 * MB, "{} B snapshot", stats.bytes);
    eprintln!(
        "checkpoint: {} B snapshot, {peak} B heap peak ({:.3} of it)",
        stats.bytes,
        peak as f64 / stats.bytes as f64
    );
    assert!(
        peak as u64 <= stats.bytes / 4,
        "{peak} B held for a {} B snapshot",
        stats.bytes
    );
    std::fs::remove_dir_all(&dir).ok();
}
