//! Heap accounting of the catalog, the content index and the group
//! replica under a counting global allocator that no other test binary
//! shares. Each thread counts its own allocations, so the tests may run
//! side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use idm_core::graph;
use idm_core::prelude::{TupleComponent, Value, Vid, ViewStore};
use idm_index::catalog::{CatalogEntry, ResourceViewCatalog};
use idm_index::fulltext::pretokenize;
use idm_index::{FullTextIndex, GroupReplica, IndexBundle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Runs `f` on this thread: its result, the bytes it left allocated and
/// the most it held at once.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    let held = LIVE.with(Cell::get) - start;
    let peak = PEAK.with(Cell::get) - start;
    (out, held.max(0) as usize, peak.max(0) as usize)
}

const MB: usize = 1 << 20;

fn row(vid: u64, name: String, class: String, source: &str) -> CatalogEntry {
    CatalogEntry {
        vid,
        name,
        class: Some(class),
        source: source.to_owned(),
        content_size: Some(vid.wrapping_mul(7)),
        content_indexed: vid.is_multiple_of(2),
    }
}

/// 50 000 rows over 20 classes, 3 sources and 5 000 names: the catalog
/// holds at most 80 bytes of heap per row. A hashed row that owns its
/// three strings takes ≈ 210 bytes here.
#[test]
fn catalog_rows_cost_at_most_80_bytes_of_heap() {
    const ROWS: u64 = 50_000;
    const SOURCES: [&str; 3] = ["filesystem", "imap", "rss"];
    let (catalog, held, _) = measure(|| {
        let catalog = ResourceViewCatalog::new();
        for vid in 1..=ROWS {
            catalog.register(row(
                vid,
                format!("name-{:04}.tex", vid % 5_000),
                format!("class-{:02}", vid % 20),
                SOURCES[(vid % 3) as usize],
            ));
        }
        catalog
    });
    assert_eq!(catalog.len(), ROWS as usize);
    let per_row = held as f64 / ROWS as f64;
    eprintln!("catalog heap: {held} B, {per_row:.1} B per row");
    assert!(per_row <= 80.0, "{per_row:.1} B of heap per row");
}

/// 2 000 documents of 300 words, 19 in 20 of them from 30 common words
/// and the rest from 3 000 rare ones, so that most positions sit in a
/// few long lists: the content index holds at most 7 bytes of heap per
/// position. Four-byte positions, with the vids, offsets and term ids
/// beside them, take ≈ 9.5; LEB128 deltas ≈ 5.5.
#[test]
fn content_index_costs_at_most_7_bytes_of_heap_per_position() {
    const DOCUMENTS: u64 = 2_000;
    const WORDS: usize = 300;
    let mut rng = StdRng::seed_from_u64(7);
    let texts: Vec<String> = (0..DOCUMENTS)
        .map(|_| {
            let words: Vec<String> = (0..WORDS)
                .map(|_| match rng.gen_range(0..20) {
                    0 => format!("rare{}", rng.gen_range(0..3_000)),
                    _ => format!("w{}", rng.gen_range(0..30)),
                })
                .collect();
            words.join(" ")
        })
        .collect();
    let (index, held, _) = measure(|| {
        let index = FullTextIndex::new();
        for (vid, text) in (1..).zip(&texts) {
            let doc = pretokenize(text).expect("words");
            index.index_pretokenized(Vid::from_raw(vid), doc);
        }
        index
    });
    let positions = index.token_count();
    assert_eq!(positions, DOCUMENTS * WORDS as u64);
    let per_position = held as f64 / positions as f64;
    eprintln!("content index heap: {held} B, {per_position:.2} B per position");
    assert!(
        per_position <= 7.0,
        "{per_position:.2} B of heap per position"
    );
}

/// Vids far past the dense range are rows like any other and allocate
/// nothing in proportion to their magnitude.
#[test]
fn catalog_takes_far_vids_in_constant_space() {
    let far = [1u64 << 40, u64::MAX - 1];
    let (catalog, _, peak) = measure(|| {
        let catalog = ResourceViewCatalog::new();
        for (i, vid) in [3, far[0], 5, far[1]].into_iter().enumerate() {
            let class = if i % 2 == 0 { "file" } else { "mail" };
            catalog.register(row(vid, format!("v{vid}"), class.to_owned(), "filesystem"));
        }
        catalog.register(row(far[0], "again".into(), "file".into(), "imap"));
        catalog
    });
    assert!(peak < MB, "{peak} B allocated");
    let vids = |raw: &[u64]| raw.iter().copied().map(Vid::from_raw).collect::<Vec<_>>();
    assert_eq!(catalog.vids(), vids(&[3, 5, far[0], far[1]]));
    assert_eq!(catalog.by_class("file"), vids(&[3, 5, far[0]]));
    assert_eq!(catalog.by_class("mail"), vids(&[far[1]]));
    assert_eq!(catalog.by_source("imap"), vids(&[far[0]]));
    let entry = catalog.entry(Vid::from_raw(far[1])).expect("registered");
    assert_eq!(entry.name, format!("v{}", far[1]));
    assert_eq!(entry.content_size, Some(far[1].wrapping_mul(7)));
    let exported: Vec<u64> = catalog.export_rows().iter().map(|r| r.vid).collect();
    assert_eq!(exported, [3, 5, far[0], far[1]]);
    catalog.unregister_all(&vids(&far));
    assert_eq!(catalog.vids(), vids(&[3, 5]));
}

/// A group edge to a vid near `u32::MAX`, indexed view by view, labeled
/// and loaded from a file, allocates nothing in proportion to it, and
/// the replica answers as `idm_core::graph` does over the store.
#[test]
fn group_replica_takes_a_vid_near_u32_max_in_constant_space() {
    let far = Vid::from_raw(u64::from(u32::MAX) - 1);
    let store = ViewStore::new();
    let leaf = store.build("leaf").insert();
    let mid = store.build("mid").sequence(vec![leaf, far]).insert();
    let root = store.build("root").sequence(vec![mid, far, leaf]).insert();
    store
        .add_group_member(leaf, root, true)
        .expect("leaf is a view");
    let mut views: Vec<Vid> = store.vids();
    views.push(far);

    // `extra` is a `(parent, child)` edge the store does not hold.
    let check = |replica: &GroupReplica, extra: Option<(Vid, Vid)>| {
        let mut reverse = graph::reverse_adjacency(&store);
        if let Some((parent, child)) = extra {
            reverse.entry(child).or_default().push(parent);
        }
        for &from in &views {
            let got: BTreeSet<Vid> = replica.descendants(from).into_iter().collect();
            let want: BTreeSet<Vid> = graph::descendants(&store, from, usize::MAX)
                .expect("descendants")
                .into_iter()
                .collect();
            assert_eq!(got, want, "descendants of {from:?}");
            for &to in &views {
                let want = graph::is_indirectly_related(&store, from, to).expect("reach");
                assert_eq!(replica.reaches(from, to), want, "{from:?} →* {to:?}");
            }
            let mut parents = replica.parents(from);
            parents.sort();
            let mut want = reverse.get(&from).cloned().unwrap_or_default();
            want.sort();
            assert_eq!(parents, want, "parents of {from:?}");
        }
    };

    let (replica, _, peak) = measure(|| {
        let replica = GroupReplica::new();
        for &vid in &views {
            let members = store.group(vid).map(|g| g.finite_members());
            replica.index(vid, &members.unwrap_or_default());
        }
        replica
    });
    assert!(peak < MB, "indexing allocated {peak} B");
    check(&replica, None);
    let ((), _, peak) = measure(|| replica.relabel());
    assert!(peak < MB, "labeling allocated {peak} B");
    check(&replica, None);

    // One edge from vid 4·10^9 in a loaded file: it reaches `root` and
    // all `root` reaches.
    let from_far = Vid::from_raw(4_000_000_000);
    let mut edges = replica.export_edges();
    edges.push((from_far.as_u64(), vec![root.as_u64()]));
    let (loaded, _, peak) = measure(|| {
        let loaded = GroupReplica::new();
        loaded.import_edges(edges);
        loaded
    });
    assert!(peak < MB, "loading allocated {peak} B");
    check(&loaded, Some((from_far, root)));
    let mut want = graph::descendants(&store, root, usize::MAX).expect("descendants");
    want.push(root);
    want.sort();
    want.dedup();
    let mut got = loaded.descendants(from_far);
    got.sort();
    assert_eq!(got, want);
}

/// 2 000 views, each with a 2 KiB text attribute and 300 words of
/// content, filed under 20 folders: saving their index bundle writes a
/// file of at least 4 MiB and allocates at most a quarter of its size at
/// once. Exporting every index and encoding the file whole before
/// writing it allocates 1.7 times the file.
#[test]
fn saving_an_index_file_allocates_at_most_a_quarter_of_it() {
    const VIEWS: usize = 2_000;
    const WORDS: usize = 300;
    let mut rng = StdRng::seed_from_u64(11);
    let store = ViewStore::new();
    let bundle = IndexBundle::new();
    let mut files = Vec::with_capacity(VIEWS);
    for i in 0..VIEWS {
        let note: String = (0..2_048)
            .map(|_| char::from(b'a' + rng.gen_range(0..26u8)))
            .collect();
        let words: Vec<String> = (0..WORDS)
            .map(|_| match rng.gen_range(0..20) {
                0 => format!("rare{}", rng.gen_range(0..3_000)),
                _ => format!("w{}", rng.gen_range(0..30)),
            })
            .collect();
        let vid = store
            .build(format!("doc{i:04}.txt"))
            .tuple(TupleComponent::of(vec![
                ("size", Value::Integer(i as i64)),
                ("note", Value::Text(note)),
            ]))
            .text(words.join(" "))
            .class_named("file")
            .insert();
        files.push(vid);
    }
    for (i, members) in files.chunks(VIEWS / 20).enumerate() {
        store
            .build(format!("folder{i:02}"))
            .children(members.to_vec())
            .insert();
    }
    for vid in store.vids() {
        bundle
            .index_view(&store, vid, "filesystem")
            .expect("indexes");
    }

    let dir = std::env::temp_dir().join(format!("idm-save-heap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("indexes.idm");
    let (saved, _, peak) = measure(|| idm_index::persist::save_with_epoch(&bundle, &path, 1));
    saved.expect("saves");
    let len = std::fs::metadata(&path).expect("saved").len() as usize;
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "index save: {len} B file, {peak} B heap peak ({:.3} of it)",
        peak as f64 / len as f64
    );
    assert!(len >= 4 * MB, "{len} B file");
    assert!(peak <= len / 4, "{peak} B allocated for a {len} B file");
}
