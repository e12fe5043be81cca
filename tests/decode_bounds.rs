//! Resource exhaustion through the replication frames, the fused
//! aggregate reply, the read path's packed id list and the multiplexing
//! envelopes: a count never reserves more than the bytes behind it.
//!
//! `Dec::get_len` bounds a decoded count by the *bytes* left in the frame,
//! but a decoder that then reserves `count` elements pays
//! `count × size_of::<T>()` — 112 bytes per `FlowRecord`, 136 per
//! `SwitchPatch` — so one inflated count over a megabyte of filler used to
//! make `Frame::decode` ask the allocator for a hundred times the frame
//! before the typed error came back. `DeltaAppend` and `SnapshotInstall`
//! are envelope entries any peer may write to a shard socket, and decode
//! runs before the envelope's grammar is checked, under a 64 MiB default
//! frame cap.
//!
//! This binary installs a counting allocator (largest single request on
//! the measuring thread while armed) and inflates every count of both
//! frames in turn: decode must fail with a typed `WireError` and never
//! request more than twice the payload in one allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mphf::Mphf;
use queryplane::Snapshot;
use switchpointer::hoststore::EpochSet;
use telemetry::frame::{from_bytes, to_bytes, Dec, Enc, WireError};
use wireplane::Frame;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only reads and writes
// two const-initialized, destructor-free thread locals and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` armed and returns its result with the largest single
/// allocation request it made.
fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LARGEST.with(|m| m.get()))
}

const FILLER: usize = 1 << 20;

/// `prefix | count = FILLER | FILLER × 0xFF`: the count passes
/// `get_len`'s byte bound exactly, and all-ones filler fails the first
/// nested length it is read as, so the typed error comes back at once.
fn hostile(prefix: Enc) -> Vec<u8> {
    let mut e = prefix;
    e.put_usize(FILLER);
    let mut bytes = e.into_bytes();
    bytes.resize(bytes.len() + FILLER, 0xFF);
    bytes
}

/// `shard | seq | epoch_horizon`: a `DeltaAppend` payload up to the
/// record's switch-patch count.
fn append_head() -> Enc {
    let mut e = Enc::new();
    e.put_u16(0);
    e.put_u64(1);
    e.put_u64(7);
    e
}

/// … through `n_switches = 1 | switch | patch.version`: up to the
/// patch's slot count.
fn patch_head() -> Enc {
    let mut e = append_head();
    e.put_usize(1);
    e.put_u32(3);
    e.put_u64(9);
    e
}

/// … through `n_switches = 0 | n_hosts = 1 | host | new_base | kind`:
/// up to the host patch's first count.
fn host_patch_head(kind: u8) -> Enc {
    let mut e = append_head();
    e.put_usize(0);
    e.put_usize(1);
    e.put_u32(4);
    e.put_u64(1);
    e.put_u64(1);
    e.put_u8(kind);
    e
}

#[test]
fn an_inflated_delta_append_count_never_reserves_beyond_the_payload() {
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    cases.push(("n_switches", hostile(append_head())));
    let mut e = append_head();
    e.put_usize(0);
    cases.push(("n_hosts", hostile(e)));
    cases.push(("triggers (TriggersOnly)", hostile(host_patch_head(0))));
    cases.push(("n_dirty", hostile(host_patch_head(1))));
    let mut e = host_patch_head(1);
    e.put_usize(1);
    e.put_u64(0);
    cases.push(("n_recs", hostile(e)));
    cases.push(("n_shards (Full)", hostile(host_patch_head(2))));
    cases.push(("patch slots", hostile(patch_head())));
    let mut e = patch_head();
    e.put_usize(0);
    cases.push(("patch archive tail", hostile(e)));
    // … | n_slots = 0 | n_tail = 0 | archive_retired | flushed_bits |
    // updates | unknown_dsts | cached_epoch = None.
    let mut e = patch_head();
    for _ in 0..6 {
        e.put_u64(0);
    }
    e.put_u8(0);
    cases.push(("patch cached slots", hostile(e)));

    for (what, payload) in cases {
        let (got, largest) = largest_request(|| Frame::decode(0x40, &payload).map(|_| ()));
        println!("DeltaAppend {what}: {got:?}, largest request {largest} B");
        assert!(got.is_err(), "{what}: hostile DeltaAppend decoded");
        assert!(
            largest <= 2 * payload.len(),
            "{what}: one allocation of {largest} bytes for a {}-byte payload",
            payload.len()
        );
    }
}

/// … through `n_dirty = 1 | shard 0 | n_recs = 1` and one record up to
/// its one switch's `EpochSet` run count.
fn epoch_set_head() -> Enc {
    let mut e = host_patch_head(1);
    e.put_usize(1);
    e.put_u64(0);
    e.put_usize(1);
    e.put_u64(42); // flow
    e.put_u32(1); // src
    e.put_u32(2); // dst
    e.put_u8(0); // protocol
    e.put_u8(0); // priority
    e.put_u64(1_000); // bytes
    e.put_u64(3); // packets
    e.put_usize(0); // path
    e.put_usize(1); // epochs_at entries
    e.put_u32(5); // switch
    e
}

/// An epoch set's run count is a var-int bounded by two bytes a run; its
/// reservation goes through `Dec::reservation` like every other count, so
/// the largest it drives stays within the payload. And the set decodes
/// only the canonical runs `EpochSet::insert` builds: an overflowing,
/// overlapping, touching or unsorted run is a typed error.
#[test]
fn an_epoch_set_decodes_only_canonical_runs_and_never_reserves_beyond_the_payload() {
    let mut e = epoch_set_head();
    e.put_varint((FILLER / 2) as u64);
    let mut payload = e.into_bytes();
    payload.resize(payload.len() + FILLER, 0xFF);
    let (got, largest) = largest_request(|| Frame::decode(0x40, &payload).map(|_| ()));
    println!("DeltaAppend epoch runs: {got:?}, largest request {largest} B");
    assert!(got.is_err(), "hostile run count decoded");
    assert!(
        largest <= payload.len(),
        "one allocation of {largest} bytes for a {}-byte payload",
        payload.len()
    );

    let runs = |pairs: &[(u64, u64)]| {
        let mut e = Enc::new();
        e.put_varint(pairs.len() as u64);
        for &(lo, len) in pairs {
            e.put_varint(lo);
            e.put_varint(len);
        }
        e.into_bytes()
    };
    let canonical = runs(&[(3, 2), (7, 0), (u64::MAX - 1, 1)]);
    let set = from_bytes::<EpochSet>(&canonical).expect("canonical runs decode");
    assert_eq!(to_bytes(&set), canonical);
    assert_eq!(set.iter().take(4).collect::<Vec<_>>(), [3, 4, 5, 7]);
    for (what, pairs) in [
        ("overflowing run", &[(u64::MAX, 1)][..]),
        ("overlapping runs", &[(3, 4), (6, 2)]),
        ("touching runs", &[(3, 2), (6, 0)]),
        ("unsorted runs", &[(9, 0), (3, 1)]),
        ("duplicate runs", &[(3, 0), (3, 0)]),
        ("run after u64::MAX", &[(u64::MAX, 0), (0, 0)]),
    ] {
        let got = from_bytes::<EpochSet>(&runs(pairs));
        assert!(
            matches!(got, Err(WireError::Remote(_))),
            "{what}: {pairs:?} decoded to {got:?}"
        );
    }
    let mut frame = epoch_set_head().into_bytes();
    frame.extend_from_slice(&runs(&[(9, 0), (3, 1)]));
    assert!(
        matches!(Frame::decode(0x40, &frame), Err(WireError::Remote(_))),
        "unsorted runs inside a DeltaAppend"
    );
}

/// A `UnionTopKRep` is the widest read reply a shard writes back: per
/// decoded host its id, store size and top-k rows. Inflating its host
/// count or one host's row count reserves no more than the payload.
#[test]
fn an_inflated_union_top_k_row_count_never_reserves_beyond_the_payload() {
    // `Some | n_hosts`: the reply up to its host count.
    let mut hosts_head = Enc::new();
    hosts_head.put_u8(1);
    // … through `n_hosts = 1 | host | Some(len)`: up to its row count.
    let mut rows_head = Enc::new();
    rows_head.put_u8(1);
    rows_head.put_usize(1);
    rows_head.put_u32(7);
    rows_head.put_u8(1);
    rows_head.put_u64(12);
    for (what, payload) in [("hosts", hostile(hosts_head)), ("rows", hostile(rows_head))] {
        let (got, largest) = largest_request(|| Frame::decode(0x2D, &payload).map(|_| ()));
        println!("UnionTopKRep {what}: {got:?}, largest request {largest} B");
        assert!(got.is_err(), "{what}: hostile UnionTopKRep decoded");
        assert!(
            largest <= payload.len(),
            "{what}: one allocation of {largest} bytes for a {}-byte payload",
            payload.len()
        );
    }
}

/// The read path's own counts: a `FilterWaveReq`'s delta-packed host
/// list (at least a byte per id, four in memory) and the entry counts of
/// a `Batch` and a `BatchRep` (at least six bytes per entry, a whole
/// `Frame` in memory). Each count passes its minimum-wire-size check, and
/// all-ones filler fails the first element, so the typed error comes
/// back at once; the reservation is what the payload could hold.
#[test]
fn an_inflated_id_or_envelope_count_never_reserves_beyond_the_payload() {
    let counted = |prefix: Enc, count: usize| {
        let mut e = prefix;
        e.put_varint(count as u64);
        let mut bytes = e.into_bytes();
        bytes.resize(bytes.len() + FILLER, 0xFF);
        bytes
    };
    // `switch | lo | hi`: a filter wave up to its host count.
    let mut filter_head = Enc::new();
    filter_head.put_u32(3);
    filter_head.put_u64(10);
    filter_head.put_u64(20);
    for (what, tag, payload) in [
        ("FilterWaveReq hosts", 0x16, counted(filter_head, FILLER)),
        ("Batch entries", 0x51, counted(Enc::new(), FILLER / 6)),
        ("BatchRep entries", 0x52, counted(Enc::new(), FILLER / 6)),
    ] {
        let (got, largest) = largest_request(|| Frame::decode(tag, &payload).map(|_| ()));
        println!("{what}: {got:?}, largest request {largest} B");
        assert!(got.is_err(), "{what}: hostile frame decoded");
        assert!(
            largest <= 2 * payload.len(),
            "{what}: one allocation of {largest} bytes for a {}-byte payload",
            payload.len()
        );
    }
}

/// `Wire for Arc<T>` is what lets a replica keep a decoded slot or record
/// shard without copying it. A count in front of shared elements sizes a
/// vector of *pointers*, whatever `T` weighs, and the elements are
/// allocated one at a time as their bytes turn up — so the count still
/// reserves no more than the frame could hold. (The `n_dirty`, `patch
/// slots` and `patch archive tail` cases above reach the same impl
/// through `DeltaAppend`.)
#[test]
fn an_inflated_count_of_shared_elements_never_reserves_beyond_the_payload() {
    type Wide = (u64, (u64, u64, u64), (u64, u64, u64));
    let payload = hostile(Enc::new());
    let strings = largest_request(|| from_bytes::<Vec<Arc<String>>>(&payload).map(|_| ()));
    let wides = largest_request(|| from_bytes::<Vec<Arc<Wide>>>(&payload).map(|_| ()));
    for (what, (got, largest)) in [("Vec<Arc<String>>", strings), ("Vec<Arc<Wide>>", wides)] {
        println!("{what}: {got:?}, largest request {largest} B");
        assert!(got.is_err(), "{what}: hostile count decoded");
        assert!(
            largest <= 2 * payload.len(),
            "{what}: one allocation of {largest} bytes for a {}-byte payload",
            payload.len()
        );
    }
}

#[test]
fn an_inflated_snapshot_view_count_never_reserves_beyond_the_payload() {
    let addrs: Vec<u64> = (0..8u64).map(|i| 0x0a00_0000 + i).collect();
    let mphf = Arc::new(Mphf::build(&addrs).unwrap());
    // `dir_shards | epoch_horizon`: a view up to its switch count.
    let view_head = || {
        let mut e = Enc::new();
        e.put_usize(2);
        e.put_u64(7);
        e
    };
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    cases.push(("switches", hostile(view_head())));
    let mut e = view_head();
    e.put_usize(0);
    cases.push(("hosts", hostile(e)));
    let mut e = view_head();
    e.put_usize(0);
    e.put_usize(1);
    e.put_u32(4);
    cases.push(("host store shards", hostile(e)));

    for (what, view) in cases {
        let (got, largest) = largest_request(|| {
            let mut d = Dec::new(&view);
            Snapshot::wire_dec(&mut d, &mphf).map(|_| ())
        });
        println!("view {what}: {got:?}, largest request {largest} B");
        assert!(got.is_err(), "{what}: hostile view decoded");
        assert!(
            largest <= 2 * view.len(),
            "{what}: one allocation of {largest} bytes for a {}-byte view",
            view.len()
        );
    }
}
