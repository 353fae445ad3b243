//! DRAM contents: the MCU's high-level uncore state (Table 1).
//!
//! [`DramContents`] is a paged, structurally shared image: 4 KiB pages
//! found through one page-number lookup, immutable pages shared by
//! reference count between a system, its ladder rungs and every
//! injection cloned from them, and a private copy made only on the
//! first write to a shared page — unless the writer froze that page
//! itself and nobody else holds it any more, in which case it takes the
//! page back. DESIGN.md ("Snapshots and the paged DRAM image") has the
//! ownership rule, the sizing and the alternatives that were measured.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use nestsim_proto::addr::{LineAddr, PAddr, LINE_BYTES};

/// Words (u64) per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / 8) as usize;

type Line = [u64; WORDS_PER_LINE];
const ZERO_LINE: Line = [0; WORDS_PER_LINE];

/// log2 of the lines per page: 64 lines × 64 B = 4 KiB, small enough
/// that a co-simulation window's handful of writebacks copies a few KiB,
/// large enough that the page table of a ≈2.4 MB image is ≈600 entries.
const PAGE_SHIFT: u32 = 6;
const LINES_PER_PAGE: usize = 1 << PAGE_SHIFT;
/// Pages per arena chunk (one heap allocation). Private pages are
/// allocated a chunk at a time because a long run dirties hundreds of
/// pages between two snapshots: one allocation per page more than
/// doubled the allocation count of a laddered campaign.
const PAGES_PER_CHUNK: usize = 64;

type LineMap = HashMap<u64, Line>;

/// Hashes a `u64` key with one multiply. For keys chosen by the
/// simulated program (page numbers, line addresses, request ids — or a
/// bit flip in one of them), never by input from outside the process:
/// there the default hasher's collision resistance buys nothing, and
/// its cost sat on every simulated memory access.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl Hasher for U64Hasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keys are hashed through write_u64 only");
    }
    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing; the fold brings the well-mixed high half
        // down to the low bits the table indexes buckets with.
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`U64Hasher`] as the `S` of a `HashMap<u64, V, S>` / `HashSet<u64, S>`.
pub type BuildU64Hasher = BuildHasherDefault<U64Hasher>;

/// Makes `kept_map` a copy of `source_map` in the storage it holds.
/// `clone_from` alone reallocates whenever the two tables differ in
/// size, and frees the table for an empty source; here a table that
/// can hold the source is cleared and refilled in place, so only a
/// source with more entries than `kept_map` ever had room for costs an
/// allocation. Equal sizes are still copied whole, the cheaper way.
pub fn refill_table<K, V, S>(kept_map: &mut HashMap<K, V, S>, source_map: &HashMap<K, V, S>)
where
    K: Clone + Eq + Hash,
    V: Clone,
    S: BuildHasher + Clone,
{
    if kept_map.capacity() == source_map.capacity() || kept_map.capacity() < source_map.len() {
        kept_map.clone_from(source_map);
    } else {
        kept_map.clear();
        // nestlint: allow(determinism-taint) -- one insert per distinct key; the copy holds the same entries whatever the visiting order
        kept_map.extend(source_map.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
}

type PageTable = HashMap<u64, Slot, BuildU64Hasher>;

/// One 4 KiB page plus its count of non-zero lines.
#[derive(Debug, Clone)]
struct Page {
    lines: [Line; LINES_PER_PAGE],
    backed: u32,
}

impl Page {
    const ZERO: Page = Page {
        lines: [ZERO_LINE; LINES_PER_PAGE],
        backed: 0,
    };
}

/// Page storage, grown one chunk at a time; a page index is its
/// position counted across chunks. The first `used` chunks hold the
/// pages, every one but the last of them full. The chunks after them
/// are empty and kept, each with room for a chunk's pages: `alloc`
/// fills them before it grows the arena, so a refilled memory writes
/// into the storage it already owns.
#[derive(Debug, Default)]
struct Arena {
    chunks: Vec<Vec<Page>>,
    used: usize,
    /// Indices whose page was dropped, reused before the arena grows.
    free: Vec<u32>,
}

impl Arena {
    fn page(&self, idx: u32) -> &Page {
        &self.chunks[idx as usize / PAGES_PER_CHUNK][idx as usize % PAGES_PER_CHUNK]
    }

    fn page_mut(&mut self, idx: u32) -> &mut Page {
        &mut self.chunks[idx as usize / PAGES_PER_CHUNK][idx as usize % PAGES_PER_CHUNK]
    }

    /// Pages in use.
    fn live(&self) -> usize {
        let stored = match self.used {
            0 => 0,
            n => (n - 1) * PAGES_PER_CHUNK + self.chunks[n - 1].len(),
        };
        stored - self.free.len()
    }

    /// Stores a copy of `page` and returns its index.
    fn alloc(&mut self, page: &Page) -> u32 {
        if let Some(idx) = self.free.pop() {
            *self.page_mut(idx) = page.clone();
            return idx;
        }
        if self.used == 0 || self.chunks[self.used - 1].len() == PAGES_PER_CHUNK {
            if self.used == self.chunks.len() {
                self.chunks.push(Vec::with_capacity(PAGES_PER_CHUNK));
            }
            self.used += 1;
        }
        let last = self.used - 1;
        let chunk = &mut self.chunks[last];
        chunk.push(page.clone());
        u32::try_from(last * PAGES_PER_CHUNK + chunk.len() - 1)
            .expect("an arena of 2^32 pages would be 16 TiB")
    }

    /// Drops every page and keeps every chunk, emptied, for the next
    /// `alloc`s to fill.
    fn recycle(&mut self) {
        for chunk in &mut self.chunks[..self.used] {
            chunk.clear();
        }
        self.used = 0;
        self.free.clear();
    }

    /// The used chunks, as an arena of their own; this one keeps the
    /// spare chunks, and no page.
    fn split_used(&mut self) -> Arena {
        let spare = self.chunks.split_off(self.used);
        let used = std::mem::replace(&mut self.chunks, spare);
        Arena {
            chunks: used,
            used: std::mem::take(&mut self.used),
            free: std::mem::take(&mut self.free),
        }
    }
}

impl Clone for Arena {
    fn clone(&self) -> Self {
        // Not derived: a derived clone sizes each chunk to its length,
        // and the next `alloc` into the last one would reallocate it.
        // Spare chunks hold no page and are not worth allocating for a
        // copy.
        let chunks = self.chunks[..self.used]
            .iter()
            .map(|chunk| {
                let mut copy = Vec::with_capacity(PAGES_PER_CHUNK);
                copy.extend_from_slice(chunk);
                copy
            })
            .collect();
        Arena {
            chunks,
            used: self.used,
            free: self.free.clone(),
        }
    }

    /// Copies `source`'s pages into the chunks this arena holds, and
    /// grows it only when `source` uses more of them.
    fn clone_from(&mut self, source: &Self) {
        self.recycle();
        for (k, chunk) in source.chunks[..source.used].iter().enumerate() {
            if k == self.chunks.len() {
                self.chunks.push(Vec::with_capacity(PAGES_PER_CHUNK));
            }
            self.chunks[k].extend_from_slice(chunk);
        }
        self.used = source.used;
        self.free.clone_from(&source.free);
    }
}

/// Where a page lives: in the frozen arena `shared` points at, or — when
/// `shared` is `None` — in the owning memory's private arena.
#[derive(Debug, Clone)]
struct Slot {
    shared: Option<Arc<Arena>>,
    idx: u32,
}

/// Sparse main-memory contents, line-granular.
///
/// The paper models 4 GB of DRAM per controller; applications touch only
/// megabytes, so contents are stored sparsely. Unbacked lines read as
/// zero (the modeled DRAM is initialized to zero at "boot").
///
/// Storage is paged and copy-on-write. A page is either *private*
/// (owned by this memory, writable in place) or *shared* (immutable,
/// reference-counted, possibly held by many memories). [`freeze`]
/// turns every private page into a shared one without copying it;
/// `clone` then copies only the page table and bumps reference counts,
/// and the first write to a shared page copies that one page. Cloning
/// a memory that still has private pages is correct, it just copies
/// them. Equality compares contents, never sharing history.
///
/// The arena a `freeze` made stays this memory's to take back: at the
/// first write after the freeze, if no other memory holds a page of it
/// any more (the clones that needed the freeze were dropped or
/// [`release`]d), it becomes the private arena again and that write and
/// every later one land in place. Otherwise the memory gives the arena
/// up for good and copies pages as above. Only this memory's own slots
/// can make a new holder of that arena, and it is borrowed mutably, so
/// a count that shows no other holder cannot go stale on any thread.
///
/// Storage outlives the contents written into it: a refill
/// (`clone_from`) and a [`release`] keep every arena chunk, emptied,
/// and a `freeze` hands on only the chunks that hold pages, so a memory
/// that is refilled and written again allocates a chunk only when it
/// holds more private pages than its chunks ever had room for.
///
/// [`freeze`]: DramContents::freeze
/// [`release`]: DramContents::release
#[derive(Debug, Default)]
pub struct DramContents {
    /// Page number → page. No page here is all-zero: a page whose last
    /// non-zero line is cleared is dropped, so equal contents have equal
    /// page sets.
    page_slots: PageTable,
    /// This memory's private pages.
    arena: Arena,
    backed: usize,
    /// The arena the last `freeze` made, until the first write after it
    /// decides whether to take it back.
    frozen: Option<Arc<Arena>>,
    /// Slots that point into `frozen`.
    frozen_slots: usize,
    /// Pages copied in from shared arenas since this memory was made.
    copied: u64,
    /// Arena chunks allocated since this memory was made.
    chunks: u64,
}

fn split(line: LineAddr) -> (u64, usize) {
    (
        line.raw() >> PAGE_SHIFT,
        (line.raw() % LINES_PER_PAGE as u64) as usize,
    )
}

impl DramContents {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        DramContents::default()
    }

    fn page<'a>(&'a self, slot: &'a Slot) -> &'a Page {
        slot.shared.as_deref().unwrap_or(&self.arena).page(slot.idx)
    }

    /// Borrows a backed cache line in place (`None`: the line reads as
    /// zero) — [`read_line`](Self::read_line) without the copy.
    #[inline]
    pub fn line(&self, line: LineAddr) -> Option<&[u64; WORDS_PER_LINE]> {
        let (no, off) = split(line);
        self.page_slots
            .get(&no)
            .map(|slot| &self.page(slot).lines[off])
    }

    /// Reads a full cache line.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        self.line(line).copied().unwrap_or(ZERO_LINE)
    }

    /// Writes a full cache line.
    pub fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        if self.frozen.is_some() {
            self.take_back();
        }
        let chunks = self.arena.chunks.len();
        let (no, off) = split(line);
        let is_backed = data != ZERO_LINE;
        let idx = match self.page_slots.get_mut(&no) {
            Some(slot) => {
                if let Some(frozen) = slot.shared.take() {
                    // First write to a shared page: copy it in.
                    slot.idx = self.arena.alloc(frozen.page(slot.idx));
                    self.copied += 1;
                }
                slot.idx
            }
            // Keep the image sparse: an all-zero line equals unbacked.
            None if !is_backed => return,
            None => {
                let idx = self.arena.alloc(&Page::ZERO);
                self.page_slots.insert(no, Slot { shared: None, idx });
                idx
            }
        };
        self.chunks += (self.arena.chunks.len() - chunks) as u64;
        let page = self.arena.page_mut(idx);
        let was_backed = page.lines[off] != ZERO_LINE;
        page.lines[off] = data;
        page.backed = page.backed + u32::from(is_backed) - u32::from(was_backed);
        self.backed = self.backed + usize::from(is_backed) - usize::from(was_backed);
        if page.backed == 0 {
            self.page_slots.remove(&no);
            self.arena.free.push(idx);
        }
    }

    /// Reads the aligned 8-byte word containing `addr`.
    #[inline]
    pub fn read_word(&self, addr: PAddr) -> u64 {
        self.line(addr.line())
            .map_or(0, |line| line[(addr.line_offset() / 8) as usize])
    }

    /// Writes the aligned 8-byte word containing `addr`.
    pub fn write_word(&mut self, addr: PAddr, value: u64) {
        let la = addr.line();
        let mut line = self.read_line(la);
        line[(addr.line_offset() / 8) as usize] = value;
        self.write_line(la, line);
    }

    /// Number of backed (non-zero) lines.
    pub fn backed_lines(&self) -> usize {
        self.backed
    }

    /// Number of pages only this memory holds — the pages a `clone`
    /// would have to copy. Zero right after [`freeze`](Self::freeze).
    pub fn private_pages(&self) -> usize {
        self.arena.live()
    }

    /// Pages this memory keeps alive: its private pages, and every page
    /// of each shared arena it points into, whether or not it still
    /// reads that page — an arena is freed whole, when its last holder
    /// lets go.
    pub fn retained_pages(&self) -> usize {
        // nestlint: allow(determinism-taint) -- the arena pointers are
        // sorted and deduped below, so the visiting order washes out.
        let mut arenas: Vec<&Arc<Arena>> = (self.page_slots.values())
            .filter_map(|slot| slot.shared.as_ref())
            .collect();
        arenas.sort_unstable_by_key(|a| Arc::as_ptr(a));
        arenas.dedup_by(|a, b| Arc::ptr_eq(a, b));
        self.private_pages() + arenas.iter().map(|a| a.live()).sum::<usize>()
    }

    /// Pages this memory copied in from shared arenas on a first write,
    /// since it was made. A refill keeps the count, as it keeps the
    /// storage the pages were copied into.
    pub fn copied_pages(&self) -> u64 {
        self.copied
    }

    /// Starts [`copied_pages`](Self::copied_pages) and
    /// [`chunks_allocated`](Self::chunks_allocated) from zero again, for a
    /// memory handed on to an owner whose copies and chunks those were
    /// not.
    pub fn restart_counts(&mut self) {
        self.copied = 0;
        self.chunks = 0;
    }

    /// Arena chunks (64 pages, one heap allocation each) this memory
    /// allocated since it was made: by a clone, a refill or a write that
    /// found every chunk it holds full.
    pub fn chunks_allocated(&self) -> u64 {
        self.chunks
    }

    /// Makes every private page shared, without copying any: the
    /// private arena's used chunks become one reference-counted block
    /// and the slots that indexed it point at that block instead; the
    /// spare chunks stay private, for the writes after it. Contents do
    /// not change; subsequent clones copy no page. This memory's next
    /// write takes the block back whole if by then no clone holds any of
    /// it, and otherwise copies each page it writes first.
    pub fn freeze(&mut self) {
        if self.arena.live() == 0 {
            return;
        }
        debug_assert!(
            self.frozen.is_none(),
            "private pages, yet no write since the freeze"
        );
        // A spare chunk handed on would be stranded with the block for
        // as long as any clone holds a page of it.
        let frozen = Arc::new(self.arena.split_used());
        let mut n = 0;
        // nestlint: allow(determinism-taint) -- every private slot gets the same arena pointer and keeps its index; visiting order changes nothing
        for slot in self.page_slots.values_mut() {
            if slot.shared.is_none() {
                slot.shared = Some(Arc::clone(&frozen));
                n += 1;
            }
        }
        self.frozen = Some(frozen);
        self.frozen_slots = n;
    }

    /// The first write since [`freeze`](Self::freeze) decides: the
    /// arena that freeze made becomes the private arena again when this
    /// memory's own slots are its only holders. Either way the arena is
    /// no longer remembered, so the decision is made once per freeze,
    /// before any page is copied out of the arena or allocated beside
    /// it — the private arena still holds no page, only the spare chunks
    /// the freeze left, which go after the taken-back ones, so no index
    /// of the taken-back arena can collide with it.
    fn take_back(&mut self) {
        let Some(frozen) = self.frozen.take() else {
            return;
        };
        debug_assert_eq!(self.arena.live(), 0, "a page written since the freeze");
        // One count per slot, plus `frozen` itself. Only a holder can
        // make another holder, and every one left is ours behind
        // `&mut self`, so no thread can raise the count after this.
        if Arc::strong_count(&frozen) != self.frozen_slots + 1 {
            return;
        }
        // nestlint: allow(determinism-taint) -- each slot into the taken-back arena turns private and keeps its index; visiting order changes nothing
        for slot in self.page_slots.values_mut() {
            if slot
                .shared
                .as_ref()
                .is_some_and(|s| Arc::ptr_eq(s, &frozen))
            {
                slot.shared = None;
            }
        }
        // `frozen` is now the last reference; `unwrap_or_clone` moves the
        // arena out (its acquire pairs with the releases of the holders
        // that let go on other threads) and would copy it, still
        // correctly, if the count argument above were ever wrong.
        self.adopt(Arc::unwrap_or_clone(frozen));
    }

    /// Makes `back`, an arena this memory froze, the private arena again,
    /// with the spare chunks the freeze left after its own.
    fn adopt(&mut self, mut back: Arena) {
        back.chunks.append(&mut self.arena.chunks);
        self.arena = back;
    }

    /// Drops every page and empties every chunk. The arena the last
    /// freeze made comes back first when nothing else holds it — this
    /// memory's slots are gone by then — so its chunks stay this
    /// memory's storage instead of being freed.
    fn recycle(&mut self) {
        if let Some(back) = self.frozen.take().and_then(Arc::into_inner) {
            self.adopt(back);
        }
        self.frozen_slots = 0;
        self.arena.recycle();
    }

    /// Drops every page, keeping the buffers — the page table's and
    /// every arena chunk this memory holds — for a later `clone_from` to
    /// refill. The memory then reads as all-zero. A memory parked for
    /// reuse calls this so that it stops holding the pages of the one it
    /// was cloned from, which can then take them back.
    pub fn release(&mut self) {
        self.page_slots.clear();
        self.recycle();
        self.backed = 0;
    }

    /// [`release`](Self::release), freeing every arena chunk too, and the
    /// counts start from zero ([`restart_counts`](Self::restart_counts)):
    /// the memory keeps only its page table's buffer. For a memory parked
    /// without a next owner — how many chunks that one needs depends on
    /// the pages its run dirties, not on anything this one ran.
    pub fn release_storage(&mut self) {
        self.release();
        self.arena = Arena::default();
        self.restart_counts();
    }
}

impl Clone for DramContents {
    fn clone(&self) -> Self {
        let DramContents {
            page_slots,
            arena,
            backed,
            frozen: _,
            frozen_slots: _,
            copied: _,
            chunks: _,
        } = self;
        // The copy did not freeze the arenas it points into, so it can
        // never take one back.
        DramContents {
            page_slots: page_slots.clone(),
            arena: arena.clone(),
            backed: *backed,
            frozen: None,
            frozen_slots: 0,
            copied: 0,
            chunks: arena.used as u64,
        }
    }

    /// Becomes a copy of `source`, reusing this memory's buffers: the
    /// page table's, and every arena chunk it holds, emptied, so that
    /// first writes to shared pages land in memory already allocated.
    /// This memory's private pages are dropped; `source`'s, if it has
    /// any (a frozen one — a positioned cursor, a rung — has none), are
    /// copied into its chunks. The counters go on counting.
    fn clone_from(&mut self, source: &Self) {
        let DramContents {
            page_slots,
            arena,
            backed,
            frozen: _,
            frozen_slots: _,
            copied: _,
            chunks: _,
        } = source;
        refill_table(&mut self.page_slots, page_slots);
        self.recycle();
        let chunks = self.arena.chunks.len();
        self.arena.clone_from(arena);
        self.chunks += (self.arena.chunks.len() - chunks) as u64;
        self.backed = *backed;
    }
}

impl PartialEq for DramContents {
    fn eq(&self, other: &Self) -> bool {
        // No stored page is all-zero, so equal contents have equal page
        // sets; pages compare by bytes, wherever they live.
        self.backed == other.backed
            && self.page_slots.len() == other.page_slots.len()
            // nestlint: allow(determinism-taint) -- an `all` over
            // independent per-page comparisons is order-free.
            && self.page_slots.iter().all(|(no, slot)| {
                other
                    .page_slots
                    .get(no)
                    .is_some_and(|o| self.page(slot).lines == other.page(o).lines)
            })
    }
}

impl Eq for DramContents {}

/// A copy-on-write overlay over base DRAM contents.
///
/// During co-simulation, both the *target* (error-injected) and the
/// *golden* component write through their own overlays over the shared
/// base memory. Diffing the two overlays at the end of co-simulation
/// yields exactly the set of memory lines the soft error corrupted —
/// the quantity Sec. 5.2's rollback-distance analysis is built on.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DramOverlay {
    writes: LineMap,
}

// Hand-written so that `clone_from` copies into the table it holds.
impl Clone for DramOverlay {
    fn clone(&self) -> Self {
        DramOverlay {
            writes: self.writes.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.writes.clone_from(&source.writes);
    }
}

impl DramOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        DramOverlay::default()
    }

    /// Reads a line, preferring overlay contents over `base`.
    pub fn read_line(&self, base: &DramContents, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        self.writes
            .get(&line.raw())
            .copied()
            .unwrap_or_else(|| base.read_line(line))
    }

    /// Writes a line into the overlay (base is untouched).
    pub fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        self.writes.insert(line.raw(), data);
    }

    /// Forgets every write, keeping the storage.
    pub fn clear(&mut self) {
        self.writes.clear();
    }

    /// Number of lines written through this overlay.
    pub fn written_lines(&self) -> usize {
        self.writes.len()
    }

    /// Lines whose effective contents differ between `self` and `other`
    /// (both over the same `base`).
    pub fn diff_lines(&self, other: &DramOverlay, base: &DramContents) -> Vec<LineAddr> {
        let mut keys: Vec<u64> = self
            .writes
            .keys() // nestlint: allow(determinism-taint) -- sorted and deduped below, hasher order washes out
            .chain(other.writes.keys()) // nestlint: allow(determinism-taint) -- sorted and deduped below, hasher order washes out
            .copied()
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .filter(|&k| {
                self.read_line(base, LineAddr::new(k)) != other.read_line(base, LineAddr::new(k))
            })
            .map(LineAddr::new)
            .collect()
    }

    /// Whether any line's effective contents differ between `self` and
    /// `other` (both over the same `base`): `!diff_lines(..).is_empty()`
    /// without building the list — the per-check form of the golden
    /// compare, which only needs the verdict.
    pub fn differs(&self, other: &DramOverlay, base: &DramContents) -> bool {
        // nestlint: allow(determinism-taint) -- `any` over independent per-line comparisons is order-free
        let in_ours = self.writes.iter().any(|(&k, data)| {
            let line = LineAddr::new(k);
            *data != other.read_line(base, line)
        });
        if in_ours {
            return true;
        }
        // A line only `other` wrote differs when it changed the base.
        // nestlint: allow(determinism-taint) -- `any` over independent per-line comparisons is order-free
        other.writes.iter().any(|(&k, data)| {
            !self.writes.contains_key(&k) && *data != base.read_line(LineAddr::new(k))
        })
    }

    /// Applies all overlay writes to `base` (end-of-co-simulation state
    /// transfer back to the high-level model, Fig. 2 step 10).
    pub fn apply_to(&self, base: &mut DramContents) {
        // nestlint: allow(determinism-taint) -- one write per distinct line key, so application order cannot change the final contents
        for (&k, &v) in &self.writes {
            base.write_line(LineAddr::new(k), v);
        }
    }
}

/// A line-granular memory backend.
///
/// Abstracts "where fills come from and writebacks go to" so the same
/// architectural cache code serves both the accelerated mode (backed by
/// [`DramContents`] directly) and co-simulation (backed by a
/// [`DramOverlay`] so golden/target writes stay separable).
pub trait LineBackend {
    /// Reads a full line.
    fn read_line(&mut self, line: LineAddr) -> [u64; WORDS_PER_LINE];
    /// Writes a full line.
    fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]);
}

impl LineBackend for DramContents {
    fn read_line(&mut self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        DramContents::read_line(self, line)
    }
    fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        DramContents::write_line(self, line, data)
    }
}

/// Borrowed (base, overlay) pair implementing [`LineBackend`]: reads see
/// base-plus-overlay, writes land in the overlay only.
#[derive(Debug)]
pub struct OverlayBackend<'a> {
    base: &'a DramContents,
    overlay: &'a mut DramOverlay,
}

impl<'a> OverlayBackend<'a> {
    /// Creates a backend over `base` writing through `overlay`.
    pub fn new(base: &'a DramContents, overlay: &'a mut DramOverlay) -> Self {
        OverlayBackend { base, overlay }
    }
}

impl LineBackend for OverlayBackend<'_> {
    fn read_line(&mut self, line: LineAddr) -> [u64; WORDS_PER_LINE] {
        self.overlay.read_line(self.base, line)
    }
    fn write_line(&mut self, line: LineAddr, data: [u64; WORDS_PER_LINE]) {
        self.overlay.write_line(line, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbacked_reads_zero() {
        let m = DramContents::new();
        assert_eq!(m.read_word(PAddr::new(0xdead_b000)), 0);
        assert_eq!(m.read_line(LineAddr::new(77)), [0; WORDS_PER_LINE]);
    }

    #[test]
    fn any_line_address_is_storable() {
        // Bit flips in co-simulated address fields reach memory as
        // arbitrary 64-bit line addresses.
        let mut m = DramContents::new();
        for raw in [u64::MAX, 1 << 63, (1 << 40) + 17] {
            m.write_line(LineAddr::new(raw), [raw; WORDS_PER_LINE]);
            assert_eq!(m.read_line(LineAddr::new(raw)), [raw; WORDS_PER_LINE]);
        }
        assert_eq!(m.backed_lines(), 3);
    }

    #[test]
    fn word_read_write_round_trip() {
        let mut m = DramContents::new();
        m.write_word(PAddr::new(0x100), 7);
        m.write_word(PAddr::new(0x108), 8);
        assert_eq!(m.read_word(PAddr::new(0x100)), 7);
        assert_eq!(m.read_word(PAddr::new(0x108)), 8);
        // Same line.
        assert_eq!(m.backed_lines(), 1);
    }

    #[test]
    fn zero_line_stays_sparse() {
        let mut m = DramContents::new();
        m.write_word(PAddr::new(0x100), 7);
        m.write_word(PAddr::new(0x100), 0);
        assert_eq!(m.backed_lines(), 0);
    }

    #[test]
    fn overlay_shadows_base() {
        let mut base = DramContents::new();
        base.write_word(PAddr::new(0x40), 1);
        let mut ov = DramOverlay::new();
        assert_eq!(ov.read_line(&base, LineAddr::new(1))[0], 1);
        ov.write_line(LineAddr::new(1), [9; WORDS_PER_LINE]);
        assert_eq!(ov.read_line(&base, LineAddr::new(1))[0], 9);
        assert_eq!(base.read_word(PAddr::new(0x40)), 1); // base untouched
    }

    /// `diff_lines` with `differs` checked against it, both ways round.
    fn diff(a: &DramOverlay, b: &DramOverlay, base: &DramContents) -> Vec<LineAddr> {
        let d = a.diff_lines(b, base);
        assert_eq!(a.differs(b, base), !d.is_empty());
        assert_eq!(b.differs(a, base), !d.is_empty());
        d
    }

    #[test]
    fn overlay_diff_finds_corruption() {
        let mut base = DramContents::new();
        base.write_line(LineAddr::new(7), [3; WORDS_PER_LINE]);
        let mut t = DramOverlay::new();
        let mut g = DramOverlay::new();
        assert!(diff(&t, &g, &base).is_empty());
        // Same write → no diff.
        t.write_line(LineAddr::new(5), [1; WORDS_PER_LINE]);
        g.write_line(LineAddr::new(5), [1; WORDS_PER_LINE]);
        // One side rewriting what the base already holds → no diff.
        t.write_line(LineAddr::new(7), [3; WORDS_PER_LINE]);
        assert!(diff(&t, &g, &base).is_empty());
        // Corrupted write by the target only.
        t.write_line(LineAddr::new(9), [2; WORDS_PER_LINE]);
        assert_eq!(diff(&t, &g, &base), vec![LineAddr::new(9)]);
    }

    #[test]
    fn overlay_apply_merges() {
        let mut base = DramContents::new();
        let mut ov = DramOverlay::new();
        ov.write_line(LineAddr::new(3), [4; WORDS_PER_LINE]);
        ov.apply_to(&mut base);
        assert_eq!(base.read_line(LineAddr::new(3)), [4; WORDS_PER_LINE]);
    }

    #[test]
    fn overlay_golden_write_missing_in_target_is_diff() {
        let base = DramContents::new();
        let t = DramOverlay::new();
        let mut g = DramOverlay::new();
        g.write_line(LineAddr::new(2), [5; WORDS_PER_LINE]);
        // Target dropped a write the golden performed → divergence.
        assert_eq!(diff(&t, &g, &base), vec![LineAddr::new(2)]);
    }

    #[test]
    fn first_write_to_a_shared_page_copies_only_that_page() {
        let mut m = DramContents::new();
        for page in 0..3u64 {
            m.write_line(
                LineAddr::new(page * LINES_PER_PAGE as u64),
                [1; WORDS_PER_LINE],
            );
        }
        assert_eq!(m.private_pages(), 3);
        m.freeze();
        assert_eq!(m.private_pages(), 0);
        let mut c = m.clone();
        assert_eq!(c.private_pages(), 0);
        c.write_line(LineAddr::new(1), [2; WORDS_PER_LINE]);
        assert_eq!(c.private_pages(), 1);
        // The copy carries the page's other lines; the original is untouched.
        assert_eq!(c.read_line(LineAddr::new(0)), [1; WORDS_PER_LINE]);
        assert_eq!(m.read_line(LineAddr::new(1)), [0; WORDS_PER_LINE]);
        assert_eq!((m.backed_lines(), c.backed_lines()), (3, 4));
        assert_ne!(m, c);
    }

    /// Writes one line in each of pages `from..to`, with `value`.
    fn fill(m: &mut DramContents, from: u64, to: u64, value: u64) {
        for page in from..to {
            m.write_line(
                LineAddr::new(page * LINES_PER_PAGE as u64),
                [value; WORDS_PER_LINE],
            );
        }
    }

    /// A memory with one backed line in each of `pages` pages.
    fn paged(pages: u64) -> DramContents {
        let mut m = DramContents::new();
        fill(&mut m, 0, pages, 1);
        m
    }

    #[test]
    fn a_writer_takes_back_what_it_froze_once_no_clone_holds_it() {
        let mut m = paged(3);
        m.freeze();
        let c = m.clone();
        drop(c);
        m.write_line(LineAddr::new(1), [2; WORDS_PER_LINE]);
        // The whole arena came back: nothing copied, all three private.
        assert_eq!((m.copied_pages(), m.private_pages()), (0, 3));
        assert_eq!(m.retained_pages(), 3);

        // A released clone lets go just as a dropped one does.
        m.freeze();
        let mut c = m.clone();
        c.release();
        assert_eq!((c.backed_lines(), c.retained_pages()), (0, 0));
        assert_eq!(c.read_line(LineAddr::new(0)), ZERO_LINE);
        m.write_line(LineAddr::new(2), [3; WORDS_PER_LINE]);
        assert_eq!((m.copied_pages(), m.private_pages()), (0, 3));
    }

    #[test]
    fn a_live_clone_keeps_the_frozen_arena_shared_for_good() {
        let mut m = paged(3);
        m.freeze();
        let c = m.clone();
        m.write_line(LineAddr::new(1), [2; WORDS_PER_LINE]);
        assert_eq!((m.copied_pages(), m.private_pages()), (1, 1));
        assert_eq!(c.read_line(LineAddr::new(1)), ZERO_LINE);
        // The first write decided: dropping the clone now brings
        // nothing back, and each first write still copies its page.
        drop(c);
        m.write_line(LineAddr::new(LINES_PER_PAGE as u64), [2; WORDS_PER_LINE]);
        assert_eq!((m.copied_pages(), m.private_pages()), (2, 2));
        // The arena stays alive whole while any page of it is read.
        assert_eq!(m.retained_pages(), 2 + 3);
    }

    #[test]
    fn clones_and_refills_never_take_back_an_arena_they_did_not_freeze() {
        let mut m = paged(2);
        m.freeze();
        let mut c = m.clone();
        drop(m);
        c.write_line(LineAddr::new(1), [2; WORDS_PER_LINE]);
        assert_eq!((c.copied_pages(), c.private_pages()), (1, 1));
        let mut r = paged(1);
        r.freeze();
        c.freeze();
        r.clone_from(&c);
        drop(c);
        r.write_line(LineAddr::new(2), [2; WORDS_PER_LINE]);
        assert_eq!(r.copied_pages(), 1);
    }

    #[test]
    fn a_refill_writes_into_every_chunk_it_holds() {
        let mut base = paged(200);
        base.freeze();
        let mut m = base.clone();
        fill(&mut m, 0, 200, 2);
        // 200 pages copied: four 64-page chunks.
        assert_eq!((m.copied_pages(), m.chunks_allocated()), (200, 4));
        m.release();
        m.clone_from(&base);
        fill(&mut m, 0, 200, 3);
        assert_eq!((m.copied_pages(), m.chunks_allocated()), (400, 4));
        // A source with private pages is copied into the same chunks.
        let mut other = paged(150);
        other.clone_from(&m);
        assert_eq!(other.chunks_allocated(), 3 + 1);
        assert!(other == m);
        m.clone_from(&paged(100));
        assert_eq!(m.chunks_allocated(), 4);
    }

    #[test]
    fn a_freeze_hands_on_only_the_chunks_in_use() {
        // Four chunks, emptied; ten pages in the first.
        let mut m = paged(200);
        m.release();
        fill(&mut m, 0, 10, 1);
        m.freeze();
        // A live clone keeps the frozen chunk shared for good; the
        // three spare ones stayed with `m` for its next 150 pages.
        let c = m.clone();
        fill(&mut m, 10, 160, 1);
        assert_eq!((m.chunks_allocated(), m.private_pages()), (4, 150));
        assert!(c == paged(10) && m == paged(160));

        // Taken back, the frozen chunks go before the spare ones: no
        // index collides, and the next 130 pages need no new chunk.
        let mut m = paged(200);
        m.release();
        fill(&mut m, 0, 70, 1);
        m.freeze();
        drop(m.clone());
        fill(&mut m, 70, 200, 1);
        assert_eq!((m.chunks_allocated(), m.private_pages()), (4, 200));
        assert_eq!(m.copied_pages(), 0);
        assert!(m == paged(200));
    }

    #[test]
    fn a_refilled_table_keeps_its_capacity() {
        type Map = HashMap<u64, u64, BuildU64Hasher>;
        let map_of = |n: u64| -> Map { (0..n).map(|k| (k * 7, k)).collect() };
        let mut kept = map_of(1_000);
        let room = kept.capacity();
        // Smaller and empty sources: refilled in place.
        for smaller in [map_of(10), map_of(0), map_of(900)] {
            refill_table(&mut kept, &smaller);
            assert_eq!((kept.capacity(), &kept), (room, &smaller));
        }
        // Only a source with more entries than it has room for grows it.
        let big = map_of(room as u64 + 1);
        refill_table(&mut kept, &big);
        assert!(kept.capacity() > room && kept == big);
    }

    #[test]
    fn equality_ignores_sharing_history() {
        let mut a = DramContents::new();
        a.write_word(PAddr::new(0x40), 1);
        a.freeze();
        a.write_word(PAddr::new(0x2000), 2);
        let mut b = DramContents::new();
        b.write_word(PAddr::new(0x2000), 2);
        b.write_word(PAddr::new(0x40), 1);
        assert_eq!(a, b);
        // Clearing a page's last line drops the page on either side.
        a.write_word(PAddr::new(0x40), 0);
        b.write_word(PAddr::new(0x40), 0);
        assert_eq!(a, b);
        assert_eq!(a.backed_lines(), 1);
    }
}
