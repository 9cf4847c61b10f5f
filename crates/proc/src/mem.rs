//! The address space: VMAs, pages, dirty bits.
//!
//! Mirrors what the paper's precopy implementation tracks (§V-A):
//!
//! * **dirty pages** inside existing regions, via the PTE dirty bit — here a
//!   dirty bitmap per region (one bit per page), cleared when the
//!   incremental checkpointer collects the page;
//! * **changes to the address space itself** — insertions (mmap),
//!   modifications (grow/shrink) and removals (munmap) of regions, which the
//!   paper detects by diffing the live `vm_area_struct` list against a
//!   tracking list (the diffing lives in `dvelm-ckpt`; this module exposes
//!   the live list).
//!
//! Page state is stored column-wise per region: a dense `Vec<u64>` of
//! fingerprints, a `Vec<u8>` of pending-write counts, a `Vec<u64>` dirty
//! bitmap and the region's dirty count. A region never written since `mmap`
//! stores only its seed — page `i` holds `mix(seed, i)`, computed when
//! read — and becomes dense on its first write, resize or restore-path
//! page. Game clients never write their pages, so each of them costs a few
//! words instead of 9 bytes per page.
//!
//! A write does not rewrite the 8-byte fingerprint: it bumps the page's
//! pending count and sets its dirty bit. Page `i`'s fingerprint is the
//! stored one with `mix(·, WRITE_SALT)` applied `pending[i]` times, folded
//! on the fly by every read. A count that reaches 255 is folded into the
//! stored fingerprint at once, so the byte never overflows. `collect_dirty`
//! folds and zeroes the count of every page it collects, which keeps the
//! invariant *pending > 0 ⇒ dirty*: a clean page's fingerprint is always
//! stored in full, and repeated precopy reads never repeat the chain. The
//! hot write thus touches a byte where it used to rewrite 8, for 1 extra
//! byte per page of a written region.

use dvelm_sim::DetRng;

/// Page size in bytes (x86-64 small pages, as on the paper's Opterons).
pub const PAGE_SIZE: u64 = 4096;

/// Identifier of a mapped region, stable across its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmaId(pub u64);

/// What a region holds (affects which regions the workload dirties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmaKind {
    /// Program text: read-only, never dirty after load.
    Text,
    /// Initialised data / BSS.
    Data,
    /// Heap allocations.
    Heap,
    /// Thread stacks.
    Stack,
    /// Anonymous mappings (e.g. game world state).
    Anon,
}

/// One page: content fingerprint + dirty bit (a value read out of a [`Vma`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Page {
    /// 64-bit stand-in for the page contents.
    pub fingerprint: u64,
    /// PTE dirty bit analogue; cleared by the incremental checkpointer.
    pub dirty: bool,
}

/// What one write mixes into a page's fingerprint.
const WRITE_SALT: u64 = 0x9E37_79B9;

/// Page fingerprints of one region.
#[derive(Debug, Clone)]
enum Contents {
    /// Never written since `mmap`: page `i` holds `mix(seed, i)`.
    Seeded { seed: u64, len: usize },
    /// Page `i` holds `fps[i]` with `pending[i]` writes folded in; both
    /// vectors always have one entry per page.
    Dense { fps: Vec<u64>, pending: Vec<u8> },
}

impl Contents {
    fn len(&self) -> usize {
        match self {
            Contents::Seeded { len, .. } => *len,
            Contents::Dense { fps, .. } => fps.len(),
        }
    }

    /// Fingerprint of page `i`; the caller checks `i < len()`.
    fn get(&self, i: usize) -> u64 {
        match self {
            Contents::Seeded { seed, .. } => mix(*seed, i as u64),
            Contents::Dense { fps, pending } => fold(fps[i], pending[i]),
        }
    }

    /// Fingerprint of page `i`, with its pending writes folded into the
    /// stored fingerprint and the count cleared.
    fn settle(&mut self, i: usize) -> u64 {
        match self {
            Contents::Seeded { seed, .. } => mix(*seed, i as u64),
            Contents::Dense { fps, pending } => {
                let n = std::mem::take(&mut pending[i]);
                if n > 0 {
                    fps[i] = fold(fps[i], n);
                }
                fps[i]
            }
        }
    }
}

/// `fp` after `writes` more writes.
#[inline]
fn fold(fp: u64, writes: u8) -> u64 {
    (0..writes).fold(fp, |f, _| mix(f, WRITE_SALT))
}

/// A mapped region (`vm_area_struct` analogue).
#[derive(Debug, Clone)]
pub struct Vma {
    pub id: VmaId,
    pub kind: VmaKind,
    /// Virtual start address (page aligned).
    pub start: u64,
    contents: Contents,
    /// Bit `i % 64` of word `i / 64` is page `i`'s dirty bit. Bits past the
    /// last page are always clear, so a shrink followed by a grow cannot
    /// bring stale dirty pages back.
    dirty: Vec<u64>,
    /// Set bits in `dirty`.
    dirty_count: usize,
}

impl PartialEq for Vma {
    /// Regions are equal when their metadata and every page are; whether
    /// the fingerprints are stored or computed does not matter.
    fn eq(&self, other: &Vma) -> bool {
        self.id == other.id
            && self.kind == other.kind
            && self.start == other.start
            && self.pages().eq(other.pages())
    }
}

impl Eq for Vma {}

impl Vma {
    /// Number of pages in the region.
    pub fn page_count(&self) -> usize {
        self.contents.len()
    }

    /// Region length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.page_count() as u64 * PAGE_SIZE
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> u64 {
        self.start + self.len_bytes()
    }

    /// Page `i`. Panics if `i` is out of range.
    pub fn page(&self, i: usize) -> Page {
        let len = self.page_count();
        assert!(i < len, "page {i} out of range for a {len}-page VMA");
        Page {
            fingerprint: self.contents.get(i),
            dirty: self.dirty[i / 64] & bit(i) != 0,
        }
    }

    /// Every page, in index order.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = Page> + '_ {
        (0..self.page_count()).map(|i| self.page(i))
    }

    /// The stored fingerprints and pending-write counts, materialising a
    /// never-written region first.
    fn dense_mut(&mut self) -> (&mut Vec<u64>, &mut Vec<u8>) {
        if let Contents::Seeded { seed, len } = self.contents {
            self.contents = Contents::Dense {
                fps: (0..len as u64).map(|i| mix(seed, i)).collect(),
                pending: vec![0; len],
            };
        }
        match &mut self.contents {
            Contents::Dense { fps, pending } => (fps, pending),
            Contents::Seeded { .. } => unreachable!("contents were made dense above"),
        }
    }

    /// Write page `i`: one more pending write, dirty bit set.
    fn write(&mut self, i: usize) {
        let (fps, pending) = self.dense_mut();
        let n = &mut pending[i];
        *n += 1;
        if *n == u8::MAX {
            fps[i] = fold(fps[i], u8::MAX);
            *n = 0;
        }
        let word = &mut self.dirty[i / 64];
        if *word & bit(i) == 0 {
            *word |= bit(i);
            self.dirty_count += 1;
        }
    }

    /// Grow or shrink to `len` pages. Grown page `i` holds `fill(i)` and is
    /// dirty if `dirty` is set; a shrink drops the dirty bits it cuts off.
    fn set_len(&mut self, len: usize, dirty: bool, fill: impl Fn(u64) -> u64) {
        let old = self.page_count();
        let (fps, pending) = self.dense_mut();
        pending.resize(len, 0);
        if len >= old {
            fps.extend((old as u64..len as u64).map(fill));
            self.dirty.resize(len.div_ceil(64), 0);
            if dirty {
                set_bits(&mut self.dirty, old..len);
                self.dirty_count += len - old;
            }
            return;
        }
        fps.truncate(len);
        // Drop the dirty bits of the cut pages: whole words, then the tail
        // of the new last word.
        let words = len.div_ceil(64);
        let mut cut: u32 = self.dirty[words..].iter().map(|w| w.count_ones()).sum();
        self.dirty.truncate(words);
        if !len.is_multiple_of(64) {
            let last = &mut self.dirty[words - 1];
            let keep = bit(len) - 1;
            cut += (*last & !keep).count_ones();
            *last &= keep;
        }
        self.dirty_count -= cut as usize;
    }
}

/// Mask of page `i`'s bit within its bitmap word.
#[inline]
fn bit(i: usize) -> u64 {
    1 << (i % 64)
}

/// Set the dirty bits of pages `range`.
fn set_bits(words: &mut [u64], range: std::ops::Range<usize>) {
    for i in range {
        words[i / 64] |= bit(i);
    }
}

thread_local! {
    /// Indices into `AddressSpace::vmas` of the writable regions, rebuilt
    /// by every `dirty_random` call. One buffer per thread rather than one
    /// per address space: a field would widen every process entry, and
    /// tens of thousands of idle clients would pay for it.
    static WRITABLE: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A reference to a (possibly dirty) page, as collected by the checkpointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRef {
    pub vma: VmaId,
    pub index: usize,
    pub fingerprint: u64,
}

/// A process address space.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    /// Live regions, sorted by id.
    vmas: Vec<Vma>,
    next_vma: u64,
    next_addr: u64,
    /// Total pages ever dirtied (statistics).
    pub dirtied_total: u64,
}

impl AddressSpace {
    /// An empty address space.
    pub fn new() -> AddressSpace {
        AddressSpace {
            vmas: Vec::new(),
            next_vma: 1,
            next_addr: 0x0000_5555_0000_0000,
            dirtied_total: 0,
        }
    }

    /// Map a new region of `pages` pages; contents initialised from `seed`.
    /// All pages start dirty (they have never been checkpointed).
    pub fn mmap(&mut self, kind: VmaKind, pages: usize, seed: u64) -> VmaId {
        let id = VmaId(self.next_vma);
        self.next_vma += 1;
        let start = self.next_addr;
        self.next_addr += (pages as u64 + 16) * PAGE_SIZE; // guard gap
        let mut dirty = vec![0; pages.div_ceil(64)];
        set_bits(&mut dirty, 0..pages);
        self.insert(Vma {
            id,
            kind,
            start,
            contents: Contents::Seeded { seed, len: pages },
            dirty,
            dirty_count: pages,
        });
        id
    }

    /// Unmap a region.
    pub fn munmap(&mut self, id: VmaId) -> bool {
        match self.position(id) {
            Ok(i) => {
                self.vmas.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Grow or shrink a region to `pages` pages (heap growth, stack growth).
    /// New pages start dirty.
    pub fn resize(&mut self, id: VmaId, pages: usize, seed: u64) {
        self.vma_mut(id, "resize of unmapped VMA")
            .set_len(pages, true, |i| mix(seed, i));
    }

    /// Write to a page: new fingerprint, dirty bit set.
    pub fn write_page(&mut self, id: VmaId, index: usize) {
        self.vma_mut(id, "write to unmapped VMA").write(index);
        self.dirtied_total += 1;
    }

    /// Dirty `count` pages — the workload's memory activity between precopy
    /// iterations. Each write first picks a writable (non-text, non-empty)
    /// region uniformly at random, then a page uniformly within it. Regions
    /// are weighted equally, not by size: a process's 64-page stack takes
    /// as many writes as its 4,096-page data region.
    pub fn dirty_random(&mut self, rng: &mut DetRng, count: usize) {
        WRITABLE.with_borrow_mut(|writable| {
            writable.clear();
            writable.extend(
                self.vmas
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.kind != VmaKind::Text && v.page_count() > 0)
                    .map(|(i, _)| i),
            );
            if writable.is_empty() {
                return;
            }
            for _ in 0..count {
                let vma = &mut self.vmas[writable[rng.index(writable.len())]];
                let idx = rng.index(vma.page_count());
                vma.write(idx);
            }
            self.dirtied_total += count as u64;
        });
    }

    /// Collect and clear every dirty page (one precopy iteration's payload),
    /// in region-id then page-index order. Clean regions are skipped via
    /// their dirty counts, and dirty ones are walked a bitmap word at a
    /// time — steady-state iterations over a mostly-clean space touch
    /// almost nothing. Each collected page's pending writes are folded into
    /// its stored fingerprint, so clean pages never carry a count.
    pub fn collect_dirty(&mut self) -> Vec<PageRef> {
        let mut out = Vec::with_capacity(self.dirty_count());
        for vma in &mut self.vmas {
            if vma.dirty_count == 0 {
                continue;
            }
            vma.dirty_count = 0;
            for (w, word) in vma.dirty.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    let index = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out.push(PageRef {
                        vma: vma.id,
                        index,
                        fingerprint: vma.contents.settle(index),
                    });
                }
            }
        }
        out
    }

    /// Count dirty pages without clearing.
    pub fn dirty_count(&self) -> usize {
        self.vmas.iter().map(|v| v.dirty_count).sum()
    }

    /// Live regions, in id order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter()
    }

    /// Look up one region.
    pub fn vma(&self, id: VmaId) -> Option<&Vma> {
        self.position(id).ok().map(|i| &self.vmas[i])
    }

    /// Number of regions.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Resident size in bytes.
    pub fn rss_bytes(&self) -> u64 {
        self.vmas.iter().map(Vma::len_bytes).sum()
    }

    /// Total pages mapped.
    pub fn total_pages(&self) -> usize {
        self.vmas.iter().map(Vma::page_count).sum()
    }

    /// Order- and content-sensitive hash of the full address space, used to
    /// verify restore fidelity.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for vma in &self.vmas {
            h = mix(h, vma.id.0);
            h = mix(h, vma.start);
            for i in 0..vma.page_count() {
                h = mix(h, vma.contents.get(i));
            }
        }
        h
    }

    /// Apply a page write received from a checkpoint stream (restore path).
    pub fn apply_page(&mut self, r: PageRef) {
        let vma = self.vma_mut(r.vma, "apply_page to unmapped VMA");
        let (fps, pending) = vma.dense_mut();
        fps[r.index] = r.fingerprint;
        pending[r.index] = 0;
        let word = &mut vma.dirty[r.index / 64];
        if *word & bit(r.index) != 0 {
            *word &= !bit(r.index);
            vma.dirty_count -= 1;
        }
    }

    /// Recreate a region from checkpoint metadata (restore path). Pages start
    /// zeroed and clean; contents arrive via [`apply_page`](Self::apply_page).
    pub fn install_vma(&mut self, id: VmaId, kind: VmaKind, start: u64, pages: usize) {
        self.next_vma = self.next_vma.max(id.0 + 1);
        self.insert(Vma {
            id,
            kind,
            start,
            contents: Contents::Dense {
                fps: vec![0; pages],
                pending: vec![0; pages],
            },
            dirty: vec![0; pages.div_ceil(64)],
            dirty_count: 0,
        });
    }

    /// Resize during restore (VMA-diff modification record). Grown pages
    /// start zeroed and clean.
    pub fn restore_resize(&mut self, id: VmaId, pages: usize) {
        self.vma_mut(id, "restore_resize of unmapped VMA")
            .set_len(pages, false, |_| 0);
    }

    fn position(&self, id: VmaId) -> Result<usize, usize> {
        self.vmas.binary_search_by_key(&id, |v| v.id)
    }

    /// Insert a region, replacing any region with the same id.
    fn insert(&mut self, vma: Vma) {
        match self.position(vma.id) {
            Ok(i) => self.vmas[i] = vma,
            Err(i) => self.vmas.insert(i, vma),
        }
    }

    fn vma_mut(&mut self, id: VmaId, unmapped: &str) -> &mut Vma {
        match self.position(id) {
            Ok(i) => &mut self.vmas[i],
            Err(_) => panic!("{unmapped}"),
        }
    }
}

#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmap_pages_start_dirty() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 10, 1);
        assert_eq!(a.dirty_count(), 10);
        assert_eq!(a.total_pages(), 10);
        assert_eq!(a.rss_bytes(), 10 * PAGE_SIZE);
        assert_eq!(a.vma(id).unwrap().page_count(), 10);
    }

    #[test]
    fn collect_dirty_clears_bits() {
        let mut a = AddressSpace::new();
        a.mmap(VmaKind::Heap, 5, 1);
        let d = a.collect_dirty();
        assert_eq!(d.len(), 5);
        assert_eq!(a.dirty_count(), 0);
        assert!(a.collect_dirty().is_empty(), "second collect finds nothing");
    }

    #[test]
    fn write_page_sets_dirty_and_changes_fingerprint() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Data, 3, 1);
        a.collect_dirty();
        let before = a.vma(id).unwrap().page(1).fingerprint;
        a.write_page(id, 1);
        assert_eq!(a.dirty_count(), 1);
        assert_ne!(a.vma(id).unwrap().page(1).fingerprint, before);
        let d = a.collect_dirty();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].index, 1);
    }

    #[test]
    fn dirty_random_skips_text() {
        let mut a = AddressSpace::new();
        let text = a.mmap(VmaKind::Text, 100, 1);
        a.mmap(VmaKind::Heap, 100, 2);
        a.collect_dirty();
        let mut rng = DetRng::new(1);
        a.dirty_random(&mut rng, 500);
        assert_eq!(
            a.vma(text).unwrap().dirty_count,
            0,
            "text pages never dirtied"
        );
        assert!(a.dirty_count() > 0);
    }

    #[test]
    fn resize_grow_and_shrink() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 4, 1);
        a.collect_dirty();
        a.resize(id, 8, 2);
        assert_eq!(a.vma(id).unwrap().page_count(), 8);
        assert_eq!(a.dirty_count(), 4, "only the new pages are dirty");
        a.resize(id, 2, 0);
        assert_eq!(a.vma(id).unwrap().page_count(), 2);
    }

    #[test]
    fn munmap_removes_region() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Anon, 7, 1);
        assert!(a.munmap(id));
        assert!(!a.munmap(id));
        assert_eq!(a.total_pages(), 0);
    }

    #[test]
    fn vma_addresses_do_not_overlap() {
        let mut a = AddressSpace::new();
        let ids: Vec<VmaId> = (0..10).map(|i| a.mmap(VmaKind::Anon, 16, i)).collect();
        let mut ranges: Vec<(u64, u64)> = ids
            .iter()
            .map(|id| {
                let v = a.vma(*id).unwrap();
                (v.start, v.end())
            })
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping VMAs: {w:?}");
        }
    }

    #[test]
    fn restore_reproduces_content_hash() {
        let mut rng = DetRng::new(9);
        let mut src = AddressSpace::new();
        for i in 0..5 {
            src.mmap(
                if i == 0 { VmaKind::Text } else { VmaKind::Heap },
                20 + i as usize,
                i,
            );
        }
        src.dirty_random(&mut rng, 200);

        // Restore: recreate regions, apply all pages.
        let mut dst = AddressSpace::new();
        for vma in src.vmas() {
            dst.install_vma(vma.id, vma.kind, vma.start, vma.page_count());
        }
        let mut src2 = src.clone();
        for page in src2.collect_dirty() {
            dst.apply_page(page);
        }
        // Pages that were clean in src still need their content; a full
        // checkpoint ships everything:
        for vma in src.vmas() {
            for (i, p) in vma.pages().enumerate() {
                dst.apply_page(PageRef {
                    vma: vma.id,
                    index: i,
                    fingerprint: p.fingerprint,
                });
            }
        }
        assert_eq!(dst.content_hash(), src.content_hash());
    }

    #[test]
    fn content_hash_detects_single_page_difference() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 50, 3);
        let b = a.clone();
        a.write_page(id, 49);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    fn is_seeded(a: &AddressSpace, id: VmaId) -> bool {
        matches!(a.vma(id).unwrap().contents, Contents::Seeded { .. })
    }

    fn dirty_indices(a: &mut AddressSpace) -> Vec<usize> {
        a.collect_dirty().into_iter().map(|r| r.index).collect()
    }

    #[test]
    fn shrink_off_word_boundary_then_grow_drops_stale_dirty_bits() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 200, 1);
        a.collect_dirty();
        for i in [10, 69, 70, 100, 199] {
            a.write_page(id, i);
        }
        a.resize(id, 70, 2); // 70 is not a multiple of 64
        assert_eq!(a.dirty_count(), 2, "pages 10 and 69 survive the shrink");
        a.restore_resize(id, 200); // grown pages are clean
        assert_eq!(a.dirty_count(), 2);
        assert_eq!(dirty_indices(&mut a), vec![10, 69]);

        a.resize(id, 70, 2);
        a.write_page(id, 69);
        a.resize(id, 130, 3); // grown pages are dirty, and only those
        assert_eq!(a.dirty_count(), 61);
        let expect: Vec<usize> = std::iter::once(69).chain(70..130).collect();
        assert_eq!(dirty_indices(&mut a), expect);
    }

    #[test]
    fn resize_of_never_written_region_keeps_its_pages() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 100, 7);
        a.resize(id, 150, 8);
        assert!(!is_seeded(&a, id));
        let v = a.vma(id).unwrap();
        assert_eq!(v.page(99).fingerprint, mix(7, 99));
        assert_eq!(v.page(100).fingerprint, mix(8, 100));
        assert_eq!(a.dirty_count(), 150);

        let shrunk = a.mmap(VmaKind::Heap, 100, 9);
        a.resize(shrunk, 30, 0);
        assert_eq!(a.vma(shrunk).unwrap().page(29).fingerprint, mix(9, 29));
        assert_eq!(a.vma(shrunk).unwrap().dirty_count, 30);
    }

    #[test]
    fn restore_path_on_never_written_region() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Data, 80, 5);
        a.apply_page(PageRef {
            vma: id,
            index: 3,
            fingerprint: 42,
        });
        assert!(!is_seeded(&a, id));
        let v = a.vma(id).unwrap();
        assert_eq!(
            v.page(3),
            Page {
                fingerprint: 42,
                dirty: false
            }
        );
        assert_eq!(
            v.page(4),
            Page {
                fingerprint: mix(5, 4),
                dirty: true
            }
        );
        assert_eq!(a.dirty_count(), 79);

        let other = a.mmap(VmaKind::Data, 80, 6);
        a.restore_resize(other, 90);
        assert!(!is_seeded(&a, other));
        let v = a.vma(other).unwrap();
        assert_eq!(
            v.page(79),
            Page {
                fingerprint: mix(6, 79),
                dirty: true
            }
        );
        assert_eq!(
            v.page(80),
            Page {
                fingerprint: 0,
                dirty: false
            }
        );
        assert_eq!(v.dirty_count, 80);
    }

    #[test]
    fn content_hash_survives_materialisation() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 130, 11);
        let seeded = a.clone();
        a.resize(id, 130, 0); // same length: only materialises the pages
        assert!(is_seeded(&seeded, id) && !is_seeded(&a, id));
        assert_eq!(a.content_hash(), seeded.content_hash());
        assert_eq!(a.vma(id), seeded.vma(id));
    }

    /// Page `i` of a region mapped with `seed` after `writes` writes.
    fn written(seed: u64, i: u64, writes: usize) -> u64 {
        (0..writes).fold(mix(seed, i), |f, _| mix(f, 0x9E37_79B9))
    }

    fn pending(a: &AddressSpace, id: VmaId) -> Vec<u8> {
        match &a.vma(id).unwrap().contents {
            Contents::Dense { pending, .. } => pending.clone(),
            Contents::Seeded { .. } => panic!("region was never written"),
        }
    }

    #[test]
    fn pending_counter_folds_at_255() {
        for (writes, left) in [(254, 254), (255, 0), (256, 1), (510, 0), (600, 90)] {
            let mut a = AddressSpace::new();
            let id = a.mmap(VmaKind::Heap, 3, 4);
            for _ in 0..writes {
                a.write_page(id, 1);
            }
            assert_eq!(pending(&a, id), vec![0, left, 0], "{writes} writes");
            let v = a.vma(id).unwrap();
            assert_eq!(
                v.page(1).fingerprint,
                written(4, 1, writes),
                "{writes} writes"
            );
            assert_eq!(v.page(2).fingerprint, written(4, 2, 0));
        }
    }

    #[test]
    fn collect_dirty_folds_and_zeroes_every_counter() {
        let mut a = AddressSpace::new();
        let ids: Vec<VmaId> = (0..3).map(|i| a.mmap(VmaKind::Anon, 70, i)).collect();
        let mut rng = DetRng::new(5);
        a.dirty_random(&mut rng, 2_000);
        a.write_page(ids[0], 3);
        assert!(ids.iter().any(|id| pending(&a, *id).iter().any(|n| *n > 0)));
        let before = snapshot_fingerprints(&a);
        let collected = a.collect_dirty();
        assert_eq!(collected.len(), 210, "every page was dirty since mmap");
        for id in &ids {
            assert!(pending(&a, *id).iter().all(|n| *n == 0));
        }
        assert_eq!(snapshot_fingerprints(&a), before);
        for r in collected {
            assert_eq!(
                r.fingerprint,
                a.vma(r.vma).unwrap().page(r.index).fingerprint
            );
        }
    }

    fn snapshot_fingerprints(a: &AddressSpace) -> Vec<u64> {
        a.vmas()
            .flat_map(|v| v.pages().map(|p| p.fingerprint))
            .collect()
    }

    #[test]
    fn apply_page_discards_pending_writes() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Data, 4, 2);
        for _ in 0..100 {
            a.write_page(id, 2);
        }
        a.apply_page(PageRef {
            vma: id,
            index: 2,
            fingerprint: 77,
        });
        assert_eq!(pending(&a, id), vec![0; 4]);
        assert_eq!(
            a.vma(id).unwrap().page(2),
            Page {
                fingerprint: 77,
                dirty: false
            }
        );
        a.write_page(id, 2);
        assert_eq!(a.vma(id).unwrap().page(2).fingerprint, mix(77, 0x9E37_79B9));
    }

    #[test]
    fn content_hash_is_unchanged_by_a_fold() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Heap, 2, 8);
        for _ in 0..300 {
            a.write_page(id, 0);
        }
        a.write_page(id, 1);
        let unfolded = a.content_hash();
        assert_eq!(pending(&a, id), vec![45, 1]);
        a.collect_dirty();
        assert_eq!(pending(&a, id), vec![0, 0]);
        assert_eq!(a.content_hash(), unfolded);
    }

    #[test]
    fn never_written_region_stores_no_fingerprints() {
        let mut a = AddressSpace::new();
        let id = a.mmap(VmaKind::Anon, 10_000, 1);
        a.collect_dirty();
        let v = a.vma(id).unwrap();
        assert!(matches!(v.contents, Contents::Seeded { len: 10_000, .. }));
        assert_eq!(
            v.dirty.len(),
            157,
            "the bitmap is the only per-page storage"
        );
        assert_eq!(v.page(9_999).fingerprint, mix(1, 9_999));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The page table with one `Vec<Page>` per region: every fingerprint
    /// stored, dirty pages found by scanning every page. The reference the
    /// column-wise `AddressSpace` must match op for op.
    #[derive(Default)]
    struct Model {
        vmas: BTreeMap<VmaId, (VmaKind, u64, Vec<Page>)>,
        next_vma: u64,
        next_addr: u64,
        dirtied_total: u64,
    }

    const CLEAN_ZERO: Page = Page {
        fingerprint: 0,
        dirty: false,
    };

    impl Model {
        fn new() -> Model {
            Model {
                next_vma: 1,
                next_addr: 0x0000_5555_0000_0000,
                ..Model::default()
            }
        }

        fn pages_mut(&mut self, id: VmaId) -> &mut Vec<Page> {
            &mut self.vmas.get_mut(&id).unwrap().2
        }

        fn mmap(&mut self, kind: VmaKind, pages: usize, seed: u64) -> VmaId {
            let id = VmaId(self.next_vma);
            self.next_vma += 1;
            let start = self.next_addr;
            self.next_addr += (pages as u64 + 16) * PAGE_SIZE;
            let pages = (0..pages)
                .map(|i| Page {
                    fingerprint: mix(seed, i as u64),
                    dirty: true,
                })
                .collect();
            self.vmas.insert(id, (kind, start, pages));
            id
        }

        fn resize(&mut self, id: VmaId, pages: usize, seed: u64) {
            let v = self.pages_mut(id);
            let old = v.len();
            if pages > old {
                v.extend((old..pages).map(|i| Page {
                    fingerprint: mix(seed, i as u64),
                    dirty: true,
                }));
            } else {
                v.truncate(pages);
            }
        }

        fn write_page(&mut self, id: VmaId, index: usize) {
            let p = &mut self.pages_mut(id)[index];
            p.fingerprint = mix(p.fingerprint, 0x9E37_79B9);
            p.dirty = true;
            self.dirtied_total += 1;
        }

        fn dirty_random(&mut self, rng: &mut DetRng, count: usize) {
            let writable: Vec<(VmaId, usize)> = self
                .vmas
                .iter()
                .filter(|(_, v)| v.0 != VmaKind::Text && !v.2.is_empty())
                .map(|(id, v)| (*id, v.2.len()))
                .collect();
            if writable.is_empty() {
                return;
            }
            for _ in 0..count {
                let (id, len) = writable[rng.index(writable.len())];
                let idx = rng.index(len);
                self.write_page(id, idx);
            }
        }

        fn collect_dirty(&mut self) -> Vec<PageRef> {
            let mut out = Vec::new();
            for (id, v) in &mut self.vmas {
                for (index, p) in v.2.iter_mut().enumerate() {
                    if p.dirty {
                        p.dirty = false;
                        out.push(PageRef {
                            vma: *id,
                            index,
                            fingerprint: p.fingerprint,
                        });
                    }
                }
            }
            out
        }

        fn install_vma(&mut self, id: VmaId, kind: VmaKind, start: u64, pages: usize) {
            self.next_vma = self.next_vma.max(id.0 + 1);
            self.vmas.insert(id, (kind, start, vec![CLEAN_ZERO; pages]));
        }

        fn content_hash(&self) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (id, (_, start, pages)) in &self.vmas {
                h = mix(h, id.0);
                h = mix(h, *start);
                for p in pages {
                    h = mix(h, p.fingerprint);
                }
            }
            h
        }

        fn snapshot(&self) -> Vec<(VmaId, VmaKind, u64, Vec<Page>)> {
            self.vmas
                .iter()
                .map(|(id, (kind, start, pages))| (*id, *kind, *start, pages.clone()))
                .collect()
        }
    }

    fn snapshot(a: &AddressSpace) -> Vec<(VmaId, VmaKind, u64, Vec<Page>)> {
        a.vmas()
            .map(|v| {
                let pages = (0..v.page_count()).map(|i| v.page(i)).collect();
                (v.id, v.kind, v.start, pages)
            })
            .collect()
    }

    const KINDS: [VmaKind; 5] = [
        VmaKind::Text,
        VmaKind::Data,
        VmaKind::Heap,
        VmaKind::Stack,
        VmaKind::Anon,
    ];

    proptest! {
        /// Random op sequences leave the column-wise page table and the
        /// one-`Vec<Page>`-per-region model in the same state: same RNG
        /// draws, same collected pages in the same order, same pages —
        /// including pages whose pending-write counters overflowed.
        #[test]
        fn matches_reference_model(
            ops in proptest::collection::vec((0u8..11, 0usize..1000, 0usize..1000, 0u64..u64::MAX), 1..80),
            seed in 0u64..1000,
        ) {
            let mut real = AddressSpace::new();
            let mut model = Model::new();
            let mut real_rng = DetRng::new(seed);
            let mut model_rng = DetRng::new(seed);
            for (op, a, b, c) in ops {
                let ids: Vec<VmaId> = model.vmas.keys().copied().collect();
                let target = (!ids.is_empty()).then(|| ids[a % ids.len()]);
                let len = target.map_or(0, |id| model.vmas[&id].2.len());
                match (op, target) {
                    (0, _) => {
                        let (kind, pages) = (KINDS[a % 5], b % 150);
                        prop_assert_eq!(real.mmap(kind, pages, c), model.mmap(kind, pages, c));
                    }
                    (1, Some(id)) => {
                        real.resize(id, b % 200, c);
                        model.resize(id, b % 200, c);
                    }
                    (2, _) => {
                        let id = target.unwrap_or(VmaId(c % 4));
                        prop_assert_eq!(real.munmap(id), model.vmas.remove(&id).is_some());
                    }
                    (3, Some(id)) if len > 0 => {
                        real.write_page(id, b % len);
                        model.write_page(id, b % len);
                    }
                    (4, _) => {
                        real.dirty_random(&mut real_rng, b % 64);
                        model.dirty_random(&mut model_rng, b % 64);
                    }
                    (5, _) => prop_assert_eq!(real.collect_dirty(), model.collect_dirty()),
                    (6, _) => {
                        // Either an id in use (replaced) or a fresh one.
                        let id = VmaId(c % (model.next_vma + 2));
                        let (kind, start) = (KINDS[a % 5], c & !0xfff);
                        real.install_vma(id, kind, start, b % 150);
                        model.install_vma(id, kind, start, b % 150);
                    }
                    (7, Some(id)) if len > 0 => {
                        let r = PageRef { vma: id, index: b % len, fingerprint: c };
                        real.apply_page(r);
                        model.pages_mut(id)[r.index] = Page { fingerprint: c, dirty: false };
                    }
                    (8, Some(id)) => {
                        real.restore_resize(id, b % 200);
                        model.pages_mut(id).resize(b % 200, CLEAN_ZERO);
                    }
                    // Overflow the pending-write counters: hammer one page
                    // of a fresh 1–2-page region, then spread hundreds of
                    // random writes over every writable region.
                    (9, _) => {
                        let (pages, writes) = (1 + a % 2, 200 + b % 401);
                        let id = real.mmap(VmaKind::Heap, pages, c);
                        prop_assert_eq!(model.mmap(VmaKind::Heap, pages, c), id);
                        for _ in 0..writes {
                            real.write_page(id, a % pages);
                            model.write_page(id, a % pages);
                        }
                    }
                    (10, _) => {
                        real.dirty_random(&mut real_rng, 200 + b % 401);
                        model.dirty_random(&mut model_rng, 200 + b % 401);
                    }
                    _ => {}
                }
                prop_assert_eq!(real_rng.clone().next_u64(), model_rng.clone().next_u64());
                prop_assert_eq!(real.content_hash(), model.content_hash());
                let model_dirty: usize =
                    model.vmas.values().map(|v| v.2.iter().filter(|p| p.dirty).count()).sum();
                prop_assert_eq!(real.dirty_count(), model_dirty);
                let model_pages: usize = model.vmas.values().map(|v| v.2.len()).sum();
                prop_assert_eq!(real.total_pages(), model_pages);
                prop_assert_eq!(real.dirtied_total, model.dirtied_total);
                prop_assert_eq!(snapshot(&real), model.snapshot());
            }
        }

        /// collect_dirty returns exactly the pages written since last collect.
        #[test]
        fn dirty_tracking_is_exact(writes in proptest::collection::vec((0usize..4, 0usize..32), 0..100)) {
            let mut a = AddressSpace::new();
            let ids: Vec<VmaId> = (0..4).map(|i| a.mmap(VmaKind::Heap, 32, i)).collect();
            a.collect_dirty();
            let mut expect = std::collections::BTreeSet::new();
            for (v, p) in &writes {
                a.write_page(ids[*v], *p);
                expect.insert((ids[*v], *p));
            }
            let got: std::collections::BTreeSet<(VmaId, usize)> =
                a.collect_dirty().into_iter().map(|r| (r.vma, r.index)).collect();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(a.dirty_count(), 0);
        }

        /// Restoring all collected pages onto a fresh space reproduces the
        /// content hash, whatever the write pattern.
        #[test]
        fn full_transfer_roundtrip(seed in 0u64..1000, dirties in 0usize..300) {
            let mut rng = DetRng::new(seed);
            let mut src = AddressSpace::new();
            src.mmap(VmaKind::Heap, 64, seed);
            src.mmap(VmaKind::Stack, 16, seed + 1);
            src.dirty_random(&mut rng, dirties);
            let mut dst = AddressSpace::new();
            for vma in src.vmas() {
                dst.install_vma(vma.id, vma.kind, vma.start, vma.page_count());
                for (i, p) in vma.pages().enumerate() {
                    dst.apply_page(PageRef { vma: vma.id, index: i, fingerprint: p.fingerprint });
                }
            }
            prop_assert_eq!(dst.content_hash(), src.content_hash());
        }
    }
}
