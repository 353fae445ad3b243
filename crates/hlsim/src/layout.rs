//! Application memory layout and deterministic image initialization.
//!
//! Before the threads start, the "program image" is written directly to
//! DRAM (the equivalent of the OS loader): per-thread pointer-chase
//! rings, control-sentinel tables, data arrays, and shared lookup
//! tables. The generators in [`workload`](crate::workload) address
//! memory exclusively through these helpers, so expected control values
//! and pointer targets are known in both the generator and the image.

use std::sync::Mutex;

use nestsim_arch::mem::WORDS_PER_LINE;
use nestsim_arch::DramContents;
use nestsim_proto::addr::{region, PAddr, LINE_BYTES};

/// Bytes of heap reserved per hardware thread.
pub const THREAD_HEAP_BYTES: u64 = 64 * 1024;
/// Words of deterministic "code" pattern at the start of the text region.
const TEXT_WORDS: u64 = 256;
/// Pointer-ring entries per thread.
pub const PTR_RING_LEN: u64 = 64;
/// Control-sentinel entries per thread.
pub const CTRL_TABLE_LEN: u64 = 32;
/// Byte offset of the control table inside a thread's heap slice.
pub const CTRL_TABLE_OFF: u64 = 0x400;
/// Byte offset of the data array inside a thread's heap slice.
pub const DATA_ARRAY_OFF: u64 = 0x800;
/// Shared read-only lookup table: byte offset from heap base.
pub const SHARED_TABLE_OFF: u64 = 0x0f00_0000;
/// Shared lookup-table length in words.
pub const SHARED_TABLE_WORDS: u64 = 32 * 1024;
/// Shared atomic-counter area: byte offset from heap base.
pub const SHARED_CTR_OFF: u64 = 0x0ff0_0000;
/// Number of shared atomic counters.
pub const SHARED_CTR_COUNT: u64 = 64;
/// Magic value xor-ed into control sentinels.
pub const CTRL_MAGIC: u64 = 0xc0de_cafe_f00d_0001;

/// Base address of thread `t`'s heap slice.
pub fn thread_heap_base(t: usize) -> PAddr {
    PAddr::new(region::HEAP_BASE.raw() + t as u64 * THREAD_HEAP_BYTES)
}

/// Address of entry `i` of thread `t`'s pointer ring.
pub fn ptr_ring_entry(t: usize, i: u64) -> PAddr {
    thread_heap_base(t).offset((i % PTR_RING_LEN) * 8)
}

/// Address of entry `j` of thread `t`'s control table.
pub fn ctrl_entry(t: usize, j: u64) -> PAddr {
    thread_heap_base(t).offset(CTRL_TABLE_OFF + (j % CTRL_TABLE_LEN) * 8)
}

/// Expected sentinel value at [`ctrl_entry`]`(t, j)`.
pub fn ctrl_value(t: usize, j: u64) -> u64 {
    CTRL_MAGIC ^ ((t as u64) << 8) ^ (j % CTRL_TABLE_LEN)
}

/// Address of word `i` of thread `t`'s data array.
pub fn data_word(t: usize, i: u64) -> PAddr {
    thread_heap_base(t).offset(DATA_ARRAY_OFF + i * 8)
}

/// Initial contents of [`data_word`]`(t, i)`.
pub fn data_init_value(t: usize, i: u64) -> u64 {
    nestsim_proto::pcie::stream_word(0xda7a_0000 + t as u64, i)
}

/// Address of word `i` of the shared read-only table.
pub fn shared_word(i: u64) -> PAddr {
    PAddr::new(region::HEAP_BASE.raw() + SHARED_TABLE_OFF + (i % SHARED_TABLE_WORDS) * 8)
}

/// Initial contents of [`shared_word`]`(i)`.
pub fn shared_init_value(i: u64) -> u64 {
    nestsim_proto::pcie::stream_word(0x5a5a_ed00, i % SHARED_TABLE_WORDS)
}

/// Address of shared atomic counter `i`.
pub fn shared_counter(i: u64) -> PAddr {
    PAddr::new(region::HEAP_BASE.raw() + SHARED_CTR_OFF + (i % SHARED_CTR_COUNT) * 8)
}

/// Address of word `i` of thread `t`'s output slice.
///
/// Each thread owns `words_per_thread` output words.
pub fn output_word(t: usize, i: u64, words_per_thread: u64) -> PAddr {
    PAddr::new(region::OUTPUT_BASE.raw() + (t as u64 * words_per_thread + i) * 8)
}

/// Address of word `i` of the input-file staging region.
pub fn input_word(i: u64) -> PAddr {
    PAddr::new(region::INPUT_BASE.raw() + i * 8)
}

/// The ring successor permutation: entry `i` points at entry
/// `(5 * i + 1) mod len`, a full-cycle permutation for power-of-two
/// lengths with odd multiplier... verified by test.
fn ring_next(i: u64) -> u64 {
    (5 * i + 1) % PTR_RING_LEN
}

/// Makes `mem` the program image for `threads` hardware threads with
/// `data_words` words of per-thread data array, every page shared: what
/// [`write_image`] writes into an empty memory, built once per shape
/// and process and handed out as reference-count-only copies, refilled
/// into the storage `mem` holds.
///
/// The image depends on nothing else — no seed — yet every campaign
/// cell, cluster worker and service execution starts a `System` from
/// it, and building it was a third of an empty cell. The memo is
/// bounded by construction: the 18 benchmark profiles have 5 distinct
/// working-set sizes and there are 2 topologies, so it holds at most 10
/// images of 1–3 MB (≈10 MB if a process ran every shape; one shape,
/// ≈1–3 MB, in a campaign).
pub fn image_into(mem: &mut DramContents, threads: usize, data_words: u64) {
    let mut images = IMAGES
        .lock()
        .expect("an image build panicked; nothing half-built is ever stored");
    let key = (threads, data_words);
    if let Some((_, image)) = images.iter().find(|(k, _)| *k == key) {
        mem.clone_from(image);
        return;
    }
    let mut image = DramContents::new();
    write_image(&mut image, threads, data_words);
    image.freeze();
    mem.clone_from(&image);
    images.push((key, image));
}

/// Frozen images by `(threads, data_words)`; see [`image_into`].
static IMAGES: Mutex<Vec<((usize, u64), DramContents)>> = Mutex::new(Vec::new());

/// Writes `words` consecutive words starting at the line-aligned
/// `base`, word `i` holding `value(i)`, one whole cache line per memory
/// access (the image is ≈260K words; a read-modify-write per word was
/// most of `System::new`). A final partial line keeps its other words.
fn fill_words(mem: &mut DramContents, base: PAddr, words: u64, value: impl Fn(u64) -> u64) {
    assert!(base.is_aligned(LINE_BYTES), "fill_words writes whole lines");
    for first in (0..words).step_by(WORDS_PER_LINE) {
        let la = base.offset(first * 8).line();
        let n = (words - first).min(WORDS_PER_LINE as u64) as usize;
        let mut line = if n < WORDS_PER_LINE {
            mem.read_line(la)
        } else {
            [0; WORDS_PER_LINE]
        };
        for (w, word) in line.iter_mut().enumerate().take(n) {
            *word = value(first + w as u64);
        }
        mem.write_line(la, line);
    }
}

/// Writes the complete program image for `threads` hardware threads,
/// touching `data_words` words of each thread's data array.
pub fn write_image(mem: &mut DramContents, threads: usize, data_words: u64) {
    // Text region: deterministic "code" pattern.
    fill_words(mem, region::TEXT_BASE, TEXT_WORDS, |i| {
        0x7e57_0000_0000_0000 | i
    });
    for t in 0..threads {
        fill_words(mem, ptr_ring_entry(t, 0), PTR_RING_LEN, |i| {
            ptr_ring_entry(t, ring_next(i)).raw()
        });
        fill_words(mem, ctrl_entry(t, 0), CTRL_TABLE_LEN, |j| ctrl_value(t, j));
        fill_words(mem, data_word(t, 0), data_words, |i| data_init_value(t, i));
    }
    // Shared read-only table (one word per line is enough to be
    // realistic while keeping the image, and therefore snapshots, small).
    for i in (0..SHARED_TABLE_WORDS).step_by(8) {
        mem.write_word(shared_word(i), shared_init_value(i));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use nestsim_proto::addr::region;

    #[test]
    fn thread_heaps_are_disjoint() {
        let a = thread_heap_base(0);
        let b = thread_heap_base(1);
        assert_eq!(b.raw() - a.raw(), THREAD_HEAP_BYTES);
        assert!(region::is_valid(thread_heap_base(63)));
    }

    #[test]
    fn ring_permutation_is_a_full_cycle() {
        let mut seen = vec![false; PTR_RING_LEN as usize];
        let mut i = 0;
        for _ in 0..PTR_RING_LEN {
            assert!(!seen[i as usize], "ring revisits {i} early");
            seen[i as usize] = true;
            i = ring_next(i);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn image_pointers_resolve_to_valid_addresses() {
        let mut mem = DramContents::new();
        write_image(&mut mem, 4, 16);
        for t in 0..4 {
            let mut p = ptr_ring_entry(t, 0);
            for _ in 0..PTR_RING_LEN {
                let next = mem.read_word(p);
                assert!(region::is_valid(PAddr::new(next)), "bad pointer {next:#x}");
                p = PAddr::new(next);
            }
            assert_eq!(p, ptr_ring_entry(t, 0), "ring closes");
        }
    }

    /// Images the memo holds for one shape.
    pub(crate) fn images_held(threads: usize, data_words: u64) -> usize {
        let images = IMAGES.lock().unwrap();
        let held = images.iter().filter(|(k, _)| *k == (threads, data_words));
        held.count()
    }

    /// [`image_into`] an empty memory.
    fn image(threads: usize, data_words: u64) -> DramContents {
        let mut mem = DramContents::new();
        image_into(&mut mem, threads, data_words);
        mem
    }

    #[test]
    fn image_is_built_once_per_shape_and_shared() {
        // Shapes no other test asks for: tests share the process.
        let (a, mut b) = (image(3, 77), image(3, 77));
        assert_eq!(images_held(3, 77), 1);
        let mut built = DramContents::new();
        write_image(&mut built, 3, 77);
        assert!(a == built && b == built);
        assert_eq!((a.private_pages(), b.private_pages()), (0, 0));

        // A holder's write copies one page and is nobody else's.
        let addr = data_word(2, 76);
        b.write_word(addr, !data_init_value(2, 76));
        assert_eq!(b.private_pages(), 1);
        assert_eq!(a.read_word(addr), data_init_value(2, 76));
        assert!(image(3, 77) == built);

        assert!(
            image(3, 78) != built,
            "a different shape is a different image"
        );
        assert_eq!((images_held(3, 77), images_held(3, 78)), (1, 1));
    }

    /// The image as it was first built: one read-modify-write per word.
    fn write_image_by_word(mem: &mut DramContents, threads: usize, data_words: u64) {
        for i in 0..TEXT_WORDS {
            mem.write_word(
                PAddr::new(region::TEXT_BASE.raw() + i * 8),
                0x7e57_0000_0000_0000 | i,
            );
        }
        for t in 0..threads {
            for i in 0..PTR_RING_LEN {
                mem.write_word(ptr_ring_entry(t, i), ptr_ring_entry(t, ring_next(i)).raw());
            }
            for j in 0..CTRL_TABLE_LEN {
                mem.write_word(ctrl_entry(t, j), ctrl_value(t, j));
            }
            for i in 0..data_words {
                mem.write_word(data_word(t, i), data_init_value(t, i));
            }
        }
        for i in (0..SHARED_TABLE_WORDS).step_by(8) {
            mem.write_word(shared_word(i), shared_init_value(i));
        }
    }

    #[test]
    fn line_at_a_time_image_equals_word_at_a_time_image() {
        let sizes = crate::workload::BENCHMARKS
            .iter()
            .map(|p| p.working_set_words)
            // Not multiples of the line size: the data array's last
            // line is partial, and a one-word array is only partial.
            .chain([0, 1, 13, 4093]);
        for data_words in sizes {
            let mut by_line = DramContents::new();
            write_image(&mut by_line, 8, data_words);
            let mut by_word = DramContents::new();
            write_image_by_word(&mut by_word, 8, data_words);
            assert!(by_line == by_word, "images differ at {data_words} words");
            assert_eq!(by_line.backed_lines(), by_word.backed_lines());
        }
    }

    #[test]
    fn ctrl_values_match_image() {
        let mut mem = DramContents::new();
        write_image(&mut mem, 2, 4);
        for t in 0..2 {
            for j in 0..CTRL_TABLE_LEN {
                assert_eq!(mem.read_word(ctrl_entry(t, j)), ctrl_value(t, j));
            }
        }
    }

    #[test]
    fn shared_and_private_regions_do_not_overlap() {
        let top_private = thread_heap_base(63).raw() + THREAD_HEAP_BYTES;
        assert!(top_private < shared_word(0).raw());
        assert!(shared_word(SHARED_TABLE_WORDS - 1).raw() < shared_counter(0).raw());
        assert!(region::is_valid(shared_counter(SHARED_CTR_COUNT - 1)));
    }

    #[test]
    fn output_slices_are_disjoint_per_thread() {
        let a = output_word(0, 15, 16);
        let b = output_word(1, 0, 16);
        assert_eq!(b.raw() - a.raw(), 8);
    }
}
