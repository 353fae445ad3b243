//! Property test: the paged copy-on-write `DramContents` against a
//! naive line map — the storage it replaced, kept here as the oracle.
//!
//! A population of (memory, oracle) pairs is driven through random
//! line and word writes (zeroing ones included), bursts over hundreds
//! of pages, clones, refills (`clone_from`), freezes, releases and
//! drops — and drops of every memory but one followed by a write, the
//! path on which a writer takes back the pages it froze. Clones,
//! refills, freezes and take-backs must be invisible: every pair stays
//! read-for-read equal to its own oracle whatever is done to the pairs
//! it shares pages with, and `==` follows contents, not sharing
//! history. The bursts take memories past two 64-page arena chunks, so
//! page indices cross chunks, and a refilled memory must write into the
//! chunks it holds: one that holds no more private pages than it did
//! before the refill allocates none (`chunks_allocated`).
//!
//! Run on the in-repo `nestsim-harness` property runner (see
//! `tests/proptest_invariants.rs` for the replay-seed workflow).

use std::collections::BTreeMap;

use nestsim_harness::{properties, Source};

use nestsim::arch::mem::WORDS_PER_LINE;
use nestsim::arch::DramContents;
use nestsim::proto::addr::{LineAddr, PAddr};

type Line = [u64; WORDS_PER_LINE];

/// 64-line pages the memories write: room for eight arena chunks.
const PAGES: u64 = 512;
/// Pages most single writes land in, so that memories share and
/// rewrite them often.
const HOT_PAGES: u64 = 4;
/// Memories alive at once.
const MAX_LIVE: usize = 5;

/// The reference model: one map entry per non-zero line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LineMapOracle {
    lines: BTreeMap<u64, Line>,
}

impl LineMapOracle {
    fn read_line(&self, line: LineAddr) -> Line {
        self.lines
            .get(&line.raw())
            .copied()
            .unwrap_or([0; WORDS_PER_LINE])
    }

    fn write_line(&mut self, line: LineAddr, data: Line) {
        if data == [0; WORDS_PER_LINE] {
            self.lines.remove(&line.raw());
        } else {
            self.lines.insert(line.raw(), data);
        }
    }

    fn write_word(&mut self, addr: PAddr, value: u64) {
        let mut line = self.read_line(addr.line());
        line[(addr.line_offset() / 8) as usize] = value;
        self.write_line(addr.line(), line);
    }
}

/// A line number: half the time one of a page's first two lines, so
/// that pages often hold nothing else and empty out when those are
/// zeroed; otherwise anywhere in the page. The page is one of the hot
/// ones but one time in eight.
fn line_no(src: &mut Source) -> u64 {
    let page = if src.below(8) == 0 {
        src.below(PAGES)
    } else {
        src.below(HOT_PAGES)
    };
    let within = if src.bool() {
        src.below(2)
    } else {
        src.below(64)
    };
    page * 64 + within
}

/// A word that is zero a third of the time, so lines (and with them
/// pages) are cleared about as often as they are filled.
fn word(src: &mut Source) -> u64 {
    if src.below(3) == 0 {
        0
    } else {
        src.range_u64(1, 4)
    }
}

/// One random word write, to a memory and its oracle alike.
fn write(src: &mut Source, pair: &mut (DramContents, LineMapOracle)) {
    let addr = PAddr::new(line_no(src) * 64 + src.below(8) * 8);
    let value = word(src);
    pair.0.write_word(addr, value);
    pair.1.write_word(addr, value);
}

/// One word in each of up to 200 consecutive pages, at one offset: the
/// writes that take a memory past two arena chunks of private pages, or
/// (a zero word) empty the pages again. Returns the most private pages
/// the memory held after any of them.
fn burst(src: &mut Source, pair: &mut (DramContents, LineMapOracle)) -> usize {
    let first = src.below(PAGES);
    let end = (first + src.range_u64(1, 200)).min(PAGES);
    let line = src.below(2);
    let value = word(src);
    let mut peak = 0;
    for page in first..end {
        let addr = PAddr::new((page * 64 + line) * 64);
        pair.0.write_word(addr, value);
        pair.1.write_word(addr, value);
        peak = peak.max(pair.0.private_pages());
    }
    peak
}

/// `mem` reads as `oracle`: every line of the hot pages, every line the
/// oracle holds, and the count of backed lines — equal counts with
/// every oracle line read back mean no other line is backed.
fn assert_matches(mem: &DramContents, oracle: &LineMapOracle, step: usize, k: usize) {
    for l in (0..HOT_PAGES * 64).chain(oracle.lines.keys().copied()) {
        let la = LineAddr::new(l);
        assert_eq!(
            mem.read_line(la),
            oracle.read_line(la),
            "step {step}, memory {k}: line {l}"
        );
        let addr = PAddr::new(l * 64 + 8 * (l % 8));
        assert_eq!(
            mem.read_word(addr),
            oracle.read_line(la)[(l % 8) as usize],
            "step {step}, memory {k}: word at {:#x}",
            addr.raw()
        );
    }
    assert_eq!(
        mem.backed_lines(),
        oracle.lines.len(),
        "step {step}, memory {k}: backed lines"
    );
}

/// What a refilled memory held: the private pages just before its
/// refill, the chunks it had allocated right after it, and the most
/// private pages it has held since, after any write.
#[derive(Debug, Clone, Copy)]
struct Refill {
    held: usize,
    chunks: u64,
    peak: usize,
}

impl Refill {
    fn saw(refill: &mut Option<Refill>, private_pages: usize) {
        if let Some(refill) = refill {
            refill.peak = refill.peak.max(private_pages);
        }
    }
}

properties! {
    fn paged_dram_matches_the_line_map_oracle(src) {
        let mut live = vec![(DramContents::new(), LineMapOracle::default())];
        // Per memory of `live`, since its last refill, while it did not
        // freeze: a freeze hands its chunks on, and a clone that keeps
        // them shared keeps them.
        let mut refills: Vec<Option<Refill>> = vec![None];
        let steps = src.range_usize(1, 120);
        for step in 0..steps {
            let i = src.index(live.len());
            match src.below(12) {
                0..=2 => {
                    let la = LineAddr::new(line_no(src));
                    let mut data = [0; WORDS_PER_LINE];
                    // Mostly sparse lines: one or two words set, or none.
                    for _ in 0..src.below(3) {
                        data[src.index(WORDS_PER_LINE)] = word(src);
                    }
                    live[i].0.write_line(la, data);
                    live[i].1.write_line(la, data);
                }
                3 | 4 => write(src, &mut live[i]),
                5 => {
                    let before = live[i].0.clone();
                    refills[i] = None;
                    live[i].0.freeze();
                    assert_eq!(live[i].0.private_pages(), 0, "freeze leaves no private page");
                    assert!(live[i].0 == before, "freeze changed contents");
                }
                6 if live.len() < MAX_LIVE => {
                    let copy = live[i].clone();
                    assert!(copy.0 == live[i].0, "a clone equals its source");
                    assert!(
                        copy.0.private_pages() <= live[i].0.private_pages(),
                        "a clone copies at most the source's private pages"
                    );
                    live.push(copy);
                    refills.push(None);
                }
                7 if live.len() > 1 => {
                    // Dropping one holder must not disturb the others.
                    live.swap_remove(i);
                    refills.swap_remove(i);
                }
                8 if live.len() > 1 => {
                    // Refill memory `i` from another: it drops its own
                    // pages and becomes a copy of the source. Half the
                    // time the source shares its pages first, as a
                    // walk's cursor and carriers do.
                    let j = (i + 1 + src.index(live.len() - 1)) % live.len();
                    if src.bool() {
                        live[j].0.freeze();
                        refills[j] = None;
                    }
                    let (to, from) = if i < j {
                        let (head, tail) = live.split_at_mut(j);
                        (&mut head[i], &tail[0])
                    } else {
                        let (head, tail) = live.split_at_mut(i);
                        (&mut tail[0], &head[j])
                    };
                    let held = to.0.private_pages();
                    to.0.clone_from(&from.0);
                    to.1.clone_from(&from.1);
                    // From a frozen source, as every refill of a walk is:
                    // private pages of the source's would keep its
                    // indices, free ones too.
                    refills[i] = (from.0.private_pages() == 0).then(|| Refill {
                        held,
                        chunks: to.0.chunks_allocated(),
                        peak: 0,
                    });
                    assert!(to.0 == from.0, "a refill equals its source");
                    assert_eq!(
                        to.0.private_pages(),
                        from.0.private_pages(),
                        "a refill keeps no page of its own"
                    );
                }
                9 => {
                    // A parked memory lets go of every page it held.
                    live[i].0.release();
                    live[i].1 = LineMapOracle::default();
                    assert_eq!(live[i].0.retained_pages(), 0, "a release keeps no page");
                }
                10 => {
                    // Every other holder goes, and memory `i` writes: if
                    // it froze last, it may take its pages back now.
                    let kept = live.swap_remove(i);
                    live.clear();
                    live.push(kept);
                    let refill = refills.swap_remove(i);
                    refills.clear();
                    refills.push(refill);
                    for _ in 0..src.range_usize(1, 4) {
                        write(src, &mut live[0]);
                        Refill::saw(&mut refills[0], live[0].0.private_pages());
                    }
                }
                11 => {
                    let peak = burst(src, &mut live[i]);
                    Refill::saw(&mut refills[i], peak);
                }
                _ => {}
            }
            // A refilled memory writes into the chunks it holds: no
            // chunk is allocated while it holds fewer private pages than
            // it did before the refill. Fewer, not as many: a write that
            // empties a shared page copies it first, one page more than
            // the memory holds before or after.
            for (k, refill) in refills.iter_mut().enumerate() {
                Refill::saw(refill, live[k].0.private_pages());
                let Some(refill) = refill else { continue };
                let mem = &live[k].0;
                if refill.peak < refill.held {
                    assert_eq!(
                        mem.chunks_allocated(),
                        refill.chunks,
                        "step {step}, memory {k}: {refill:?}, now {} private pages",
                        mem.private_pages()
                    );
                }
            }
            // Isolation in every direction: whichever memory was just
            // written, frozen, cloned, refilled, released or dropped, each
            // live one still reads as its own oracle.
            for (k, (mem, oracle)) in live.iter().enumerate() {
                assert_matches(mem, oracle, step, k);
            }
            // Equality is semantic: memories that reached the same
            // contents by different freeze/clone orders compare equal,
            // and different contents never do.
            for (a, oa) in &live {
                for (b, ob) in &live {
                    assert_eq!(a == b, oa == ob, "== must follow contents at step {step}");
                }
            }
        }
    }

    /// A memory that froze its pages and outlived every clone made from
    /// it since writes them in place: however the clones were written,
    /// refilled from one another or released before they went, its
    /// next writes copy no page, and every clone read as its own oracle
    /// while it lived. A clone still alive at the first write keeps the
    /// arena shared instead.
    fn a_writer_takes_back_what_no_clone_holds(src) {
        let mut writer = (DramContents::new(), LineMapOracle::default());
        for _ in 0..src.range_usize(1, 40) {
            write(src, &mut writer);
        }
        // Often past a chunk: the arena taken back holds several.
        if src.bool() {
            burst(src, &mut writer);
        }
        for round in 0..src.range_usize(1, 6) {
            writer.0.freeze();
            let mut clones: Vec<_> = (0..src.range_usize(1, 4)).map(|_| writer.clone()).collect();
            for _ in 0..src.below(12) {
                let k = src.index(clones.len());
                match src.below(4) {
                    0 => {
                        clones[k].0.release();
                        clones[k].1 = LineMapOracle::default();
                    }
                    1 => {
                        let source = clones[src.index(clones.len())].clone();
                        clones[k].0.clone_from(&source.0);
                        clones[k].1 = source.1;
                    }
                    _ => write(src, &mut clones[k]),
                }
            }
            for (k, (mem, oracle)) in clones.iter().enumerate() {
                assert_matches(mem, oracle, round, k + 1);
            }
            assert_matches(&writer.0, &writer.1, round, 0);
            // Half the rounds keep one holder alive through the first
            // write, which must then copy (or add) one page, not take
            // the arena back and not copy it whole. Such a round is the
            // last: the writer gave that arena up, so from then on its
            // first writes to the pages in it copy them.
            let witness = src.bool().then(|| writer.clone());
            drop(clones);
            let copied = writer.0.copied_pages();
            write(src, &mut writer);
            if let Some(witness) = &witness {
                assert!(
                    writer.0.private_pages() <= 1,
                    "round {round}: one write under a live clone left {} private pages",
                    writer.0.private_pages()
                );
                assert_matches(&witness.0, &witness.1, round, 1);
            }
            for _ in 0..src.below(30) {
                write(src, &mut writer);
            }
            if witness.is_none() {
                assert_eq!(
                    writer.0.copied_pages(),
                    copied,
                    "round {round}: a writer whose clones are gone copied a page"
                );
            }
            assert_matches(&writer.0, &writer.1, round, 0);
            if witness.is_some() {
                break;
            }
        }
    }

    /// The same writes, applied with and without freezes and clones in
    /// between, end in equal memories — and a fresh memory written once
    /// with the final contents equals both.
    fn sharing_history_never_shows_in_equality(src) {
        let writes = src.vec(1, 60, |s| (line_no(s), word(s)));
        let mut plain = DramContents::new();
        let mut shared = DramContents::new();
        let mut oracle = LineMapOracle::default();
        let mut parked = Vec::new();
        for &(l, v) in &writes {
            let addr = PAddr::new(l * 64);
            plain.write_word(addr, v);
            oracle.write_word(addr, v);
            if src.bool() {
                shared.freeze();
            }
            if src.bool() {
                // Keep a clone alive so the page stays genuinely shared.
                parked.push(shared.clone());
            }
            shared.write_word(addr, v);
        }
        let mut rebuilt = DramContents::new();
        for (&l, &data) in &oracle.lines {
            rebuilt.write_line(LineAddr::new(l), data);
        }
        assert!(plain == shared);
        assert!(shared == rebuilt);
        assert_eq!(shared.backed_lines(), oracle.lines.len());
    }
}
