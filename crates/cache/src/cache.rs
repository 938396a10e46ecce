//! A trace-driven set-associative cache simulator.
//!
//! Functional-only (no data storage): the simulator tracks tags,
//! validity and dirtiness to classify each reference as hit/miss and to
//! count fills and write-backs — all the events the analytical energy
//! model of `corepart-tech` charges.

use std::fmt;

use crate::config::{CacheConfig, Replacement, WritePolicy};

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// True when the reference hit.
    pub hit: bool,
    /// True when a line was filled from the next level.
    pub filled: bool,
    /// True when a dirty line was written back.
    pub wrote_back: bool,
    /// True when the reference went through to the next level (miss
    /// fill words, or a write-through write).
    pub next_level_write: bool,
    /// True when a next-line prefetch fill was issued alongside.
    pub prefetched: bool,
    /// True when the prefetch victimized a dirty line.
    pub prefetch_wrote_back: bool,
}

/// Aggregate statistics of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Read (or fetch) references.
    pub reads: u64,
    /// Write references.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Lines filled from the next level.
    pub fills: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Words written through to the next level (write-through only).
    pub write_throughs: u64,
    /// Lines brought in by next-line prefetching.
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Total references.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.read_hits - self.write_hits
    }

    /// Miss ratio in [0, 1]; 0 for an untouched cache.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {:.2}% miss, {} fills, {} writebacks",
            self.accesses(),
            self.miss_ratio() * 100.0,
            self.fills,
            self.writebacks
        )
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// LRU timestamp or FIFO insertion order.
    stamp: u64,
}

/// The cache simulator.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets * ways` lines, way-major within a set.
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    rng: u64,
    /// `log2(line_bytes)` — geometry is validated power-of-two, so the
    /// per-access set/tag split is a shift/mask, not three divisions.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    /// `log2(sets)`.
    sets_shift: u32,
    /// One-entry MRU filter: `(line_number, line_index)` of the last
    /// read-touched line. A repeat read of the same line is a
    /// guaranteed hit and short-circuits the way probe with state
    /// updates identical to the full path; every install overwrites or
    /// clears it, so the memo can never go stale.
    last_read: Option<(u64, usize)>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        let lines = vec![Line::default(); config.sets() * config.associativity()];
        let line_shift = config.line_bytes().trailing_zeros();
        let sets = config.sets() as u64;
        Cache {
            line_shift,
            set_mask: sets - 1,
            sets_shift: sets.trailing_zeros(),
            config,
            lines,
            stats: CacheStats::default(),
            tick: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            last_read: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all lines and clears statistics.
    pub fn reset(&mut self) {
        self.lines.iter_mut().for_each(|l| *l = Line::default());
        self.stats = CacheStats::default();
        self.tick = 0;
        self.last_read = None;
    }

    #[inline]
    fn set_and_tag(&self, addr: u32) -> (usize, u64) {
        let line = (addr as u64) >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.sets_shift;
        (set, tag)
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Performs a read (or instruction-fetch) reference.
    #[inline]
    pub fn read(&mut self, addr: u32) -> AccessOutcome {
        self.stats.reads += 1;
        let line_no = (addr as u64) >> self.line_shift;
        if let Some((memo, idx)) = self.last_read {
            if memo == line_no {
                // Repeat read of the last-touched line: a guaranteed
                // hit (nothing installed since, or the memo would have
                // been overwritten), with exactly the state updates of
                // the full probe below.
                self.tick += 1;
                if self.config.replacement() == Replacement::Lru {
                    self.lines[idx].stamp = self.tick;
                }
                self.stats.read_hits += 1;
                return AccessOutcome {
                    hit: true,
                    filled: false,
                    wrote_back: false,
                    next_level_write: false,
                    prefetched: false,
                    prefetch_wrote_back: false,
                };
            }
        }
        self.access(addr, false)
    }

    /// Performs a write reference.
    #[inline]
    pub fn write(&mut self, addr: u32) -> AccessOutcome {
        self.stats.writes += 1;
        self.access(addr, true)
    }

    fn access(&mut self, addr: u32, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.config.associativity();
        let base = set * ways;
        let line_no = (addr as u64) >> self.line_shift;

        // Hit?
        for w in 0..ways {
            let line = &mut self.lines[base + w];
            if line.valid && line.tag == tag {
                if self.config.replacement() == Replacement::Lru {
                    line.stamp = self.tick;
                }
                let mut next_level_write = false;
                if is_write {
                    self.stats.write_hits += 1;
                    match self.config.write_policy() {
                        WritePolicy::WriteBack => line.dirty = true,
                        WritePolicy::WriteThrough => {
                            self.stats.write_throughs += 1;
                            next_level_write = true;
                        }
                    }
                } else {
                    self.stats.read_hits += 1;
                    // A write hit moves no line, so an existing memo
                    // stays valid; a read hit becomes the new memo.
                    self.last_read = Some((line_no, base + w));
                }
                return AccessOutcome {
                    hit: true,
                    filled: false,
                    wrote_back: false,
                    next_level_write,
                    prefetched: false,
                    prefetch_wrote_back: false,
                };
            }
        }

        // Miss.
        if is_write && self.config.write_policy() == WritePolicy::WriteThrough {
            // No write-allocate: the word goes straight to memory and
            // no line moves, so the read memo stays valid.
            self.stats.write_throughs += 1;
            return AccessOutcome {
                hit: false,
                filled: false,
                wrote_back: false,
                next_level_write: true,
                prefetched: false,
                prefetch_wrote_back: false,
            };
        }

        let dirty = is_write && self.config.write_policy() == WritePolicy::WriteBack;
        let (victim, wrote_back) = self.install_line(set, tag, dirty);
        self.stats.fills += 1;

        // Next-line prefetch on read misses.
        let (mut prefetched, mut prefetch_wrote_back) = (false, false);
        if !is_write && self.config.prefetch() {
            let next_addr = addr.wrapping_add(self.config.line_bytes() as u32);
            let (nset, ntag) = self.set_and_tag(next_addr);
            if !self.present(nset, ntag) {
                prefetch_wrote_back = self.install_line(nset, ntag, false).1;
                self.stats.prefetch_fills += 1;
                prefetched = true;
            }
        }

        // Any install may have victimized the memoized line; point the
        // memo at the freshly filled demand line, or drop it when a
        // prefetch install (which can land anywhere) followed.
        self.last_read = if is_write || prefetched {
            None
        } else {
            Some((line_no, base + victim))
        };

        AccessOutcome {
            hit: false,
            filled: true,
            wrote_back,
            next_level_write: wrote_back,
            prefetched,
            prefetch_wrote_back,
        }
    }

    /// Whether the line containing `addr` is resident (a read of it
    /// would hit). Pure query — no state or statistics change.
    #[inline]
    pub fn line_resident(&self, addr: u32) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.present(set, tag)
    }

    /// Applies `count` consecutive read hits to the (resident) line
    /// containing `addr` in one step: the final cache state and
    /// statistics are exactly those of `count` [`Cache::read`] calls —
    /// each would hit, bump the tick and restamp the same line, so only
    /// the last stamp survives.
    ///
    /// # Panics
    ///
    /// When the line is not resident (the caller must have checked
    /// [`Cache::line_resident`]).
    #[inline]
    pub fn read_hits_same_line(&mut self, addr: u32, count: u64) {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.config.associativity();
        let base = set * ways;
        let way = (0..ways)
            .find(|&w| {
                let l = &self.lines[base + w];
                l.valid && l.tag == tag
            })
            .expect("read_hits_same_line on a non-resident line");
        self.stats.reads += count;
        self.stats.read_hits += count;
        self.tick += count;
        if self.config.replacement() == Replacement::Lru {
            self.lines[base + way].stamp = self.tick;
        }
        self.last_read = Some(((addr as u64) >> self.line_shift, base + way));
    }

    fn present(&self, set: usize, tag: u64) -> bool {
        let ways = self.config.associativity();
        let base = set * ways;
        (0..ways).any(|w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    /// Victimizes a way in `set` and installs `(tag, dirty)`. Returns
    /// the victim way and whether a dirty line was written back.
    fn install_line(&mut self, set: usize, tag: u64, dirty: bool) -> (usize, bool) {
        let ways = self.config.associativity();
        let base = set * ways;
        let victim = (0..ways)
            .find(|&w| !self.lines[base + w].valid)
            .unwrap_or_else(|| match self.config.replacement() {
                Replacement::Lru | Replacement::Fifo => (0..ways)
                    .min_by_key(|&w| self.lines[base + w].stamp)
                    .expect("non-zero ways"),
                Replacement::Random => (self.xorshift() % ways as u64) as usize,
            });
        let line = &mut self.lines[base + victim];
        let wrote_back = line.valid && line.dirty;
        if wrote_back {
            self.stats.writebacks += 1;
        }
        line.valid = true;
        line.tag = tag;
        line.dirty = dirty;
        line.stamp = self.tick;
        (victim, wrote_back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: usize, policy: Replacement, wp: WritePolicy) -> Cache {
        // 4 lines of 16 B total -> 64 B cache.
        Cache::new(CacheConfig::new(64, 16, assoc, policy, wp, 8).expect("valid"))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(1, Replacement::Lru, WritePolicy::WriteBack);
        let first = c.read(0x100);
        assert!(!first.hit && first.filled);
        let second = c.read(0x104); // same 16B line
        assert!(second.hit);
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().fills, 1);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = tiny(1, Replacement::Lru, WritePolicy::WriteBack);
        // 4 sets * 16B lines: addresses 0x0 and 0x40 conflict (set 0).
        c.read(0x0);
        c.read(0x40);
        let again = c.read(0x0);
        assert!(!again.hit, "conflict should have evicted");
        assert_eq!(c.stats().fills, 3);
    }

    #[test]
    fn two_way_avoids_that_conflict() {
        let mut c = tiny(2, Replacement::Lru, WritePolicy::WriteBack);
        c.read(0x0);
        c.read(0x40);
        let again = c.read(0x0);
        assert!(again.hit, "2-way should keep both");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru, WritePolicy::WriteBack);
        // set 0 gets lines A(0x0), B(0x20... wait 2 sets now: 64/16/2 = 2 sets.
        // set-conflicting addresses for set 0: 0x0, 0x40, 0x80 (line/sets).
        c.read(0x0); // A
        c.read(0x40); // B
        c.read(0x0); // touch A -> B is LRU
        c.read(0x80); // C evicts B
        assert!(c.read(0x0).hit, "A must survive");
        assert!(!c.read(0x40).hit, "B was evicted");
    }

    #[test]
    fn fifo_evicts_first_in() {
        let mut c = tiny(2, Replacement::Fifo, WritePolicy::WriteBack);
        c.read(0x0); // A in first
        c.read(0x40); // B
        c.read(0x0); // touching A does NOT refresh FIFO order
        c.read(0x80); // C evicts A
        assert!(!c.read(0x0).hit, "A was first in, must be evicted");
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny(1, Replacement::Lru, WritePolicy::WriteBack);
        c.write(0x0); // dirty line in set 0
        let out = c.read(0x40); // conflict -> evict dirty
        assert!(out.wrote_back);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_through_goes_to_memory() {
        let mut c = tiny(1, Replacement::Lru, WritePolicy::WriteThrough);
        let miss = c.write(0x0);
        assert!(!miss.hit && !miss.filled && miss.next_level_write);
        c.read(0x0); // fill
        let hit = c.write(0x0);
        assert!(hit.hit && hit.next_level_write);
        assert_eq!(c.stats().write_throughs, 2);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn random_policy_deterministic() {
        let run = || {
            let mut c = tiny(2, Replacement::Random, WritePolicy::WriteBack);
            for i in 0..64u32 {
                c.read(i * 0x40);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn miss_ratio_and_reset() {
        let mut c = tiny(1, Replacement::Lru, WritePolicy::WriteBack);
        c.read(0x0);
        c.read(0x0);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert!(!c.read(0x0).hit, "reset must invalidate");
    }

    #[test]
    fn sequential_streaming_hit_rate() {
        // Streaming 4-byte words through 16B lines: 3 of 4 accesses hit.
        let mut c = Cache::new(CacheConfig::default_dcache());
        for i in 0..1024u32 {
            c.read(0x1000 + i * 4);
        }
        let s = c.stats();
        assert_eq!(s.fills, 256);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn prefetch_turns_streaming_misses_into_hits() {
        let base = CacheConfig::default_icache();
        let run = |prefetch: bool| {
            let mut c = Cache::new(base.clone().with_prefetch(prefetch));
            for i in 0..1024u32 {
                c.read(0x0010_0000 + i * 4);
            }
            c.stats()
        };
        let plain = run(false);
        let pf = run(true);
        // Sequential fetches: the prefetched next line converts the
        // following demand miss into a hit.
        assert!(pf.misses() < plain.misses());
        assert!(pf.prefetch_fills > 0);
        assert_eq!(plain.prefetch_fills, 0);
    }

    #[test]
    fn prefetch_never_double_fills_present_lines() {
        let mut c = Cache::new(CacheConfig::default_icache().with_prefetch(true));
        // Touch line A and A+1 alternately: after warmup no prefetch
        // fires because the next line is already resident.
        for _ in 0..100 {
            c.read(0x1000);
            c.read(0x1010);
        }
        let s = c.stats();
        assert!(
            s.prefetch_fills <= 2,
            "prefetch_fills = {}",
            s.prefetch_fills
        );
    }

    #[test]
    fn prefetch_reports_in_outcome() {
        let mut c = Cache::new(CacheConfig::default_dcache().with_prefetch(true));
        let out = c.read(0x1000);
        assert!(out.filled && out.prefetched);
        let out2 = c.read(0x1010); // the prefetched line
        assert!(out2.hit);
    }

    #[test]
    fn larger_cache_never_worse_on_lru_reuse_pattern() {
        let run = |kb: usize| {
            let mut c = Cache::new(
                CacheConfig::new(
                    kb * 1024,
                    16,
                    1,
                    Replacement::Lru,
                    WritePolicy::WriteBack,
                    8,
                )
                .expect("valid"),
            );
            // Loop over a 12kB working set 4 times.
            for _ in 0..4 {
                for i in 0..(12 * 1024 / 4) as u32 {
                    c.read(0x1000 + i * 4);
                }
            }
            c.stats().miss_ratio()
        };
        assert!(run(16) <= run(8));
        assert!(run(8) <= run(4) + 1e-12);
    }
}
