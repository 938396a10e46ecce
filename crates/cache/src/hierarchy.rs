//! The memory hierarchy: instruction cache, data cache and main memory
//! with per-event energy accounting.
//!
//! This is the trace-driven reconstruction of the paper's cache/memory
//! models (§3.5: "analytical models for main memory energy consumption
//! and caches are fed with the output of a cache profiler that itself is
//! preceded by a trace tool"). The µP-side reference stream drives it;
//! every event (hit, fill, write-back, write-through, memory word) is
//! charged with the analytical energies of `corepart-tech`.

use std::fmt;

use corepart_tech::energy::{CacheEnergyModel, MemoryEnergyModel};
use corepart_tech::process::CmosProcess;
use corepart_tech::units::{Cycles, Energy};

use crate::cache::{Cache, CacheStats};
use crate::config::CacheConfig;

/// Energy and stall report of a hierarchy run.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyReport {
    /// Instruction-cache energy.
    pub icache_energy: Energy,
    /// Data-cache energy.
    pub dcache_energy: Energy,
    /// Main-memory energy (fills, write-backs, write-throughs, direct
    /// accesses).
    pub mem_energy: Energy,
    /// µP stall cycles caused by misses.
    pub stall_cycles: Cycles,
    /// Instruction-cache statistics.
    pub icache: CacheStats,
    /// Data-cache statistics.
    pub dcache: CacheStats,
    /// Words read from main memory.
    pub mem_reads: u64,
    /// Words written to main memory.
    pub mem_writes: u64,
}

impl HierarchyReport {
    /// Total energy of all memory-side cores.
    pub fn total_energy(&self) -> Energy {
        self.icache_energy + self.dcache_energy + self.mem_energy
    }
}

impl fmt::Display for HierarchyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "i$ {} | d$ {} | mem {} | {} stall cycles",
            self.icache_energy, self.dcache_energy, self.mem_energy, self.stall_cycles
        )
    }
}

/// One recorded µP-side memory reference, replayable through
/// [`Hierarchy::apply`]. The three variants mirror the three
/// `MemSink` callbacks the live simulation drives (instruction fetch,
/// data read, data write).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemEvent {
    /// An instruction fetch from the address.
    IFetch(u32),
    /// A data read from the address.
    Read(u32),
    /// A data write to the address.
    Write(u32),
}

/// The simulated hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    icache: Cache,
    dcache: Cache,
    i_model: CacheEnergyModel,
    d_model: CacheEnergyModel,
    mem_model: MemoryEnergyModel,
    i_energy: Energy,
    d_energy: Energy,
    mem_energy: Energy,
    stall_cycles: u64,
    mem_reads: u64,
    mem_writes: u64,
}

impl Hierarchy {
    /// Builds a hierarchy for the given cache geometries, deriving all
    /// energy models analytically from `process` and the main-memory
    /// size.
    pub fn new(
        icache: CacheConfig,
        dcache: CacheConfig,
        process: &CmosProcess,
        memory_bytes: usize,
    ) -> Self {
        let i_model = CacheEnergyModel::analytical(
            process,
            icache.size_bytes(),
            icache.line_bytes(),
            icache.associativity(),
        );
        let d_model = CacheEnergyModel::analytical(
            process,
            dcache.size_bytes(),
            dcache.line_bytes(),
            dcache.associativity(),
        );
        let mem_model = MemoryEnergyModel::analytical(process, memory_bytes);
        Hierarchy {
            icache: Cache::new(icache),
            dcache: Cache::new(dcache),
            i_model,
            d_model,
            mem_model,
            i_energy: Energy::ZERO,
            d_energy: Energy::ZERO,
            mem_energy: Energy::ZERO,
            stall_cycles: 0,
            mem_reads: 0,
            mem_writes: 0,
        }
    }

    /// Clears all state and counters.
    pub fn reset(&mut self) {
        self.icache.reset();
        self.dcache.reset();
        self.i_energy = Energy::ZERO;
        self.d_energy = Energy::ZERO;
        self.mem_energy = Energy::ZERO;
        self.stall_cycles = 0;
        self.mem_reads = 0;
        self.mem_writes = 0;
    }

    /// An instruction fetch.
    #[inline]
    pub fn ifetch(&mut self, addr: u32) {
        let out = self.icache.read(addr);
        if out.hit {
            self.i_energy += self.i_model.read_hit();
        } else {
            self.i_energy += self.i_model.tag_probe();
            if out.filled {
                self.i_energy += self.i_model.line_fill();
                let words = self.icache.config().line_words() as u64;
                self.mem_energy += self.mem_model.read_word() * words;
                self.mem_reads += words;
                self.stall_cycles += self.icache.config().miss_penalty();
            }
            if out.prefetched {
                // Prefetch fills overlap execution: energy but no stall.
                self.i_energy += self.i_model.line_fill();
                let words = self.icache.config().line_words() as u64;
                self.mem_energy += self.mem_model.read_word() * words;
                self.mem_reads += words;
            }
        }
    }

    /// A data read.
    #[inline]
    pub fn dread(&mut self, addr: u32) {
        let out = self.dcache.read(addr);
        if out.hit {
            self.d_energy += self.d_model.read_hit();
        } else {
            self.d_energy += self.d_model.tag_probe();
            if out.filled {
                self.d_energy += self.d_model.line_fill();
                let words = self.dcache.config().line_words() as u64;
                self.mem_energy += self.mem_model.read_word() * words;
                self.mem_reads += words;
                self.stall_cycles += self.dcache.config().miss_penalty();
            }
            if out.wrote_back {
                self.charge_writeback();
            }
        }
    }

    /// A data write.
    #[inline]
    pub fn dwrite(&mut self, addr: u32) {
        let out = self.dcache.write(addr);
        if out.hit {
            self.d_energy += self.d_model.write_hit();
            if out.next_level_write {
                // Write-through word.
                self.mem_energy += self.mem_model.write_word();
                self.mem_writes += 1;
            }
        } else {
            self.d_energy += self.d_model.tag_probe();
            if out.filled {
                self.d_energy += self.d_model.line_fill();
                let words = self.dcache.config().line_words() as u64;
                self.mem_energy += self.mem_model.read_word() * words;
                self.mem_reads += words;
                self.stall_cycles += self.dcache.config().miss_penalty();
                if out.wrote_back {
                    self.charge_writeback();
                }
            } else if out.next_level_write {
                // Write-through, no allocate: one word to memory.
                self.mem_energy += self.mem_model.write_word();
                self.mem_writes += 1;
            }
        }
    }

    /// Attempts `count` consecutive word fetches (`addr`, `addr + 4`,
    /// …) as one batch. Succeeds — returning `true` — only when every
    /// touched i-cache line is already resident, in which case each
    /// fetch is a guaranteed hit: the i-cache state advances exactly as
    /// `count` [`Hierarchy::ifetch`] calls would and the hit energy is
    /// added once per fetch, in order, to the i-cache accumulator. No
    /// shared-accumulator event (memory energy, stalls) can fire on a
    /// hit, so the batch is bit-identical to the call-by-call sequence.
    /// On `false` nothing was touched.
    #[inline]
    pub fn ifetch_run_hits(&mut self, addr: u32, count: u32) -> bool {
        if count == 0 {
            return true;
        }
        let line_bytes = self.icache.config().line_bytes() as u32;
        let end = addr + 4 * count;
        let mut probe = addr;
        while probe < end {
            if !self.icache.line_resident(probe) {
                return false;
            }
            probe = (probe & !(line_bytes - 1)) + line_bytes;
        }
        let hit_energy = self.i_model.read_hit();
        let mut at = addr;
        while at < end {
            let line_end = ((at & !(line_bytes - 1)) + line_bytes).min(end);
            let words = ((line_end - at) / 4) as u64;
            self.icache.read_hits_same_line(at, words);
            for _ in 0..words {
                self.i_energy += hit_energy;
            }
            at = line_end;
        }
        true
    }

    fn charge_writeback(&mut self) {
        self.d_energy += self.d_model.line_writeback();
        let words = self.dcache.config().line_words() as u64;
        self.mem_energy += self.mem_model.write_word() * words;
        self.mem_writes += words;
        self.stall_cycles += self.dcache.config().miss_penalty();
    }

    /// A word read straight from main memory, bypassing the caches —
    /// how the ASIC core reaches the shared memory (Fig. 2 a).
    pub fn direct_read(&mut self) {
        self.mem_energy += self.mem_model.read_word();
        self.mem_reads += 1;
    }

    /// A word written straight to main memory, bypassing the caches.
    pub fn direct_write(&mut self) {
        self.mem_energy += self.mem_model.write_word();
        self.mem_writes += 1;
    }

    /// Feeds one recorded reference into the hierarchy — the replay
    /// entry point of the trace engine. `apply` dispatches to the same
    /// [`Hierarchy::ifetch`]/[`Hierarchy::dread`]/[`Hierarchy::dwrite`]
    /// the live simulation drives, so replaying a captured stream in
    /// order reproduces the [`HierarchyReport`] bit for bit.
    pub fn apply(&mut self, event: MemEvent) {
        match event {
            MemEvent::IFetch(addr) => self.ifetch(addr),
            MemEvent::Read(addr) => self.dread(addr),
            MemEvent::Write(addr) => self.dwrite(addr),
        }
    }

    /// Replays a whole reference stream through [`Hierarchy::apply`].
    pub fn replay<I: IntoIterator<Item = MemEvent>>(&mut self, events: I) {
        for event in events {
            self.apply(event);
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> HierarchyReport {
        HierarchyReport {
            icache_energy: self.i_energy,
            dcache_energy: self.d_energy,
            mem_energy: self.mem_energy,
            stall_cycles: Cycles::new(self.stall_cycles),
            icache: self.icache.stats(),
            dcache: self.dcache.stats(),
            mem_reads: self.mem_reads,
            mem_writes: self.mem_writes,
        }
    }

    /// The instruction cache (for inspection).
    pub fn icache(&self) -> &Cache {
        &self.icache
    }

    /// The data cache (for inspection).
    pub fn dcache(&self) -> &Cache {
        &self.dcache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(
            CacheConfig::default_icache(),
            CacheConfig::default_dcache(),
            &CmosProcess::cmos6(),
            1 << 20,
        )
    }

    #[test]
    fn tight_loop_ifetches_mostly_hit() {
        let mut h = hierarchy();
        // 16 instructions fetched 1000 times.
        for _ in 0..1000 {
            for i in 0..16u32 {
                h.ifetch(0x0010_0000 + i * 4);
            }
        }
        let r = h.report();
        assert!(r.icache.miss_ratio() < 0.01);
        assert!(r.icache_energy.joules() > 0.0);
        // Only the cold fills touched memory.
        assert_eq!(r.icache.fills, 4);
    }

    #[test]
    fn streaming_data_misses_cost_memory_energy() {
        let mut h = hierarchy();
        for i in 0..4096u32 {
            h.dread(0x1000 + i * 64); // one access per line, always miss
        }
        let r = h.report();
        assert!(r.dcache.miss_ratio() > 0.99);
        assert!(r.mem_energy > r.dcache_energy);
        assert!(r.stall_cycles.count() > 0);
        assert_eq!(r.mem_reads, 4096 * 4); // 4 words per 16B line
    }

    #[test]
    fn writeback_traffic_counted() {
        let mut h = hierarchy();
        // Dirty a line, then conflict-evict it (direct-mapped 8kB).
        h.dwrite(0x1000);
        h.dread(0x1000 + 8 * 1024);
        let r = h.report();
        assert_eq!(r.dcache.writebacks, 1);
        assert!(r.mem_writes >= 4);
    }

    #[test]
    fn direct_accesses_bypass_caches() {
        let mut h = hierarchy();
        for _ in 0..10 {
            h.direct_read();
            h.direct_write();
        }
        let r = h.report();
        assert_eq!(r.dcache.accesses(), 0);
        assert_eq!(r.mem_reads, 10);
        assert_eq!(r.mem_writes, 10);
        assert!(r.mem_energy.joules() > 0.0);
        assert_eq!(r.dcache_energy, Energy::ZERO);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = hierarchy();
        h.ifetch(0x0010_0000);
        h.dwrite(0x1000);
        h.reset();
        let r = h.report();
        assert_eq!(r.total_energy(), Energy::ZERO);
        assert_eq!(r.icache.accesses(), 0);
        assert_eq!(r.stall_cycles, Cycles::ZERO);
    }

    #[test]
    fn report_totals_add_up() {
        let mut h = hierarchy();
        for i in 0..256u32 {
            h.ifetch(0x0010_0000 + (i % 64) * 4);
            h.dread(0x1000 + (i % 32) * 4);
            if i % 4 == 0 {
                h.dwrite(0x2000 + i * 4);
            }
        }
        let r = h.report();
        let sum = r.icache_energy + r.dcache_energy + r.mem_energy;
        assert!((r.total_energy().joules() - sum.joules()).abs() < 1e-18);
        let disp = format!("{r}");
        assert!(disp.contains("i$"));
    }

    #[test]
    fn replayed_events_match_live_calls() {
        let mut live = hierarchy();
        let mut events = Vec::new();
        for i in 0..512u32 {
            live.ifetch(0x0010_0000 + (i % 128) * 4);
            events.push(MemEvent::IFetch(0x0010_0000 + (i % 128) * 4));
            if i % 3 == 0 {
                live.dread(0x1000 + (i % 64) * 4);
                events.push(MemEvent::Read(0x1000 + (i % 64) * 4));
            }
            if i % 7 == 0 {
                live.dwrite(0x2000 + i * 4);
                events.push(MemEvent::Write(0x2000 + i * 4));
            }
        }
        let mut replayed = hierarchy();
        replayed.replay(events);
        assert_eq!(live.report(), replayed.report());
    }

    #[test]
    fn smaller_cache_misses_more_on_large_working_set() {
        let run = |kb: usize| {
            let cfg = CacheConfig::default_dcache().with_size(kb * 1024).unwrap();
            let mut h = Hierarchy::new(
                CacheConfig::default_icache(),
                cfg,
                &CmosProcess::cmos6(),
                1 << 20,
            );
            for _ in 0..8 {
                for i in 0..(16 * 1024 / 4) as u32 {
                    h.dread(0x1000 + i * 4);
                }
            }
            h.report().dcache.miss_ratio()
        };
        assert!(run(4) > run(32));
    }
}
