//! Reference-trace capture and replay.
//!
//! [`SimConfig::hw_blocks`](crate::simulator::SimConfig::hw_blocks)
//! changes *accounting only* — a partitioned run executes exactly the
//! same instruction stream as the initial run, because hardware-mapped
//! blocks still execute functionally. Verification therefore does not
//! need to re-interpret the program per candidate: one captured
//! reference execution (the pc stream plus the data addresses of every
//! load/store, in order) contains everything the energy and cache
//! accounting consume, and any candidate's `hw_blocks` filter can be
//! applied at *replay* time.
//!
//! * [`TraceBuilder`] is a [`MemSink`] that appends the reference
//!   stream of one
//!   [`Simulator::run`](crate::simulator::Simulator::run) of the
//!   initial design, where every executed instruction is fetched
//!   exactly once and every load or store is one data reference,
//!   straight into the columns the replay walks.
//! * [`ReferenceTrace`] is the finished, immutable capture.
//! * [`TraceReplayer::replay_batch`] — the one replay walk — re-runs
//!   the accounting of
//!   [`Simulator::run`](crate::simulator::Simulator::run) over a
//!   capture for K hardware-block sets at once (a single candidate is
//!   a batch of one), reproducing each lane's [`RunStats`] — and its
//!   [`MemSink`] reference stream — **bit for bit** (the same `f64`
//!   operations in the same order).
//!
//! ## Bounded memory
//!
//! The capture is three `u32` columns, the one form both capture and
//! replay use. Execution is sequential except at taken branches, so the
//! pc stream is held as one `(start, length)` pair per maximal
//! `pc, pc+1, …` stretch, in a start column and a length column (a
//! stretch never runs past the end of the program, so its length fits
//! a `u32`). The data stream is the third column, one address per
//! executed load or store. A run costs eight bytes per taken branch
//! plus four per data access. A caller-supplied byte cap bounds the
//! columns' allocated bytes: when growing a column would pass it, the
//! builder frees everything and [`TraceBuilder::finish`] returns `None`
//! — callers fall back to direct simulation, trading time for memory,
//! never correctness.

use std::sync::Arc;

use corepart_ir::cdfg::Application;
use corepart_ir::op::BlockId;
use corepart_tech::units::{Cycles, Energy};

use crate::codegen::{MachProgram, CODE_BASE, SLOT_BASE};
use crate::decode::{AccessKind, DecodeTable};
use crate::energy::EnergyTable;
use crate::isa::InstClass;
use crate::simulator::{MemSink, RunStats, SimConfig, SimError};

/// Elements a column reserves when it first grows; every later growth
/// doubles its capacity.
const MIN_COLUMN: usize = 1024;

const XXH_P1: u64 = 0x9e37_79b1_85eb_ca87;
const XXH_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XXH_P3: u64 = 0x1656_67b1_9e37_79f9;
const XXH_P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One xxHash64 accumulator round: a bijection of `acc` for a fixed
/// `word` and of `word` for a fixed `acc`.
#[inline]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// The four-lane state of [`ReferenceTrace::hash`].
struct WordHash {
    lanes: [u64; 4],
}

impl WordHash {
    fn new() -> Self {
        WordHash {
            lanes: [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ],
        }
    }

    #[inline]
    fn block(&mut self, words: [u64; 4]) {
        for (lane, word) in self.lanes.iter_mut().zip(words) {
            *lane = xxh_round(*lane, word);
        }
    }

    /// Hashes one column: whole blocks of four words (eight elements,
    /// two to a word), the zero-padded tail block (when there is a
    /// tail), then the length in elements.
    fn column(&mut self, column: &[u32]) {
        let word = |c: &[u32], i: usize| u64::from(c[2 * i]) | u64::from(c[2 * i + 1]) << 32;
        let mut blocks = column.chunks_exact(8);
        for b in &mut blocks {
            self.block([word(b, 0), word(b, 1), word(b, 2), word(b, 3)]);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut b = [0u32; 8];
            b[..tail.len()].copy_from_slice(tail);
            self.block([word(&b, 0), word(&b, 1), word(&b, 2), word(&b, 3)]);
        }
        self.lanes[0] = xxh_round(self.lanes[0], column.len() as u64);
    }

    /// Merges the lanes (each step a bijection of the merged lane and
    /// of the running value) and avalanches the result.
    fn finish(&self) -> u64 {
        let mut h = XXH_P3;
        for lane in self.lanes {
            h = (h ^ xxh_round(0, lane))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(XXH_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

/// The immutable capture of one reference execution: the executed pc
/// stream as sequential stretches, the data-address stream (one entry
/// per executed load/store, in execution order), and the run's return
/// value.
///
/// A trace is tied to the exact ([`MachProgram`], workload) pair it was
/// captured from; the [`fingerprint`](ReferenceTrace::fingerprint)
/// identifies that pair for memoization.
#[derive(Debug, Clone)]
pub struct ReferenceTrace {
    /// First pc of each maximal sequential stretch, in execution order.
    starts: Vec<u32>,
    /// Instructions in each stretch.
    lens: Vec<u32>,
    /// Address of each executed load or store, in execution order.
    addrs: Vec<u32>,
    events: u64,
    data_events: u64,
    return_value: i64,
    fingerprint: u64,
}

impl ReferenceTrace {
    /// Executed instructions recorded (µP- and hardware-mapped alike).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Recorded data accesses (loads + stores).
    pub fn data_events(&self) -> u64 {
        self.data_events
    }

    /// Owned heap footprint in bytes (the columns' allocated capacity,
    /// which the byte cap bounds, plus this struct) — what an artifact
    /// store charges against its byte budget for keeping this trace
    /// warm.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + 4 * (self.starts.capacity() + self.lens.capacity() + self.addrs.capacity())
    }

    /// The run's return value (register `r1` at `halt`).
    pub fn return_value(&self) -> i64 {
        self.return_value
    }

    /// Integrity hash over the columns and event counts (see
    /// [`ReferenceTrace::validate`]); equal captures of one execution
    /// hash equal.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Recomputes the fingerprint from the columns and compares it
    /// against the one stamped at capture time — the integrity gate
    /// for traces whose columns may have been damaged after capture.
    /// [`TraceReplayer::replay_batch`]'s own conservation checks catch
    /// truncation (fewer walked events than recorded); this check
    /// additionally catches any element-level corruption that leaves
    /// the counts plausible.
    ///
    /// # Errors
    ///
    /// [`SimError::TraceCorrupt`] when the columns no longer hash to
    /// the stored fingerprint.
    pub fn validate(&self) -> Result<(), SimError> {
        let h = self.hash();
        if h != self.fingerprint {
            return Err(SimError::TraceCorrupt {
                detail: format!(
                    "fingerprint mismatch: captured {:#018x}, columns hash to {h:#018x}",
                    self.fingerprint
                ),
            });
        }
        Ok(())
    }

    /// The integrity hash over the counts, the return value and the
    /// three columns — the one definition shared by
    /// [`TraceBuilder::finish`] (which stamps it into the capture) and
    /// [`ReferenceTrace::validate`] (which recomputes and compares it).
    ///
    /// Four independent 64-bit lanes each take one word of every
    /// four-word block (the xxHash64 round), so the multiplies of a
    /// block overlap instead of chaining word by word. Every step is a
    /// bijection of the lane it updates and the final lane merge is a
    /// bijection of each lane, so changing any single element always
    /// changes the hash; other damage (truncation, several elements) is
    /// caught with the odds of a 64-bit hash. An in-memory checksum
    /// only: it is never stored or sent.
    fn hash(&self) -> u64 {
        let mut h = WordHash::new();
        h.block([self.events, self.data_events, self.return_value as u64, 0]);
        for column in [&self.starts, &self.lens, &self.addrs] {
            h.column(column);
        }
        h.finish()
    }
}

/// Deliberate-damage hooks for the conformance harness (`conform`
/// feature only): fault-injection tests use these to manufacture the
/// degraded traces the integrity checks must reject. Not part of the
/// supported API surface.
#[cfg(feature = "conform")]
impl ReferenceTrace {
    /// Flips every bit of one byte of the columns, counting each
    /// element as four little-endian bytes: of the address column when
    /// `addr_stream`, of the start then the length column otherwise.
    /// Returns `false` when `index` is past the end.
    pub fn corrupt_byte(&mut self, addr_stream: bool, index: usize) -> bool {
        let mut element = index / 4;
        let columns = if addr_stream {
            vec![&mut self.addrs]
        } else {
            vec![&mut self.starts, &mut self.lens]
        };
        for column in columns {
            if let Some(word) = column.get_mut(element) {
                *word ^= 0xff << (8 * (index % 4));
                return true;
            }
            element -= column.len();
        }
        false
    }

    /// Drops up to `n` trailing stretches of the pc columns, returning
    /// how many were actually removed — a truncated capture, as if the
    /// end of the run were lost.
    pub fn truncate_pcs(&mut self, n: usize) -> usize {
        let keep = self.starts.len().saturating_sub(n);
        let dropped = self.starts.len() - keep;
        self.starts.truncate(keep);
        self.lens.truncate(keep);
        dropped
    }

    /// Re-stamps the fingerprint from the *current* columns so
    /// [`ReferenceTrace::validate`] passes again — used to build
    /// internally-consistent-looking truncated traces that only the
    /// replay-time conservation checks can reject.
    pub fn refingerprint(&mut self) {
        self.fingerprint = self.hash();
    }
}

/// Appends `v` to `column`. A full column doubles its capacity (at
/// least [`MIN_COLUMN`] elements) unless that would take the columns'
/// `allocated` bytes past `cap`: then nothing is appended and the
/// result is `false`.
#[inline]
fn push_capped(column: &mut Vec<u32>, v: u32, allocated: &mut usize, cap: usize) -> bool {
    if column.len() == column.capacity() {
        let grow = column.capacity().max(MIN_COLUMN);
        if *allocated + 4 * grow > cap {
            return false;
        }
        let before = column.capacity();
        column.reserve_exact(grow);
        *allocated += 4 * (column.capacity() - before);
    }
    column.push(v);
    true
}

/// A [`MemSink`] that builds a [`ReferenceTrace`] from the reference
/// stream of an initial-design run, under a byte cap.
///
/// With no hardware-mapped blocks the simulator fetches every executed
/// instruction exactly once, at `CODE_BASE + 4 * pc`, and reports every
/// load or store as one data reference, so that stream alone determines
/// the executed pc sequence and the data-address sequence. A
/// partitioned run's stream omits the hardware-mapped instructions and
/// must not be captured.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    starts: Vec<u32>,
    lens: Vec<u32>,
    addrs: Vec<u32>,
    /// The open stretch, appended when the next fetch leaves it.
    run_start: u32,
    run_len: u32,
    /// Allocated bytes of the three columns.
    allocated: usize,
    cap_bytes: usize,
    overflowed: bool,
}

impl TraceBuilder {
    /// A builder whose columns may allocate at most `cap_bytes`. `0`
    /// disables capture entirely (every event overflows), which is the
    /// transparent path to "always simulate directly".
    pub fn new(cap_bytes: usize) -> Self {
        TraceBuilder {
            starts: Vec::new(),
            lens: Vec::new(),
            addrs: Vec::new(),
            run_start: 0,
            run_len: 0,
            allocated: 0,
            cap_bytes,
            overflowed: cap_bytes == 0,
        }
    }

    /// Whether the cap was exceeded (the capture was discarded).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    fn flush_run(&mut self) {
        if self.run_len == 0 || self.overflowed {
            return;
        }
        let (allocated, cap) = (&mut self.allocated, self.cap_bytes);
        if !(push_capped(&mut self.starts, self.run_start, allocated, cap)
            && push_capped(&mut self.lens, self.run_len, allocated, cap))
        {
            self.overflow();
        }
        self.run_len = 0;
    }

    /// Frees the columns eagerly: the rest of the run keeps executing,
    /// and the half-trace is useless.
    fn overflow(&mut self) {
        self.overflowed = true;
        self.starts = Vec::new();
        self.lens = Vec::new();
        self.addrs = Vec::new();
        self.allocated = 0;
    }

    /// A load or store touched `addr` (slot and data space alike).
    fn data(&mut self, addr: u32) {
        if !self.overflowed
            && !push_capped(&mut self.addrs, addr, &mut self.allocated, self.cap_bytes)
        {
            self.overflow();
        }
    }

    /// Seals the capture and shrinks its columns to their length.
    /// `return_value` is the finished run's return value
    /// ([`RunStats::return_value`]). Returns `None` when the cap was
    /// exceeded.
    pub fn finish(mut self, return_value: i64) -> Option<ReferenceTrace> {
        self.flush_run();
        if self.overflowed {
            return None;
        }
        let mut trace = ReferenceTrace {
            events: self.lens.iter().map(|&len| u64::from(len)).sum(),
            data_events: self.addrs.len() as u64,
            starts: self.starts,
            lens: self.lens,
            addrs: self.addrs,
            return_value,
            fingerprint: 0,
        };
        trace.starts.shrink_to_fit();
        trace.lens.shrink_to_fit();
        trace.addrs.shrink_to_fit();
        trace.fingerprint = trace.hash();
        Some(trace)
    }
}

impl MemSink for TraceBuilder {
    fn ifetch(&mut self, addr: u32) {
        let pc = (addr - CODE_BASE) / 4;
        // Extend the open sequential stretch, or append it and open a
        // new one at a taken branch.
        if self.run_len > 0 && pc == self.run_start + self.run_len {
            self.run_len += 1;
        } else {
            self.flush_run();
            self.run_start = pc;
            self.run_len = 1;
        }
    }

    fn read(&mut self, addr: u32) {
        self.data(addr);
    }

    fn write(&mut self, addr: u32) {
        self.data(addr);
    }
}

/// How one lane processes the current same-block run — decided once
/// per (run, lane) by the classification pass, then executed on the
/// matching path.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunChoice {
    /// Lane already died (its candidate's error); skips everything.
    Dead,
    /// The run's block is hardware-mapped for this lane.
    Hw,
    /// Software run whose i-fetches the lane's sink accepted in bulk.
    Bulk,
    /// Software run that needs the exact per-instruction body
    /// (cycle-limit in range, tracing on, or a declined bulk fetch).
    Exact,
}

/// Structure-of-arrays accumulator state of a batched replay: every
/// counter [`Simulator::run`](crate::simulator::Simulator::run)
/// accumulates lives in a lane-indexed vector (`field[l]` is lane `l`'s
/// accumulator; block- and class-keyed counters are row-major,
/// `row * n + l`), so a lane-independent delta is applied to all K
/// lanes as one bulk add over a contiguous slice — the form the
/// vectorizer lowers to SIMD groups of `LANE_GROUP` lanes.
///
/// Integer counters restructured this way are exact — only the `f64`
/// *add sequence* carries rounding, and every `f64` accumulator is
/// advanced elementwise per event, so lane `l` performs exactly its
/// own sequential add sequence.
struct Lanes {
    n: usize,
    /// Lanes that have not died; the walk early-exits at zero, like
    /// the direct run's early return.
    live: usize,
    // Per-lane vectors, index = lane.
    cycles: Vec<u64>,
    energy: Vec<Energy>,
    class_switches: Vec<u64>,
    sw_ifetches: Vec<u64>,
    sw_reads: Vec<u64>,
    sw_writes: Vec<u64>,
    hw_loads: Vec<u64>,
    hw_stores: Vec<u64>,
    prev_class: Vec<Option<InstClass>>,
    prev_was_hw: Vec<bool>,
    dead: Vec<Option<SimError>>,
    // Row-major lane matrices, `[row * n + lane]`.
    /// Per-block hardware flag per lane (`n_blocks` rows).
    is_hw: Vec<bool>,
    /// Per-class instruction counts (8 rows, `InstClass::ALL` order).
    inst_counts: Vec<u64>,
    /// Per-class cycle counts (8 rows).
    class_cycles: Vec<u64>,
    block_counts: Vec<u64>,
    block_cycles: Vec<u64>,
    block_energy: Vec<Energy>,
    /// `n_blocks * 8` rows, `(block * 8 + class) * n + lane`.
    block_class_cycles: Vec<u64>,
    /// Per-block software-to-hardware entry counts; only non-zero
    /// entries are inserted into `RunStats::hw_block_entries`, which is
    /// exactly the key set the direct run's `entry().or_insert(0)` grows.
    hw_entries: Vec<u64>,
    /// Per-run scratch: each lane's classification for the current run.
    choice: Vec<RunChoice>,
}

impl Lanes {
    /// Fresh lane state for `configs` over a program of `nb` blocks,
    /// with each lane's per-block hardware flags baked in.
    fn new(nb: usize, configs: &[SimConfig]) -> Self {
        let n = configs.len();
        let mut is_hw = vec![false; nb * n];
        for (l, config) in configs.iter().enumerate() {
            for b in &config.hw_blocks {
                let bi = b.0 as usize;
                if bi < nb {
                    is_hw[bi * n + l] = true;
                }
            }
        }
        Lanes {
            n,
            live: n,
            cycles: vec![0; n],
            energy: vec![Energy::ZERO; n],
            class_switches: vec![0; n],
            sw_ifetches: vec![0; n],
            sw_reads: vec![0; n],
            sw_writes: vec![0; n],
            hw_loads: vec![0; n],
            hw_stores: vec![0; n],
            prev_class: vec![None; n],
            prev_was_hw: vec![false; n],
            dead: vec![None; n],
            is_hw,
            inst_counts: vec![0; 8 * n],
            class_cycles: vec![0; 8 * n],
            block_counts: vec![0; nb * n],
            block_cycles: vec![0; nb * n],
            block_energy: vec![Energy::ZERO; nb * n],
            block_class_cycles: vec![0; nb * 8 * n],
            hw_entries: vec![0; nb * n],
            choice: vec![RunChoice::Dead; n],
        }
    }
}

/// Replays a [`ReferenceTrace`] through the accounting of
/// [`Simulator::run`](crate::simulator::Simulator::run) for an
/// arbitrary hardware-block set.
///
/// It is driven by the program's shared [`DecodeTable`] (class,
/// latency, block, base energy, … per pc) plus replay-only prefix
/// tables built from it; [`TraceReplayer::replay_batch`] then walks the
/// trace's pc and address columns executing *only* the accounting — no instruction
/// semantics, no register file, no data memory — in exactly the order
/// the direct run performs it, so every counter and every `f64` in the
/// resulting [`RunStats`] is bit-identical to a fresh
/// `Simulator::run` with the same [`SimConfig`].
#[derive(Debug, Clone)]
pub struct TraceReplayer {
    table: Arc<DecodeTable>,
    /// `access_prefix[pc]` = data accesses issued by `info[..pc]`, so a
    /// stretch `lo..hi` consumes `access_prefix[hi] - access_prefix[lo]`
    /// address records — lets the batched walk advance the shared
    /// address cursor per stretch in O(1).
    access_prefix: Vec<u32>,
    /// `run_end[pc]` = exclusive end of the maximal contiguous pc range
    /// around `pc` whose instructions all belong to the same block —
    /// the granularity at which the batched walk hoists the per-block
    /// accounting out of the instruction loop.
    run_end: Vec<u32>,
    /// `lat_prefix[pc]` = summed latency of `info[..pc]`; a run's cycle
    /// total in O(1), for deciding up front that no lane can hit its
    /// cycle limit inside the run.
    lat_prefix: Vec<u64>,
    /// Per data-access ordinal (the `access_prefix` numbering): the pc,
    /// for error reporting on a short address stream.
    access_pc: Vec<u32>,
    /// Per data-access ordinal: `true` for a load, `false` for a store.
    access_is_load: Vec<bool>,
    /// `class_count_prefix[pc][c]` = instructions of class index `c` in
    /// `info[..pc]` — a software run's per-class instruction counts are
    /// the prefix difference, lane-independent, applied to the lane
    /// vectors as eight bulk adds instead of `run_len` scalar ones.
    class_count_prefix: Vec<[u64; 8]>,
    /// `class_cycle_prefix[pc][c]` = summed latency of class index `c`
    /// in `info[..pc]` — the per-class cycle counterpart.
    class_cycle_prefix: Vec<[u64; 8]>,
    /// `switch_prefix[pc]` = adjacent-pc class changes in `info[..pc]`
    /// (boundaries `j-1 → j` for `j < pc`). Inside a software run every
    /// instruction after the first switches iff its class differs from
    /// its predecessor's, identically in every lane — only the *first*
    /// instruction's switch depends on lane history.
    switch_prefix: Vec<u64>,
    /// `intra_energy[pc]` = the energy instruction `pc` costs when the
    /// previous µP instruction was `pc - 1` (the not-first-in-run case):
    /// `base_energy` plus the inter-instruction overhead iff the classes
    /// differ — precomputed with the same two operands and the same one
    /// `f64` add the direct run performs, so the bits are
    /// identical. `intra_energy[0]` is the bare base energy (pc 0 is
    /// always first in its run).
    intra_energy: Vec<Energy>,
}

/// Fixed SIMD group width of the lane-vectorized accumulator updates:
/// lane vectors are processed in chunks of this many lanes so the chunk
/// bodies lower to vector instructions (each element is one lane's
/// accumulator, the operand is broadcast). The adds are elementwise —
/// lane `l` performs exactly its own sequential add — so the group
/// width affects scheduling, never results.
const LANE_GROUP: usize = 4;

/// `dst[l] += v` for every lane, in fixed-width groups.
#[inline]
fn lanes_add_u64(dst: &mut [u64], v: u64) {
    let mut groups = dst.chunks_exact_mut(LANE_GROUP);
    for group in &mut groups {
        for d in group {
            *d += v;
        }
    }
    for d in groups.into_remainder() {
        *d += v;
    }
}

/// `energy[l] += e; block[l] += e` for every lane — the two `f64`
/// accumulators every µP instruction touches, advanced together so
/// both stay in vector registers across the instruction loop. Per lane
/// the adds land in the sequential order (run accumulator, then block
/// accumulator, per event).
#[inline]
fn lanes_add_energy(energy: &mut [Energy], block: &mut [Energy], e: Energy) {
    let mut ge = energy.chunks_exact_mut(LANE_GROUP);
    let mut gb = block.chunks_exact_mut(LANE_GROUP);
    for (ce, cb) in (&mut ge).zip(&mut gb) {
        for i in 0..LANE_GROUP {
            ce[i] += e;
            cb[i] += e;
        }
    }
    for (en, bl) in ge.into_remainder().iter_mut().zip(gb.into_remainder()) {
        *en += e;
        *bl += e;
    }
}

impl TraceReplayer {
    /// Owned heap footprint of the per-pc replay tables (info, prefix
    /// sums, class tables) — charged alongside the trace they replay.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.table.heap_bytes()
            + self.access_prefix.capacity() * size_of::<u32>()
            + self.run_end.capacity() * size_of::<u32>()
            + self.lat_prefix.capacity() * size_of::<u64>()
            + self.access_pc.capacity() * size_of::<u32>()
            + self.access_is_load.capacity()
            + self.class_count_prefix.capacity() * size_of::<[u64; 8]>()
            + self.class_cycle_prefix.capacity() * size_of::<[u64; 8]>()
            + self.switch_prefix.capacity() * size_of::<u64>()
            + self.intra_energy.capacity() * size_of::<Energy>()
    }

    /// The decoded program the tables were built from.
    pub fn table(&self) -> &Arc<DecodeTable> {
        &self.table
    }

    /// Builds the replay tables for one compiled program.
    pub fn new(prog: &MachProgram, app: &Application, energy: &EnergyTable) -> Self {
        Self::from_table(Arc::new(DecodeTable::new(prog, app, energy)))
    }

    /// Builds the replay tables on an already decoded program — the
    /// one a [`Simulator`](crate::simulator::Simulator) captured the
    /// trace with ([`Simulator::decode_table`](crate::simulator::Simulator::decode_table)).
    pub fn from_table(table: Arc<DecodeTable>) -> Self {
        let info = &table.info;
        let mut access_prefix = Vec::with_capacity(info.len() + 1);
        let mut lat_prefix = Vec::with_capacity(info.len() + 1);
        let mut access_pc = Vec::new();
        let mut access_is_load = Vec::new();
        let mut running = 0u32;
        let mut latency_sum = 0u64;
        access_prefix.push(running);
        lat_prefix.push(latency_sum);
        for (pc, entry) in info.iter().enumerate() {
            match entry.access {
                AccessKind::None => {}
                AccessKind::Load | AccessKind::Store => {
                    running += 1;
                    access_pc.push(pc as u32);
                    access_is_load.push(matches!(entry.access, AccessKind::Load));
                }
            }
            latency_sum += entry.latency;
            access_prefix.push(running);
            lat_prefix.push(latency_sum);
        }
        let mut run_end = vec![0u32; info.len()];
        let mut end = info.len();
        for pc in (0..info.len()).rev() {
            if pc + 1 < info.len() && info[pc + 1].block != info[pc].block {
                end = pc + 1;
            }
            run_end[pc] = end as u32;
        }
        let inter_inst_overhead = table.inter_inst_overhead;
        let mut class_count_prefix = Vec::with_capacity(info.len() + 1);
        let mut class_cycle_prefix = Vec::with_capacity(info.len() + 1);
        let mut switch_prefix = Vec::with_capacity(info.len() + 1);
        let mut intra_energy = Vec::with_capacity(info.len());
        let mut counts = [0u64; 8];
        let mut class_latency = [0u64; 8];
        let mut switches = 0u64;
        class_count_prefix.push(counts);
        class_cycle_prefix.push(class_latency);
        switch_prefix.push(switches);
        for (pc, entry) in info.iter().enumerate() {
            counts[entry.class_index] += 1;
            class_latency[entry.class_index] += entry.latency;
            let mut e = entry.base_energy;
            if pc > 0 && info[pc - 1].class != entry.class {
                switches += 1;
                e += inter_inst_overhead;
            }
            intra_energy.push(e);
            class_count_prefix.push(counts);
            class_cycle_prefix.push(class_latency);
            switch_prefix.push(switches);
        }
        TraceReplayer {
            access_prefix,
            run_end,
            lat_prefix,
            access_pc,
            access_is_load,
            class_count_prefix,
            class_cycle_prefix,
            switch_prefix,
            intra_energy,
            table,
        }
    }

    /// Replays a captured trace for K candidate configurations in one
    /// walk of the event stream, streaming each lane's µP-side
    /// references into its own sink — the bit-exact equivalent of K
    /// `Simulator::run(config, sink)` calls for the captured execution.
    /// A single candidate is simply a batch of one.
    ///
    /// Every lane performs **exactly** the accounting operations the
    /// direct run performs for its configuration, in the same order —
    /// per-candidate accounting is independent state, so interleaving
    /// the lanes changes nothing about any lane's `f64` sequence and
    /// every returned [`RunStats`] is bit-identical to direct
    /// simulation. What the lanes *share* is the walk: the stretch
    /// loop, bounds checks and address records are paid once instead
    /// of K times.
    ///
    /// Each maximal same-block run inside a stretch is classified per
    /// lane (hardware / bulk-fetched software / exact software); when
    /// *every* lane is live, software and bulk-qualified — the dominant
    /// case — the per-instruction accounting collapses to lane-vector
    /// updates: per-class counts and cycles become eight bulk adds from
    /// the prefix tables, and the two `f64` accumulators advance
    /// elementwise per instruction in fixed-width SIMD groups, each
    /// lane in its own sequential add order. Mixed runs fall back to
    /// the per-lane scalar body.
    ///
    /// # Errors
    ///
    /// Trace-level failures — a malformed stretch
    /// ([`SimError::BadPc`]), a missing data-address record
    /// ([`SimError::BadAccess`]), or the conservation checks
    /// ([`SimError::TraceCorrupt`]) — poison every candidate alike and
    /// fail the whole batch with the top-level `Err`; no partial
    /// results escape. Per-candidate failures
    /// ([`SimError::CycleLimit`], exactly when the direct run would
    /// hit it) are returned in that candidate's inner slot while the
    /// other lanes continue.
    ///
    /// # Panics
    ///
    /// When `configs` and `sinks` have different lengths.
    pub fn replay_batch<S: MemSink>(
        &self,
        trace: &ReferenceTrace,
        configs: &[SimConfig],
        sinks: &mut [S],
    ) -> Result<Vec<Result<RunStats, SimError>>, SimError> {
        assert_eq!(
            configs.len(),
            sinks.len(),
            "one sink per batched configuration"
        );
        let n = configs.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut lanes = Lanes::new(self.table.n_blocks, configs);
        // Shared walk cursors and the previous-block memo of the
        // block-entry accounting. The memo is lane-independent — every
        // live lane walks every run — so one scalar replaces K copies.
        let mut walked_insts = 0u64;
        let mut addr_index = 0usize;
        let mut prev_block: Option<BlockId> = None;

        for (&start, &len) in trace.starts.iter().zip(&trace.lens) {
            let lo = start as usize;
            let hi = lo
                .checked_add(len as usize)
                .filter(|&hi| hi <= self.table.info.len())
                .ok_or(SimError::BadPc { pc: start })?;
            walked_insts += u64::from(len);
            let stretch_a_lo = self.access_prefix[lo] as usize;

            // The stretch, segmented into maximal same-block runs: the
            // block flag, block indices and entry accounting are
            // per-run, not per-instruction. Only the *first* pc of a
            // run can trigger block-entry accounting — every later pc
            // sees `prev_block == block` — so hoisting the check is
            // exact.
            let mut pos = lo;
            while pos < hi {
                let rend = (self.run_end[pos] as usize).min(hi);
                let first = &self.table.info[pos];
                let bi = first.block_index;
                // Address records of this run in the address column:
                // position-determined, identical for every lane.
                let run_a_lo = self.access_prefix[pos] as usize;
                let run_base = addr_index + (run_a_lo - stretch_a_lo);
                let run_latency = self.lat_prefix[rend] - self.lat_prefix[pos];
                let run_len = (rend - pos) as u32;

                // Classification pass, in lane order: block-entry
                // accounting (whose condition is lane-independent, the
                // shared `prev_block` memo) plus each lane's path
                // choice. `ifetch_run_hits` both asks and — on accept —
                // applies the bulk fetch, so it is called exactly where
                // the per-lane walk would call it.
                let entering = prev_block != Some(first.block) && first.is_block_start;
                let mut all_bulk = true;
                for l in 0..n {
                    if lanes.dead[l].is_some() {
                        lanes.choice[l] = RunChoice::Dead;
                        all_bulk = false;
                        continue;
                    }
                    let is_hw = lanes.is_hw[bi * n + l];
                    if entering {
                        lanes.block_counts[bi * n + l] += 1;
                        if is_hw && !lanes.prev_was_hw[l] {
                            lanes.hw_entries[bi * n + l] += 1;
                        }
                    }
                    lanes.prev_was_hw[l] = is_hw;
                    if is_hw {
                        lanes.choice[l] = RunChoice::Hw;
                        all_bulk = false;
                        continue;
                    }
                    let config = &configs[l];
                    let bulk = (config.max_cycles == 0
                        || lanes.cycles[l] + run_latency <= config.max_cycles)
                        && sinks[l].ifetch_run_hits(first.inst_addr, run_len);
                    lanes.choice[l] = if bulk {
                        RunChoice::Bulk
                    } else {
                        all_bulk = false;
                        RunChoice::Exact
                    };
                }
                prev_block = Some(first.block);

                if all_bulk {
                    self.run_vectorized(trace, &mut lanes, sinks, pos, rend, run_base)?;
                } else {
                    self.run_scalar(trace, configs, &mut lanes, sinks, pos, rend, run_base)?;
                }
                pos = rend;
            }

            // All lanes consume the same address records per stretch —
            // the count is position-determined, not candidate-dependent
            // — so the shared cursor advances by the prefix difference.
            addr_index += (self.access_prefix[hi] - self.access_prefix[lo]) as usize;

            if lanes.live == 0 {
                // Every candidate died on its own: like the direct
                // run's early return, nothing further is walked.
                break;
            }
        }

        // Conservation checks: a well-formed trace walks exactly the
        // number of instructions and data accesses it recorded, and
        // leaves no trailing data-address records. A truncated or
        // damaged capture that survives the walk this far must not
        // yield partial statistics (element-level corruption with intact
        // counts is the job of [`ReferenceTrace::validate`]). Skipped
        // only when every lane already died — the walk stopped early.
        if lanes.live > 0
            && (walked_insts != trace.events
                || addr_index as u64 != trace.data_events
                || addr_index != trace.addrs.len())
        {
            return Err(SimError::TraceCorrupt {
                detail: format!(
                    "walked {walked_insts} of {} recorded instructions and {addr_index} of {} recorded data accesses",
                    trace.events, trace.data_events
                ),
            });
        }
        Ok(self.fold(trace, lanes))
    }

    /// The all-lanes-bulk vector path of one software run: every lane
    /// is live, software-mapped and had its i-fetches accepted in bulk,
    /// so every lane-independent delta is applied to the whole lane
    /// vector at once. Only the *first* instruction's energy and class
    /// switch depend on lane history; instructions `pos+1..rend` add
    /// the precomputed `intra_energy` elementwise — per lane, the same
    /// `f64` operands in the same order as the direct run.
    #[allow(clippy::too_many_arguments)]
    fn run_vectorized<S: MemSink>(
        &self,
        trace: &ReferenceTrace,
        lanes: &mut Lanes,
        sinks: &mut [S],
        pos: usize,
        rend: usize,
        run_base: usize,
    ) -> Result<(), SimError> {
        let n = lanes.n;
        let first = &self.table.info[pos];
        let bi = first.block_index;
        let run_latency = self.lat_prefix[rend] - self.lat_prefix[pos];
        let run_len = (rend - pos) as u64;

        lanes_add_u64(&mut lanes.cycles, run_latency);
        lanes_add_u64(&mut lanes.sw_ifetches, run_len);
        lanes_add_u64(&mut lanes.block_cycles[bi * n..bi * n + n], run_latency);

        // Per-class counts and cycles of the run, from the prefix
        // tables: lane-independent, eight bulk adds instead of
        // `run_len` scalar updates per lane.
        let cnt_lo = &self.class_count_prefix[pos];
        let cnt_hi = &self.class_count_prefix[rend];
        let cyc_lo = &self.class_cycle_prefix[pos];
        let cyc_hi = &self.class_cycle_prefix[rend];
        for c in 0..8 {
            let count = cnt_hi[c] - cnt_lo[c];
            if count == 0 {
                continue;
            }
            let cyc = cyc_hi[c] - cyc_lo[c];
            lanes_add_u64(&mut lanes.inst_counts[c * n..c * n + n], count);
            lanes_add_u64(&mut lanes.class_cycles[c * n..c * n + n], cyc);
            lanes_add_u64(&mut lanes.block_class_cycles[(bi * 8 + c) * n..][..n], cyc);
        }
        let intra_switches = self.switch_prefix[rend] - self.switch_prefix[pos + 1];
        if intra_switches > 0 {
            lanes_add_u64(&mut lanes.class_switches, intra_switches);
        }

        // First instruction: the only lane-dependent energy/switch.
        for l in 0..n {
            let mut e = first.base_energy;
            if let Some(p) = lanes.prev_class[l] {
                if p != first.class {
                    e += self.table.inter_inst_overhead;
                    lanes.class_switches[l] += 1;
                }
            }
            lanes.energy[l] += e;
            lanes.block_energy[bi * n + l] += e;
        }
        // Instructions 1..: lane-independent energies, elementwise per
        // event across the lane vector.
        {
            let energy = lanes.energy.as_mut_slice();
            let block_row = &mut lanes.block_energy[bi * n..bi * n + n];
            for p in pos + 1..rend {
                lanes_add_energy(energy, block_row, self.intra_energy[p]);
            }
        }
        lanes.prev_class.fill(Some(self.table.info[rend - 1].class));

        // Data accesses: each lane sees the run's records in order, so
        // the per-lane sink sequence (bulk i-fetches, then reads and
        // writes in record order) matches the direct run's.
        let mut loads = 0u64;
        let run_a_lo = self.access_prefix[pos] as usize;
        let run_a_hi = self.access_prefix[rend] as usize;
        for (ai, ordinal) in (run_base..).zip(run_a_lo..run_a_hi) {
            let Some(&addr) = trace.addrs.get(ai) else {
                // A missing address record is trace damage: it poisons
                // the whole batch.
                return Err(SimError::BadAccess {
                    addr: 0,
                    pc: self.access_pc[ordinal],
                });
            };
            if self.access_is_load[ordinal] {
                loads += 1;
                for sink in sinks.iter_mut() {
                    sink.read(addr);
                }
            } else {
                for sink in sinks.iter_mut() {
                    sink.write(addr);
                }
            }
        }
        if run_a_hi > run_a_lo {
            lanes_add_u64(&mut lanes.sw_reads, loads);
            lanes_add_u64(&mut lanes.sw_writes, (run_a_hi - run_a_lo) as u64 - loads);
        }
        Ok(())
    }

    /// The mixed-run fallback: each lane executes its classified path
    /// (hardware / bulk / exact) scalar, in lane order — byte for byte
    /// the per-lane bodies of the pre-SoA batched walk.
    #[allow(clippy::too_many_arguments)]
    fn run_scalar<S: MemSink>(
        &self,
        trace: &ReferenceTrace,
        configs: &[SimConfig],
        lanes: &mut Lanes,
        sinks: &mut [S],
        pos: usize,
        rend: usize,
        run_base: usize,
    ) -> Result<(), SimError> {
        let n = lanes.n;
        let bi = self.table.info[pos].block_index;
        let run_a_lo = self.access_prefix[pos] as usize;
        let run_a_hi = self.access_prefix[rend] as usize;
        let run_latency = self.lat_prefix[rend] - self.lat_prefix[pos];
        let run_len = (rend - pos) as u64;

        for l in 0..n {
            match lanes.choice[l] {
                RunChoice::Dead => {}
                RunChoice::Hw => {
                    // Hardware run: no µP cycles, energy or sink
                    // traffic — only the circuit-state reset and the
                    // shared-memory access counters, walked by access
                    // ordinal instead of by instruction.
                    lanes.prev_class[l] = None;
                    for (ai, ordinal) in (run_base..).zip(run_a_lo..run_a_hi) {
                        let Some(&addr) = trace.addrs.get(ai) else {
                            return Err(SimError::BadAccess {
                                addr: 0,
                                pc: self.access_pc[ordinal],
                            });
                        };
                        if addr < SLOT_BASE {
                            if self.access_is_load[ordinal] {
                                lanes.hw_loads[l] += 1;
                            } else {
                                lanes.hw_stores[l] += 1;
                            }
                        }
                    }
                }
                RunChoice::Bulk => {
                    // The accepted probe already delivered the
                    // i-fetches; the accounting runs scalar for this
                    // lane only.
                    lanes.sw_ifetches[l] += run_len;
                    let mut cycles = lanes.cycles[l];
                    let mut energy = lanes.energy[l];
                    let mut prev_class = lanes.prev_class[l];
                    let mut block_energy = lanes.block_energy[bi * n + l];
                    for info in &self.table.info[pos..rend] {
                        cycles += info.latency;
                        let mut e = info.base_energy;
                        if let Some(p) = prev_class {
                            if p != info.class {
                                e += self.table.inter_inst_overhead;
                                lanes.class_switches[l] += 1;
                            }
                        }
                        prev_class = Some(info.class);
                        energy += e;
                        block_energy += e;
                        lanes.inst_counts[info.class_index * n + l] += 1;
                        lanes.class_cycles[info.class_index * n + l] += info.latency;
                        lanes.block_class_cycles[(bi * 8 + info.class_index) * n + l] +=
                            info.latency;
                    }
                    lanes.cycles[l] = cycles;
                    lanes.energy[l] = energy;
                    lanes.prev_class[l] = prev_class;
                    lanes.block_energy[bi * n + l] = block_energy;
                    lanes.block_cycles[bi * n + l] += run_latency;
                    for (ai, ordinal) in (run_base..).zip(run_a_lo..run_a_hi) {
                        let Some(&addr) = trace.addrs.get(ai) else {
                            return Err(SimError::BadAccess {
                                addr: 0,
                                pc: self.access_pc[ordinal],
                            });
                        };
                        if self.access_is_load[ordinal] {
                            lanes.sw_reads[l] += 1;
                            sinks[l].read(addr);
                        } else {
                            lanes.sw_writes[l] += 1;
                            sinks[l].write(addr);
                        }
                    }
                }
                RunChoice::Exact => {
                    // Exact per-instruction body: cycle-limit death at
                    // the precise pc, interleaved sink calls. A lane
                    // that dies keeps its partial row updates — they
                    // are discarded with the lane's error at the fold,
                    // as in the direct run's early return.
                    let config = &configs[l];
                    let mut ai = run_base;
                    let mut cycles = lanes.cycles[l];
                    let mut prev_class = lanes.prev_class[l];
                    let mut died = false;
                    for (off, info) in self.table.info[pos..rend].iter().enumerate() {
                        cycles += info.latency;
                        if config.max_cycles > 0 && cycles > config.max_cycles {
                            lanes.dead[l] = Some(SimError::CycleLimit {
                                limit: config.max_cycles,
                            });
                            lanes.live -= 1;
                            died = true;
                            break;
                        }
                        let mut e = info.base_energy;
                        if let Some(p) = prev_class {
                            if p != info.class {
                                e += self.table.inter_inst_overhead;
                                lanes.class_switches[l] += 1;
                            }
                        }
                        prev_class = Some(info.class);
                        lanes.energy[l] += e;
                        lanes.block_cycles[bi * n + l] += info.latency;
                        lanes.block_energy[bi * n + l] += e;
                        lanes.inst_counts[info.class_index * n + l] += 1;
                        lanes.class_cycles[info.class_index * n + l] += info.latency;
                        lanes.block_class_cycles[(bi * 8 + info.class_index) * n + l] +=
                            info.latency;
                        lanes.sw_ifetches[l] += 1;
                        sinks[l].ifetch(info.inst_addr);
                        match info.access {
                            AccessKind::None => {}
                            AccessKind::Load => {
                                let Some(&addr) = trace.addrs.get(ai) else {
                                    return Err(SimError::BadAccess {
                                        addr: 0,
                                        pc: (pos + off) as u32,
                                    });
                                };
                                ai += 1;
                                lanes.sw_reads[l] += 1;
                                sinks[l].read(addr);
                            }
                            AccessKind::Store => {
                                let Some(&addr) = trace.addrs.get(ai) else {
                                    return Err(SimError::BadAccess {
                                        addr: 0,
                                        pc: (pos + off) as u32,
                                    });
                                };
                                ai += 1;
                                lanes.sw_writes[l] += 1;
                                sinks[l].write(addr);
                            }
                        }
                    }
                    if !died {
                        lanes.cycles[l] = cycles;
                        lanes.prev_class[l] = prev_class;
                    }
                }
            }
        }
        Ok(())
    }

    /// Folds the structure-of-arrays lane state of a finished walk
    /// into per-candidate [`RunStats`].
    fn fold(&self, trace: &ReferenceTrace, mut lanes: Lanes) -> Vec<Result<RunStats, SimError>> {
        let n = lanes.n;
        let mut out = Vec::with_capacity(n);
        for l in 0..n {
            if let Some(err) = lanes.dead[l].take() {
                out.push(Err(err));
                continue;
            }
            let mut stats = RunStats::zeroed(self.table.n_blocks);
            stats.cycles = Cycles::new(lanes.cycles[l]);
            stats.energy = lanes.energy[l];
            stats.class_switches = lanes.class_switches[l];
            stats.sw_ifetches = lanes.sw_ifetches[l];
            stats.sw_reads = lanes.sw_reads[l];
            stats.sw_writes = lanes.sw_writes[l];
            stats.hw_loads = lanes.hw_loads[l];
            stats.hw_stores = lanes.hw_stores[l];
            for (index, &class) in InstClass::ALL.iter().enumerate() {
                *stats.inst_counts.get_mut(&class).expect("class") =
                    lanes.inst_counts[index * n + l];
                *stats.class_cycles.get_mut(&class).expect("class") =
                    lanes.class_cycles[index * n + l];
            }
            for b in 0..self.table.n_blocks {
                stats.block_counts[b] = lanes.block_counts[b * n + l];
                stats.block_cycles[b] = lanes.block_cycles[b * n + l];
                stats.block_energy[b] = lanes.block_energy[b * n + l];
                for c in 0..8 {
                    stats.block_class_cycles[b][c] = lanes.block_class_cycles[(b * 8 + c) * n + l];
                }
                let entries = lanes.hw_entries[b * n + l];
                if entries > 0 {
                    stats.hw_block_entries.insert(BlockId(b as u32), entries);
                }
            }
            stats.return_value = trace.return_value;
            out.push(Ok(stats));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile;
    use crate::simulator::{NullSink, Simulator};
    use corepart_ir::lower::lower;
    use corepart_ir::parser::parse;
    use std::collections::HashSet;

    fn setup(src: &str) -> (Application, MachProgram) {
        let app = lower(&parse(src).unwrap()).unwrap();
        let prog = compile(&app);
        (app, prog)
    }

    const TWO_LOOPS: &str = r#"app t; var a[32]; var acc = 0;
        func main() {
            for (var i = 0; i < 32; i = i + 1) { a[i] = a[i] * 3 + 1; }
            for (var j = 0; j < 32; j = j + 1) { acc = acc + a[j]; }
            return acc;
        }"#;

    fn capture(
        app: &Application,
        prog: &MachProgram,
        input: Option<(&str, &[i64])>,
    ) -> (RunStats, ReferenceTrace) {
        let mut sim = Simulator::new(prog, app);
        if let Some((name, data)) = input {
            sim.set_array(name, data).unwrap();
        }
        let mut builder = TraceBuilder::new(usize::MAX);
        let stats = sim
            .run(&SimConfig::initial(10_000_000), &mut builder)
            .unwrap();
        let trace = builder.finish(stats.return_value).expect("under cap");
        (stats, trace)
    }

    /// Direct simulation of `config` on `input` — the reference every
    /// replay must match bit for bit.
    fn direct<S: MemSink>(
        app: &Application,
        prog: &MachProgram,
        input: Option<(&str, &[i64])>,
        config: &SimConfig,
        sink: &mut S,
    ) -> Result<RunStats, SimError> {
        let mut sim = Simulator::new(prog, app);
        if let Some((name, data)) = input {
            sim.set_array(name, data).unwrap();
        }
        sim.run(config, sink)
    }

    /// A one-lane batch: the replay of a single configuration.
    fn replay_one<S: MemSink>(
        replayer: &TraceReplayer,
        trace: &ReferenceTrace,
        config: &SimConfig,
        sink: S,
    ) -> (Result<RunStats, SimError>, S) {
        let mut sinks = [sink];
        let mut lanes = replayer
            .replay_batch(trace, std::slice::from_ref(config), &mut sinks)
            .expect("intact trace");
        let [sink] = sinks;
        (lanes.pop().expect("one lane"), sink)
    }

    #[derive(Default, PartialEq, Debug, Clone)]
    struct Log(Vec<(u8, u32)>);

    impl MemSink for Log {
        fn ifetch(&mut self, a: u32) {
            self.0.push((0, a));
        }
        fn read(&mut self, a: u32) {
            self.0.push((1, a));
        }
        fn write(&mut self, a: u32) {
            self.0.push((2, a));
        }
    }

    /// Feeds one reference stream to two sinks.
    struct Tee<'a, A, B>(&'a mut A, &'a mut B);

    impl<A: MemSink, B: MemSink> MemSink for Tee<'_, A, B> {
        fn ifetch(&mut self, a: u32) {
            self.0.ifetch(a);
            self.1.ifetch(a);
        }
        fn read(&mut self, a: u32) {
            self.0.read(a);
            self.1.read(a);
        }
        fn write(&mut self, a: u32) {
            self.0.write(a);
            self.1.write(a);
        }
    }

    #[test]
    fn replay_matches_direct_initial_run() {
        let input: Vec<i64> = (0..32).map(|i| i % 5).collect();
        let (app, prog) = setup(TWO_LOOPS);
        let (direct, trace) = capture(&app, &prog, Some(("a", &input)));

        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        let (replayed, _) =
            replay_one(&replayer, &trace, &SimConfig::initial(10_000_000), NullSink);
        assert_eq!(direct, replayed.unwrap());
    }

    #[test]
    fn replay_matches_direct_partitioned_run() {
        let input: Vec<i64> = (0..32).map(|i| (i * 13) % 9 - 4).collect();
        let (app, prog) = setup(TWO_LOOPS);
        let (_, trace) = capture(&app, &prog, Some(("a", &input)));
        let first_loop = app.structure().iter().find(|n| n.is_loop()).expect("loop");
        let hw: HashSet<BlockId> = first_loop.blocks().iter().copied().collect();
        let config = SimConfig::partitioned(10_000_000, hw);

        let direct = direct(&app, &prog, Some(("a", &input)), &config, &mut NullSink).unwrap();
        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        let (replayed, _) = replay_one(&replayer, &trace, &config, NullSink);
        let replayed = replayed.unwrap();
        assert_eq!(direct, replayed);
        assert!(replayed.hw_loads > 0);
    }

    #[test]
    fn replay_reproduces_the_sink_stream() {
        let (app, prog) = setup(TWO_LOOPS);
        let mut sim = Simulator::new(&prog, &app);
        let mut builder = TraceBuilder::new(usize::MAX);
        let mut direct_log = Log::default();
        let stats = sim
            .run(
                &SimConfig::initial(10_000_000),
                &mut Tee(&mut direct_log, &mut builder),
            )
            .unwrap();
        let trace = builder.finish(stats.return_value).unwrap();

        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        let (_, replay_log) = replay_one(
            &replayer,
            &trace,
            &SimConfig::initial(10_000_000),
            Log::default(),
        );
        assert_eq!(direct_log, replay_log);
    }

    #[test]
    fn replay_enforces_the_cycle_limit() {
        let (app, prog) = setup(TWO_LOOPS);
        let (full, trace) = capture(&app, &prog, None);
        assert!(full.cycles.count() > 100);
        let config = SimConfig::initial(100);
        let direct = direct(&app, &prog, None, &config, &mut NullSink).unwrap_err();
        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        let (replayed, _) = replay_one(&replayer, &trace, &config, NullSink);
        let err = replayed.unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 100 }));
        assert_eq!(direct, err);
    }

    #[test]
    fn batched_replay_matches_sequential_lanes() {
        let input: Vec<i64> = (0..32).map(|i| (i * 7) % 11 - 3).collect();
        let (app, prog) = setup(TWO_LOOPS);
        let (_, trace) = capture(&app, &prog, Some(("a", &input)));
        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        assert!(trace.starts.len() > 1);

        // Lanes: all-software, each structural loop alone, everything.
        let loops: Vec<HashSet<BlockId>> = app
            .structure()
            .iter()
            .filter(|n| n.is_loop())
            .map(|n| n.blocks().iter().copied().collect())
            .collect();
        assert!(loops.len() >= 2, "TWO_LOOPS has two loops");
        let mut sets = vec![HashSet::new()];
        sets.extend(loops.iter().cloned());
        sets.push(loops.iter().flatten().copied().collect());

        let configs: Vec<SimConfig> = sets
            .iter()
            .map(|hw| SimConfig::partitioned(10_000_000, hw.clone()))
            .collect();
        let mut sinks: Vec<NullSink> = configs.iter().map(|_| NullSink).collect();
        let batch = replayer.replay_batch(&trace, &configs, &mut sinks).unwrap();
        assert_eq!(batch.len(), configs.len());
        for (config, lane) in configs.iter().zip(&batch) {
            let alone = direct(&app, &prog, Some(("a", &input)), config, &mut NullSink).unwrap();
            assert_eq!(lane.as_ref().unwrap(), &alone);
        }
    }

    #[test]
    fn batched_replay_reproduces_per_lane_sink_streams() {
        let (app, prog) = setup(TWO_LOOPS);
        let (_, trace) = capture(&app, &prog, None);
        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        let first_loop = app.structure().iter().find(|n| n.is_loop()).expect("loop");
        let hw: HashSet<BlockId> = first_loop.blocks().iter().copied().collect();
        let configs = [
            SimConfig::initial(10_000_000),
            SimConfig::partitioned(10_000_000, hw),
        ];
        let mut batch_logs = vec![Log::default(); configs.len()];
        replayer
            .replay_batch(&trace, &configs, &mut batch_logs)
            .unwrap();
        for (config, log) in configs.iter().zip(&batch_logs) {
            let mut direct_log = Log::default();
            direct(&app, &prog, None, config, &mut direct_log).unwrap();
            assert_eq!(log, &direct_log);
        }
    }

    #[test]
    fn batched_replay_isolates_a_cycle_limited_lane() {
        let (app, prog) = setup(TWO_LOOPS);
        let (full, trace) = capture(&app, &prog, None);
        assert!(full.cycles.count() > 100);
        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        let configs = [SimConfig::initial(100), SimConfig::initial(10_000_000)];
        let mut sinks = [NullSink, NullSink];
        let batch = replayer.replay_batch(&trace, &configs, &mut sinks).unwrap();
        assert!(matches!(batch[0], Err(SimError::CycleLimit { limit: 100 })));
        let surviving = direct(&app, &prog, None, &configs[1], &mut NullSink).unwrap();
        assert_eq!(batch[1].as_ref().unwrap(), &surviving);

        // All lanes limited: like the direct run's early return, the
        // batch reports the per-lane errors, not a trace-level one.
        let all_limited = [SimConfig::initial(100), SimConfig::initial(101)];
        let mut sinks = [NullSink, NullSink];
        let batch = replayer
            .replay_batch(&trace, &all_limited, &mut sinks)
            .unwrap();
        assert!(batch
            .iter()
            .all(|lane| matches!(lane, Err(SimError::CycleLimit { .. }))));
    }

    #[test]
    fn lane_vector_helpers_match_scalar_reference() {
        // The SIMD-group helpers must be bit-identical to the scalar
        // per-lane adds for every lane count around the group width —
        // the codegen smoke for the chunked form `run_vectorized`
        // leans on.
        for n in [1, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
            let mut counts = vec![0u64; n];
            lanes_add_u64(&mut counts, 7);
            lanes_add_u64(&mut counts, 3);
            assert!(counts.iter().all(|&c| c == 10), "n = {n}");

            let es: Vec<f64> = (0..50).map(|i| 1.0 / (i as f64 + 3.0)).collect();
            let mut energy = vec![Energy::ZERO; n];
            let mut block = vec![Energy::ZERO; n];
            for &e in &es {
                lanes_add_energy(&mut energy, &mut block, Energy::from_joules(e));
            }
            let mut reference = Energy::ZERO;
            for &e in &es {
                reference += Energy::from_joules(e);
            }
            for l in 0..n {
                assert_eq!(energy[l], reference, "n = {n}, lane {l}");
                assert_eq!(block[l], reference, "n = {n}, lane {l}");
            }
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (app, prog) = setup(TWO_LOOPS);
        let (_, trace) = capture(&app, &prog, None);
        let replayer = TraceReplayer::new(&prog, &app, &EnergyTable::default());
        let mut sinks: Vec<NullSink> = Vec::new();
        assert!(replayer
            .replay_batch(&trace, &[], &mut sinks)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cap_overflow_discards_the_capture() {
        let (app, prog) = setup(TWO_LOOPS);
        let mut sim = Simulator::new(&prog, &app);
        let mut builder = TraceBuilder::new(64);
        let stats = sim
            .run(&SimConfig::initial(10_000_000), &mut builder)
            .unwrap();
        assert!(builder.overflowed());
        assert!(builder.finish(stats.return_value).is_none());
        // The run itself is unaffected by the overflow.
        let fresh = Simulator::new(&prog, &app)
            .run(&SimConfig::initial(10_000_000), &mut NullSink)
            .unwrap();
        assert_eq!(stats, fresh);
    }

    #[test]
    fn zero_cap_disables_capture() {
        let builder = TraceBuilder::new(0);
        assert!(builder.overflowed());
        assert!(builder.finish(0).is_none());
    }

    #[test]
    fn fingerprint_distinguishes_workloads() {
        let (app, prog) = setup(TWO_LOOPS);
        let a: Vec<i64> = (0..32).collect();
        let b: Vec<i64> = (0..32).map(|i| i * 2).collect();
        let (_, ta) = capture(&app, &prog, Some(("a", &a)));
        let (_, tb) = capture(&app, &prog, Some(("a", &b)));
        let (_, ta2) = capture(&app, &prog, Some(("a", &a)));
        // Same execution -> same fingerprint; different data -> the
        // address/pc streams diverge and so does the hash.
        assert_eq!(ta.fingerprint(), ta2.fingerprint());
        assert_ne!(ta.fingerprint(), tb.fingerprint());
        assert!(ta.heap_bytes() > std::mem::size_of::<ReferenceTrace>());
        assert!(ta.events() > 0);
        assert!(ta.data_events() > 0);
    }

    /// Column names in hash order, for failure messages.
    const COLUMNS: [&str; 3] = ["start", "length", "address"];

    /// Column `c` of `trace` in hash order (starts, lengths, addresses).
    fn column_mut(trace: &mut ReferenceTrace, c: usize) -> &mut Vec<u32> {
        match c {
            0 => &mut trace.starts,
            1 => &mut trace.lens,
            _ => &mut trace.addrs,
        }
    }

    /// Flips every bit of byte `index` of `column`, counting each
    /// element as four little-endian bytes.
    fn flip(column: &mut [u32], index: usize) {
        column[index / 4] ^= 0xff << (8 * (index % 4));
    }

    /// A stamped trace over synthetic columns of the given lengths.
    /// Every fourth element is zero, so some cuts remove only zeros and
    /// leave the zero-padded tail block unchanged: only the hashed
    /// length tells them apart.
    fn synthetic(lens: [usize; 3]) -> ReferenceTrace {
        let column = |c: usize| -> Vec<u32> {
            (0..lens[c] as u32)
                .map(|i| match i % 4 {
                    3 => 0,
                    _ => i.wrapping_mul(0x9e37_79b9) ^ (0x5a5a + c as u32),
                })
                .collect()
        };
        let mut trace = ReferenceTrace {
            starts: column(0),
            lens: column(1),
            addrs: column(2),
            events: 11,
            data_events: 7,
            return_value: 42,
            fingerprint: 0,
        };
        trace.fingerprint = trace.hash();
        trace
    }

    #[test]
    fn fingerprint_changes_under_every_single_byte_flip_and_truncation() {
        // Column lengths around the two-element word and the
        // eight-element (four-word) block, odd tails and empty columns
        // included; every byte of every column is flipped in turn and
        // every truncation tried.
        let layouts: [[usize; 3]; 9] = [
            [1, 1, 0],
            [2, 3, 7],
            [7, 8, 9],
            [8, 0, 15],
            [9, 16, 17],
            [15, 17, 1],
            [16, 31, 32],
            [17, 33, 0],
            [0, 40, 65],
        ];
        for layout in layouts {
            let trace = synthetic(layout);
            assert!(trace.validate().is_ok());
            for c in 0..3 {
                let mut damaged = trace.clone();
                for index in 0..4 * layout[c] {
                    flip(column_mut(&mut damaged, c), index);
                    assert!(
                        damaged.validate().is_err(),
                        "{layout:?} {} column byte {index}",
                        COLUMNS[c]
                    );
                    flip(column_mut(&mut damaged, c), index);
                }
                for n in 1..=layout[c] {
                    let mut cut = trace.clone();
                    column_mut(&mut cut, c).truncate(layout[c] - n);
                    assert!(
                        cut.validate().is_err(),
                        "{layout:?} {} column cut {n}",
                        COLUMNS[c]
                    );
                }
            }
        }
    }

    /// 80 000 data accesses: every column spans thousands of hash
    /// blocks.
    const BIG_LOOP: &str = "app big; var a[64]; func main() { var s = 0; for (var i = 0; i < 40000; i = i + 1) { s = s + a[i & 63]; a[(i + 1) & 63] = s; } return s; }";

    /// The capture of [`BIG_LOOP`], built once.
    fn big_trace() -> &'static ReferenceTrace {
        static TRACE: std::sync::OnceLock<ReferenceTrace> = std::sync::OnceLock::new();
        TRACE.get_or_init(|| {
            let (app, prog) = setup(BIG_LOOP);
            let (_, trace) = capture(&app, &prog, None);
            assert_eq!(trace.data_events(), 80_000);
            assert!(trace.starts.len() > 1_000, "one stretch per iteration");
            trace
        })
    }

    /// Element positions of a column of `len` elements at the edges of
    /// the hash's layout: the first, second and middle block edges, and
    /// the last nine elements (the tail block and the one before it).
    fn edge_positions(len: usize) -> Vec<usize> {
        let mid = len / 16 * 8;
        let mut positions: Vec<usize> = [0, 1, 7, 8, 15, 16, mid.saturating_sub(1), mid]
            .into_iter()
            .chain(len.saturating_sub(9)..len)
            .filter(|&i| i < len)
            .collect();
        positions.sort_unstable();
        positions.dedup();
        positions
    }

    #[test]
    fn validate_rejects_damage_at_every_segment_edge() {
        let trace = big_trace();
        assert!(trace.validate().is_ok());
        let (app, prog) = setup(BIG_LOOP);
        let (_, again) = capture(&app, &prog, None);
        assert_eq!(again.fingerprint(), trace.fingerprint());
        let mut damaged = trace.clone();
        for (c, name) in COLUMNS.iter().enumerate() {
            let len = column_mut(&mut damaged, c).len();
            for element in edge_positions(len) {
                for byte in 0..4 {
                    flip(column_mut(&mut damaged, c), 4 * element + byte);
                    assert!(
                        damaged.validate().is_err(),
                        "flip of byte {byte} of {name} element {element} passed"
                    );
                    flip(column_mut(&mut damaged, c), 4 * element + byte);
                }
            }
            let mut cut = trace.clone();
            column_mut(&mut cut, c).pop();
            assert!(cut.validate().is_err(), "{name} column cut 1");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// Any single flipped byte, and any truncation, of any column
        /// of a capture fails validation.
        #[test]
        fn validate_rejects_any_flip_or_truncation(
            c in 0usize..3,
            position in 0.0f64..1.0,
        ) {
            let trace = big_trace();
            let mut flipped = trace.clone();
            let mut cut = trace.clone();
            let bytes = 4 * column_mut(&mut flipped, c).len();
            let index = ((bytes as f64 * position) as usize).min(bytes - 1);
            flip(column_mut(&mut flipped, c), index);
            column_mut(&mut cut, c).truncate(index / 4);
            proptest::prop_assert!(flipped.validate().is_err(), "flip at {}", index);
            proptest::prop_assert!(cut.validate().is_err(), "cut to {}", index / 4);
        }
    }

    #[test]
    fn trace_is_compact() {
        let (app, prog) = setup(TWO_LOOPS);
        let (_, trace) = capture(&app, &prog, None);
        // Shrunk at finish: eight bytes per stretch, four per data
        // access, plus the struct.
        let bound = 8 * trace.starts.len()
            + 4 * trace.data_events() as usize
            + std::mem::size_of::<ReferenceTrace>();
        assert!(
            trace.heap_bytes() <= bound,
            "{} heap bytes, bound {bound}",
            trace.heap_bytes()
        );
        assert_eq!(
            trace.events(),
            trace.lens.iter().map(|&l| u64::from(l)).sum::<u64>()
        );
    }
}
