//! `--profile` attribution, shared by both substrates.
//!
//! Both report one per-opcode table: exact hit counts per original
//! [`Instr`] opcode plus sampled wall nanoseconds. The interpreter counts
//! each instruction as it executes it ([`OpcodeProfiler::step`]). The
//! threaded substrate runs the same fused body profiled or not, counts
//! hits per dispatched op ([`DispatchProfile`]), and at run end expands
//! them through each op's composition — the original opcodes a fused op
//! stands for, in micro-step order — into the same table.

use crate::code::Instr;
use crate::threaded::ThreadedCode;
use std::sync::Arc;

/// Number of distinct opcodes ([`Instr`] discriminants) — the size of the
/// profiler's fixed accumulation arrays.
pub(crate) const OPCODE_COUNT: usize = 30;

/// Stable display name for each opcode index (see [`opcode_index`]).
pub(crate) const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "ConstI",
    "ConstL",
    "ConstB",
    "ConstNull",
    "ClassObj",
    "Load",
    "Store",
    "GetField",
    "PutField",
    "GetStatic",
    "PutStatic",
    "Arith",
    "Cmp",
    "Neg",
    "Not",
    "Jump",
    "JumpIfFalse",
    "Invoke",
    "InvokeVirtual",
    "InvokeReflect",
    "New",
    "BoxInt",
    "UnboxInt",
    "MonitorEnter",
    "MonitorExit",
    "Print",
    "Pop",
    "Dup",
    "ReturnV",
    "Return",
];

/// Dense index of an instruction's opcode, for array-indexed profiling.
pub(crate) fn opcode_index(instr: &Instr) -> usize {
    match instr {
        Instr::ConstI(_) => 0,
        Instr::ConstL(_) => 1,
        Instr::ConstB(_) => 2,
        Instr::ConstNull => 3,
        Instr::ClassObj(_) => 4,
        Instr::Load(_) => 5,
        Instr::Store(_) => 6,
        Instr::GetField(_) => 7,
        Instr::PutField(_) => 8,
        Instr::GetStatic(..) => 9,
        Instr::PutStatic(..) => 10,
        Instr::Arith(_) => 11,
        Instr::Cmp(_) => 12,
        Instr::Neg => 13,
        Instr::Not => 14,
        Instr::Jump(_) => 15,
        Instr::JumpIfFalse(_) => 16,
        Instr::Invoke { .. } => 17,
        Instr::InvokeVirtual { .. } => 18,
        Instr::InvokeReflect { .. } => 19,
        Instr::New(_) => 20,
        Instr::BoxInt => 21,
        Instr::UnboxInt => 22,
        Instr::MonitorEnter => 23,
        Instr::MonitorExit => 24,
        Instr::Print => 25,
        Instr::Pop => 26,
        Instr::Dup => 27,
        Instr::ReturnV => 28,
        Instr::Return => 29,
    }
}

/// The interpreter's sampling opcode profiler, active only under
/// `mopfuzzer --profile`.
///
/// Hits are counted on every instruction (one array increment); wall time
/// is attributed by sampling — every 64th instruction reads the session
/// clock once and charges the inter-sample delta to the opcode executing
/// at the sample point. That keeps dispatch overhead at ~1/64th of a
/// clock read, and under a manual clock the deltas are all zero, so the
/// per-opcode hit counts stay bit-identical across worker counts.
pub(crate) struct OpcodeProfiler {
    hits: [u64; OPCODE_COUNT],
    nanos: [u64; OPCODE_COUNT],
    last_sample: u64,
}

const SAMPLE_MASK: u64 = 63;

impl OpcodeProfiler {
    pub(crate) fn new() -> OpcodeProfiler {
        OpcodeProfiler {
            hits: [0; OPCODE_COUNT],
            nanos: [0; OPCODE_COUNT],
            last_sample: jtelemetry::now_nanos(),
        }
    }

    #[inline]
    pub(crate) fn step(&mut self, steps: u64, opcode: usize) {
        self.hits[opcode] += 1;
        if steps & SAMPLE_MASK == 0 {
            let now = jtelemetry::now_nanos();
            self.nanos[opcode] += now.saturating_sub(self.last_sample);
            self.last_sample = now;
        }
    }

    /// Credits `hits` executions and `nanos` sampled nanoseconds to one
    /// opcode (the threaded substrate's per-dispatch expansion).
    fn add(&mut self, opcode: usize, hits: u64, nanos: u64) {
        self.hits[opcode] += hits;
        self.nanos[opcode] += nanos;
    }

    /// Reports the table to the session; returns the exact hits it
    /// reported, in report order.
    pub(crate) fn flush(&self) -> Vec<(&'static str, u64)> {
        let mut rows = Vec::new();
        for (i, &name) in OPCODE_NAMES.iter().enumerate() {
            if self.hits[i] > 0 {
                jtelemetry::profile_opcode(name, self.hits[i], self.nanos[i]);
                rows.push((name, self.hits[i]));
            }
        }
        rows
    }
}

/// The exact hit counts one profiled execution reported to the session,
/// in report order. An execution-memo hit replays them ([`Self::replay`])
/// so that a memoized run counts the same hits as a real one; it has no
/// wall time to sample, so it reports zero nanoseconds.
pub(crate) struct ProfileHits {
    /// `(kind, composition, hits)` per superinstruction report.
    pub(crate) superops: Vec<(&'static str, Vec<&'static str>, u64)>,
    /// `(opcode, hits)` per opcode report.
    pub(crate) opcodes: Vec<(&'static str, u64)>,
}

impl ProfileHits {
    /// Reports the recorded hits again, with zero sampled nanoseconds.
    pub(crate) fn replay(&self) {
        for (kind, comp, hits) in &self.superops {
            jtelemetry::profile_superop(kind, comp, *hits, 0);
        }
        for &(name, hits) in &self.opcodes {
            jtelemetry::profile_opcode(name, hits, 0);
        }
    }

    /// Approximate heap bytes held, for the memo's byte bound.
    pub(crate) fn bytes(&self) -> usize {
        let comps: usize = self.superops.iter().map(|s| 16 * s.1.len()).sum();
        40 * self.superops.len() + comps + 24 * self.opcodes.len()
    }
}

/// Per-dispatch `--profile` counters of one threaded execution.
///
/// Every dispatch adds one hit to its `(method, fused pc)` counter. When
/// the previous dispatch crossed a 64-step block since the last sample,
/// the session clock is read and the delta charged to that op, so the
/// clock is read about once per 64 steps as in the interpreter. Under a
/// manual clock every delta is zero.
pub(crate) struct DispatchProfile {
    /// First counter of each method's ops; `usize::MAX` until entered.
    base: Vec<usize>,
    hits: Vec<u64>,
    nanos: Vec<u64>,
    /// Step count at which the next clock sample is due.
    next_sample: u64,
    last_clock: u64,
    /// Counter and pre-dispatch step count of the latest dispatch: the
    /// op the run ended on.
    last: (usize, u64),
}

impl DispatchProfile {
    pub(crate) fn new(n_methods: usize) -> DispatchProfile {
        DispatchProfile {
            base: vec![usize::MAX; n_methods],
            hits: Vec::new(),
            nanos: Vec::new(),
            next_sample: SAMPLE_MASK + 1,
            last_clock: jtelemetry::now_nanos(),
            last: (usize::MAX, 0),
        }
    }

    /// The first counter of method `mid`'s `len` ops, allocated when the
    /// method is first entered.
    #[inline]
    pub(crate) fn base(&mut self, mid: usize, len: usize) -> usize {
        if self.base[mid] == usize::MAX {
            self.base[mid] = self.hits.len();
            self.hits.resize(self.hits.len() + len, 0);
            self.nanos.resize(self.nanos.len() + len, 0);
        }
        self.base[mid]
    }

    /// Records one dispatch of the op behind `counter`, made with
    /// `steps` micro-steps executed so far.
    #[inline]
    pub(crate) fn dispatch(&mut self, counter: usize, steps: u64) {
        if steps >= self.next_sample {
            self.sample(steps);
        }
        self.hits[counter] += 1;
        self.last = (counter, steps);
    }

    /// Charges the time since the last sample to the previous dispatch,
    /// whose micro-steps crossed the sample boundary.
    #[cold]
    fn sample(&mut self, steps: u64) {
        let now = jtelemetry::now_nanos();
        self.nanos[self.last.0] += now.saturating_sub(self.last_clock);
        self.last_clock = now;
        self.next_sample = (steps | SAMPLE_MASK) + 1;
    }

    /// Expands the counters into the session's per-opcode table and its
    /// per-superinstruction table. `codes` are the bodies the run
    /// executed, by method id; `steps` is the run's final step count.
    ///
    /// Each dispatch credits every opcode of its op's composition once,
    /// except the run's last dispatch: it credits only the prefix of
    /// micro-steps that actually ticked, which is all of it for a clean
    /// return and a prefix for a group cut short by fuel or an error
    /// (fused arms roll back their batched accounting before returning
    /// an error, so `steps` is exact). Sampled nanoseconds are spread
    /// evenly over the composition. Returns the exact hits reported.
    pub(crate) fn flush(&self, codes: &[Option<Arc<ThreadedCode>>], steps: u64) -> ProfileHits {
        let mut table = OpcodeProfiler::new();
        let mut superops = Vec::new();
        let (last, last_steps) = self.last;
        let ticked = steps - last_steps;
        for (code, &base) in codes.iter().zip(&self.base) {
            let Some(code) = code.as_deref().filter(|_| base != usize::MAX) else {
                continue;
            };
            for pc in 0..code.len() {
                let counter = base + pc;
                let (hits, nanos) = (self.hits[counter], self.nanos[counter]);
                let comp = code.comp(pc);
                // The pc sentinel stands for no instruction.
                if hits == 0 || comp.is_empty() {
                    continue;
                }
                let whole = hits - u64::from(counter == last);
                let n = comp.len() as u64;
                for (i, &op) in (0u64..).zip(comp) {
                    let part = u64::from(counter == last && i < ticked);
                    let share = nanos / n + u64::from(i < nanos % n);
                    table.add(op as usize, whole + part, share);
                }
                if let Some(kind) = code.superop_kind(pc) {
                    let names: Vec<&str> =
                        comp.iter().map(|&op| OPCODE_NAMES[op as usize]).collect();
                    jtelemetry::profile_superop(kind, &names, hits, nanos);
                    superops.push((kind, names, hits));
                }
            }
        }
        ProfileHits {
            superops,
            opcodes: table.flush(),
        }
    }
}
