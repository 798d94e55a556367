//! The in-order processor core.
//!
//! Executes one instruction per cycle; ALU operations complete
//! immediately, memory operations are handed to the node's coherence
//! controller as [`MemAccess`]es and block the core until completed
//! (stores usually complete in one cycle by entering the store
//! buffer). The core supports checkpoint/restore of its architectural
//! state, which SLE/TLR use for misspeculation recovery (§2.2:
//! "The processor register state is saved for recovery in the event
//! of a misspeculation").
//!
//! This is a simplification of the paper's 8-wide out-of-order core
//! (see `DESIGN.md`): all four evaluated schemes run on the identical
//! core model, preserving the relative results.

use tlr_mem::addr::Addr;
use tlr_sim::rng::SimRng;

use crate::isa::{Op, Program, Reg, NUM_REGS};

/// The kind of a memory access emitted by the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load into `dst`.
    Load {
        /// Destination register.
        dst: Reg,
    },
    /// A store of `val`.
    Store {
        /// The value to store.
        val: u64,
    },
    /// A load-linked into `dst`.
    LoadLinked {
        /// Destination register.
        dst: Reg,
    },
    /// A store-conditional of `val`; `flag` receives 1/0.
    StoreCond {
        /// The value to store on success.
        val: u64,
        /// Success flag destination.
        flag: Reg,
    },
    /// A memory fence (drain the store buffer). Carries no address.
    Fence,
}

impl AccessKind {
    /// Whether the access writes memory.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store { .. } | AccessKind::StoreCond { .. })
    }
}

/// A memory access the coherence controller must service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// What to do.
    pub kind: AccessKind,
    /// Target address (unused for `Fence`).
    pub addr: Addr,
    /// The program counter of the instruction, used by the PC-indexed
    /// predictors (SLE silent store-pair, §3.1.2 read-modify-write).
    pub pc: u32,
}

/// What the core did this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStep {
    /// Executed internal work (ALU op, delay cycle).
    Busy,
    /// Is blocked waiting for an earlier access/IO to complete.
    Waiting,
    /// Issued a memory access; the core is now blocked until the
    /// matching `complete_*` call.
    Access(MemAccess),
    /// Reached an [`Op::Io`]: the controller decides (fall back if
    /// speculating) and then calls [`Core::complete_io`].
    Io,
    /// The program has finished.
    Done,
}

/// A saved architectural state for misspeculation recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreCheckpoint {
    regs: [u64; NUM_REGS],
    pc: u32,
}

impl CoreCheckpoint {
    /// The checkpointed program counter (points at the elided
    /// store-conditional).
    pub fn pc(&self) -> u32 {
        self.pc
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    Delaying(u64),
    Blocked,
    Done,
}

/// The in-order core.
#[derive(Debug, Clone)]
pub struct Core {
    regs: [u64; NUM_REGS],
    pc: u32,
    program: std::sync::Arc<Program>,
    state: State,
    pending: Option<MemAccess>,
    /// Line address the link register monitors, if valid.
    link: Option<tlr_mem::addr::LineAddr>,
    rng: SimRng,
    /// Dynamic instructions executed (including squashed re-runs).
    pub instructions: u64,
}

impl Core {
    /// Creates a core executing `program` with the given RNG stream
    /// (for [`Op::RandDelay`]).
    pub fn new(program: std::sync::Arc<Program>, rng: SimRng) -> Self {
        Core {
            regs: [0; NUM_REGS],
            pc: 0,
            program,
            state: State::Ready,
            pending: None,
            link: None,
            rng,
            instructions: 0,
        }
    }

    /// Reads a register (tests and controllers).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (used by harnesses to pass per-thread
    /// parameters).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The program this core executes (the event engine inspects it
    /// for fast-forwardable wait loops).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Whether the program has finished.
    pub fn is_done(&self) -> bool {
        self.state == State::Done
    }

    /// Whether the core is blocked on an access.
    pub fn is_blocked(&self) -> bool {
        self.state == State::Blocked
    }

    /// Whether the core will fetch a new instruction next tick (not
    /// blocked, delaying, or done).
    pub fn is_ready(&self) -> bool {
        self.state == State::Ready
    }

    /// Applies the net effect of `instructions` already-simulated
    /// instructions ending at `pc`, without executing them. The
    /// event engine's spin fast-forward uses this to replay a stable
    /// `load; branch` wait loop arithmetically; the caller must have
    /// proven the skipped instructions change no architectural state
    /// other than the instruction count and the program counter.
    ///
    /// # Panics
    ///
    /// Panics if the core is not ready (a blocked, delaying, or done
    /// core cannot have been executing a loop).
    pub fn fast_forward(&mut self, instructions: u64, pc: u32) {
        assert!(self.is_ready(), "fast-forward on a non-ready core");
        self.instructions += instructions;
        self.pc = pc;
    }

    /// The delay cycles still to run, counting the next tick, while
    /// the core is inside an [`Op::Delay`] or [`Op::RandDelay`];
    /// `None` otherwise. The tick that brings this to zero readies the
    /// core.
    pub fn delay_left(&self) -> Option<u64> {
        match self.state {
            State::Delaying(left) => Some(left),
            _ => None,
        }
    }

    /// Applies `cycles` delay ticks without running them: each would
    /// only have counted the delay down. The event engine parks a
    /// delaying node and settles its skipped ticks through this.
    ///
    /// # Panics
    ///
    /// Panics unless the core is delaying with more than `cycles`
    /// cycles left: the tick that ends the delay readies the core and
    /// must run live.
    pub fn skip_delay(&mut self, cycles: u64) {
        match self.state {
            State::Delaying(left) if cycles < left => self.state = State::Delaying(left - cycles),
            s => panic!("skip_delay({cycles}) on a core in state {s:?}"),
        }
    }

    /// The line the link register currently monitors.
    pub fn link(&self) -> Option<tlr_mem::addr::LineAddr> {
        self.link
    }

    /// Clears the link register (the controller calls this when the
    /// monitored line is invalidated or evicted).
    pub fn clear_link(&mut self) {
        self.link = None;
    }

    /// Captures the architectural state for misspeculation recovery.
    /// Taken when an elision begins, with `pc` still pointing at the
    /// eliding store-conditional, so a restore replays the acquire.
    pub fn checkpoint(&self) -> CoreCheckpoint {
        CoreCheckpoint { regs: self.regs, pc: self.pc }
    }

    /// Restores a checkpoint: registers and pc are rolled back, any
    /// blocked access is squashed, and the link register is cleared.
    pub fn restore(&mut self, cp: &CoreCheckpoint) {
        self.regs = cp.regs;
        self.pc = cp.pc;
        self.state = State::Ready;
        self.pending = None;
        self.link = None;
    }

    /// Executes one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the program falls off its end without a
    /// [`Op::Done`], or on a store-conditional whose pending access
    /// protocol is violated — both indicate workload bugs.
    pub fn tick(&mut self) -> CoreStep {
        match self.state {
            State::Done => return CoreStep::Done,
            State::Blocked => return CoreStep::Waiting,
            State::Delaying(left) => {
                self.state = if left <= 1 { State::Ready } else { State::Delaying(left - 1) };
                return CoreStep::Busy;
            }
            State::Ready => {}
        }
        let op = self
            .program
            .op(self.pc)
            .unwrap_or_else(|| panic!("{}: pc {} past end without Done", self.program.name(), self.pc));
        self.instructions += 1;
        let pc = self.pc;
        match op {
            Op::Li(rd, v) => {
                self.regs[rd.index()] = v;
                self.advance()
            }
            Op::Mov(rd, rs) => {
                self.regs[rd.index()] = self.regs[rs.index()];
                self.advance()
            }
            Op::Add(rd, a, b) => self.alu(rd, a, b, u64::wrapping_add),
            Op::AddI(rd, a, imm) => {
                self.regs[rd.index()] = self.regs[a.index()].wrapping_add(imm as u64);
                self.advance()
            }
            Op::Sub(rd, a, b) => self.alu(rd, a, b, u64::wrapping_sub),
            Op::Mul(rd, a, b) => self.alu(rd, a, b, u64::wrapping_mul),
            Op::And(rd, a, b) => self.alu(rd, a, b, |x, y| x & y),
            Op::Or(rd, a, b) => self.alu(rd, a, b, |x, y| x | y),
            Op::Xor(rd, a, b) => self.alu(rd, a, b, |x, y| x ^ y),
            Op::ShlI(rd, a, sh) => {
                self.regs[rd.index()] = self.regs[a.index()] << sh;
                self.advance()
            }
            Op::ShrI(rd, a, sh) => {
                self.regs[rd.index()] = self.regs[a.index()] >> sh;
                self.advance()
            }
            Op::Load(rd, ra, off) => self.access(AccessKind::Load { dst: rd }, ra, off, pc),
            Op::Store(rs, ra, off) => {
                let val = self.regs[rs.index()];
                self.access(AccessKind::Store { val }, ra, off, pc)
            }
            Op::LoadLinked(rd, ra, off) => {
                self.access(AccessKind::LoadLinked { dst: rd }, ra, off, pc)
            }
            Op::StoreCond(flag, rs, ra, off) => {
                let val = self.regs[rs.index()];
                self.access(AccessKind::StoreCond { val, flag }, ra, off, pc)
            }
            Op::Beq(a, b, t) => self.branch(self.regs[a.index()] == self.regs[b.index()], t),
            Op::Bne(a, b, t) => self.branch(self.regs[a.index()] != self.regs[b.index()], t),
            Op::Blt(a, b, t) => self.branch(self.regs[a.index()] < self.regs[b.index()], t),
            Op::Bge(a, b, t) => self.branch(self.regs[a.index()] >= self.regs[b.index()], t),
            Op::Jmp(t) => {
                self.pc = t;
                CoreStep::Busy
            }
            Op::Delay(n) => {
                self.pc += 1;
                if n > 1 {
                    self.state = State::Delaying(n as u64 - 1);
                }
                CoreStep::Busy
            }
            Op::RandDelay(min, max) => {
                let n = self.rng.range(min as u64, max as u64);
                self.pc += 1;
                if n > 1 {
                    self.state = State::Delaying(n - 1);
                }
                CoreStep::Busy
            }
            Op::Io => {
                self.state = State::Blocked;
                self.pending = None;
                CoreStep::Io
            }
            Op::Fence => self.access(AccessKind::Fence, Reg(0), 0, pc),
            Op::Nop => self.advance(),
            Op::Done => {
                self.state = State::Done;
                CoreStep::Done
            }
        }
    }

    fn alu(&mut self, rd: Reg, a: Reg, b: Reg, f: impl FnOnce(u64, u64) -> u64) -> CoreStep {
        self.regs[rd.index()] = f(self.regs[a.index()], self.regs[b.index()]);
        self.advance()
    }

    fn advance(&mut self) -> CoreStep {
        self.pc += 1;
        CoreStep::Busy
    }

    fn branch(&mut self, taken: bool, target: u32) -> CoreStep {
        self.pc = if taken { target } else { self.pc + 1 };
        CoreStep::Busy
    }

    fn access(&mut self, kind: AccessKind, ra: Reg, off: i64, pc: u32) -> CoreStep {
        let addr = if matches!(kind, AccessKind::Fence) {
            Addr(0)
        } else {
            Addr(self.regs[ra.index()].wrapping_add(off as u64))
        };
        let acc = MemAccess { kind, addr, pc };
        self.pending = Some(acc);
        self.state = State::Blocked;
        CoreStep::Access(acc)
    }

    /// The access the core is blocked on, if any.
    pub fn pending(&self) -> Option<MemAccess> {
        self.pending
    }

    fn unblock(&mut self) {
        assert!(self.state == State::Blocked, "completion while not blocked");
        self.pending = None;
        self.state = State::Ready;
        self.pc += 1;
    }

    /// Completes a pending load (or load-linked) with `val`. For a
    /// load-linked, also arms the link register on the loaded line.
    ///
    /// # Panics
    ///
    /// Panics if the pending access is not a load.
    pub fn complete_load(&mut self, val: u64) {
        let acc = self.pending.expect("no pending access");
        match acc.kind {
            AccessKind::Load { dst } => self.regs[dst.index()] = val,
            AccessKind::LoadLinked { dst } => {
                self.regs[dst.index()] = val;
                self.link = Some(acc.addr.line());
            }
            other => panic!("complete_load on {other:?}"),
        }
        self.unblock();
    }

    /// Completes a pending store.
    ///
    /// # Panics
    ///
    /// Panics if the pending access is not a store.
    pub fn complete_store(&mut self) {
        let acc = self.pending.expect("no pending access");
        assert!(
            matches!(acc.kind, AccessKind::Store { .. }),
            "complete_store on {:?}",
            acc.kind
        );
        self.unblock();
    }

    /// Completes a pending store-conditional with its outcome,
    /// clearing the link register.
    ///
    /// # Panics
    ///
    /// Panics if the pending access is not a store-conditional.
    pub fn complete_sc(&mut self, success: bool) {
        let acc = self.pending.expect("no pending access");
        match acc.kind {
            AccessKind::StoreCond { flag, .. } => {
                self.regs[flag.index()] = success as u64;
                self.link = None;
            }
            other => panic!("complete_sc on {other:?}"),
        }
        self.unblock();
    }

    /// Completes a pending fence.
    ///
    /// # Panics
    ///
    /// Panics if the pending access is not a fence.
    pub fn complete_fence(&mut self) {
        let acc = self.pending.expect("no pending access");
        assert!(matches!(acc.kind, AccessKind::Fence), "complete_fence on {:?}", acc.kind);
        self.unblock();
    }

    /// Halts the core immediately (thread kill, §4 of the paper's
    /// stability discussion). Any pending access is discarded.
    pub fn halt(&mut self) {
        self.state = State::Done;
        self.pending = None;
        self.link = None;
    }

    /// Completes an [`Op::Io`] operation.
    pub fn complete_io(&mut self) {
        assert!(self.state == State::Blocked && self.pending.is_none(), "no pending io");
        self.state = State::Ready;
        self.pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use std::sync::Arc;

    fn run_alu(build: impl FnOnce(&mut Asm)) -> Core {
        let mut a = Asm::new("t");
        build(&mut a);
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        for _ in 0..10_000 {
            match core.tick() {
                CoreStep::Done => break,
                CoreStep::Busy => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(core.is_done());
        core
    }

    #[test]
    fn alu_ops_compute() {
        let c = run_alu(|a| {
            let (x, y, z) = (a.reg(), a.reg(), a.reg());
            a.li(x, 6);
            a.li(y, 7);
            a.mul(z, x, y);
            a.addi(z, z, 8);
            a.shri(z, z, 1);
        });
        assert_eq!(c.reg(Reg(2)), 25);
    }

    #[test]
    fn loop_terminates() {
        let c = run_alu(|a| {
            let (n, zero, acc) = (a.reg(), a.reg(), a.reg());
            a.li(n, 5);
            a.li(zero, 0);
            a.li(acc, 0);
            let top = a.here();
            a.addi(acc, acc, 2);
            a.addi(n, n, -1);
            a.bne(n, zero, top);
        });
        assert_eq!(c.reg(Reg(2)), 10);
    }

    #[test]
    fn delay_consumes_exact_cycles() {
        let mut a = Asm::new("t");
        a.delay(5);
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        let mut busy = 0;
        loop {
            match core.tick() {
                CoreStep::Busy => busy += 1,
                CoreStep::Done => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(busy, 5);
    }

    #[test]
    fn skip_delay_matches_ticking_through() {
        let delayed = |n| {
            let mut a = Asm::new("t");
            a.delay(n);
            a.done();
            let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
            assert_eq!(core.delay_left(), None);
            assert_eq!(core.tick(), CoreStep::Busy, "the delay op itself");
            core
        };
        let mut ticked = delayed(9);
        let mut skipped = delayed(9);
        assert_eq!(skipped.delay_left(), Some(8));
        for _ in 0..5 {
            assert_eq!(ticked.tick(), CoreStep::Busy);
        }
        skipped.skip_delay(5);
        assert_eq!(skipped.delay_left(), ticked.delay_left());
        assert_eq!(skipped.delay_left(), Some(3));
        skipped.skip_delay(2);
        assert_eq!(skipped.delay_left(), Some(1));
        assert_eq!(skipped.instructions, 1, "delay cycles retire no instructions");
        assert_eq!(skipped.tick(), CoreStep::Busy, "the last delay tick runs live");
        assert!(skipped.is_ready());
        assert_eq!(skipped.tick(), CoreStep::Done);
    }

    #[test]
    #[should_panic(expected = "skip_delay(3)")]
    fn skip_delay_refuses_the_delays_last_tick() {
        let mut a = Asm::new("t");
        a.delay(4);
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        core.tick();
        core.skip_delay(3);
    }

    #[test]
    #[should_panic(expected = "skip_delay(1)")]
    fn skip_delay_refuses_a_ready_core() {
        let mut a = Asm::new("t");
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        core.skip_delay(1);
    }

    #[test]
    fn rand_delay_within_bounds() {
        for seed in 0..20 {
            let mut a = Asm::new("t");
            a.rand_delay(3, 6);
            a.done();
            let mut core = Core::new(Arc::new(a.finish()), SimRng::new(seed));
            let mut busy = 0;
            loop {
                match core.tick() {
                    CoreStep::Busy => busy += 1,
                    CoreStep::Done => break,
                    other => panic!("{other:?}"),
                }
            }
            assert!((3..=6).contains(&busy), "delay {busy} outside [3,6]");
        }
    }

    #[test]
    fn load_blocks_until_completed() {
        let mut a = Asm::new("t");
        let (rd, ra) = (a.reg(), a.reg());
        a.li(ra, 128);
        a.load(rd, ra, 8);
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        assert_eq!(core.tick(), CoreStep::Busy);
        let step = core.tick();
        let CoreStep::Access(acc) = step else { panic!("{step:?}") };
        assert_eq!(acc.addr, Addr(136));
        assert!(matches!(acc.kind, AccessKind::Load { dst } if dst == Reg(0)));
        assert_eq!(core.tick(), CoreStep::Waiting);
        assert!(core.is_blocked());
        core.complete_load(99);
        assert_eq!(core.reg(Reg(0)), 99);
        assert_eq!(core.tick(), CoreStep::Done);
    }

    #[test]
    fn ll_sets_link_and_sc_reports_flag() {
        let mut a = Asm::new("t");
        let (rd, ra, flag, val) = (a.reg(), a.reg(), a.reg(), a.reg());
        a.li(ra, 192);
        a.li(val, 1);
        a.ll(rd, ra, 0);
        a.sc(flag, val, ra, 0);
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        core.tick();
        core.tick();
        let CoreStep::Access(_) = core.tick() else { panic!() };
        core.complete_load(0);
        assert_eq!(core.link(), Some(Addr(192).line()));
        let CoreStep::Access(acc) = core.tick() else { panic!() };
        assert!(matches!(acc.kind, AccessKind::StoreCond { val: 1, .. }));
        core.complete_sc(true);
        assert_eq!(core.reg(Reg(2)), 1);
        assert_eq!(core.link(), None, "sc clears the link");
    }

    #[test]
    fn checkpoint_restore_replays_from_sc() {
        let mut a = Asm::new("t");
        let (ra, val, flag) = (a.reg(), a.reg(), a.reg());
        a.li(ra, 64);
        a.li(val, 1);
        a.sc(flag, val, ra, 0);
        a.addi(val, val, 100);
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        core.tick();
        core.tick();
        let CoreStep::Access(acc) = core.tick() else { panic!() };
        assert_eq!(acc.pc, 2);
        let cp = core.checkpoint();
        assert_eq!(cp.pc(), 2);
        core.complete_sc(true);
        core.tick(); // the addi
        assert_eq!(core.reg(Reg(1)), 101);
        core.restore(&cp);
        assert_eq!(core.pc(), 2);
        assert_eq!(core.reg(Reg(1)), 1, "register rolled back");
        let CoreStep::Access(acc2) = core.tick() else { panic!() };
        assert_eq!(acc2.pc, 2, "re-issues the store-conditional");
    }

    #[test]
    fn io_blocks_until_completed() {
        let mut a = Asm::new("t");
        a.io();
        a.done();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        assert_eq!(core.tick(), CoreStep::Io);
        assert_eq!(core.tick(), CoreStep::Waiting);
        core.complete_io();
        assert_eq!(core.tick(), CoreStep::Done);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn missing_done_panics() {
        let mut a = Asm::new("t");
        a.nop();
        let mut core = Core::new(Arc::new(a.finish()), SimRng::new(1));
        core.tick();
        core.tick();
    }

    #[test]
    fn instruction_count_tracks_dynamic_ops() {
        let c = run_alu(|a| {
            let r = a.reg();
            a.li(r, 1);
            a.nop();
        });
        // li + nop + done
        assert_eq!(c.instructions, 3);
    }
}
