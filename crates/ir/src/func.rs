//! Functions, basic blocks, linkage and profile annotations.

use crate::{BlockId, Inst, ModuleId, Reg, SlotId, Type};

/// Symbol visibility, mirroring C file-scope semantics.
///
/// The optimizer must promote `Static` symbols to unique `Public` names when
/// inlining or cloning moves references to them into another module
/// (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Visible to all modules.
    #[default]
    Public,
    /// Visible only within the defining module (C `static`).
    Static,
}

/// A basic block: straight-line instructions ending in one terminator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The instructions; the last must be a terminator in a valid function.
    pub insts: Vec<Inst>,
}

impl Block {
    /// Creates an empty block (invalid until a terminator is appended).
    pub fn new() -> Self {
        Block::default()
    }

    /// The block's terminator, if the block is non-empty and well-formed.
    pub fn terminator(&self) -> Option<&Inst> {
        self.insts.last().filter(|i| i.is_terminator())
    }

    /// Successor block ids of this block's terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        self.iter_successors().collect()
    }

    /// [`Block::successors`] without allocating.
    pub fn iter_successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.terminator()
            .into_iter()
            .flat_map(Inst::iter_successors)
    }
}

/// Per-function option flags relevant to inline/clone legality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuncFlags {
    /// User `#[noinline]` pragma: never inline this callee.
    pub noinline: bool,
    /// User `#[inline]` pragma: bonus priority when ranking sites.
    pub inline_hint: bool,
    /// Compiled with strict floating-point semantics (no reassociation).
    /// Inlining may not mix strict and relaxed bodies — the paper's
    /// "technical restriction" example.
    pub strict_fp: bool,
    /// Declared with varargs; such callees are illegal to inline or clone.
    pub varargs: bool,
}

/// Block execution frequencies attached to a function.
///
/// Frequencies originate either from a training run (profile-based
/// optimization) or from static loop-depth estimation, and are *maintained*
/// by the inline and clone transforms (spliced bodies are scaled by the call
/// site's share of the callee's entry count), so that later passes see
/// sharpened information — the reason the paper's optimizer is multi-pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FuncProfile {
    /// Executions of the function entry.
    pub entry: f64,
    /// Executions of each block, parallel to `Function::blocks`.
    pub blocks: Vec<f64>,
}

impl FuncProfile {
    /// A profile with every block at the entry count (flat).
    pub fn flat(entry: f64, num_blocks: usize) -> Self {
        FuncProfile {
            entry,
            blocks: vec![entry; num_blocks],
        }
    }

    /// Frequency of `b` relative to the entry (1.0 = as hot as entry).
    /// Returns 1.0 when the entry count is zero.
    pub fn relative(&self, b: BlockId) -> f64 {
        if self.entry <= 0.0 {
            return 1.0;
        }
        self.blocks.get(b.index()).copied().unwrap_or(0.0) / self.entry
    }
}

/// A function: a register machine over a control-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Source-level name (unique within the defining module; the optimizer
    /// appends suffixes for clones and promoted statics).
    pub name: String,
    /// The module this function belongs to.
    pub module: ModuleId,
    /// Number of parameters; registers `0..params` hold arguments on entry.
    pub params: u32,
    /// Total virtual registers used (`>= params`).
    pub num_regs: u32,
    /// Return type (`Void` for procedures).
    pub ret: Type,
    /// Frame slots: statically sized local storage, in bytes.
    pub slots: Vec<u32>,
    /// The CFG; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Visibility.
    pub linkage: Linkage,
    /// Legality-relevant flags.
    pub flags: FuncFlags,
    /// Optional block-frequency annotation.
    pub profile: Option<FuncProfile>,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: impl Into<String>, module: ModuleId, params: u32) -> Self {
        Function {
            name: name.into(),
            module,
            params,
            num_regs: params,
            ret: Type::I64,
            slots: Vec::new(),
            blocks: vec![Block::new()],
            linkage: Linkage::Public,
            flags: FuncFlags::default(),
            profile: None,
        }
    }

    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of instructions — the paper's `sizeof(R)` used by the
    /// compile-time budget (`cost = sizeof(R)^2`).
    pub fn size(&self) -> u64 {
        self.blocks.iter().map(|b| b.insts.len() as u64).sum()
    }

    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Allocates a fresh frame slot of `bytes` bytes.
    pub fn new_slot(&mut self, bytes: u32) -> SlotId {
        let s = SlotId(self.slots.len() as u32);
        self.slots.push(bytes);
        s
    }

    /// Appends a fresh empty block and returns its id.
    pub fn new_block(&mut self) -> BlockId {
        let b = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        b
    }

    /// Shared access to a block.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// Iterates `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// True if the function contains a dynamic `Alloca` — the paper's
    /// pragmatic restriction on inlining such callees.
    pub fn has_dynamic_alloca(&self) -> bool {
        self.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::Alloca { .. }))
    }

    /// True if the function body contains any floating-point operation.
    pub fn uses_float(&self) -> bool {
        self.blocks.iter().flat_map(|b| &b.insts).any(|i| match i {
            Inst::Bin { op, .. } => op.is_float(),
            Inst::Un { op, .. } => op.is_float(),
            _ => false,
        })
    }

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, b) in self.iter_blocks() {
            for s in b.iter_successors() {
                preds[s.index()].push(id);
            }
        }
        preds
    }

    /// Renumbers every register through `map` (both defs and uses). `map`
    /// must be injective over the registers actually used.
    pub fn remap_regs(&mut self, mut map: impl FnMut(Reg) -> Reg) {
        for block in &mut self.blocks {
            for inst in &mut block.insts {
                if let Some(d) = inst.dst_mut() {
                    *d = map(*d);
                }
                inst.for_each_use_mut(|op| {
                    if let Operand::Reg(r) = op {
                        *r = map(*r);
                    }
                });
            }
        }
    }

    /// Invokes `f` on a mutable reference to every [`crate::FuncId`] this
    /// body mentions (direct call targets and `FuncAddr` constants); see
    /// [`crate::Inst::for_each_func_ref_mut`].
    pub fn for_each_func_ref_mut(&mut self, mut f: impl FnMut(&mut crate::FuncId)) {
        for block in &mut self.blocks {
            for inst in &mut block.insts {
                inst.for_each_func_ref_mut(&mut f);
            }
        }
    }

    /// The relative frequency of block `b` (1.0 when no profile is
    /// attached — every block assumed as hot as entry).
    pub fn rel_freq(&self, b: BlockId) -> f64 {
        self.profile.as_ref().map(|p| p.relative(b)).unwrap_or(1.0)
    }

    /// The absolute entry count, if profiled.
    pub fn entry_count(&self) -> Option<f64> {
        self.profile.as_ref().map(|p| p.entry)
    }
}

use crate::Operand;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, ConstVal};

    fn sample() -> Function {
        let mut f = Function::new("t", ModuleId(0), 2);
        let r = f.new_reg();
        let exit = f.new_block();
        f.block_mut(BlockId(0)).insts.extend([
            Inst::Bin {
                dst: r,
                op: BinOp::Add,
                a: Operand::Reg(Reg(0)),
                b: Operand::Reg(Reg(1)),
            },
            Inst::Jump { target: exit },
        ]);
        f.block_mut(exit).insts.push(Inst::Ret {
            value: Some(Operand::Reg(r)),
        });
        f
    }

    #[test]
    fn size_counts_instructions() {
        assert_eq!(sample().size(), 3);
    }

    #[test]
    fn predecessors_follow_edges() {
        let f = sample();
        let preds = f.predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![BlockId(0)]);
    }

    #[test]
    fn remap_regs_rewrites_defs_and_uses() {
        let mut f = sample();
        f.remap_regs(|r| Reg(r.0 + 100));
        match &f.blocks[0].insts[0] {
            Inst::Bin { dst, a, b, .. } => {
                assert_eq!(*dst, Reg(102));
                assert_eq!(*a, Operand::Reg(Reg(100)));
                assert_eq!(*b, Operand::Reg(Reg(101)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn profile_relative_frequency() {
        let p = FuncProfile {
            entry: 10.0,
            blocks: vec![10.0, 2.0],
        };
        assert_eq!(p.relative(BlockId(0)), 1.0);
        assert_eq!(p.relative(BlockId(1)), 0.2);
        let zero = FuncProfile {
            entry: 0.0,
            blocks: vec![0.0],
        };
        assert_eq!(zero.relative(BlockId(0)), 1.0);
    }

    #[test]
    fn dynamic_alloca_detection() {
        let mut f = sample();
        assert!(!f.has_dynamic_alloca());
        let r = f.new_reg();
        f.block_mut(BlockId(0)).insts.insert(
            0,
            Inst::Alloca {
                dst: r,
                bytes: Operand::imm(16),
            },
        );
        assert!(f.has_dynamic_alloca());
    }

    #[test]
    fn float_detection() {
        let mut f = sample();
        assert!(!f.uses_float());
        let r = f.new_reg();
        f.block_mut(BlockId(0)).insts.insert(
            0,
            Inst::Bin {
                dst: r,
                op: BinOp::FAdd,
                a: Operand::Const(ConstVal::float(1.0)),
                b: Operand::Const(ConstVal::float(2.0)),
            },
        );
        assert!(f.uses_float());
    }
}
