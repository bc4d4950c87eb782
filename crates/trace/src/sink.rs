//! Streaming instruction sinks.
//!
//! The generators in [`crate::gen`] are *prefix-stable*: the instruction
//! at index `i` is a pure function of the generator parameters, never of
//! the requested length. That makes streaming emission possible — a
//! generator can push instructions one at a time into a [`TraceSink`]
//! (the slots of a trace being built, a chunked on-disk writer, a hasher)
//! without ever materializing the whole trace, and the result is
//! bit-identical to a materialized [`crate::Trace`] of the same length.
//!
//! A sink *accepts* instructions until it is [`TraceSink::full`]; pushes
//! past that point are dropped, which is exactly the semantics of the
//! historical `Vec`-then-`truncate(n)` generation path.

use crate::instr::Instr;

/// A destination for a streamed instruction sequence.
pub trait TraceSink {
    /// Offers the next instruction. Implementations drop the push once
    /// [`TraceSink::full`] (equivalent to the old `truncate(n)`).
    fn push(&mut self, instr: Instr);

    /// Number of instructions *accepted* so far. Generators use this as
    /// the emission index (dependency distances are derived from it).
    fn len(&self) -> usize;

    /// True once the sink stops accepting instructions.
    fn full(&self) -> bool;

    /// True when nothing has been accepted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The in-place sink [`crate::Trace::build`] hands its fill: it writes
/// accepted instructions straight into the slots of the trace's shared
/// buffer, in order, and drops pushes once every slot is written.
#[derive(Debug)]
pub struct SliceSink<'a> {
    pub(crate) slots: &'a mut [Instr],
    pub(crate) len: usize,
}

impl TraceSink for SliceSink<'_> {
    #[inline]
    fn push(&mut self, instr: Instr) {
        if let Some(slot) = self.slots.get_mut(self.len) {
            *slot = instr;
            self.len += 1;
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn full(&self) -> bool {
        self.len >= self.slots.len()
    }
}

/// The reference sink the tests hold in-place generation to: collects up
/// to `target` instructions into a `Vec`.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct VecSink {
    pub(crate) instrs: Vec<Instr>,
    target: usize,
}

#[cfg(test)]
impl VecSink {
    pub(crate) fn new(target: usize) -> Self {
        VecSink {
            instrs: Vec::new(),
            target,
        }
    }
}

#[cfg(test)]
impl TraceSink for VecSink {
    fn push(&mut self, instr: Instr) {
        if self.instrs.len() < self.target {
            self.instrs.push(instr);
        }
    }

    fn len(&self) -> usize {
        self.instrs.len()
    }

    fn full(&self) -> bool {
        self.instrs.len() >= self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_drops_past_target() {
        let mut s = VecSink::new(2);
        assert!(s.is_empty());
        s.push(Instr::alu(1));
        assert!(!s.full());
        s.push(Instr::alu(2));
        assert!(s.full());
        s.push(Instr::alu(3)); // dropped
        assert_eq!(s.len(), 2);
        assert_eq!(s.instrs.len(), 2);
    }

    #[test]
    fn slice_sink_drops_past_its_slots() {
        let mut slots = [Instr::alu(0); 2];
        let mut s = SliceSink {
            slots: &mut slots,
            len: 0,
        };
        assert!(s.is_empty());
        s.push(Instr::alu(1));
        assert!(!s.full());
        s.push(Instr::alu(2));
        assert!(s.full());
        s.push(Instr::alu(3)); // dropped
        assert_eq!(s.len(), 2);
        assert_eq!(slots, [Instr::alu(1), Instr::alu(2)]);
    }
}
