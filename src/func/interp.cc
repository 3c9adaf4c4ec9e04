#include "func/interp.hh"

#include "base/logging.hh"

namespace svw {

Interp::Interp(const Program &p)
    : prog(p), _pc(p.entry())
{
    mem.loadProgram(p);
    regs.fill(0);
    regs[regSp] = p.stackTop();
}

bool
Interp::step()
{
    if (_halted)
        return false;

    svw_assert(_pc < prog.textSize(), "pc out of range ", _pc);
    const StaticInst &si = prog.inst(_pc);
    ++cnt.insts;

    const std::uint64_t a = regs[si.rs1];
    const std::uint64_t b = regs[si.rs2];
    std::uint64_t next_pc = _pc + 1;

    switch (si.cls()) {
      case InstClass::Nop:
        break;
      case InstClass::Halt:
        _halted = true;
        return false;
      case InstClass::IntAlu:
      case InstClass::IntMul:
        setReg(si.rd, evalAlu(si, a, b, _pc));
        break;
      case InstClass::Load: {
        ++cnt.loads;
        const Addr ea = effectiveAddr(si, a);
        setReg(si.rd, mem.read(ea, si.memSize()));
        break;
      }
      case InstClass::Store: {
        ++cnt.stores;
        const Addr ea = effectiveAddr(si, a);
        const unsigned size = si.memSize();
        if (mem.read(ea, size) == (size == 8 ? b
                : (b & ((1ull << (size * 8)) - 1))))
            ++cnt.silentStores;
        mem.write(ea, size, b);
        break;
      }
      case InstClass::Branch: {
        ++cnt.branches;
        if (evalBranchTaken(si, a, b)) {
            ++cnt.takenBranches;
            next_pc = static_cast<std::uint64_t>(si.imm);
        }
        break;
      }
      case InstClass::Jump:
        if (si.isCall())
            setReg(si.rd, _pc + 1);
        next_pc = static_cast<std::uint64_t>(si.imm);
        break;
      case InstClass::JumpReg:
        next_pc = a;
        break;
    }

    _pc = next_pc;
    return true;
}

bool
Interp::run(std::uint64_t maxInsts)
{
    for (std::uint64_t i = 0; i < maxInsts; ++i) {
        if (!step())
            return true;
    }
    return _halted;
}

ArchState
Interp::archState() const
{
    ArchState s;
    s.regs = regs;
    s.pc = _pc;
    return s;
}

} // namespace svw
