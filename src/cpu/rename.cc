#include "cpu/rename.hh"

#include "base/logging.hh"

namespace svw {

PhysRegFile::PhysRegFile(unsigned n)
    : vals(n, 0), ready(n, 0), refs(n, 0), gens(n, 0)
{
}


RenameState::RenameState(unsigned numPhysRegs)
    : file(numPhysRegs)
{
    svw_assert(numPhysRegs > numArchRegs + 8,
               "too few physical registers: ", numPhysRegs);
    // Registers [0, numArchRegs) start as the architectural state;
    // they carry one reference held by the map table.
    for (RegIndex a = 0; a < numArchRegs; ++a) {
        mapTable[a] = a;
        file.addRef(a);
        file.setReadyAt(a, 0);
    }
    for (unsigned p = numPhysRegs; p-- > numArchRegs;)
        freeList.push_back(static_cast<PhysRegIndex>(p));
}

} // namespace svw
