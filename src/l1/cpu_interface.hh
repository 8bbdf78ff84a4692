/**
 * @file
 * The request/response interface between the LSU and the L1 data cache.
 *
 * Loads, stores and CBO.X instructions all arrive over this interface;
 * CBO.X arrive as STQ requests (§5.1), which is what gives them their
 * program-order firing semantics. The cache may respond with a nack, in
 * which case the LSU retries later (§3.3).
 */

#ifndef SKIPIT_L1_CPU_INTERFACE_HH
#define SKIPIT_L1_CPU_INTERFACE_HH

#include <cstdint>

#include "sim/types.hh"

namespace skipit {

/** Kinds of memory-system requests the LSU can fire into the data cache. */
enum class CpuOpKind
{
    Load,     //!< LDQ request
    Store,    //!< STQ request
    CboClean, //!< STQ request: non-invalidating writeback (§2.5)
    CboFlush, //!< STQ request: invalidating writeback (§2.5)
    CboInval, //!< STQ request: invalidate without writeback (CMO spec)
    CboZero,  //!< STQ request: zero the whole block (CMO spec)
};

/** True for requests that travel through the STQ. */
constexpr bool
isStq(CpuOpKind k)
{
    return k != CpuOpKind::Load;
}

/** True for the writeback/invalidate CMOs handled by the flush unit. */
constexpr bool
isCbo(CpuOpKind k)
{
    return k == CpuOpKind::CboClean || k == CpuOpKind::CboFlush ||
           k == CpuOpKind::CboInval;
}

/** Mnemonic for trace / probe event rendering. */
constexpr const char *
cpuOpName(CpuOpKind k)
{
    switch (k) {
      case CpuOpKind::Load:
        return "load";
      case CpuOpKind::Store:
        return "store";
      case CpuOpKind::CboClean:
        return "cbo.clean";
      case CpuOpKind::CboFlush:
        return "cbo.flush";
      case CpuOpKind::CboInval:
        return "cbo.inval";
      case CpuOpKind::CboZero:
        return "cbo.zero";
    }
    return "?";
}

/** A request fired from the LSU into the data cache. */
struct CpuReq
{
    CpuOpKind kind = CpuOpKind::Load;
    Addr addr = 0;
    unsigned size = 8;        //!< access size in bytes (loads/stores)
    std::uint64_t data = 0;   //!< store payload
    std::uint64_t id = 0;     //!< LSU tag echoed in the response
    TxnId txn = 0;            //!< observability transaction id
    /** TileLink source id of the issuing core; invalid_agent from
     *  callers that do not stamp one. The data cache asserts that a
     *  stamped request arrived at the cache owning that source id. */
    AgentId source = invalid_agent;
};

/** The data cache's reply. */
struct CpuResp
{
    std::uint64_t id = 0;
    bool nack = false;        //!< retry later (§3.3)
    std::uint64_t data = 0;   //!< load result
};

} // namespace skipit

#endif // SKIPIT_L1_CPU_INTERFACE_HH
