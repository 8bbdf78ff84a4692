/**
 * @file
 * TileLink channel message definitions, including the paper's extensions.
 *
 * Standard TL-C (§2.2): Acquire/Grant/GrantAck, Release/ReleaseAck,
 * Probe/ProbeAck(Data).
 *
 * Paper extensions (§5.1, §6):
 *  - RootRelease{Flush,Clean}[Data] on channel C — a CBO.X travelling to
 *    the root of the hierarchy. In hardware these are encoded as ProbeAck
 *    with new FLUSH/CLEAN params to avoid widening the opcode bitvector;
 *    here they are distinct enumerators carrying a CboKind param.
 *  - RootReleaseAck on channel D — encoded in hardware as ReleaseAck with
 *    param ROOT.
 *  - GrantDataDirty on channel D — identical to GrantData except it tells
 *    the acquiring cache that the line is dirty in L2 and therefore NOT
 *    persisted; the receiver must leave the skip bit unset.
 */

#ifndef SKIPIT_TILELINK_MESSAGES_HH
#define SKIPIT_TILELINK_MESSAGES_HH

#include <array>
#include <cstdint>
#include <cstring>

#include "coherence/state.hh"
#include "sim/types.hh"

namespace skipit {

/** Payload of one full cache line. */
using LineData = std::array<std::uint8_t, line_bytes>;

/** The little-endian word of @p line holding @p addr, read at its 8-byte
 *  alignment so that it never leaves the line. */
inline std::uint64_t
lineWord(const LineData &line, Addr addr)
{
    std::uint64_t v = 0;
    std::memcpy(&v, line.data() + lineOffset(addr & ~Addr{7}), sizeof(v));
    return v;
}

/** lineWord() of a line image (line address -> LineData, such as a crash
 *  image); absent lines read as zero, like the zero-filled backing store. */
template <typename Image>
std::uint64_t
imageWord(const Image &image, Addr addr)
{
    const auto it = image.find(lineAlign(addr));
    return it == image.end() ? 0 : lineWord(it->second, addr);
}

/**
 * FNV-1a fingerprint of a line's bytes. Used as the machine-readable
 * payload of persist.* / dram.write probe events so the durability oracle
 * can compare line contents across the hierarchy without copying 64-byte
 * payloads into every event.
 */
inline std::uint64_t
lineFingerprint(const LineData &data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : data) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Which CBO instruction a RootRelease carries (§5.1 params FLUSH/CLEAN;
 *  INVAL is this repo's extension for the CMO spec's cbo.inval). */
enum class CboKind { Flush, Clean, Inval };

/** Channel A (client -> manager): permission acquisition. */
struct AMsg
{
    Addr addr = 0;           //!< line-aligned address
    Grow param = Grow::NtoB; //!< requested permission growth
    AgentId source = invalid_agent;
    TxnId txn = 0;           //!< observability transaction id
};

/** Channel B (manager -> client): coherence probes. */
struct BMsg
{
    Addr addr = 0;
    Cap param = Cap::toN; //!< permission cap to apply
    TxnId txn = 0;        //!< observability transaction id
};

/** Channel C opcodes (client -> manager). */
enum class COp
{
    ProbeAck,         //!< probe response, no data
    ProbeAckData,     //!< probe response carrying dirty data
    Release,          //!< voluntary downgrade, no data
    ReleaseData,      //!< voluntary downgrade carrying dirty data
    RootRelease,      //!< CBO.X writeback request, no data (paper §5.1)
    RootReleaseData,  //!< CBO.X writeback request with dirty data
};

/** Channel C (client -> manager). */
struct CMsg
{
    COp op = COp::ProbeAck;
    Addr addr = 0;
    Shrink param = Shrink::NtoN; //!< shrink/report (ProbeAck / Release)
    CboKind cbo = CboKind::Flush; //!< valid only for RootRelease*
    LineData data{};              //!< valid only for *Data ops
    AgentId source = invalid_agent;
    TxnId txn = 0;                //!< observability transaction id

    bool
    hasData() const
    {
        return op == COp::ProbeAckData || op == COp::ReleaseData ||
               op == COp::RootReleaseData;
    }

    bool
    isRootRelease() const
    {
        return op == COp::RootRelease || op == COp::RootReleaseData;
    }
};

/** Channel D opcodes (manager -> client). */
enum class DOp
{
    Grant,          //!< permissions only (unused by BOOM L1, kept for L2)
    GrantData,      //!< permissions + data; line persisted below (skip=1)
    GrantDataDirty, //!< permissions + data; line dirty in L2 (skip=0, §6)
    ReleaseAck,     //!< acknowledges a voluntary Release
    RootReleaseAck, //!< acknowledges a RootRelease (paper: ReleaseAck+ROOT)
};

/** Channel D (manager -> client). */
struct DMsg
{
    DOp op = DOp::Grant;
    Addr addr = 0;
    Cap cap = Cap::toB;  //!< permissions granted (Grant*)
    LineData data{};     //!< valid only for GrantData / GrantDataDirty
    AgentId dest = invalid_agent;
    TxnId txn = 0;       //!< observability transaction id

    bool
    hasData() const
    {
        return op == DOp::GrantData || op == DOp::GrantDataDirty;
    }

    bool
    isGrant() const
    {
        return op == DOp::Grant || hasData();
    }
};

/** Channel E (client -> manager): transaction completion. */
struct EMsg
{
    Addr addr = 0;
    AgentId source = invalid_agent;
    TxnId txn = 0;  //!< observability transaction id
};

} // namespace skipit

#endif // SKIPIT_TILELINK_MESSAGES_HH
