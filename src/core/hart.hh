/**
 * @file
 * A hart: the front end that dispatches a straight-line Program into its
 * LSU, modelling the core at the fidelity the paper's evaluation needs
 * (§7: microbenchmarks are sequences of memory operations timed with
 * RDCYCLE).
 */

#ifndef SKIPIT_CORE_HART_HH
#define SKIPIT_CORE_HART_HH

#include <vector>

#include "lsu.hh"
#include "mem_op.hh"

namespace skipit {

/**
 * Executes one Program by dispatching its ops into the LSU in order,
 * honouring Delay ops by stalling dispatch.
 */
class Hart : public Ticked
{
  public:
    Hart(std::string name, Simulator &sim, Lsu &lsu,
         unsigned dispatch_width = 2);

    void tick() override;
    Cycle nextWake() const override;

    /** Replace the program and restart from its beginning. The LSU must
     *  be empty (run the previous program to completion first). */
    void setProgram(Program program);

    /** All ops dispatched and completed? */
    bool done() const;

    /** Value returned by the load at program index @p op_idx. */
    std::uint64_t loadValue(std::size_t op_idx) const;

    /** Cycle recorded by MemOp::marker(@p id) — the RDCYCLE readout.
     *  Markers wait for all older LSU operations (they read the cycle
     *  CSR after the measured section has retired). */
    Cycle markerCycle(std::uint64_t id) const;

    std::size_t pc() const { return pc_; }

  private:
    Simulator &sim_;
    Lsu &lsu_;
    unsigned dispatch_width_;

    Program program_;
    std::size_t pc_ = 0;
    Cycle stall_until_ = 0;
    /** LSU ticket of the load at each op index; 0 = not a dispatched
     *  load (tickets start at 1). */
    std::vector<std::uint64_t> load_tickets_;
    /** The program's marker ids, sorted and unique, and the cycle each
     *  last latched (unlatched until it executes). setProgram() sizes
     *  both, so a marker allocates nothing when it executes. */
    std::vector<std::uint64_t> marker_ids_;
    std::vector<Cycle> marker_cycles_;
    bool marker_waiting_ = false;
    /** The waiting marker's index in marker_ids_. */
    std::size_t pending_marker_ = 0;

    /** @p id's index in marker_ids_; marker_ids_.size() if absent. */
    std::size_t markerSlot(std::uint64_t id) const;
};

} // namespace skipit

#endif // SKIPIT_CORE_HART_HH
