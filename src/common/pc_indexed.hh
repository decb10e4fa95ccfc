/**
 * @file
 * Dense per-instruction state indexed directly by pc. A pc is an
 * instruction index into its Program (isa/program.hh), so the "one
 * entry per static instruction" tables of the paper's infinite
 * predictors are plain vectors: no hashing on the per-record path.
 */

#ifndef VPPROF_COMMON_PC_INDEXED_HH
#define VPPROF_COMMON_PC_INDEXED_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace vpprof
{

/**
 * Largest pc (exclusive) a dense table accepts: far beyond any real
 * program. Traces are checked against Program::size() before any
 * consumer sees them (DESIGN.md §12), so reaching this bound is a
 * caller bug and panics instead of sizing a huge vector.
 */
constexpr uint64_t kMaxDensePc = uint64_t(1) << 22;

/** Value-initialized slots, one per pc, grown on demand. */
template <typename T>
class PcIndexed
{
  public:
    /** The slot for pc, or nullptr when pc was never grown into. */
    T *
    find(uint64_t pc)
    {
        return pc < slots_.size() ? &slots_[pc] : nullptr;
    }

    /** The slot for pc, growing the table to cover it. */
    T &
    at(uint64_t pc)
    {
        if (pc >= slots_.size())
            grow(pc);
        return slots_[pc];
    }

    /** Reset every slot to T{} (keeps the capacity for reuse). */
    void clear() { std::fill(slots_.begin(), slots_.end(), T{}); }

  private:
    void
    grow(uint64_t pc)
    {
        if (pc >= kMaxDensePc)
            vpprof_panic("pc ", pc, " exceeds the dense per-pc table "
                         "bound ", kMaxDensePc);
        slots_.resize(std::max<size_t>(pc + 1, slots_.size() * 2));
    }

    std::vector<T> slots_;
};

} // namespace vpprof

#endif // VPPROF_COMMON_PC_INDEXED_HH
