/**
 * @file
 * Storage shared by the value predictors: either a finite
 * set-associative table (the hardware organization of Figure 2.1) or an
 * unbounded per-pc map (the "infinite table" configuration Section 5.1
 * uses to isolate classification quality from capacity effects).
 */

#ifndef VPPROF_PREDICTORS_PREDICTOR_TABLE_HH
#define VPPROF_PREDICTORS_PREDICTOR_TABLE_HH

#include <cstdint>
#include <memory>

#include "common/assoc_table.hh"
#include "common/pc_indexed.hh"

namespace vpprof
{

/**
 * Predictor entry storage. Constructed with num_entries == 0 the table
 * is infinite (never misses capacity); otherwise it is a set-associative
 * LRU table of the given geometry.
 */
template <typename Payload>
class PredictorTable
{
  public:
    /**
     * @param num_entries Total entries; 0 selects the infinite table.
     * @param associativity Ways per set (ignored when infinite).
     */
    PredictorTable(size_t num_entries, size_t associativity)
    {
        if (num_entries > 0)
            finite_ = std::make_unique<AssocTable<Payload>>(num_entries,
                                                            associativity);
    }

    /** A deep copy: the entries and the replacement state. */
    PredictorTable(const PredictorTable &other)
        : finite_(other.finite_
                      ? std::make_unique<AssocTable<Payload>>(*other.finite_)
                      : nullptr),
          dense_(other.dense_),
          denseOccupancy_(other.denseOccupancy_)
    {
    }

    PredictorTable(PredictorTable &&) = default;
    PredictorTable &operator=(PredictorTable &&) = default;

    /** Find an existing entry or nullptr. */
    Payload *
    lookup(uint64_t pc)
    {
        if (finite_)
            return finite_->lookup(pc);
        Slot *slot = dense_.find(pc);
        return slot && slot->valid ? &slot->payload : nullptr;
    }

    /** Find or create the entry for pc (evicting LRU when finite). */
    Payload &
    allocate(uint64_t pc)
    {
        if (finite_)
            return finite_->allocate(pc);
        Slot &slot = dense_.at(pc);
        if (!slot.valid) {
            slot.valid = true;
            ++denseOccupancy_;
        }
        return slot.payload;
    }

    void
    clear()
    {
        if (finite_)
            finite_->clear();
        dense_.clear();
        denseOccupancy_ = 0;
    }

    size_t
    occupancy() const
    {
        return finite_ ? finite_->occupancy() : denseOccupancy_;
    }

    /** LRU evictions performed (0 for infinite tables). */
    uint64_t
    evictions() const
    {
        return finite_ ? finite_->evictions() : 0;
    }

  private:
    struct Slot
    {
        bool valid = false;
        Payload payload{};
    };

    std::unique_ptr<AssocTable<Payload>> finite_;  ///< null: infinite
    PcIndexed<Slot> dense_;
    size_t denseOccupancy_ = 0;
};

} // namespace vpprof

#endif // VPPROF_PREDICTORS_PREDICTOR_TABLE_HH
