/**
 * @file
 * A generic set-associative, LRU-replaced lookup table keyed by
 * instruction address, matching the "cache table" organization of the
 * last-value and stride predictors in Figure 2.1 of the paper.
 *
 * The table is templated on its payload so the last-value predictor
 * (payload: last value), the stride predictor (payload: last value +
 * stride) and the FSM-classified variants (payload + saturating counter)
 * all share one replacement/indexing implementation.
 */

#ifndef VPPROF_COMMON_ASSOC_TABLE_HH
#define VPPROF_COMMON_ASSOC_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace vpprof
{

/**
 * Set-associative table with true-LRU replacement.
 *
 * Geometry is (numEntries / associativity) sets of `associativity` ways.
 * Keys are full instruction addresses; the set index is formed from the
 * low-order bits of the address and the tag is the full address (a
 * conservative full-tag design: no false hits, as the paper's predictors
 * assume a unique entry per instruction).
 */
template <typename Payload>
class AssocTable
{
  public:
    /**
     * @param num_entries Total entry count; must be a positive multiple
     *                    of the associativity.
     * @param associativity Ways per set; must divide num_entries.
     */
    AssocTable(size_t num_entries, size_t associativity)
        : assoc_(associativity),
          numSets_(associativity == 0 ? 0 : num_entries / associativity)
    {
        if (associativity == 0 || num_entries == 0 ||
            num_entries % associativity != 0) {
            vpprof_panic("AssocTable bad geometry: entries=", num_entries,
                         " assoc=", associativity);
        }
        ways_.assign(numSets_ * assoc_, Way{});
        if ((numSets_ & (numSets_ - 1)) == 0)
            setMask_ = numSets_ - 1;
    }

    /**
     * Look up an address. Returns a pointer to the payload on hit
     * (updating LRU state) or nullptr on miss.
     */
    Payload *
    lookup(uint64_t addr)
    {
        Way *set = setFor(addr);
        for (size_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == addr) {
                touch(set, w);
                return &set[w].payload;
            }
        }
        return nullptr;
    }

    /** Const lookup without LRU side effects. */
    const Payload *
    peek(uint64_t addr) const
    {
        const Way *set = setFor(addr);
        for (size_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == addr)
                return &set[w].payload;
        }
        return nullptr;
    }

    /**
     * Allocate an entry for an address, evicting the LRU way if the set
     * is full. Returns the payload slot (default-constructed on a fresh
     * allocation). If the address is already present, behaves as lookup.
     *
     * @param[out] evicted Set to true when a valid entry was displaced.
     */
    Payload &
    allocate(uint64_t addr, bool *evicted = nullptr)
    {
        if (evicted)
            *evicted = false;
        Way *set = setFor(addr);
        for (size_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == addr) {
                touch(set, w);
                return set[w].payload;
            }
        }
        // Miss: pick an invalid way, else the LRU way.
        size_t victim = assoc_;
        for (size_t w = 0; w < assoc_; ++w) {
            if (!set[w].valid) {
                victim = w;
                break;
            }
        }
        if (victim == assoc_) {
            victim = 0;
            for (size_t w = 1; w < assoc_; ++w) {
                if (set[w].lru < set[victim].lru)
                    victim = w;
            }
            if (evicted)
                *evicted = true;
            ++evictions_;
        }
        set[victim].valid = true;
        set[victim].tag = addr;
        set[victim].payload = Payload{};
        touch(set, victim);
        ++allocations_;
        return set[victim].payload;
    }

    /** Invalidate an address if present. */
    void
    invalidate(uint64_t addr)
    {
        Way *set = setFor(addr);
        for (size_t w = 0; w < assoc_; ++w) {
            if (set[w].valid && set[w].tag == addr) {
                set[w].valid = false;
                return;
            }
        }
    }

    /** Remove every entry and reset statistics. */
    void
    clear()
    {
        for (auto &way : ways_)
            way = Way{};
        allocations_ = 0;
        evictions_ = 0;
    }

    /** Number of currently valid entries. */
    size_t
    occupancy() const
    {
        size_t n = 0;
        for (const auto &way : ways_)
            n += way.valid ? 1 : 0;
        return n;
    }

    size_t numEntries() const { return ways_.size(); }
    size_t associativity() const { return assoc_; }
    size_t numSets() const { return numSets_; }

    /** Lifetime counts of allocations and LRU evictions. */
    uint64_t allocations() const { return allocations_; }
    uint64_t evictions() const { return evictions_; }

  private:
    struct Way
    {
        bool valid = false;
        uint64_t tag = 0;
        uint64_t lru = 0;
        Payload payload{};
    };

    Way *setFor(uint64_t addr) { return &ways_[setIndex(addr) * assoc_]; }

    const Way *
    setFor(uint64_t addr) const
    {
        return &ways_[setIndex(addr) * assoc_];
    }

    size_t
    setIndex(uint64_t addr) const
    {
        // The paper's geometries have power-of-two set counts: mask
        // instead of dividing on every probe.
        if (setMask_ != kNoMask)
            return static_cast<size_t>(addr & setMask_);
        return static_cast<size_t>(addr % numSets_);
    }

    void
    touch(Way *set, size_t w)
    {
        set[w].lru = ++lruClock_;
    }

    static constexpr uint64_t kNoMask = ~uint64_t(0);

    size_t assoc_;
    size_t numSets_;
    uint64_t setMask_ = kNoMask;  ///< numSets_ - 1 when a power of two
    std::vector<Way> ways_;
    uint64_t lruClock_ = 0;
    uint64_t allocations_ = 0;
    uint64_t evictions_ = 0;
};

} // namespace vpprof

#endif // VPPROF_COMMON_ASSOC_TABLE_HH
