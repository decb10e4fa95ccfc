/**
 * @file
 * ProfileCollector: the profiling phase of the methodology (Phase #2 of
 * Figure 3.1). It consumes a dynamic trace, emulates an infinite stride
 * predictor and an infinite last-value predictor side by side, and
 * accumulates the per-instruction statistics that form the profile
 * image: prediction accuracy and stride efficiency ratio.
 */

#ifndef VPPROF_PROFILE_PROFILE_COLLECTOR_HH
#define VPPROF_PROFILE_PROFILE_COLLECTOR_HH

#include <string>

#include "common/pc_indexed.hh"
#include "predictors/last_value_predictor.hh"
#include "predictors/stride_predictor.hh"
#include "profile/profile_image.hh"
#include "vm/trace.hh"

namespace vpprof
{

/**
 * A trace sink that builds a ProfileImage. Only value-producing
 * instructions (those writing a destination register) are observed, per
 * the paper's convention.
 */
class ProfileCollector : public TraceSink
{
  public:
    /** @param program_name Name recorded into the produced image. */
    explicit ProfileCollector(std::string program_name);

    /** Not copyable or movable: slots_ points into this image_. */
    ProfileCollector(const ProfileCollector &) = delete;
    ProfileCollector &operator=(const ProfileCollector &) = delete;

    void record(const TraceRecord &rec) override;

    /** The image accumulated so far. */
    const ProfileImage &image() const { return image_; }

    /**
     * Move the image out and reset to a pristine collector: the next
     * record starts a fresh image under the same program name, with
     * cold predictors and producersSeen() == 0. Safe to reuse for
     * another run (per-phase or per-epoch profiling).
     */
    ProfileImage takeImage();

    /** Value-producing records observed since the last takeImage(). */
    uint64_t producersSeen() const { return producersSeen_; }

  private:
    PcProfile &profileFor(uint64_t pc);

    ProfileImage image_;
    /**
     * Per-pc pointers into image_'s entries (map nodes never move), so
     * a record reaches its PcProfile without a map lookup. A null slot
     * is resolved through ProfileImage::at on first use.
     */
    PcIndexed<PcProfile *> slots_;
    StridePredictor stride_;
    LastValuePredictor lastValue_;
    uint64_t producersSeen_ = 0;
};

} // namespace vpprof

#endif // VPPROF_PROFILE_PROFILE_COLLECTOR_HH
