/**
 * @file
 * gshare predictor (McFarling, DEC WRL TN-36): a PHT of 2-bit counters
 * indexed by PC xor global history. The paper's baseline predictor at
 * 8 KB (32 Ki counters, 15 history bits).
 */

#ifndef STSIM_BPRED_GSHARE_HH
#define STSIM_BPRED_GSHARE_HH

#include <vector>

#include "bpred/direction_predictor.hh"
#include "common/sat_counter.hh"

namespace stsim
{

/** gshare: PHT[pc ^ hist] of 2-bit saturating counters. */
class Gshare : public DirectionPredictor
{
  public:
    /**
     * @param size_bytes Hardware budget; 4 two-bit counters per byte.
     *                   Must make the entry count a power of two.
     */
    explicit Gshare(std::size_t size_bytes);

    Prediction predict(Addr pc, std::uint64_t hist) override;
    void update(Addr pc, std::uint64_t hist, bool taken) override;
    std::size_t sizeBytes() const override { return sizeBytes_; }
    unsigned historyBits() const override { return histBits_; }

    /** Number of PHT entries. */
    std::size_t numEntries() const { return pht_.size(); }

    void state(serde::StateIO &io) override;

  private:
    std::size_t index(Addr pc, std::uint64_t hist) const;

    std::size_t sizeBytes_;
    unsigned histBits_;
    std::vector<SatCounter> pht_;
};

} // namespace stsim

#endif // STSIM_BPRED_GSHARE_HH
