/**
 * @file
 * BPRU-style confidence estimator (§4.3 of the paper, after Aragón et
 * al., "Confidence Estimation for Branch Prediction Reversal").
 *
 * A tagged table; each entry holds a 3-bit up/down saturating counter
 * that tracks how often the branch's predictions have been wrong
 * recently. Counter values map onto the four confidence levels:
 * 0-1 → VHC, 2-3 → HC, 4-5 → LC, 6-7 → VLC. On a table miss the
 * estimator falls back to the underlying direction predictor's
 * saturating counter: a weak counter labels the branch LC, a strong
 * one HC (the paper's modification that raises SPEC at some PVN cost).
 *
 * The original BPRU derives its signal from a data-value predictor;
 * this implementation reproduces the table structure, level mapping
 * and fallback exactly, with the counter trained directly on
 * prediction correctness (the synthetic workloads carry no data
 * values). The paper measures SPEC ≈ 60% / PVN ≈ 45% with an 8 KB
 * gshare; on these workloads the default weights measure 36.9% /
 * 29.9% (the `conf` suite at its 2M measured / 200K warmup
 * instructions, runSeed 42; 43.1% / 28.1% at 500K / 150K). No update
 * rule of the `conf-scan` suite exceeds 29.4% PVN (at 300K / 200K),
 * so the gap is in how the workloads cluster mispredictions, not in
 * the weights (ROADMAP item 1).
 */

#ifndef STSIM_CONFIDENCE_BPRU_HH
#define STSIM_CONFIDENCE_BPRU_HH

#include <cstdint>

#include "common/fields.hh"
#include "common/zero_alloc.hh"
#include "confidence/estimator.hh"

namespace stsim
{

/** Tagged four-level confidence estimator in the BPRU mould. */
class BpruEstimator : public ConfidenceEstimator
{
  public:
    /** Tuning knobs; the defaults are the update rule measured above. */
    struct Params
    {
        unsigned missInc = 2;   ///< counter += on a misprediction
        unsigned correctDec = 1; ///< counter -= on a correct prediction
        unsigned allocValue = 4; ///< counter value for fresh entries
        unsigned tagBits = 10;   ///< partial tag width

        /** Fatal, naming the field, unless every field is in range. */
        void validate() const;
    };

    /**
     * @param size_bytes Hardware budget. An entry holds a partial tag
     *        plus a 3-bit counter; we charge 2 bytes per entry.
     * @param params Update-rule tuning.
     */
    BpruEstimator(std::size_t size_bytes, const Params &params);

    /** Construct with the calibrated default parameters. */
    explicit BpruEstimator(std::size_t size_bytes)
        : BpruEstimator(size_bytes, Params{})
    {
    }

    ConfLevel estimate(Addr pc, std::uint64_t hist,
                       const DirectionPredictor::Prediction &dir,
                       bool oracle_correct) override;
    void update(Addr pc, std::uint64_t hist, bool correct) override;
    std::size_t sizeBytes() const override { return sizeBytes_; }

    std::size_t numEntries() const { return table_.size(); }

    /** Map a 3-bit counter value onto a confidence level (§4.3). */
    static ConfLevel levelFromCounter(unsigned value);

    /** Fraction of estimate() calls that hit in the tagged table. */
    double hitRate() const
    {
        return lookups_ ? static_cast<double>(hits_) / lookups_ : 0.0;
    }

    void state(serde::StateIO &io) override;

    /** One table entry. All-zero bytes are its default (ZeroVector). */
    struct Entry
    {
        bool valid = false;
        std::uint32_t tag = 0;
        std::uint8_t counter = 0; // 0..7

        bool operator==(const Entry &) const = default;
    };

  private:
    std::size_t index(Addr pc, std::uint64_t hist) const;
    std::uint32_t tagOf(Addr pc) const;

    std::size_t sizeBytes_;
    unsigned indexBits_;
    Params params_;
    ZeroVector<Entry> table_;
    Counter lookups_ = 0;
    Counter hits_ = 0;
};

template <FieldsOf<BpruEstimator::Params> S, typename V>
void
visitFields(S &s, V &&v)
{
    v("missInc", s.missInc);
    v("correctDec", s.correctDec);
    v("allocValue", s.allocValue);
    v("tagBits", s.tagBits);
}

} // namespace stsim

#endif // STSIM_CONFIDENCE_BPRU_HH
