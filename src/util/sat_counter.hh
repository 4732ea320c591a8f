/**
 * @file
 * Saturating counters, the basic storage element of every dynamic
 * branch predictor in this repo.
 */

#ifndef PABP_UTIL_SAT_COUNTER_HH
#define PABP_UTIL_SAT_COUNTER_HH

#include <cstdint>

#include "util/logging.hh"

namespace pabp {

/**
 * An n-bit up/down saturating counter. The counter predicts "taken"
 * when its value is in the upper half of its range (the conventional
 * MSB rule), so a 2-bit counter predicts taken for values 2 and 3.
 */
class SatCounter
{
  public:
    /**
     * @param num_bits Width in bits, 1..8.
     * @param initial Initial value; defaults to the weakly-not-taken
     *        value just below the taken threshold.
     */
    explicit SatCounter(unsigned num_bits = 2, int initial = -1)
        : bits(num_bits),
          maxValue(static_cast<std::uint8_t>((1u << num_bits) - 1)),
          value(0)
    {
        pabp_assert(num_bits >= 1 && num_bits <= 8);
        if (initial < 0)
            value = static_cast<std::uint8_t>((1u << num_bits) / 2 - 1);
        else
            value = static_cast<std::uint8_t>(initial) & maxValue;
    }

    /** Increment, saturating at the maximum. */
    void
    increment()
    {
        if (value < maxValue)
            ++value;
    }

    /** Decrement, saturating at zero. */
    void
    decrement()
    {
        if (value > 0)
            --value;
    }

    /** Train toward a branch outcome. */
    void
    update(bool taken)
    {
        taken ? increment() : decrement();
    }

    /** MSB-rule prediction: taken iff in the upper half of the range. */
    bool predictTaken() const { return value >= (maxValue + 1u) / 2; }

    /** True when the counter is pinned at either extreme. */
    bool isSaturated() const { return value == 0 || value == maxValue; }

    std::uint8_t raw() const { return value; }

    /** Overwrite the raw value; masked into range. */
    void setRaw(std::uint8_t v) { value = v & maxValue; }

    unsigned numBits() const { return bits; }

  private:
    unsigned bits;
    std::uint8_t maxValue;
    std::uint8_t value;
};

} // namespace pabp

#endif // PABP_UTIL_SAT_COUNTER_HH
