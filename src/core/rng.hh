/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator draws from an explicit,
 * seeded Rng so that whole experiments are bit-reproducible. Rng
 * supports fork(), deriving an independent child stream, so modules
 * can be given private streams without coupling their consumption.
 *
 * ## Counter-based per-item streams
 *
 * Stochastic layers (Gaussian/quantization noise, the sensor
 * sampling model, dropout) do not draw from one sequential engine
 * across a batch. Instead each forward pass derives one independent
 * stream per batch item from a (seed, pass, item) counter triple:
 *
 *     stream(seed, pass, item) =
 *         Rng(splitmix64(seed ^ splitmix64(pass * kPassSalt + item)))
 *
 * where `seed` is the layer's private base seed, `pass` counts the
 * layer's noisy forward passes, and `item` is the batch index. The
 * scheme makes the realized noise
 *
 *  - independent of thread count and scheduling: item i's draws come
 *    from its own engine regardless of which worker runs it;
 *  - independent of batch partitioning order within a pass: draws for
 *    item i never consume state that item j produced;
 *  - fresh across passes: the pass counter advances per forward, so
 *    repeated evaluations of the same batch see new noise, exactly
 *    like the old sequential-engine behaviour.
 *
 * streamRng() below implements the derivation.
 *
 * ## Keyed draws
 *
 * The functional column array needs a handful of draws per output
 * element (one Gaussian per conv window, a few per comparator or SAR
 * conversion), millions per frame. For those, KeyedRng is a
 * SplitMix64 stream seeded from an (array key, layer ordinal,
 * element) triple:
 *
 *     seed(key, layer, element) =
 *         splitmix64(keyedLayer(key, layer) ^ element)
 *     keyedLayer(key, layer) =
 *         splitmix64(key ^ splitmix64(layer + kLayerSalt))
 *
 * For a fixed (key, layer) the map element -> seed is a bijection,
 * so no two elements of a layer share a stream. An element's draws
 * depend on nothing but its triple: not on which physical column
 * serves it, nor on the order elements are visited. Normals come
 * from a ziggurat (detail::Ziggurat), which settles most draws with
 * one raw word, one compare and one multiply.
 */

#ifndef REDEYE_CORE_RNG_HH
#define REDEYE_CORE_RNG_HH

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace redeye {

/**
 * Seeded pseudo-random stream. Thin wrapper over std::mt19937_64 with
 * the distributions the simulator needs.
 */
class Rng
{
  public:
    /** Construct with an explicit seed (default fixed for tests). */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

    /** Derive an independent child stream from this one. */
    Rng
    fork()
    {
        return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    uniformInt(std::int64_t lo, std::int64_t hi)
    {
        return std::uniform_int_distribution<std::int64_t>(lo,
                                                           hi)(engine_);
    }

    /**
     * Gaussian with the given mean and standard deviation
     * (stddev >= 0; 0 returns @p mean). Scales a standard normal, as
     * std::normal_distribution(mean, stddev) does internally, so the
     * draws and the engine's consumption are the same for stddev > 0.
     */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>()(engine_) * stddev +
               mean;
    }

    /** Poisson sample with the given mean (mean >= 0). */
    std::int64_t
    poisson(double mean)
    {
        if (mean <= 0.0)
            return 0;
        return std::poisson_distribution<std::int64_t>(mean)(engine_);
    }

    /** Bernoulli trial with success probability p. */
    bool
    bernoulli(double p)
    {
        return std::bernoulli_distribution(p)(engine_);
    }

    /** Raw 64-bit draw. */
    std::uint64_t raw() { return engine_(); }

    /** Underlying engine, for use with std distributions. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/** SplitMix64's increment, the golden ratio in 64-bit fixed point. */
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/**
 * SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche,
 * used to decorrelate counter-derived seeds.
 */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += kSplitMixGamma;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Salt separating pass counters from item indices in streamRng(). */
inline constexpr std::uint64_t kPassSalt = 0x2545f4914f6cdd1dULL;

/**
 * Counter-based per-item stream: an Rng that depends only on the
 * (seed, pass, item) triple. See the file comment for the scheme and
 * its determinism guarantees.
 */
inline Rng
streamRng(std::uint64_t seed, std::uint64_t pass, std::uint64_t item)
{
    return Rng(splitmix64(seed ^ splitmix64(pass * kPassSalt + item)));
}

/** Salt separating layer ordinals from array keys in keyedLayer(). */
inline constexpr std::uint64_t kLayerSalt = 0x6a09e667f3bcc909ULL;

/**
 * Per-layer key of KeyedRng streams: mixes the layer ordinal into the
 * array key once, so per-element seeding costs one mix.
 */
constexpr std::uint64_t
keyedLayer(std::uint64_t key, std::uint64_t layer)
{
    return splitmix64(key ^ splitmix64(layer + kLayerSalt));
}

namespace detail {

/**
 * Tables of a 128-layer ziggurat for the standard normal
 * (Marsaglia & Tsang 2000, with Doornik's 2005 fix): 128 layers of
 * equal area V cover f(x) = exp(-x^2 / 2) on x >= 0, the bottom one
 * holding the tail beyond R. A draw takes the layer index from the
 * low 7 bits of one 64-bit word, the sign from bit 7 and a uniform
 * magnitude from the top 53 bits, so index, sign and magnitude never
 * share a bit (Doornik's point: Marsaglia & Tsang's original drew the
 * index from the uniform's own bits, which correlates them).
 */
struct Ziggurat {
    static constexpr unsigned kLayers = 128;
    static constexpr unsigned kLayerMask = kLayers - 1;
    static constexpr std::uint64_t kSignBit = 0x80;
    // R (the tail start) and V (each layer's area) solve
    // V = R f(R) + integral of f beyond R with the top layer closing
    // at f(0) = 1, to double precision; the often-quoted 12-digit
    // pair closes it only to about 1e-9.
    static constexpr double kR = 3.4426198558966521;
    static constexpr double kV = 9.9125630353364611e-3;

    /**
     * Right edges: x[0] = V / f(R) is the bottom layer's virtual
     * width, x[1] = R, x[128] = 0; layer i spans [0, x[i]] by
     * [f(x[i]), f(x[i+1])].
     */
    double x[kLayers + 1] = {};
    double f[kLayers + 1] = {}; ///< f(x[i]); f[0] = 0, f[128] = 1
    /**
     * A 53-bit magnitude u < inner[i] maps to u * 2^-53 * x[i] <
     * x[i+1]: inside the layer's rectangle under the curve, accepted
     * outright.
     */
    std::uint64_t inner[kLayers] = {};
    double scale[kLayers] = {}; ///< x[i] * 2^-53

    static Ziggurat build();
};

/** The tables, built on first use. */
inline const Ziggurat &
ziggurat()
{
    static const Ziggurat tables = Ziggurat::build();
    return tables;
}

} // namespace detail

/**
 * Counter-based stream for keyed draws (see the file comment): the
 * n-th raw draw is splitmix64(seed + n * golden), i.e. a SplitMix64
 * generator started at the element's seed. Offers the subset of the
 * Rng interface the analog circuit models draw through.
 */
class KeyedRng
{
  public:
    /** Stream of @p element under the per-layer key @p layer_key. */
    KeyedRng(std::uint64_t layer_key, std::uint64_t element)
        : state_(splitmix64(layer_key ^ element))
    {
    }

    /** Raw 64-bit draw. */
    std::uint64_t
    raw()
    {
        const std::uint64_t x = state_;
        state_ += kSplitMixGamma;
        return splitmix64(x);
    }

    /** Uniform double in [0, 1), 53-bit resolution. */
    double
    uniform()
    {
        return static_cast<double>(raw() >> 11) * 0x1.0p-53;
    }

    /**
     * Standard normal draw: the ziggurat of detail::Ziggurat. About
     * 97% of raw draws land in a layer's inner rectangle and settle
     * the call with one compare and one multiply; the rest go
     * through the wedge or tail test.
     */
    double
    normal()
    {
        const detail::Ziggurat &z = detail::ziggurat();
        for (;;) {
            const std::uint64_t r = raw();
            const unsigned layer = r & detail::Ziggurat::kLayerMask;
            const std::uint64_t u = r >> 11; // 53 uniform bits
            double x = 0.0;
            if (u < z.inner[layer])
                x = static_cast<double>(u) * z.scale[layer];
            else if (!edge(layer, u, x))
                continue;
            return withSign(x, r);
        }
    }

    /** Gaussian with the given mean and standard deviation. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        return mean + stddev * normal();
    }

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

  private:
    friend class KeyedLanes;

    /** The stream whose next raw draw is splitmix64(@p state). */
    static KeyedRng
    atState(std::uint64_t state)
    {
        KeyedRng rng(0, 0);
        rng.state_ = state;
        return rng;
    }

    /**
     * Magnitude @p x >= 0 signed by bit 7 of its word @p r:
     * branch-free, as the sign is a coin flip no predictor can learn.
     */
    static double
    withSign(double x, std::uint64_t r)
    {
        return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) |
                                     (r & detail::Ziggurat::kSignBit)
                                         << 56);
    }

    /**
     * The ziggurat's slow path for a draw outside layer @p layer's
     * inner rectangle: the tail beyond R for layer 0, else the wedge
     * test. Sets @p x to the magnitude and returns true on
     * acceptance; false asks for a fresh draw.
     */
    bool edge(unsigned layer, std::uint64_t u, double &x);

    std::uint64_t state_ = 0;
};

/** Output elements the lane engine settles at once. */
inline constexpr unsigned kLanes = 8;

/**
 * One value per lane, in GCC/Clang vector extensions: an AVX-512
 * build holds a vector in one register, narrower ISAs split it, and
 * the code is the same for all of them. Functions take and return
 * these by reference: a by-value 64-byte vector's calling convention
 * depends on the ISA, which gcc flags (-Wpsabi).
 */
using LaneWords = std::uint64_t
    __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));
using LaneReals =
    double __attribute__((vector_size(kLanes * sizeof(double))));
/** Per-lane truth as vector comparisons yield it: all ones or zero. */
using LaneMask = decltype(LaneReals{} < LaneReals{});

/** Each lane's own index: lane l holds l. */
inline constexpr LaneWords kLaneIndex = {0, 1, 2, 3, 4, 5, 6, 7};
static_assert(kLanes == 8, "kLaneIndex lists every lane");

/** True if any lane of @p m is set. */
inline bool
anyLane(const LaneMask &m)
{
    std::int64_t any = 0;
    for (unsigned l = 0; l < kLanes; ++l)
        any |= m[l];
    return any != 0;
}

/**
 * kLanes KeyedRng streams in lockstep: lane l is
 * KeyedRng(layer_key, element[l]), draw for draw. Every draw takes a
 * mask; lanes outside it neither draw nor advance, so each lane's
 * sequence is its own KeyedRng's whatever the other lanes do.
 */
class KeyedLanes
{
  public:
    KeyedLanes(std::uint64_t layer_key, const LaneWords &element)
        : state_(layer_key ^ element)
    {
        mix(state_);
        next_ = state_;
        mix(next_);
        after_ = state_ + kSplitMixGamma;
        mix(after_);
    }

    /**
     * KeyedRng::normal() on the lanes of @p mask, 0 on the others.
     * The ziggurat's fast path runs on all lanes at once; the few
     * lanes whose word falls outside its layer's inner rectangle
     * finish on KeyedRng's scalar wedge and tail code.
     */
    void
    normal(const LaneMask &mask, LaneReals &x)
    {
        LaneWords r;
        raw(mask, r);
        LaneMask slow;
        fast(r, x, slow);
        x = (LaneReals)((LaneWords)x & (LaneWords)mask);
        slow &= mask;
        if (anyLane(slow))
            finish(slow, r, x);
    }

    /**
     * The first normal() of @p count fresh streams:
     * @p out[e] = KeyedRng(layer_key, e).normal() for e < count. Whole
     * lane groups run the fast path without a branch on the draws;
     * the few slow draws are settled after them, one by one.
     */
    static void firstNormals(std::uint64_t layer_key, std::size_t count,
                             double *out);

    /**
     * KeyedRng::bernoulli(0.5) on the lanes of @p mask, false on the
     * others: uniform() < 0.5 is the raw word's top bit clear.
     */
    void
    coin(const LaneMask &mask, LaneMask &heads)
    {
        LaneWords r;
        raw(mask, r);
        heads = mask & (LaneMask)((r >> 63) == 0);
    }

  private:
    /** splitmix64() on every lane. */
    static void
    mix(LaneWords &x)
    {
        x += kSplitMixGamma;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        x ^= x >> 31;
    }

    /**
     * The ziggurat's fast path on every lane's raw word @p r: @p x
     * gets the draw, valid on the lanes outside @p slow, whose words
     * fail their layer's inner test.
     */
    static void
    fast(const LaneWords &r, LaneReals &x, LaneMask &slow)
    {
        using detail::Ziggurat;
        const Ziggurat &z = detail::ziggurat();
        const LaneWords u = r >> 11; // 53 uniform bits
        LaneWords inner;
        LaneReals scale;
        for (unsigned l = 0; l < kLanes; ++l) {
            const unsigned layer = r[l] & Ziggurat::kLayerMask;
            inner[l] = z.inner[layer];
            scale[l] = z.scale[layer];
        }
        const LaneReals mag = __builtin_convertvector(u, LaneReals) * scale;
        x = (LaneReals)((LaneWords)mag | (r & Ziggurat::kSignBit) << 56);
        slow = (LaneMask)(u >= inner);
    }

    /**
     * Next raw words of the lanes of @p mask; only they advance. The
     * words are mixed two draws ahead, so neither a draw's tests nor
     * the next draw wait out the mixer's multiplies: which lanes
     * advance only selects between words already mixed.
     */
    void
    raw(const LaneMask &mask, LaneWords &r)
    {
        r = next_;
        next_ = mask ? after_ : next_;
        state_ += kSplitMixGamma & (LaneWords)mask;
        after_ = state_ + kSplitMixGamma;
        mix(after_);
    }

    /**
     * Settle the lanes of @p slow, whose words @p r failed the inner
     * test, as KeyedRng::normal() does after its first word.
     */
    void finish(const LaneMask &slow, const LaneWords &r, LaneReals &x);

    LaneWords state_; ///< each lane's KeyedRng state
    LaneWords next_;  ///< splitmix64(state_): the next raw words
    LaneWords after_; ///< the raw words after those
};

} // namespace redeye

#endif // REDEYE_CORE_RNG_HH
