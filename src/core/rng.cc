#include "core/rng.hh"

#include <cmath>
#include <cstring>
#include <limits>

namespace redeye {

namespace detail {

Ziggurat
Ziggurat::build()
{
    Ziggurat z;
    auto density = [](double v) { return std::exp(-0.5 * v * v); };
    z.f[1] = density(kR);
    z.x[0] = kV / z.f[1];
    z.f[0] = 0.0; // the bottom layer starts at y = 0
    z.x[1] = kR;
    // Equal areas: x[i] * (f(x[i+1]) - f(x[i])) = V.
    for (unsigned i = 2; i < kLayers; ++i) {
        z.x[i] = std::sqrt(-2.0 * std::log(kV / z.x[i - 1] + z.f[i - 1]));
        z.f[i] = density(z.x[i]);
    }
    z.x[kLayers] = 0.0;
    z.f[kLayers] = 1.0;
    for (unsigned i = 0; i < kLayers; ++i) {
        z.inner[i] = static_cast<std::uint64_t>(
            std::ceil(z.x[i + 1] / z.x[i] * 0x1.0p53));
        z.scale[i] = z.x[i] * 0x1.0p-53;
    }
    return z;
}

} // namespace detail

bool
KeyedRng::edge(unsigned layer, std::uint64_t u, double &x)
{
    using detail::Ziggurat;
    if (layer == 0) {
        // Marsaglia's tail algorithm: R + a with a ~ Exp(R) accepted
        // with probability exp(-a^2 / 2) samples f beyond R exactly.
        // Uniforms in (0, 1] keep the logarithms finite.
        auto positive = [this] {
            return static_cast<double>((raw() >> 11) + 1) * 0x1.0p-53;
        };
        for (;;) {
            const double a = -std::log(positive()) / Ziggurat::kR;
            const double b = -std::log(positive());
            if (b + b >= a * a) {
                x = Ziggurat::kR + a;
                return true;
            }
        }
    }
    // Wedge: (x, y) is uniform over the layer's strip outside its
    // inner rectangle; keep it when y falls under the curve.
    const detail::Ziggurat &z = detail::ziggurat();
    x = static_cast<double>(u) * z.scale[layer];
    const double y =
        z.f[layer] + uniform() * (z.f[layer + 1] - z.f[layer]);
    return y < std::exp(-0.5 * x * x);
}

void
KeyedLanes::finish(const LaneMask &slow, const LaneWords &r, LaneReals &x)
{
    for (unsigned l = 0; l < kLanes; ++l) {
        if (!slow[l])
            continue;
        // KeyedRng::normal() from its first word on: the edge test,
        // and a fresh start when it rejects.
        KeyedRng lane = KeyedRng::atState(state_[l]);
        double mag = 0.0;
        x[l] = lane.edge(r[l] & detail::Ziggurat::kLayerMask, r[l] >> 11,
                         mag)
                   ? KeyedRng::withSign(mag, r[l])
                   : lane.normal();
        state_[l] = lane.state_;
        next_[l] = splitmix64(state_[l]);
        after_[l] = splitmix64(state_[l] + kSplitMixGamma);
    }
}

void
KeyedLanes::firstNormals(std::uint64_t layer_key, std::size_t count,
                         double *out)
{
    // A slow draw is marked NaN, which no draw yields, and settled
    // after the loop, so that the loop never waits on a branch.
    const LaneReals pending =
        LaneReals{} + std::numeric_limits<double>::quiet_NaN();
    std::size_t e = 0;
    for (; e + kLanes <= count; e += kLanes) {
        LaneWords r = layer_key ^ (e + kLaneIndex);
        mix(r); // each stream's seed
        mix(r); // and its first raw word
        LaneReals x;
        LaneMask slow;
        fast(r, x, slow);
        x = slow ? pending : x;
        std::memcpy(out + e, &x, sizeof x);
    }
    for (; e < count; ++e)
        out[e] = KeyedRng(layer_key, e).normal();
    for (e = 0; e < count; ++e) {
        if (std::isnan(out[e]))
            out[e] = KeyedRng(layer_key, e).normal();
    }
}

} // namespace redeye
